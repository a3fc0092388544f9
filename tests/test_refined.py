import hashlib
import math

import pytest

from corgw import refined
from corgw.arith import (
    divisors,
    factorize,
    s_delta,
    s_delta_order,
    sigma,
    sigma_bar,
    upsilon,
)
from corgw.lattice import oracle_local_invariant
from corgw.projector import ProjectorElement, point_order
from corgw.refined import (
    ConsistencyError,
    bold_sigma,
    local_invariant,
    theta_delta_d,
)
from corgw.torsion import GroupAlgebraElement, convolve, theta, unrefine


@pytest.mark.parametrize("name, at", [("upsilon", 2), ("sigma_bar", 3)])
@pytest.mark.parametrize("delta, a", [(6, 12), (12, 30)])
def test_bold_sigma_check_catches_a_wrong_form(monkeypatch, name, at, delta, a):
    # One closed form off by one at a single divisor (upsilon's d, or
    # sigma_bar's delta/d): the uncached call must notice, since both forms
    # are compared on every call.
    exact = getattr(refined, name)
    monkeypatch.setattr(
        refined, name, lambda *args: exact(*args) + (args[-2] == at)
    )
    with pytest.raises(ConsistencyError):
        bold_sigma.__wrapped__(delta, a)


def test_theta_delta_d_examples():
    for delta in (1, 2, 3, 4, 6, 12):
        assert theta_delta_d(delta, delta) == theta(delta, delta)
    assert theta_delta_d(1, 1) == GroupAlgebraElement.unit(1)
    for p, v in ((2, 2), (3, 1), (2, 3)):
        pv = p**v
        for j in range(v):
            assert theta_delta_d(pv, p**j) == theta(pv, p**j) - theta(
                pv, p ** (j + 1)
            )
    with pytest.raises(ValueError):
        theta_delta_d(4, 3)


def test_theta_delta_d_is_prime_by_prime_product():
    # The defining product over p | delta of theta_{p^v(d)} minus, below
    # the valuation of delta, theta_{p^(v(d)+1)}, built densely.
    for delta in (6, 12, 30, 36):
        for d in divisors(delta):
            want = GroupAlgebraElement.unit(delta)
            for p, v_delta in factorize(delta):
                v = dict(factorize(d)).get(p, 0)
                factor = theta(delta, p**v)
                if v < v_delta:
                    factor = factor - theta(delta, p ** (v + 1))
                want = convolve(want, factor)
            assert theta_delta_d(delta, d) == want


def test_theta_delta_d_picks_out_sigma_bar():
    # theta_delta_d(delta, m) is the idempotent of the character chi_m, and
    # chi_m(bold_sigma(delta, a)) = sigma_bar^(delta/m)(a).
    for delta in (1, 2, 3, 4, 6, 8, 9, 12, 30, 36):
        for m in divisors(delta):
            e = theta_delta_d(delta, m)
            for a in range(1, 40):
                want = sigma_bar(delta // m, a) * e
                assert e * bold_sigma(delta, a) == want


def test_theta_delta_d_partition_of_unity():
    # the differences telescope back to the full projector average
    for delta in (2, 4, 6, 12):
        total = ProjectorElement.zero(delta)
        for d in divisors(delta):
            total = total + theta_delta_d(delta, d)
        assert total == theta(delta, 1)


def test_bold_sigma_delta_one_and_two():
    for a in range(1, 201):
        assert bold_sigma(1, a) == sigma(a) * GroupAlgebraElement.unit(1)
        want = sigma_bar(2, a) * theta(2, 1) + (sigma(a) - sigma_bar(2, a)) * theta(
            2, 2
        )
        assert bold_sigma(2, a) == want


def test_bold_sigma_coprime_collapse():
    for delta in (2, 3, 4, 5, 6, 8, 12):
        for a in range(1, 40):
            if math.gcd(a, delta) == 1:
                assert bold_sigma(delta, a) == sigma(a) * theta(delta, delta)


def test_bold_sigma_mass_and_order_dependence():
    for delta in (1, 2, 3, 4, 6, 9, 12):
        for a in range(1, 30):
            x = bold_sigma(delta, a)
            assert x.total_mass == sigma(a)
            by_order = {}
            for u in range(delta):
                for v in range(delta):
                    r = point_order(delta, u, v)
                    by_order.setdefault(r, set()).add(x.coefficient(u, v))
            assert all(len(vals) == 1 for vals in by_order.values())


def test_bold_sigma_torsor_invariance():
    for delta in (2, 3, 4, 6, 12):
        for a in range(1, 25):
            x = bold_sigma(delta, a)
            assert convolve(x, theta(delta, delta // math.gcd(a, delta))) == x


def test_bold_sigma_unrefinement():
    for delta in (2, 4, 6, 12, 24):
        for dp in divisors(delta):
            for a in range(1, 40):
                assert unrefine(bold_sigma(delta, a), dp) == bold_sigma(dp, a)


def test_bold_sigma_multiplicativity():
    # joint coprimality of (delta_1, a_1) against (delta_2, a_2) is required:
    # the prime factors of each triple must stay aligned
    cases = [((2, 4), (3, 3)), ((4, 2), (3, 5)), ((2, 2), (9, 3)), ((4, 8), (9, 3))]
    for (d1, a1), (d2, a2) in cases:
        assert math.gcd(d1 * a1, d2 * a2) == 1
        lhs = convolve(
            bold_sigma(d1, a1).to_dense().rebase(d1 * d2),
            bold_sigma(d2, a2).to_dense().rebase(d1 * d2),
        )
        assert lhs == bold_sigma(d1 * d2, a1 * a2)


def test_multiplicativity_needs_joint_coprimality():
    # pairwise-coprime but prime-misaligned factors do not multiply:
    # s_6(6) = s_2(2) s_3(3), not s_2(3) s_3(2)
    assert s_delta(6, 6) == s_delta(2, 2) * s_delta(3, 3) == 72
    assert s_delta(2, 3) * s_delta(3, 2) == 12


def test_zero_coefficient_is_s_delta():
    for delta in range(1, 13):
        for a in range(1, 60):
            assert delta * delta * bold_sigma(delta, a).coefficient(0, 0) == s_delta(
                delta, a
            )


def test_coefficient_by_order():
    # Any point of order r carries delta^2 bold_sigma = s_delta_order;
    # (delta/r, 0) has order exactly r.
    for delta in (1, 2, 3, 4, 6, 12):
        for a in range(1, 40):
            for r in divisors(delta):
                x = bold_sigma(delta, a)
                assert delta * delta * x.coefficient(delta // r, 0) == (
                    s_delta_order(delta, r, a)
                )


def test_local_invariant_examples():
    for w1 in (1, 2, 3, 6):
        for delta in divisors(w1):
            for n in (2, 3):
                assert local_invariant(1, w1, n, delta) == w1 * w1 * theta(
                    delta, delta
                )
    x = local_invariant(2, 2, 2, 2)
    assert x.coefficient(0, 0) == 12
    assert x.total_mass == 24
    for a in range(1, 15):
        for n in (2, 3, 4):
            for (w1, delta) in ((4, 2), (6, 3), (5, 5)):
                got = local_invariant(a, w1, n, delta)
                assert got.total_mass == a ** (n - 1) * sigma(a) * w1 * w1
    with pytest.raises(ValueError):
        local_invariant(2, 2, 2, 3)


def test_local_invariant_shift():
    base = local_invariant(3, 4, 2, 4)
    shifted = local_invariant(3, 4, 2, 4, shift=(1, 2))
    assert shifted == base.translate(1, 2)
    assert shifted.total_mass == base.total_mass
    # The pair is read mod delta.
    assert local_invariant(3, 4, 2, 4, shift=(5, -2)) == shifted


def test_route_agreement_grid():
    # bold_sigma asserts its two independent closed forms agree on every call
    for delta in range(1, 25):
        for a in range(1, 101):
            bold_sigma(delta, a)


# A divisor argument below 1 raises ValueError: never a wrong value (theta
# as zero), never a ZeroDivisionError.
@pytest.mark.parametrize("call", [
    lambda: theta(6, -1),
    lambda: theta(6, -2),
    lambda: theta(6, 0),
    lambda: unrefine(ProjectorElement(4, {2: 1}), 0),
    lambda: theta_delta_d(4, 0),
    lambda: upsilon(4, 0, 3),
    lambda: s_delta_order(4, 0, 3),
    lambda: oracle_local_invariant(2, 2, 2, 0),
], ids=[
    "theta(6,-1)", "theta(6,-2)", "theta(6,0)", "unrefine(x,0)",
    "theta_delta_d(4,0)", "upsilon(4,0,3)", "s_delta_order(4,0,3)",
    "oracle_local_invariant(2,2,2,0)",
])
def test_non_positive_divisor_raises(call):
    with pytest.raises(ValueError):
        call()


def test_bold_sigma_output_pinned():
    # SHA-256 of the repr and JSON of bold_sigma(delta, a), delta <= 12 and
    # a <= 30, as the Fraction-valued kernel printed them.
    text = "\n".join(
        f"{bold_sigma(d, a)!r}\n{bold_sigma(d, a).to_json()}"
        for d in range(1, 13) for a in range(1, 31)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "532a16e874feebb06089f2b0f62d8ad0125fe94d896b0448c61a7107d8f965ad"
    )
