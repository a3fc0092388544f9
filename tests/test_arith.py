import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corgw.arith import (
    dedekind_psi,
    divisors,
    factorize,
    jordan2,
    s_delta,
    s_delta_order,
    s_via_lattice,
    sigma,
    sigma_bar,
    upsilon,
)


def brute_sigma(a):
    return sum(d for d in range(1, a + 1) if a % d == 0)


def brute_jordan2(d):
    # order-d elements of (Z/d)^2
    return sum(
        1
        for u in range(d)
        for v in range(d)
        if d // math.gcd(u, math.gcd(v, d)) == d
    )


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorization_invariants():
    for n in range(1, 500):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in f)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_sigma_examples():
    assert sigma(1) == 1
    assert sigma(6) == 12
    assert sigma(4) == 7
    with pytest.raises(ValueError):
        sigma(0)
    for a in range(1, 300):
        assert sigma(a) == brute_sigma(a)


def test_sigma_bar_examples():
    assert sigma_bar(2, 6) == 4
    assert sigma_bar(2, 3) == 0
    for a in range(1, 50):
        assert sigma_bar(1, a) == sigma(a)


def test_jordan2_examples():
    assert jordan2(1) == 1
    assert jordan2(2) == 3
    assert jordan2(6) == 24
    for d in range(1, 30):
        assert jordan2(d) == brute_jordan2(d)


def test_jordan2_sums_to_square():
    # orders of elements of (Z/d)^2 partition it into J2(r) classes
    for d in range(1, 40):
        assert sum(jordan2(r) for r in divisors(d)) == d * d


def brute_primitive_sublattices(n):
    # index-n sublattices of Z^2 in HNF with content 1
    count = 0
    for d1 in divisors(n):
        d2 = n // d1
        count += sum(
            1 for c in range(d1) if math.gcd(d1, math.gcd(c, d2)) == 1
        )
    return count


def test_dedekind_psi_examples():
    assert dedekind_psi(2) == 3
    assert dedekind_psi(1) == 1
    assert dedekind_psi(4) == 6
    for n in range(1, 60):
        assert dedekind_psi(n) == brute_primitive_sublattices(n)


def test_upsilon_examples():
    for a in range(1, 40):
        assert upsilon(1, 1, a) == sigma(a)
    assert upsilon(2, 2, 4) == 3
    assert upsilon(2, 1, 3) == 4
    with pytest.raises(ValueError):
        upsilon(4, 3, 5)


def test_s_delta_examples():
    assert s_delta(2, 2) == 6
    for a in range(1, 60):
        assert s_delta(1, a) == sigma(a)
    for delta in range(1, 13):
        for a in range(1, 60):
            if math.gcd(a, delta) == 1:
                assert s_delta(delta, a) == sigma(a)


def test_s_via_lattice_examples():
    assert s_via_lattice(2, 2) == 6
    for delta in range(1, 10):
        assert s_via_lattice(delta, 1) == 1
    for a in range(1, 201):
        assert s_via_lattice(1, a) == sigma(a)


def test_dirichlet_identity_grid():
    for delta in range(1, 25):
        for a in range(1, 201):
            assert s_via_lattice(delta, a) == s_delta(delta, a)


def test_primitive_lattice_sum():
    for a in range(1, 501):
        total = sum(
            dedekind_psi(a // (k * k))
            for k in range(1, math.isqrt(a) + 1)
            if a % (k * k) == 0
        )
        assert total == sigma(a)


def test_s_delta_order_examples():
    assert s_delta_order(2, 2, 2) == 2
    for a in range(1, 101):
        want = sigma(a) + 3 * sigma_bar(2, a) - 4 * sigma_bar(4, a)
        assert s_delta_order(4, 2, a) == want
    for delta in range(1, 13):
        for a in range(1, 60):
            assert s_delta_order(delta, 1, a) == s_delta(delta, a)
    with pytest.raises(ValueError):
        s_delta_order(4, 3, 5)


def test_prime_power_tables():
    # closed forms for s_p, s_p[p], s_{p^2}[p], s_{p^2}[p^2]
    for p in (2, 3):
        for a in range(1, 101):
            assert s_delta_order(p, 1, a) == sigma(a) + (p * p - 1) * sigma_bar(p, a)
            assert s_delta_order(p, p, a) == sigma(a) - sigma_bar(p, a)
            assert s_delta_order(p * p, p, a) == (
                sigma(a)
                + (p * p - 1) * sigma_bar(p, a)
                - p * p * sigma_bar(p * p, a)
            )
            assert s_delta_order(p * p, p * p, a) == sigma(a) - sigma_bar(p, a)


def test_triangular_system():
    # sum over r | dp of J2(r) s_delta[r](a) = dp^2 s_{delta/dp}(a)
    for delta in range(1, 25):
        for dp in divisors(delta):
            for a in range(1, 101):
                lhs = sum(jordan2(r) * s_delta_order(delta, r, a) for r in divisors(dp))
                assert lhs == dp * dp * s_delta(delta // dp, a)


coprime_pairs = st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(
    lambda t: math.gcd(t[0], t[1]) == 1
)


@settings(max_examples=60, deadline=None)
@given(coprime_pairs, coprime_pairs)
def test_full_multiplicativity(aa, dd):
    a1, a2 = aa
    d1, d2 = dd
    if math.gcd(d1, d2) != 1 or math.gcd(a1 * d1, a2 * d2) != 1:
        return
    for r1 in divisors(d1):
        for r2 in divisors(d2):
            assert s_delta_order(d1 * d2, r1 * r2, a1 * a2) == s_delta_order(
                d1, r1, a1
            ) * s_delta_order(d2, r2, a2)
