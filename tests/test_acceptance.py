"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line when its criterion holds.  Criterion 9
also documents an arithmetic fact about its sampling: nine fit nodes can
only determine a polynomial of degree eight, while the quantity being
identified has degree nine, so the enforced protocol uses ten fit nodes
with the same held-out validation points.
"""

import math
from fractions import Fraction

from corgw.arith import (
    dedekind_psi,
    divisors,
    jordan2,
    s_delta,
    s_delta_order,
    s_via_lattice,
    sigma,
    sigma_bar,
)
from corgw.diagrams import (
    TangencyProfile,
    enumerate_diagrams,
    invariant,
    multiplicity,
)
from corgw.lattice import oracle_local_invariant
from corgw.polyfit import (
    DiagramTemplate,
    interpolate,
    invariant_by_template,
    poly_degree,
    polynomial_fit,
)
from corgw.projector import theta_coordinates
from corgw.qseries import factorization_check, invariant_series
from corgw.refined import bold_sigma, local_invariant
from corgw.torsion import GroupAlgebraElement, theta, unrefine


def test_criterion_01_oracle_equivalence():
    for a in range(1, 25):
        for delta in range(1, 13):
            for w1 in (delta, 2 * delta):
                for n in (2, 3):
                    closed = local_invariant(a, w1, n, delta)
                    oracle = oracle_local_invariant(a, w1, n, delta)
                    assert closed == oracle, (a, delta, w1, n)
    print(
        "criterion 01: PASS - closed-form local invariant equals the "
        "sublattice oracle on a<=24, delta<=12, w1 in {delta,2delta}, "
        "n in {2,3}"
    )


def test_criterion_02_dirichlet_identity_grid():
    for delta in range(1, 25):
        for a in range(1, 201):
            assert s_via_lattice(delta, a) == s_delta(delta, a), (delta, a)
    for a in range(1, 501):
        total = sum(
            dedekind_psi(a // (k * k))
            for k in range(1, math.isqrt(a) + 1)
            if a % (k * k) == 0
        )
        assert total == sigma(a), a
    print(
        "criterion 02: PASS - lattice-type sum equals the J2 convolution "
        "for a<=200, delta<=24; primitive-lattice psi sum equals sigma "
        "for a<=500"
    )


def test_criterion_03_triangular_system_and_prime_tables():
    for delta in range(1, 25):
        for dp in divisors(delta):
            for a in range(1, 101):
                lhs = sum(
                    jordan2(r) * s_delta_order(delta, r, a) for r in divisors(dp)
                )
                assert lhs == dp * dp * s_delta(delta // dp, a), (delta, dp, a)
    for p in (2, 3):
        for a in range(1, 101):
            assert s_delta_order(p, 1, a) == sigma(a) + (p * p - 1) * sigma_bar(p, a)
            assert s_delta_order(p, p, a) == sigma(a) - sigma_bar(p, a)
            assert s_delta_order(p * p, p, a) == (
                sigma(a) + (p * p - 1) * sigma_bar(p, a) - p * p * sigma_bar(p * p, a)
            )
            assert s_delta_order(p * p, p * p, a) == sigma(a) - sigma_bar(p, a)
    print(
        "criterion 03: PASS - J2-weighted order sums collapse to lower "
        "levels for delta<=24, a<=100; prime-power closed forms match for "
        "p in {2,3}, a<=100"
    )


def test_criterion_04_delta2_closed_form():
    for a in range(1, 201):
        want = sigma_bar(2, a) * theta(2, 1) + (
            sigma(a) - sigma_bar(2, a)
        ) * theta(2, 2)
        assert bold_sigma(2, a) == want, a
    print(
        "criterion 04: PASS - bold_sigma(2, a) splits into the two "
        "projector blocks for a<=200"
    )


def test_criterion_05_mass_and_unrefinement():
    for a in range(1, 25):
        for delta in range(1, 13):
            for w1 in (delta, 2 * delta):
                for n in (2, 3):
                    mass = local_invariant(a, w1, n, delta).total_mass
                    assert mass == a ** (n - 1) * sigma(a) * w1 * w1
    for delta in range(1, 25):
        for a in range(1, 201):
            x = bold_sigma(delta, a)
            for dp in divisors(delta):
                assert unrefine(x, dp) == bold_sigma(dp, a), (delta, dp, a)
    print(
        "criterion 05: PASS - local masses equal a^(n-1) sigma(a) w1^2; "
        "pushforwards collapse bold_sigma across all nested levels for "
        "a<=200, delta<=24"
    )


def test_criterion_06_diagram_base_case():
    for w in range(1, 9):
        p = TangencyProfile((w, -w))
        got = invariant(1, 1, p, w)
        assert got == 2 * w**3 * theta(w, w), w
        assert invariant(1, 1, p, 1) == 2 * w**3 * GroupAlgebraElement.unit(1)
    print(
        "criterion 06: PASS - genus-1 class-1 invariant equals "
        "2 w^3 theta(w, w) for w = 1..8"
    )


def _stripped_templates(w):
    p = TangencyProfile((w, -w))
    out = set()
    for n_floors in (1, 2, 3):
        for d in enumerate_diagrams(3, n_floors, p):
            stripped = DiagramTemplate(
                tuple(min(a, 1) for a in d.levels),
                tuple((e.lo, e.hi) for e in d.edges),
            )
            out.add(stripped.to_json())
    return out


def test_criterion_07_template_census_and_second_kind():
    for w in (2, 4, 6):
        assert len(_stripped_templates(w)) == 6, w
    checked = 0
    for w in (2, 4, 6):
        for a1 in (1, 2, 3):
            for a2 in (1, 2, 3):
                p = TangencyProfile((w, -w))
                for d in enumerate_diagrams(3, a1 + a2, p):
                    if len(d.floor_indices) != 2:
                        continue
                    labels = [d.levels[i] for i in d.floor_indices]
                    if labels != [a1, a2]:
                        continue
                    flats = set(d.flat_indices)
                    direct = [
                        e
                        for e in d.bounded_edges
                        if e.lo not in flats and e.hi not in flats
                    ]
                    assert len(direct) == 1
                    w2 = direct[0].w
                    w1 = w - w2
                    if w1 % 2 == 0:
                        continue  # odd-splitting case only
                    want = (
                        a1 * a1 * a2 * a2 * sigma(a1) * sigma(a2)
                        * w**3 * w1**2 * w2**3
                    ) * theta(2, 2)
                    assert multiplicity(d, 2) == want, (w, a1, a2, d.to_json())
                    checked += 1
    assert checked > 0
    print(
        "criterion 07: PASS - genus-3 two-end census is exactly 6 "
        f"templates; {checked} odd-splitting second-kind multiplicities "
        "match a1^2 a2^2 sigma sigma theta_2 w^3 w1^2 w2^3"
    )


def test_criterion_08_factorization_grid():
    checked = 0
    for g in (1, 2, 3):
        for w in range(1, 7):
            for delta in (1, 2, 3, 6):
                if w % delta:
                    continue
                profile = TangencyProfile((w, -w))
                series = invariant_series(g, profile, delta, 20)
                _templates, mismatch = factorization_check(g, profile, series)
                assert mismatch is None, (g, w, delta, mismatch)
                checked += 1
    print(
        f"criterion 08: PASS - series factorization over templates exact "
        f"to q^20 on {checked} (g, w, delta) cells"
    )


def _second_kind_template(a1, a2, low_flat=True):
    from corgw.diagrams import BOTTOM

    if low_flat:
        levels = (0, a1, 0, a2)
        edges = ((BOTTOM, 0), (0, 1), (1, 2), (1, 3), (2, 3), (3, 4))
    else:
        levels = (a1, 0, a2, 0)
        edges = ((BOTTOM, 0), (0, 1), (0, 2), (1, 2), (2, 3), (3, 4))
    return DiagramTemplate(levels, edges)


def test_criterion_09_piecewise_polynomiality():
    template = _second_kind_template(2, 2)

    # Ground truth: through 11 exact nodes every projector coordinate is a
    # polynomial of degree exactly 9 = monomial degree + flow dimension.
    nodes = list(range(4, 26, 2))
    coords = {
        w: theta_coordinates(
            invariant_by_template(template, TangencyProfile((w, -w)), 2)
        )
        for w in nodes
    }
    for d in (1, 2):
        poly = interpolate([(w, coords[w].get(d, Fraction(0))) for w in nodes])
        assert poly_degree(poly) == 9

    # Literal protocol of the criterion: fit on the nine even points
    # 4..20, validate on 22 and 24.  Nine nodes determine a polynomial of
    # degree at most eight, so this protocol cannot recover the degree-nine
    # truth; its failure is forced, not an implementation gap.
    literal = polynomial_fit(
        template, 2, list(range(4, 21, 2)), [22, 24], chamber=(2, 0)
    )
    assert not literal.ok
    assert all(c.degree <= 8 for c in literal.coordinates)
    print(
        "criterion 09: NOTE - a nine-point fit (even w in 4..20) is "
        "underdetermined for the degree-9 truth and must fail its holdout; "
        "the enforced protocol below uses ten fit nodes"
    )

    # Corrected protocol: ten fit points pin the degree-9 polynomial,
    # validated exactly on the same held-out points 22 and 24.
    for low_flat in (True, False):
        t = _second_kind_template(2, 2, low_flat)
        rep = polynomial_fit(t, 2, list(range(2, 21, 2)), [22, 24], chamber=(2, 0))
        assert rep.ok and rep.degree_bound == 9
        assert {c.degree for c in rep.coordinates} == {9}

    # Analogous fit in the odd residue class of w/delta (w = 2 mod 4).
    odd_chamber = [w for w in range(2, 40, 4)]
    rep = polynomial_fit(template, 2, odd_chamber, [42, 46], chamber=(4, 2))
    assert rep.ok
    assert {c.degree for c in rep.coordinates} == {9}
    print(
        "criterion 09: PASS - every projector coordinate of the second-kind "
        "template is an exact degree-9 polynomial in w, identified from 10 "
        "even nodes and validated exactly on held-out w in {22, 24}, with "
        "the analogous fit in the w = 2 mod 4 residue class"
    )


def test_criterion_10_invariant_unrefinement():
    def partitions_into(total):
        def rec(m, cap):
            if m == 0:
                yield ()
                return
            for first in range(min(m, cap), 0, -1):
                for rest in rec(m - first, first):
                    yield (first,) + rest

        return list(rec(total, total))

    def profiles_with_b(b, multiple_of=1):
        for pos in partitions_into(b):
            if any(x % multiple_of for x in pos):
                continue
            for neg in partitions_into(b):
                if any(x % multiple_of for x in neg):
                    continue
                yield TangencyProfile(tuple(pos) + tuple(-x for x in neg))

    checked = 0
    # all non-trivial nested pairs delta' | delta <= 6 over every
    # delta-divisible profile with b <= 6
    for delta in range(2, 7):
        for dp in divisors(delta):
            if dp == delta:
                continue
            for b in range(delta, 7, delta):
                for prof in profiles_with_b(b, multiple_of=delta):
                    for g in (1, 2):
                        for a in range(1, 5):
                            hi = invariant(g, a, prof, delta)
                            lo = invariant(g, a, prof, dp)
                            assert unrefine(hi, dp) == lo, (g, a, prof, dp, delta)
                            checked += 1
    # the remaining divisor pairs have delta' = delta, where the pushforward
    # is the identity; assert it on a representative sample
    for weights in ((1, -1), (2, -2), (2, 1, -3), (1, 1, -2), (3, -2, -1)):
        prof = TangencyProfile(weights)
        for g in (1, 2):
            x = invariant(g, 2, prof, 1)
            assert unrefine(x, 1) == x
            checked += 1
    print(
        f"criterion 10: PASS - diagram-level unrefinement verified on "
        f"{checked} cells (all nested level pairs up to 6, profiles with "
        f"b <= 6, g <= 2, a <= 4)"
    )
