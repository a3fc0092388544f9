import io
import math
from fractions import Fraction

import pytest

from corgw.arith import divisors, jordan2, sigma, sigma_bar
from corgw.diagrams import TangencyProfile, invariant
from corgw.projector import ProjectorElement
from corgw.qseries import (
    GASeries,
    _template_route,
    factorization_check,
    invariant_series,
    templates_for,
    write_series_csv,
)
from corgw.refined import bold_sigma, local_invariant
from corgw.torsion import GroupAlgebraElement, theta
from test_diagrams import STRUCTURE_DIGESTS
from test_torsion import dense_theta_coordinates


def test_sigma_series_examples():
    # coefficient lists [0, sigma_bar(d, 1), ..., sigma_bar(d, n)]
    s1 = [0] + [sigma_bar(1, a) for a in range(1, 7)]
    assert s1[1:] == [1, 3, 4, 7, 6, 12]
    s2 = [0] + [sigma_bar(2, a) for a in range(1, 7)]
    assert s2[1:] == [0, 1, 0, 3, 0, 4]
    for d in (2, 3, 5):
        s = [0] + [sigma_bar(d, a) for a in range(1, 31)]
        for a in range(1, 31):
            assert s[a] == (s1[a // d] if a % d == 0 and a // d <= 6 else s[a])
            if a % d == 0:
                assert s[a] == sigma(a // d)


def test_local_series_zero_coefficient_identity():
    # the (0,0)-coefficient series is (w1/delta)^2 times the J2-weighted
    # combination of shifted sigma series, after n-1 derivatives
    n_trunc = 24
    for (n, w1, delta) in ((2, 2, 2), (3, 6, 3), (2, 12, 4), (4, 6, 6)):
        combo = [0] * (n_trunc + 1)
        for d in divisors(delta):
            for a in range(1, n_trunc + 1):
                combo[a] += jordan2(d) * sigma_bar(d, a)
        for a in range(1, n_trunc + 1):
            combo[a] *= a ** (n - 1)
        for a in range(1, n_trunc + 1):
            got = local_invariant(a, w1, n, delta).coefficient(0, 0)
            assert got == Fraction(w1 * w1, delta * delta) * combo[a]


def test_local_series_unrefined_and_mass():
    n_trunc = 15
    for a in range(1, n_trunc + 1):
        assert local_invariant(a, 4, 3, 1) == a * a * sigma(a) * 16 * GroupAlgebraElement.unit(1)
    for a in range(1, n_trunc + 1):
        assert local_invariant(a, 6, 2, 3).total_mass == a * sigma(a) * 36


def test_invariant_series_matches_pointwise():
    p = TangencyProfile((2, -2))
    s = invariant_series(2, p, 2, 8)
    for a in range(1, 9):
        assert s.coefficient(a) == invariant(2, a, p, 2)
        assert s.coefficient(a).total_mass == invariant(2, a, p, 1).total_mass


@pytest.mark.parametrize("genus,weights", list(STRUCTURE_DIGESTS))
def test_invariant_series_equals_invariant_on_pinned_profiles(genus, weights):
    # One structure search per series, capped below the genus or at it:
    # every coefficient is still the single-class invariant.
    profile = TangencyProfile(weights)
    for delta in sorted({1, math.gcd(*weights)}):
        for truncation in sorted({max(genus - 1, 1), genus + 2}):
            want = [invariant(genus, a, profile, delta)
                    for a in range(1, truncation + 1)]
            series = invariant_series(genus, profile, delta, truncation)
            assert list(series.coeffs) == want


@pytest.mark.parametrize("truncation,searches", [(2, 2), (3, 1), (6, 1)])
def test_checked_series_searches_structures_once(truncation, searches, capsys):
    # From cold search caches, a series from the genus (3) on shares its
    # one search with its certificate; below the genus the series search
    # is capped at N floors and templates_for runs the uncapped one.
    from corgw.cli import main
    from corgw.search import _closes, _invariant_cached, _shapes

    _closes.cache_clear()
    _shapes.cache_clear()
    _invariant_cached.cache_clear()
    argv = ["series", "--g", "3", "--profile", "2,2,-2,-2", "--delta", "2",
            "--n-trunc", str(truncation), "--check-factorization"]
    assert main(argv) == 0
    assert "exact match" in capsys.readouterr().err
    assert _closes.cache_info().misses == searches


def test_gaseries_algebra():
    one = ProjectorElement.unit(1)
    s = GASeries(1, (1 * one, 2 * one, 3 * one))
    t = GASeries(1, (1 * one, 0 * one, 0 * one))
    st = s.cauchy(t)
    # coefficient of q^2 is 1*1, of q^3 is 2*1
    assert st.coefficient(1) == ProjectorElement.zero(1)
    assert st.coefficient(2) == one
    assert st.coefficient(3) == 2 * one


def test_delta2_building_block():
    # sum_a bold_sigma(2, a) q^a splits into the two shifted sigma blocks
    n_trunc = 40
    for a in range(1, n_trunc + 1):
        lhs = bold_sigma(2, a)
        rhs = sigma_bar(2, a) * theta(2, 1) + (sigma(a) - sigma_bar(2, a)) * theta(2, 2)
        assert lhs == rhs


def test_invariant_series_rejects_negative_truncation():
    with pytest.raises(ValueError, match="truncation must be >= 0, got -5"):
        invariant_series(1, TangencyProfile((2, -2)), 1, -5)


def test_factorization_small_cases():
    p = TangencyProfile((2, -2))
    templates, mismatch = factorization_check(1, p, invariant_series(1, p, 1, 20))
    assert mismatch is None and len(templates) == 2
    templates, mismatch = factorization_check(3, p, invariant_series(3, p, 2, 12))
    assert mismatch is None and len(templates) == 6
    for t in templates:
        assert t.delta_gcd(2) in (1, 2)


def test_factorization_reports_first_mismatch():
    # One unit added to the q^3 coefficient of a true series is caught there.
    p = TangencyProfile((2, -2))
    coeffs = list(invariant_series(2, p, 2, 6).coeffs)
    coeffs[2] = coeffs[2] + ProjectorElement.unit(2)
    _templates, mismatch = factorization_check(2, p, GASeries(2, tuple(coeffs)))
    assert mismatch == 3


def test_templates_for_counts():
    p = TangencyProfile((2, -2))
    assert len(templates_for(1, p)) == 2
    assert len(templates_for(2, p)) == 3
    assert len(templates_for(3, p)) == 6


def test_csv_output():
    s = GASeries(2, tuple(local_invariant(a, 2, 2, 2) for a in range(1, 4)))
    buf = io.StringIO()
    write_series_csv(s, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == 'a,"(0,0)","(0,1)","(1,0)","(1,1)"'
    assert lines[1].startswith("1,")
    # a=1: w1^2 theta(2,2): every point 4*(1/4) = 1
    assert lines[1] == "1,1/1,1/1,1/1,1/1"
    assert lines[2].split(",")[0] == "2"
    # truncation 0: header only
    buf = io.StringIO()
    write_series_csv(GASeries(2, ()), buf)
    assert buf.getvalue().strip() == "a"


def csv_reference(series, fh):
    """write_series_csv point by point: columns from the union of the
    supports, one Fraction per cell; reads any element type."""
    import csv

    support = sorted({pt for c in series.coeffs for pt in c.support})
    writer = csv.writer(fh)
    writer.writerow(["a"] + [f"({u},{v})" for u, v in support])
    for a in range(1, series.truncation + 1):
        terms = dict(series.coefficient(a).items())
        cells = [terms.get(pt, 0) for pt in support]
        writer.writerow([str(a)] + [f"{x.numerator}/{x.denominator}" for x in cells])


@pytest.mark.parametrize("delta", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 24, 36, 60, 300])
def test_csv_matches_per_point_reference(delta):
    from test_torsion import per_point_reference, writer_elements

    xs = writer_elements(delta)
    dense = [per_point_reference(x) for x in xs]
    for case in [range(5), [0], [0, 4, 0], range(4, -1, -1)]:
        got, want = io.StringIO(), io.StringIO()
        write_series_csv(GASeries(delta, tuple(xs[i] for i in case)), got)
        csv_reference(GASeries(delta, tuple(dense[i] for i in case)), want)
        assert got.getvalue() == want.getvalue()
    assert all(x._dense is None for x in xs)


def test_factorization_precondition():
    # A series at a level that does not divide the profile gcd is rejected,
    # not reported as a mismatch; so is an empty series.
    at_level_2 = GASeries(2, tuple(bold_sigma(2, a) for a in range(1, 6)))
    with pytest.raises(ValueError, match="delta=2"):
        factorization_check(1, TangencyProfile((3, -3)), at_level_2)
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        factorization_check(1, TangencyProfile((2, -2)), GASeries(2, ()))


def series_by_templates(genus, profile, delta, truncation):
    """Reference for the template route: each template's own Cauchy chain of
    blocks, lifted to level delta and scaled by its W, added one template at
    a time."""
    total = [GroupAlgebraElement.zero(delta)] * truncation
    for rep in templates_for(genus, profile):
        delta_t = rep.delta_gcd(delta)
        prod = None
        for _a_v, val in rep.floor_info:
            block = GASeries(
                delta_t,
                tuple(
                    a ** (val - 1) * bold_sigma(delta_t, a)
                    for a in range(1, truncation + 1)
                ),
            )
            prod = block if prod is None else prod.cauchy(block)
        k = delta // delta_t
        total = [
            x + c.to_dense().rebase(delta).divide(k) * rep.weight_monomial
            for x, c in zip(total, prod.coeffs)
        ]
    return total


# The cases whose --check-factorization stderr tests/test_cli.py pins.
FACTORIZATION_CASES = [
    (3, (2, -2), 2),
    (2, (2, 2, -2, -2), 2),
    (3, (3, 3, -3, -3), 3),
    (3, (6, -6), 6),
]


@pytest.mark.parametrize("genus,weights,delta", FACTORIZATION_CASES)
def test_template_route_equals_sum_over_templates(genus, weights, delta):
    profile = TangencyProfile(weights)
    ref = series_by_templates(genus, profile, delta, 8)
    templates = templates_for(genus, profile)
    assert _template_route(templates, delta, 8) == ref
    coeffs = tuple(ProjectorElement(delta, dense_theta_coordinates(x)) for x in ref)
    got, mismatch = factorization_check(genus, profile, GASeries(delta, coeffs))
    assert got == templates and mismatch is None


@pytest.mark.parametrize("genus,weights,delta", FACTORIZATION_CASES)
def test_template_route_one_chain_per_shape(genus, weights, delta, monkeypatch):
    profile = TangencyProfile(weights)
    shapes = {tuple(sorted(t.floor_valencies)) for t in templates_for(genus, profile)}
    calls = []
    cauchy = GASeries.cauchy

    def counting(self, other):
        calls.append(1)
        return cauchy(self, other)

    monkeypatch.setattr(GASeries, "cauchy", counting)
    _template_route(templates_for(genus, profile), delta, 8)
    assert len(calls) == sum(len(vals) - 1 for vals in shapes)
    assert len(shapes) < len(templates_for(genus, profile))
