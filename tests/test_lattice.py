import functools
import math
from fractions import Fraction

import pytest

from corgw import lattice
from corgw.arith import dedekind_psi, sigma
from corgw.lattice import (
    Sublattice,
    enumerate_sublattices,
    lattice_type,
    oracle_local_invariant,
    torsion_image,
)
from corgw.refined import local_invariant
from corgw.torsion import GroupAlgebraElement, theta


def test_sublattice_validation():
    Sublattice(2, 1, 3)
    with pytest.raises(ValueError):
        Sublattice(2, 2, 3)
    with pytest.raises(ValueError):
        Sublattice(0, 0, 1)


def test_enumerate_examples():
    assert enumerate_sublattices(1) == [Sublattice(1, 0, 1)]
    assert len(enumerate_sublattices(2)) == 3
    for a in range(1, 201):
        lats = enumerate_sublattices(a)
        assert len(lats) == sigma(a)
        assert len(set(lats)) == len(lats)
        assert all(l.index == a for l in lats)
        assert lats == sorted(lats, key=lambda l: (l.d1, l.c))


def brute_type(lat):
    # smallest positive x-coordinate gcd data via explicit vector search:
    # first elementary divisor = gcd of all entries of the basis matrix
    k = math.gcd(lat.d1, math.gcd(lat.c, lat.d2))
    return (k, lat.index // k)


def test_lattice_type():
    assert lattice_type(Sublattice(1, 0, 1)) == (1, 1)
    assert lattice_type(Sublattice(2, 0, 2)) == (2, 2)
    for a in range(1, 100):
        for lat in enumerate_sublattices(a):
            k, m = lattice_type(lat)
            assert k * m == a and m % k == 0 and a % (k * k) == 0
            assert (k, m) == brute_type(lat)


def test_type_counts_match_psi():
    for a in range(1, 150):
        counts = {}
        for lat in enumerate_sublattices(a):
            counts[lattice_type(lat)] = counts.get(lattice_type(lat), 0) + 1
        for (k, m), cnt in counts.items():
            assert cnt == dedekind_psi(a // (k * k))


def test_torsion_image_examples():
    for delta in (1, 2, 3, 4, 6):
        img = torsion_image(Sublattice(1, 0, 1), delta)
        assert img.support == theta(delta, delta).support
        assert all(img.coefficient(u, v) == 1 for u, v in img.support)
    img = torsion_image(Sublattice(2, 0, 2), 2)
    assert img == GroupAlgebraElement(2, {(0, 0): Fraction(1)})
    # cardinality assertion is internal; spot-check the formula here too
    for a in (4, 6, 12):
        for delta in (2, 3, 4, 6):
            for lat in enumerate_sublattices(a):
                k, m = lattice_type(lat)
                img = torsion_image(lat, delta)
                assert len(img.support) == delta * delta // (
                    math.gcd(k, delta) * math.gcd(m, delta)
                )


def test_uniform_spreading_and_support():
    # the oracle's per-cover weight is constant on each cover's image, and
    # the total support contains the full (delta/gcd(a,delta))-torsion
    for a in (2, 4, 6):
        for delta in (2, 4, 6):
            total = oracle_local_invariant(a, delta, 2, delta)
            sub = theta(delta, delta // math.gcd(a, delta))
            assert set(sub.support) <= set(total.support)


def test_oracle_equals_closed_form():
    for a in range(1, 13):
        for delta in range(1, 7):
            for w1 in (delta, 2 * delta):
                for n in (2, 3, 4):
                    assert oracle_local_invariant(
                        a, w1, n, delta
                    ) == local_invariant(a, w1, n, delta)


def test_oracle_cells_differ_by_scale():
    # The cells (w1, n) of one (a, delta) share their integer counts and
    # differ by a^(n-1) (w1/delta)^2, whichever (a, delta) came before.
    for a, delta in [(6, 2), (4, 3), (6, 2), (6, 3), (1, 1)]:
        base = oracle_local_invariant(a, delta, 2, delta)
        assert base == local_invariant(a, delta, 2, delta)
        assert oracle_local_invariant(a, 2 * delta, 3, delta) == base * (4 * a)


def test_oracle_mass():
    for a in range(1, 15):
        for delta in (1, 2, 3):
            got = oracle_local_invariant(a, 2 * delta, 3, delta)
            assert got.total_mass == a * a * sigma(a) * (2 * delta) ** 2


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        oracle_local_invariant(2, 3, 2, 2)
    with pytest.raises(ValueError):
        oracle_local_invariant(0, 2, 2, 1)


@functools.cache
def dense_cover_sum(a, delta):
    """Running sum of one weighted dense torsion image per cover."""
    out = GroupAlgebraElement.zero(delta)
    for lat in enumerate_sublattices(a):
        k, m = lattice_type(lat)
        weight = math.gcd(k, delta) * math.gcd(m, delta)
        out = out + weight * torsion_image(lat, delta)
    return out


def oracle_by_dense_sum(a, w1, n, delta):
    """The oracle as it was first written: dense per-cover accumulation."""
    return dense_cover_sum(a, delta) * (a ** (n - 1) * Fraction(w1, delta) ** 2)


def test_oracle_matches_dense_sum():
    for a in range(1, 17):
        for delta in range(1, 13):
            for w1 in (delta, 2 * delta):
                for n in (2, 3):
                    assert oracle_local_invariant(
                        a, w1, n, delta
                    ) == oracle_by_dense_sum(a, w1, n, delta), (a, delta, w1, n)


def test_oracle_enumerates_every_cover(monkeypatch):
    calls = []
    image_points = lattice._image_points

    def counting(lat, delta):
        calls.append(lat)
        return image_points(lat, delta)

    monkeypatch.setattr(lattice, "_image_points", counting)
    for a, delta in ((1, 1), (6, 4), (12, 6), (16, 8)):
        calls.clear()
        oracle_local_invariant(a, 2 * delta, 2, delta)
        assert sorted(calls, key=lambda l: (l.d1, l.c)) == enumerate_sublattices(a)
        assert len(calls) == sigma(a)
