"""Brute-force cover oracle: sublattices of Z^2 and their torsion images.

Degree-a covers of an elliptic curve correspond to index-a sublattices of
Z^2, enumerated here in Hermite normal form.  For each cover the image of
the delta-torsion of the source curve is computed by direct enumeration
(no Smith-form shortcut), so oracle_local_invariant recomputes the local
correlated count by a route fully independent of the closed form in
:mod:`corgw.refined`.  The oracle sums the covers' integer weights per
image point and rescales the counts by one integer at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import Frozen
from .torsion import GroupAlgebraElement


class Sublattice(Frozen):
    """Index d1*d2 sublattice of Z^2 with HNF basis {(d1, 0), (c, d2)}."""

    __slots__ = ("d1", "c", "d2")

    def __init__(self, d1: int, c: int, d2: int) -> None:
        if d1 < 1 or d2 < 1:
            raise ValueError("diagonal entries must be positive")
        if not 0 <= c < d1:
            raise ValueError(f"expected 0 <= c < d1, got c={c}, d1={d1}")
        super().__init__(d1, c, d2)

    @property
    def index(self) -> int:
        return self.d1 * self.d2


def enumerate_sublattices(a: int) -> list[Sublattice]:
    """All index-a sublattices of Z^2; there are sigma(a) of them.

    Deterministic order: d1 ascending, then c ascending.
    """
    if a < 1:
        raise ValueError(f"expected a >= 1, got {a}")
    out = []
    for d1 in range(1, a + 1):
        if a % d1 == 0:
            d2 = a // d1
            out.extend(Sublattice(d1, c, d2) for c in range(d1))
    return out


def lattice_type(lat: Sublattice) -> tuple[int, int]:
    """Smith-form elementary divisors (k, m): k | m, k*m = index, k^2 | index."""
    k = gcd(lat.d1, gcd(lat.c, lat.d2))
    return k, lat.index // k


def _image_points(lat: Sublattice, delta: int) -> set[tuple[int, int]]:
    """Points of the image of the cover's delta-torsion in (Z/delta)^2.

    The image subgroup ((1/delta) Lat + Z^2) / Z^2 is enumerated directly
    from the delta^2 products of the two HNF generators; the Smith-form
    cardinality delta^2 / (gcd(k, delta) gcd(m, delta)) is then asserted,
    keeping this oracle independent of the formulas it is used to check.
    """
    if delta < 1:
        raise ValueError(f"expected delta >= 1, got {delta}")
    pts = set()
    for i in range(delta):
        for j in range(delta):
            pts.add(((i * lat.d1 + j * lat.c) % delta, (j * lat.d2) % delta))
    k, m = lattice_type(lat)
    expected = delta * delta // (gcd(k, delta) * gcd(m, delta))
    if len(pts) != expected:
        raise AssertionError(
            f"torsion image size {len(pts)} != {expected} for {lat}, delta={delta}"
        )
    return pts


def torsion_image(lat: Sublattice, delta: int) -> GroupAlgebraElement:
    """0/1 indicator of the image of the cover's delta-torsion in (Z/delta)^2."""
    return GroupAlgebraElement(delta, dict.fromkeys(_image_points(lat, delta), 1))


# oracle-verify asks for the four cells (w1, n) of one (a, delta) in a row,
# and they differ only by the scale, so one cached entry serves all four.
@lru_cache(maxsize=1)
def _cover_counts(a: int, delta: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """The oracle's per-point integer counts, before its scale.

    Each index-a cover's torsion image is enumerated point by point and
    its weight gcd(k, delta) gcd(a/k, delta) added to the point's count.
    """
    counts: dict[tuple[int, int], int] = {}
    for lat in enumerate_sublattices(a):
        k, m = lattice_type(lat)
        weight = gcd(k, delta) * gcd(m, delta)
        for p in _image_points(lat, delta):
            counts[p] = counts.get(p, 0) + weight
    return tuple(counts.items())


def oracle_local_invariant(
    a: int, w1: int, n: int, delta: int
) -> GroupAlgebraElement:
    """Local correlated count recomputed as a sum over covers.

    a^(n-1) (w1/delta)^2 times the sum over index-a sublattices of
    gcd(k, delta) gcd(a/k, delta) times the torsion-image indicator.
    The integer counts depend only on (a, delta) and are rescaled once at
    the end, by an integer since delta | w1.  Independent oracle for
    refined.local_invariant; total mass is a^(n-1) sigma(a) w1^2.
    """
    if a < 1 or w1 < 1:
        raise ValueError("oracle expects a >= 1 and w1 >= 1")
    if n < 2:
        raise ValueError(f"oracle expects n >= 2, got {n}")
    if delta < 1 or w1 % delta:
        raise ValueError(
            f"oracle expects a positive delta | w1, got delta={delta}, w1={w1}"
        )
    scale = a ** (n - 1) * (w1 // delta) ** 2
    return GroupAlgebraElement(
        delta, {p: c * scale for p, c in _cover_counts(a, delta)}
    )

