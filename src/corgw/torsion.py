"""Exact group algebra of the delta-torsion of a two-dimensional real torus.

The delta-torsion points of an elliptic curve E = (R/Z)^2 form the group
(Z/delta)^2.  A :class:`GroupAlgebraElement` is a finitely supported map
from these points to exact rationals; multiplication is convolution for
the group law.  Besides the ring structure the module provides the
averaging projectors theta(delta, d), the pushforward along
multiplication by k, and its section dividing by k (averaging over k-th
roots), which together drive every refined invariant downstream.

Every quantity the refined invariants are built from lies in the span of
the projectors, so it is carried as a :class:`ProjectorElement`: its
coordinates in that basis, with closed-form operations in place of the
dense convolution.  The dense :class:`GroupAlgebraElement` stays the
reference implementation; both types share one read-only dense surface
(coefficients, support, JSON, equality), so output does not depend on the
representation.

All values are immutable; operations return fresh elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping

from .arith import divisors


@dataclass(frozen=True)
class TorsionPoint:
    """A point of (Z/delta)^2, i.e. a delta-torsion point of the curve."""

    delta: int
    u: int
    v: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        object.__setattr__(self, "u", self.u % self.delta)
        object.__setattr__(self, "v", self.v % self.delta)

    @property
    def order(self) -> int:
        """Smallest n >= 1 with n * (u, v) = 0 in (Z/delta)^2."""
        return self.delta // gcd(self.u, self.v, self.delta)


def _check_level(x, y) -> None:
    if x.delta != y.delta:
        raise ValueError(f"ambient level mismatch: {x.delta} vs {y.delta}")


class _DenseSurface:
    """Read-only dense view shared by both element types.

    Subclasses provide ``delta`` and ``_terms``, the map (u, v) -> nonzero
    Fraction with reduced keys.  Equal dense maps mean equal elements,
    whatever the representation.
    """

    __slots__ = ()

    def coefficient(self, u: int, v: int) -> Fraction:
        return self._terms.get((u % self.delta, v % self.delta), Fraction(0))

    @property
    def support(self) -> list[tuple[int, int]]:
        return sorted(self._terms)

    def items(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return self._terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, _DenseSurface):
            return NotImplemented
        return self.delta == other.delta and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.delta, frozenset(self._terms.items())))

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "terms": [
                {"u": u, "v": v, "num": c.numerator, "den": c.denominator}
                for (u, v), c in sorted(self._terms.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


class GroupAlgebraElement(_DenseSurface):
    """Finitely supported Q-valued function on (Z/delta)^2.

    Zero coefficients are never stored.  Instances are immutable; all
    arithmetic returns new elements.  `x * y` is convolution when y is an
    element and scaling when y is an int or Fraction.
    """

    __slots__ = ("delta", "_terms")

    def __init__(
        self,
        delta: int,
        terms: Mapping[tuple[int, int], Fraction | int] | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (u, v), c in terms.items():
                c = Fraction(c)
                clean[(u % delta, v % delta)] = (
                    clean.get((u % delta, v % delta), Fraction(0)) + c
                )
        object.__setattr__(self, "delta", delta)
        object.__setattr__(
            self, "_terms", {k: c for k, c in clean.items() if c}
        )

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("GroupAlgebraElement is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, delta: int) -> "GroupAlgebraElement":
        return cls(delta)

    @classmethod
    def unit(cls, delta: int) -> "GroupAlgebraElement":
        return cls(delta, {(0, 0): Fraction(1)})

    @classmethod
    def point(cls, p: TorsionPoint) -> "GroupAlgebraElement":
        return cls(p.delta, {(p.u, p.v): Fraction(1)})

    # -- inspection ---------------------------------------------------

    @property
    def total_mass(self) -> Fraction:
        return sum(self._terms.values(), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({u},{v}): {c}" for (u, v), c in sorted(self._terms.items())
        )
        return f"GA[{self.delta}]{{{body}}}"

    # -- linear structure ----------------------------------------------

    def __add__(self, other: _DenseSurface) -> "GroupAlgebraElement":
        _check_level(self, other)
        terms = dict(self._terms)
        for k, c in other.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return GroupAlgebraElement(self.delta, terms)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return convolve(self, other)
        if isinstance(other, (int, Fraction)):
            return GroupAlgebraElement(
                self.delta, {k: c * other for k, c in self._terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    # -- group-algebra operators ----------------------------------------

    def translate(self, u0: int, v0: int) -> "GroupAlgebraElement":
        """Convolve with the generator at (u0, v0): shift every support point."""
        d = self.delta
        return GroupAlgebraElement(
            d, {((u + u0) % d, (v + v0) % d): c for (u, v), c in self._terms.items()}
        )

    def m_push(self, k: int) -> "GroupAlgebraElement":
        """Pushforward along multiplication by k; preserves total mass."""
        if k < 1:
            raise ValueError(f"m_push expects k >= 1, got {k}")
        d = self.delta
        terms: dict[tuple[int, int], Fraction] = {}
        for (u, v), c in self._terms.items():
            key = ((k * u) % d, (k * v) % d)
            terms[key] = terms.get(key, Fraction(0)) + c
        return GroupAlgebraElement(d, terms)

    def divide(self, k: int) -> "GroupAlgebraElement":
        """Replace each generator by the average of its k^2 k-th roots.

        Requires k | delta and every support point to be divisible by k in
        (Z/delta)^2 (equivalently, delta/k-torsion); otherwise the roots do
        not exist at this ambient level and a ValueError signals that the
        level was chosen too small.
        """
        if k < 1:
            raise ValueError(f"divide expects k >= 1, got {k}")
        d = self.delta
        if d % k:
            raise ValueError(f"divide expects k | delta, got k={k}, delta={d}")
        step = d // k
        ksq = Fraction(1, k * k)
        terms: dict[tuple[int, int], Fraction] = {}
        for (u, v), c in self._terms.items():
            if u % k or v % k:
                raise ValueError(
                    f"support point ({u},{v}) has no {k}-th root at level {d}"
                )
            w = c * ksq
            for i in range(k):
                for j in range(k):
                    key = ((u // k + i * step) % d, (v // k + j * step) % d)
                    terms[key] = terms.get(key, Fraction(0)) + w
        return GroupAlgebraElement(d, terms)

    def rebase(self, new_delta: int) -> "GroupAlgebraElement":
        """Represent the same abstract element of Q[E] at another level.

        Embeds when new_delta is a multiple of the current level; restricts
        when it is a divisor and every support point is new_delta-torsion.
        """
        d = self.delta
        if new_delta < 1:
            raise ValueError(f"rebase expects a positive level, got {new_delta}")
        if new_delta == d:
            return self
        if new_delta % d == 0:
            f = new_delta // d
            return GroupAlgebraElement(
                new_delta, {(u * f, v * f): c for (u, v), c in self._terms.items()}
            )
        if d % new_delta == 0:
            terms = {}
            for (u, v), c in self._terms.items():
                if (u * new_delta) % d or (v * new_delta) % d:
                    raise ValueError(
                        f"support point ({u},{v}) is not {new_delta}-torsion"
                    )
                terms[(u * new_delta // d, v * new_delta // d)] = c
            return GroupAlgebraElement(new_delta, terms)
        raise ValueError(f"incompatible levels: {d} and {new_delta}")

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupAlgebraElement":
        return cls(
            data["delta"],
            {
                (t["u"], t["v"]): Fraction(t["num"], t["den"])
                for t in data["terms"]
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "GroupAlgebraElement":
        return cls.from_json_dict(json.loads(text))


def convolve(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Group-algebra product: (x*y)(t) = sum over t1 + t2 = t of x(t1) y(t2)."""
    _check_level(x, y)
    d = x.delta
    terms: dict[tuple[int, int], Fraction] = {}
    for (u1, v1), c1 in x.items():
        for (u2, v2), c2 in y.items():
            key = ((u1 + u2) % d, (v1 + v2) % d)
            terms[key] = terms.get(key, Fraction(0)) + c1 * c2
    return GroupAlgebraElement(d, terms)


@lru_cache(maxsize=None)
def theta(delta: int, d: int) -> GroupAlgebraElement:
    """Averaging projector: mass 1/d^2 on each point of order dividing d.

    Requires d | delta.  These satisfy theta(delta, d1) * theta(delta, d2)
    = theta(delta, lcm(d1, d2)); theta(delta, 1) is the unit.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if d < 1 or delta % d:
        raise ValueError(
            f"theta expects a positive d | delta, got d={d}, delta={delta}"
        )
    step = delta // d
    c = Fraction(1, d * d)
    return GroupAlgebraElement(
        delta, {(i * step, j * step): c for i in range(d) for j in range(d)}
    )


def unrefine(x: GroupAlgebraElement, new_delta: int) -> GroupAlgebraElement:
    """Push x along multiplication by delta/new_delta and restrict the level.

    This is the coarsening that relates refinements at nested levels:
    unrefine(bold_sigma(delta, a), delta') = bold_sigma(delta', a).
    """
    if new_delta < 1 or x.delta % new_delta:
        raise ValueError(
            f"unrefine expects a positive new_delta | delta, got {new_delta}, {x.delta}"
        )
    return x.m_push(x.delta // new_delta).rebase(new_delta)


class ProjectorElement(_DenseSurface):
    """Element of the span of the projectors theta(delta, d), d | delta.

    Stored as its coordinates d -> c_d in that basis; the projectors are
    linearly independent, so the coordinates determine the element and
    zero coordinates are never stored.  Every operation that stays in the
    span is a closed form on O(tau(delta)^2) coordinates or fewer:
    theta_d * theta_e = theta_lcm(d, e), m_push(k) sends theta_d to
    theta_{d/gcd(d,k)}, rebase keeps theta_d, and divide(k) sends theta_d to
    theta_{dk}.  translate leaves the span and returns a dense element.

    The dense map, read by coefficient, support, items, ==, hash and JSON,
    is built once on first use.
    """

    __slots__ = ("delta", "_coords", "_dense")

    def __init__(
        self, delta: int, coords: Mapping[int, Fraction | int] | None = None
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        clean: dict[int, Fraction] = {}
        for d, c in (coords or {}).items():
            if d < 1 or delta % d:
                raise ValueError(
                    f"projector index {d} does not divide delta={delta}"
                )
            c = Fraction(c)
            if c:
                clean[d] = c
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_coords", clean)
        object.__setattr__(self, "_dense", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ProjectorElement is immutable")

    @classmethod
    def _from_sums(cls, delta: int, coords: dict[int, Fraction]):
        """Trusted constructor for coordinates an operation just computed."""
        out = object.__new__(cls)
        object.__setattr__(out, "delta", delta)
        object.__setattr__(out, "_coords", {d: c for d, c in coords.items() if c})
        object.__setattr__(out, "_dense", None)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, delta: int) -> "ProjectorElement":
        return cls(delta)

    @classmethod
    def unit(cls, delta: int) -> "ProjectorElement":
        return cls(delta, {1: 1})

    @classmethod
    def theta(cls, delta: int, d: int) -> "ProjectorElement":
        """The projector theta(delta, d) itself; requires d | delta."""
        return cls(delta, {d: 1})

    # -- inspection ---------------------------------------------------

    @property
    def _terms(self) -> dict[tuple[int, int], Fraction]:
        terms = self._dense
        if terms is None:
            terms = {}
            if self._coords:
                delta = self.delta
                # Every support point is big-torsion, big the lcm of the
                # indices; a point of order r carries the sum of c_d / d^2
                # over the indices d with r | d.
                big = lcm(*self._coords)
                by_order = {
                    r: sum(
                        (c / (d * d) for d, c in self._coords.items() if d % r == 0),
                        Fraction(0),
                    )
                    for r in divisors(big)
                }
                step = delta // big
                for i in range(big):
                    for j in range(big):
                        u, v = i * step, j * step
                        c = by_order[delta // gcd(u, v, delta)]
                        if c:
                            terms[(u, v)] = c
            object.__setattr__(self, "_dense", terms)
        return terms

    @property
    def total_mass(self) -> Fraction:
        # Every projector has mass 1.
        return sum(self._coords.values(), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, ProjectorElement):
            return self.delta == other.delta and self._coords == other._coords
        return super().__eq__(other)

    __hash__ = _DenseSurface.__hash__

    def __repr__(self) -> str:
        body = ", ".join(f"{d}: {c}" for d, c in sorted(self._coords.items()))
        return f"Theta[{self.delta}]{{{body}}}"

    def to_dense(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.delta, self._terms)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ProjectorElement") -> "ProjectorElement":
        if not isinstance(other, ProjectorElement):
            return NotImplemented
        _check_level(self, other)
        coords = dict(self._coords)
        for d, c in other._coords.items():
            coords[d] = coords[d] + c if d in coords else c
        return ProjectorElement._from_sums(self.delta, coords)

    def __sub__(self, other: "ProjectorElement") -> "ProjectorElement":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, ProjectorElement):
            _check_level(self, other)
            coords: dict[int, Fraction] = {}
            for d, c in self._coords.items():
                for e, b in other._coords.items():
                    m = lcm(d, e)
                    coords[m] = coords[m] + c * b if m in coords else c * b
            return ProjectorElement._from_sums(self.delta, coords)
        if isinstance(other, (int, Fraction)):
            return ProjectorElement._from_sums(
                self.delta, {d: c * other for d, c in self._coords.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    # -- group-algebra operators ----------------------------------------

    def translate(self, u0: int, v0: int) -> GroupAlgebraElement:
        """Shift every support point; the result is dense."""
        return self.to_dense().translate(u0, v0)

    def m_push(self, k: int) -> "ProjectorElement":
        """Pushforward along multiplication by k: theta_d -> theta_{d/gcd(d,k)}."""
        if k < 1:
            raise ValueError(f"m_push expects k >= 1, got {k}")
        coords: dict[int, Fraction] = {}
        for d, c in self._coords.items():
            m = d // gcd(d, k)
            coords[m] = coords[m] + c if m in coords else c
        return ProjectorElement._from_sums(self.delta, coords)

    def divide(self, k: int) -> "ProjectorElement":
        """Average over k-th roots: theta_d -> theta_{dk}, which needs dk | delta."""
        if k < 1:
            raise ValueError(f"divide expects k >= 1, got {k}")
        delta = self.delta
        if delta % k:
            raise ValueError(f"divide expects k | delta, got k={k}, delta={delta}")
        for d in self._coords:
            if delta % (d * k):
                raise ValueError(
                    f"the {k}-th roots of theta_{d} are not visible at level {delta}"
                )
        return ProjectorElement._from_sums(
            delta, {d * k: c for d, c in self._coords.items()}
        )

    def rebase(self, new_delta: int) -> "ProjectorElement":
        """Same element at another level: theta_d keeps its index.

        Restricting to a divisor new_delta needs every index to divide it,
        i.e. every support point to be new_delta-torsion.
        """
        d = self.delta
        if new_delta < 1:
            raise ValueError(f"rebase expects a positive level, got {new_delta}")
        if new_delta == d:
            return self
        if d % new_delta and new_delta % d:
            raise ValueError(f"incompatible levels: {d} and {new_delta}")
        for e in self._coords:
            if new_delta % e:
                raise ValueError(f"theta_{e} is not {new_delta}-torsion")
        return ProjectorElement._from_sums(new_delta, self._coords)


def theta_coordinates(x: _DenseSurface) -> dict[int, Fraction]:
    """Coordinates of x in the projector basis theta(delta, d), d | delta.

    The one conversion from a dense element into the basis: solved
    largest divisor first from coefficients at points of exact order;
    raises ValueError when x is not in the projector span.
    """
    delta = x.delta
    divs = divisors(delta)
    if isinstance(x, ProjectorElement):
        return {d: x._coords.get(d, Fraction(0)) for d in divs}
    coords: dict[int, Fraction] = {}
    for d in reversed(divs):
        # (delta/d, 0) has order exactly d.
        val = x.coefficient(delta // d, 0)
        for e, c in coords.items():
            if e % d == 0:
                val -= c / (e * e)
        coords[d] = val * d * d
    if ProjectorElement(delta, coords) != x:
        raise ValueError("element is not in the span of the projectors")
    return coords
