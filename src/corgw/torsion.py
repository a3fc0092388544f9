"""Dense reference for the group algebra of the delta-torsion of (R/Z)^2.

The delta-torsion points of an elliptic curve E = (R/Z)^2 form the group
(Z/delta)^2.  A :class:`GroupAlgebraElement` is a finitely supported map
from these points to exact rationals; multiplication is convolution for
the group law.  Besides the ring structure the module provides the
averaging projectors theta(delta, d), the pushforward along
multiplication by k, its section dividing by k (averaging over k-th
roots), and the level change unrefine of a ProjectorElement.

The computation carries ProjectorElements (corgw.projector) and runs
without this module.  The dense type is the reference they are tested
against, and it carries the shifted counts of translate (the CLI's
--shift) and the sublattice oracle (corgw.lattice); unrefine reads a
ProjectorElement's characters, and is m_push then rebase on the dense
map.  The two types share
the read-only dense surface of corgw.projector and do not mix in
arithmetic: a sum or product of one of each raises TypeError.  Values are
stored as there: an int when integral, a Fraction only when not, and
fractions is imported by the first value that needs it.

All values are immutable; operations return fresh elements.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .projector import (
    ProjectorElement,
    _check_level,
    _DenseSurface,
    _exact,
    _fraction,
    _integral,
)

if TYPE_CHECKING:
    from fractions import Fraction


class GroupAlgebraElement(_DenseSurface):
    """Finitely supported Q-valued function on (Z/delta)^2.

    Zero coefficients are never stored.  Instances are immutable; all
    arithmetic returns new elements.  `x + y` needs a dense y; `x * y` is
    convolution when y is a dense element and scaling when y is an int or
    Fraction.
    """

    __slots__ = ("delta", "_terms")

    def __init__(
        self,
        delta: int,
        terms: Mapping[tuple[int, int], Fraction | int] | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        clean: dict[tuple[int, int], int | Fraction] = {}
        if terms:
            for (u, v), c in terms.items():
                key = (u % delta, v % delta)
                if type(c) is not int:
                    c = _exact(c)
                clean[key] = clean[key] + c if key in clean else c
        object.__setattr__(self, "delta", delta)
        object.__setattr__(
            self,
            "_terms",
            {k: c if type(c) is int else _integral(c) for k, c in clean.items() if c},
        )

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as the value classes do.
        return GroupAlgebraElement, (self.delta, self._terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def unit(cls, delta: int) -> "GroupAlgebraElement":
        return cls(delta, {(0, 0): 1})

    # -- inspection ---------------------------------------------------

    @property
    def mass(self) -> int | Fraction:
        """The total mass as a stored value: an int when integral."""
        return _integral(sum(self._terms.values()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"({u},{v}): {c}" for (u, v), c in sorted(self._terms.items())
        )
        return f"GA[{self.delta}]{{{body}}}"

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        _check_level(self, other)
        terms = dict(self._terms)
        for k, c in other.items():
            terms[k] = terms.get(k, 0) + c
        return GroupAlgebraElement(self.delta, terms)

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return convolve(self, other)
        # An int scalar is tested first, so it never loads fractions.
        if isinstance(other, int) or isinstance(other, _fraction()):
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
        terms: dict[tuple[int, int], int | Fraction] = {}
        for (u, v), c in self._terms.items():
            key = ((k * u) % d, (k * v) % d)
            terms[key] = terms.get(key, 0) + c
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
        ksq = _fraction()(1, k * k)
        terms: dict[tuple[int, int], int | Fraction] = {}
        for (u, v), c in self._terms.items():
            if u % k or v % k:
                raise ValueError(
                    f"support point ({u},{v}) has no {k}-th root at level {d}"
                )
            w = c * ksq
            for i in range(k):
                for j in range(k):
                    key = ((u // k + i * step) % d, (v // k + j * step) % d)
                    terms[key] = terms.get(key, 0) + w
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


def convolve(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Group-algebra product: (x*y)(t) = sum over t1 + t2 = t of x(t1) y(t2)."""
    _check_level(x, y)
    d = x.delta
    terms: dict[tuple[int, int], int | Fraction] = {}
    for (u1, v1), c1 in x.items():
        for (u2, v2), c2 in y.items():
            key = ((u1 + u2) % d, (v1 + v2) % d)
            terms[key] = terms.get(key, 0) + c1 * c2
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
    c = _fraction()(1, d * d)
    return GroupAlgebraElement(
        delta, {(i * step, j * step): c for i in range(d) for j in range(d)}
    )


def unrefine(x: ProjectorElement, new_delta: int) -> ProjectorElement:
    """Push x along multiplication by k = delta/new_delta and restrict the
    level to new_delta: chi_m of the result reads chi_(mk).

    This is the coarsening that relates refinements at nested levels:
    unrefine(bold_sigma(delta, a), delta') = bold_sigma(delta', a).  On the
    dense map it is x.to_dense().m_push(k).rebase(new_delta).
    """
    if new_delta < 1 or x.delta % new_delta:
        raise ValueError(
            f"unrefine expects a positive new_delta | delta, got {new_delta}, {x.delta}"
        )
    k = x.delta // new_delta
    chi = {m // k: c for m, c in x._chi.items() if m % k == 0}
    return ProjectorElement._from_chi(new_delta, chi)
