"""Exact group algebra of the delta-torsion of a two-dimensional real torus.

The delta-torsion points of an elliptic curve E = (R/Z)^2 form the group
(Z/delta)^2.  A :class:`GroupAlgebraElement` is a finitely supported map
from these points to exact rationals; multiplication is convolution for
the group law.  Besides the ring structure the module provides the
averaging projectors theta(delta, d), the pushforward along
multiplication by k, and its section dividing by k (averaging over k-th
roots).

Every quantity the refined invariants are built from lies in the span of
the projectors, so it is carried as a :class:`ProjectorElement`: its
characters chi_m, m | delta, which turn the product into a pointwise one
in place of the dense convolution.  Of the level changes it needs only
unrefine: a division average of a product taken at a lower level is the
same product at the ambient level times a projector (see
diagrams._floor_core).  unrefine and theta_coordinates read a
ProjectorElement.  The dense :class:`GroupAlgebraElement` stays the
reference implementation, with m_push, divide and rebase, and carries the
shifted counts of translate.  The two types do not mix in arithmetic: a
sum or product of one of each raises TypeError.  Both share one read-only
dense surface (coefficients, support, rows, JSON, equality, also across
the types), so output does not depend on the representation.  A
ProjectorElement is constant on the points of each order, so it writes
that surface from its order classes; the dense type writes it point by
point, and its writers are the reference.

Values are stored exactly, as a Python int when integral and as a
Fraction only when not: covers are counted and the characters of the
refined divisor sums are integers, so most arithmetic stays on ints, and
denominators enter only through the 1/d^2 of the projectors.  The public
reads (coefficient, total_mass, theta_coordinates) still return Fraction.

All values are immutable; operations return fresh elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Container, Iterable, Mapping, TypeVar

from .arith import divisors

T = TypeVar("T")


def point_order(delta: int, u: int, v: int) -> int:
    """Order of the point (u, v) of (Z/delta)^2: least n >= 1 with n(u, v) = 0."""
    return delta // gcd(u, v, delta)


@lru_cache(maxsize=32)
def _order_rows(delta: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The point orders of (Z/delta)^2 row by row, in tau(delta) * delta
    entries.  Row u holds the orders delta // gcd(u, v, delta), v = 0 ..
    delta - 1, which depend only on g = gcd(u, delta).  Returns, for each u,
    the index of its g among the divisors of delta, and the row of each g."""
    divs = divisors(delta)
    index = {g: i for i, g in enumerate(divs)}
    order = {g: delta // g for g in divs}  # one int object per order
    rows = tuple(tuple(order[gcd(g, v)] for v in range(delta)) for g in divs)
    return tuple(index[gcd(u, delta)] for u in range(delta)), rows


def _integral(c: int | Fraction) -> int | Fraction:
    """An int or Fraction as a stored value: an int when integral."""
    return c.numerator if type(c) is not int and c.denominator == 1 else c


def _exact(c) -> int | Fraction:
    """Any input value as a stored value.  Anything but an int goes
    through Fraction, so floats and decimal strings are read exactly."""
    return c if type(c) is int else _integral(Fraction(c))


def _check_level(x, y) -> None:
    if x.delta != y.delta:
        raise ValueError(f"ambient level mismatch: {x.delta} vs {y.delta}")


class _DenseSurface:
    """Read-only dense view and the members shared by both element types.

    Subclasses provide ``delta`` and ``_terms``, the map (u, v) -> nonzero
    value (int when integral, else Fraction) with reduced keys.  Equal dense
    maps mean equal elements, whatever the representation.  Both types are
    immutable, build their zero from the level alone and subtract as
    x + y * -1 through their own addition and scaling.  The writers here go
    point by point; ProjectorElement overrides them with writers that go by
    order class, and these stay their reference.
    """

    __slots__ = ()

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, delta: int):
        return cls(delta)

    def __sub__(self, other):
        return self + other * -1

    def coefficient(self, u: int, v: int) -> Fraction:
        return Fraction(self._terms.get((u % self.delta, v % self.delta), 0))

    @property
    def support(self) -> list[tuple[int, int]]:
        return sorted(self._terms)

    def items(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return self._terms.items()

    def rows(
        self, cell: Callable[[int, int, int | Fraction], T]
    ) -> list[tuple[int, list[T]]]:
        """The nonzero points row by row: (u, [cell(v, order, value) for
        each nonzero point (u, v), v ascending]) for each row u that has
        one, u ascending."""
        out: dict[int, list[T]] = {}
        for (u, v), c in sorted(self._terms.items()):
            out.setdefault(u, []).append(cell(v, point_order(self.delta, u, v), c))
        return list(out.items())

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

    def to_json(self, separators: tuple[str, str] = (",", ":")) -> str:
        """json.dumps(self.to_json_dict(), separators=separators)."""
        comma, colon = separators
        terms = comma.join(
            f'{{"u"{colon}{u}{comma}"v"{colon}{v}{comma}'
            f'"num"{colon}{c.numerator}{comma}"den"{colon}{c.denominator}}}'
            for (u, v), c in sorted(self._terms.items())
        )
        return f'{{"delta"{colon}{self.delta}{comma}"terms"{colon}[{terms}]}}'


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
    def total_mass(self) -> Fraction:
        return Fraction(sum(self._terms.values()))

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
        ksq = Fraction(1, k * k)
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
    c = Fraction(1, d * d)
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


class ProjectorElement(_DenseSurface):
    """Element of the span of the projectors theta(delta, d), d | delta.

    Built from its coordinates d -> c_d in that basis, or directly from
    its characters by from_characters; stored by its nonzero characters
    chi_m = sum of c_d over d | m, m | delta, which determine the element
    and which character(m) reads.  chi_m(theta_d) = [d | m] is multiplicative by
    theta_d * theta_e = theta_lcm(d, e), so every operation that stays in
    the span reads one character per m: products are pointwise, total_mass
    is chi_delta and unrefine to delta/k reads chi_(mk).  translate leaves
    the span and returns a dense element.

    Characters are stored exactly, as ints when integral (every refined
    divisor sum has integer characters), so products mostly multiply ints.
    Coordinates are recovered by Moebius inversion only for output: repr,
    theta_coordinates and order_values, one exact value per order class.
    The writers (rows, coefficient, support, JSON) work from those values
    and the tau(delta) distinct rows of orders, never point by point; the
    dense map (items, == against a dense element, hash, translate) is
    built from them once, on first use.
    """

    __slots__ = ("delta", "_chi", "_by_order", "_dense")

    def __init__(
        self, delta: int, coords: Mapping[int, Fraction | int] | None = None
    ) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        coords = coords or {}
        for d in coords:
            if d < 1 or delta % d:
                raise ValueError(f"projector index {d} does not divide delta={delta}")
        coords = {d: _exact(c) for d, c in coords.items()}
        self._set(delta, {
            m: sum(c for d, c in coords.items() if m % d == 0)
            for m in (divisors(delta) if coords else ())
        })

    def _set(self, delta: int, chi: Mapping[int, int | Fraction]) -> None:
        object.__setattr__(self, "delta", delta)
        object.__setattr__(
            self, "_chi", {m: _integral(c) for m, c in chi.items() if c}
        )
        object.__setattr__(self, "_by_order", None)
        object.__setattr__(self, "_dense", None)

    def __reduce__(self):
        # copy and pickle rebuild through the checked character constructor.
        return ProjectorElement.from_characters, (self.delta, self._chi)

    @classmethod
    def _from_chi(cls, delta: int, chi: dict[int, int | Fraction]):
        """Trusted constructor for characters an operation just computed."""
        out = object.__new__(cls)
        out._set(delta, chi)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def unit(cls, delta: int) -> "ProjectorElement":
        return cls(delta, {1: 1})

    @classmethod
    def from_characters(
        cls, delta: int, chi: Mapping[int, Fraction | int]
    ) -> "ProjectorElement":
        """The element with characters chi_m = chi[m], m | delta; a
        divisor missing from chi has character 0."""
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        for m in chi:
            if m < 1 or delta % m:
                raise ValueError(f"character index {m} does not divide delta={delta}")
        return cls._from_chi(delta, {m: _exact(c) for m, c in chi.items()})

    # -- inspection ---------------------------------------------------

    def character(self, m: int) -> int | Fraction:
        """chi_m = sum of the coordinates c_d over d | m, for m | delta;
        an int when integral."""
        if m < 1 or self.delta % m:
            raise ValueError(f"character index {m} does not divide delta={self.delta}")
        return self._chi.get(m, 0)

    def _coords(self) -> dict[int, int | Fraction]:
        """Every coordinate c_d, d | delta, by Moebius inversion, smallest d
        first, as stored values."""
        coords: dict[int, int | Fraction] = {}
        for d in divisors(self.delta):
            lower = sum(c for e, c in coords.items() if d % e == 0)
            coords[d] = _integral(self._chi.get(d, 0) - lower)
        return coords

    def order_values(self) -> dict[int, int | Fraction]:
        """The value at a point of order r, for every r | delta, as stored
        values: the element is constant on each order class.  Computed once
        per element."""
        values = self._by_order
        if values is None:
            delta = self.delta
            sq = delta * delta
            coords = self._coords()
            # A point of order r carries the sum of c_d / d^2 over the
            # indices d with r | d, that is n / delta^2 with
            # n = sum of c_d (delta/d)^2.
            values = {}
            for r in coords:
                n = sum(c * (delta // d) ** 2 for d, c in coords.items() if d % r == 0)
                values[r] = n // sq if type(n) is int and not n % sq else _integral(
                    Fraction(n, sq)
                )
            object.__setattr__(self, "_by_order", values)
        return values

    def rows(
        self,
        cell: Callable[[int, int, int | Fraction], T],
        orders: Container[int] | None = None,
    ) -> list[tuple[int, list[T]]]:
        """The points whose order lies in orders (by default the nonzero
        points) row by row: (u, [cell(v, order, value) for each such point
        (u, v), v ascending]) for each row u that has one, u ascending.

        Rows with equal gcd(u, delta) share one list, so cell runs once per
        point of the tau(delta) distinct rows, not once per point."""
        values = self.order_values()
        if orders is None:
            orders = {r for r, c in values.items() if c}
        row_of, rows = _order_rows(self.delta)
        cells = [
            [cell(v, r, values[r]) for v, r in enumerate(row) if r in orders]
            for row in rows
        ]
        return [(u, cells[i]) for u, i in enumerate(row_of) if cells[i]]

    @property
    def _terms(self) -> dict[tuple[int, int], int | Fraction]:
        terms = self._dense
        if terms is None:
            # As rows, inlined: the map has a key per point anyway, and a
            # call per cell would cost more than it saves at small delta.
            values = self.order_values()
            row_of, rows = _order_rows(self.delta)
            terms = {
                (u, v): values[r]
                for u, i in enumerate(row_of)
                for v, r in enumerate(rows[i])
                if values[r]
            }
            object.__setattr__(self, "_dense", terms)
        return terms

    def coefficient(self, u: int, v: int) -> Fraction:
        return Fraction(self.order_values()[point_order(self.delta, u, v)])

    @property
    def support(self) -> list[tuple[int, int]]:
        return [(u, v) for u, vs in self.rows(lambda v, _r, _c: v) for v in vs]

    def to_json(self, separators: tuple[str, str] = (",", ":")) -> str:
        """json.dumps(self.to_json_dict(), separators=separators), written
        from the order classes: each class's num/den text once, each term
        text once per distinct row."""
        comma, colon = separators
        tail = {
            r: f'"num"{colon}{c.numerator}{comma}"den"{colon}{c.denominator}}}'
            for r, c in self.order_values().items()
            if c
        }
        rows = self.rows(lambda v, r, _c: f'"v"{colon}{v}{comma}{tail[r]}', tail)
        terms = comma.join(
            f'{{"u"{colon}{u}{comma}' + f'{comma}{{"u"{colon}{u}{comma}'.join(cells)
            for u, cells in rows
        )
        return f'{{"delta"{colon}{self.delta}{comma}"terms"{colon}[{terms}]}}'

    @property
    def total_mass(self) -> Fraction:
        # Every projector has mass 1, and chi_delta sums every coordinate.
        return Fraction(self._chi.get(self.delta, 0))

    def __bool__(self) -> bool:
        return bool(self._chi)

    def __eq__(self, other) -> bool:
        if isinstance(other, ProjectorElement):
            return self.delta == other.delta and self._chi == other._chi
        return super().__eq__(other)

    __hash__ = _DenseSurface.__hash__

    def __repr__(self) -> str:
        body = ", ".join(f"{d}: {c}" for d, c in self._coords().items() if c)
        return f"Theta[{self.delta}]{{{body}}}"

    def to_dense(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.delta, self._terms)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ProjectorElement") -> "ProjectorElement":
        if not isinstance(other, ProjectorElement):
            return NotImplemented
        _check_level(self, other)
        chi = dict(self._chi)
        for m, c in other._chi.items():
            chi[m] = chi[m] + c if m in chi else c
        return ProjectorElement._from_chi(self.delta, chi)

    def __mul__(self, other):
        if isinstance(other, ProjectorElement):
            _check_level(self, other)
            chi = other._chi
            return ProjectorElement._from_chi(
                self.delta, {m: c * chi[m] for m, c in self._chi.items() if m in chi}
            )
        if isinstance(other, (int, Fraction)):
            return ProjectorElement._from_chi(
                self.delta, {m: c * other for m, c in self._chi.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    # -- group-algebra operators ----------------------------------------

    def translate(self, u0: int, v0: int) -> GroupAlgebraElement:
        """Shift every support point; the result is dense."""
        return self.to_dense().translate(u0, v0)


def theta_coordinates(x: ProjectorElement) -> dict[int, Fraction]:
    """Coordinates c_d of x in the projector basis theta(delta, d), for
    every d | delta, as Fractions: one Moebius inversion of the characters."""
    return {d: Fraction(c) for d, c in x._coords().items()}
