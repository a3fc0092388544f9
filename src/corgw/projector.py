"""Elements of Q[(Z/delta)^2] in the span of the averaging projectors.

The delta-torsion points of an elliptic curve E = (R/Z)^2 form the group
(Z/delta)^2.  Every quantity the refined invariants are built from lies
in the span of the projectors theta(delta, d), d | delta (mass 1/d^2 on
each point of order dividing d), so it is carried as a
:class:`ProjectorElement`: its characters chi_m, m | delta, which make
the group-algebra product pointwise.

The dense reference, GroupAlgebraElement in corgw.torsion, shares the
read-only dense surface defined here (coefficients, support, JSON,
equality, also across the types), so output does not depend on the
representation.  Each type supplies points_text, which writes its
nonzero points as one text: cached texts of u and v, and a text per
value, which a ProjectorElement formats once per order class and lays out
along the tau(delta) distinct rows of point orders (_class_text), and a
dense element formats once per point.  The JSON writer and the CLI table
read points_text; the series CSV calls _class_text itself.
Only to_dense and translate, which return a dense element, import
corgw.torsion.

Values are stored exactly, as a Python int when integral and as a
Fraction only when not: covers are counted and the characters of the
refined divisor sums are integers, so most arithmetic stays on ints, and
denominators enter only through the 1/d^2 of the projectors.  The public
reads (coefficient, total_mass, theta_coordinates) still return Fraction;
mass is the total mass as a stored value, for output.
fractions, which loads decimal, is imported by the first Fraction built
(_fraction), so a job whose values are all ints loads neither.

All values are immutable; operations return fresh elements.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .arith import divisors

if TYPE_CHECKING:
    from fractions import Fraction

    from .torsion import GroupAlgebraElement

_Fraction = None  # fractions.Fraction, bound by the first _fraction() call


def _fraction() -> type[Fraction]:
    """fractions.Fraction, imported on the first call only."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction


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


@lru_cache(maxsize=32)
def _point_texts(
    delta: int, u_format: str, v_format: str, sep: str
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The texts a layout writes for the points of level delta, 3 * delta
    in all: for u = 0 .. delta - 1, u_format.format(u) and sep before it,
    and for v = 0 .. delta - 1, v_format.format(v)."""
    heads = tuple(map(u_format.format, range(delta)))
    v_texts = tuple(map(v_format.format, range(delta)))
    return heads, tuple(sep + h for h in heads), v_texts


def _class_text(
    delta: int, texts: Mapping[int, str], u_format: str, v_format: str, sep: str
) -> str:
    """sep.join of u_format.format(u) + v_format.format(v) + texts[order]
    over the points (u, v) whose order has a text, u then v ascending.

    Each distinct row of orders is laid out once, by a comprehension over
    the cached v texts; each row u then costs one join."""
    heads, seps, v_texts = _point_texts(delta, u_format, v_format, sep)
    row_of, rows = _order_rows(delta)
    cells = [[t + texts[r] for t, r in zip(v_texts, row) if r in texts] for row in rows]
    return sep.join(
        [heads[u] + seps[u].join(cells[i]) for u, i in enumerate(row_of) if cells[i]]
    )


@lru_cache(maxsize=32)
def _order_kernel(delta: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The divisors of delta, ascending, and for each divisor r the integer
    row K_r with delta^2 times the value at a point of order r equal to
    sum over m | delta of K_r[m] chi_m.

    theta(delta, d) puts 1/d^2 on each point of order dividing d, and
    c_d = sum over m | d of mu(d/m) chi_m, so K_r[m] is the sum of
    mu(d/m) (delta/d)^2 over the d | delta that both r and m divide."""
    divs = tuple(divisors(delta))
    mu: dict[int, int] = {}
    for n in divs:  # sum of mu(k) over k | n is [n = 1]
        mu[n] = (n == 1) - sum(mu[k] for k in mu if n % k == 0)
    return divs, tuple(
        tuple(
            sum(mu[d // m] * (delta // d) ** 2 for d in divs if d % r == 0 and d % m == 0)
            for m in divs
        )
        for r in divs
    )


def _integral(c: int | Fraction) -> int | Fraction:
    """An int or Fraction as a stored value: an int when integral."""
    return c.numerator if type(c) is not int and c.denominator == 1 else c


def _exact(c) -> int | Fraction:
    """Any input value as a stored value.  Anything but an int or a
    Fraction goes through Fraction, so floats and decimal strings are read
    exactly; a Fraction is kept as the same object."""
    if type(c) is int:
        return c
    fraction = _fraction()
    return _integral(c if type(c) is fraction else fraction(c))


def _check_level(x, y) -> None:
    if x.delta != y.delta:
        raise ValueError(f"ambient level mismatch: {x.delta} vs {y.delta}")


class _DenseSurface:
    """Read-only dense view and the members shared by both element types.

    Subclasses provide ``delta``, ``_terms``, the map (u, v) -> nonzero
    value (int when integral, else Fraction) with reduced keys, and
    ``mass``, the total mass stored the same way.  Equal dense maps mean
    equal elements, whatever the representation.  Both types are
    immutable, build their zero from the level alone and subtract as
    x + y * -1 through their own addition and scaling.  to_json reads
    points_text; ProjectorElement overrides it and support.  to_json_dict
    reads the map point by point and stays their reference.
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
        return _fraction()(self._terms.get((u % self.delta, v % self.delta), 0))

    @property
    def total_mass(self) -> Fraction:
        return _fraction()(self.mass)

    @property
    def support(self) -> list[tuple[int, int]]:
        return sorted(self._terms)

    def items(self) -> Iterable[tuple[tuple[int, int], int | Fraction]]:
        return self._terms.items()

    def points_text(
        self,
        u_format: str,
        v_format: str,
        value: Callable[[int, int | Fraction], str],
        sep: str,
    ) -> str:
        """sep.join of u_format.format(u) + v_format.format(v) + value(order,
        c) over the nonzero points (u, v), u then v ascending, c the value at
        the point.  The two formats are str.format templates of one field,
        whose texts the level caches (_point_texts).  A dense element's
        values differ point by point, so value runs once per point."""
        heads, _seps, v_texts = _point_texts(self.delta, u_format, v_format, sep)
        row_of, rows = _order_rows(self.delta)
        return sep.join([
            heads[u] + v_texts[v] + value(rows[row_of[u]][v], c)
            for (u, v), c in sorted(self._terms.items())
        ])

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
        """json.dumps(self.to_json_dict(), separators=separators), from
        points_text: the "u" and "v" texts come from the level's cache, and
        the "num" and "den" text is formatted once per order class of a
        ProjectorElement, once per point of a dense element."""
        comma, colon = separators
        terms = self.points_text(
            f'{{{{"u"{colon}{{}}{comma}',  # {"u":<u>, as a str.format template
            f'"v"{colon}{{}}',
            lambda _r, c: (
                f'{comma}"num"{colon}{c.numerator}{comma}"den"{colon}{c.denominator}}}'
            ),
            comma,
        )
        return f'{{"delta"{colon}{self.delta}{comma}"terms"{colon}[{terms}]}}'


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
    Coordinates are recovered by Moebius inversion only for repr and
    theta_coordinates; order_values reads one exact value per order class
    straight from the characters, through the level's integer kernel.
    points_text, support and coefficient work from those values and the
    tau(delta) distinct rows of orders, never point by point, and so does
    the JSON, which reads points_text; the dense map (items, == against a
    dense element, hash, translate) is built from the rows of orders once,
    on first use.
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
        """The value at a point of order r, for every r | delta ascending,
        as stored values: the element is constant on each order class.
        Computed once per element, as one tau(delta)^2 pass of the level's
        kernel over the characters."""
        values = self._by_order
        if values is None:
            sq = self.delta * self.delta
            divs, kernel = _order_kernel(self.delta)
            chi = [self._chi.get(m, 0) for m in divs]
            values = {}
            for r, row in zip(divs, kernel):
                n = sum(map(mul, row, chi))
                values[r] = n // sq if type(n) is int and not n % sq else _integral(
                    _fraction()(n, sq)
                )
            object.__setattr__(self, "_by_order", values)
        return values

    def points_text(
        self,
        u_format: str,
        v_format: str,
        value: Callable[[int, int | Fraction], str],
        sep: str,
    ) -> str:
        """_DenseSurface.points_text with value run once per order class:
        the element is constant on each, so its text is laid out along the
        tau(delta) distinct rows of orders (_class_text)."""
        texts = {r: value(r, c) for r, c in self.order_values().items() if c}
        return _class_text(self.delta, texts, u_format, v_format, sep)

    @property
    def support(self) -> list[tuple[int, int]]:
        nonzero = {r for r, c in self.order_values().items() if c}
        row_of, rows = _order_rows(self.delta)
        vs = [[v for v, r in enumerate(row) if r in nonzero] for row in rows]
        return [(u, v) for u, i in enumerate(row_of) for v in vs[i]]

    @property
    def _terms(self) -> dict[tuple[int, int], int | Fraction]:
        terms = self._dense
        if terms is None:
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
        return _fraction()(self.order_values()[point_order(self.delta, u, v)])

    @property
    def mass(self) -> int | Fraction:
        """The total mass as a stored value: chi_delta, since every
        projector has mass 1 and chi_delta sums every coordinate."""
        return self._chi.get(self.delta, 0)

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
        from .torsion import GroupAlgebraElement

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
        # An int scalar is tested first, so it never loads fractions.
        if isinstance(other, int) or isinstance(other, _fraction()):
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
    fraction = _fraction()
    return {d: fraction(c) for d, c in x._coords().items()}
