"""Multiplicative arithmetic functions over exact integers.

Divisor sums, the second Jordan totient, the Dedekind psi function, and the
gcd-twisted divisor sums that appear when degree-a covers of an elliptic
curve are counted together with their torsion data.  Everything is exact:
plain Python integers in, plain Python integers out, with all helpers
factoring through a single trial-division factorization.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import attrgetter


class Frozen:
    """Base of the package's immutable value classes.

    The fields are the ``__slots__`` of the nearest class that declares
    non-empty ones.  ``__init__`` takes exactly one value per field, in that
    order and positionally (TypeError otherwise), and ``__reduce__`` hands
    them back in it; a subclass that checks or normalises its arguments
    ends its own ``__init__`` in one ``super().__init__(...)``.  Later
    assignment raises AttributeError.  Equality (same class, equal
    fields) and the hash read the fields through one
    ``operator.attrgetter``, ``_key``, bound per class, so they read the
    fields in C with no Python loop; the ``Name(field=value, ...)`` repr
    reads them by name.

    The value classes are written out by hand on this base rather than
    generated by the standard library's class decorator: loading that
    decorator's module, which pulls in the source-introspection modules,
    and building each class's methods from generated source cost every CLI
    process about 20 ms before any arithmetic.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = cls.__slots__
            # Not a descriptor, so it is called as self._key(self): the
            # field itself for one field, the tuple of fields for more.
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            name = type(self).__qualname__
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(values)}")
        for key, value in zip(fields, values):
            object.__setattr__(self, key, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-runs its checks.
        return type(self), self._values()


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes increasing, by trial division."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    factors = []
    m = n
    p = 2
    while p <= isqrt(m):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _over_primes(term, *ns: int) -> int:
    """Product of term(p, v_p(n) for each n in ns) over the primes p that
    divide one of ns: the value of a multiplicative function of ns, read
    straight off the factorize tuples."""
    out = 1
    rows: dict[int, list[int]] = {}
    for k, n in enumerate(ns):
        for p, e in factorize(n):
            rows.setdefault(p, [0] * len(ns))[k] = e
    for p, row in rows.items():
        out *= term(p, *row)
    return out


def _sigma_prime_power(p: int, e: int) -> int:
    # sigma(p^e) = 1 + p + ... + p^e
    return (p ** (e + 1) - 1) // (p - 1)


def sigma(a: int) -> int:
    """Sum of divisors sigma(a)."""
    if a < 1:
        raise ValueError(f"sigma expects a >= 1, got {a}")
    return _over_primes(_sigma_prime_power, a)


def sigma_bar(d: int, a: int) -> int:
    """Shifted divisor sum: sigma(a/d) when d divides a, else 0."""
    if d < 1 or a < 1:
        raise ValueError("sigma_bar expects positive arguments")
    if a % d:
        return 0
    return sigma(a // d)


def jordan2(d: int) -> int:
    """Second Jordan totient J2; counts order-d elements of (Z/d)^2.

    Multiplicative with J2(p^e) = p^(2e-2) (p^2 - 1).
    """
    if d < 1:
        raise ValueError(f"jordan2 expects d >= 1, got {d}")
    return _over_primes(lambda p, e: p ** (2 * e - 2) * (p * p - 1), d)


def dedekind_psi(n: int) -> int:
    """Dedekind psi; counts primitive index-n sublattices of Z^2.

    Multiplicative with psi(p^e) = p^(e-1) (p + 1).
    """
    if n < 1:
        raise ValueError(f"dedekind_psi expects n >= 1, got {n}")
    return _over_primes(lambda p, e: p ** (e - 1) * (p + 1), n)


def _sigma_bar_pp(p: int, j: int, alpha: int) -> int:
    # sigma_bar^{p^j}(p^alpha)
    if alpha < j:
        return 0
    return _sigma_prime_power(p, alpha - j) if alpha > j else 1


def upsilon(delta: int, d: int, a: int) -> int:
    """Inclusion-exclusion twist of sigma_bar attached to a divisor d of delta.

    Product over primes of sigma_bar^{p^v} minus, when v is below the
    valuation of delta, the next shift sigma_bar^{p^(v+1)}, evaluated on
    the p-part of a.  For delta = d = 1 this collapses to sigma(a).
    """
    if delta < 1 or a < 1:
        raise ValueError("upsilon expects positive arguments")
    if d < 1 or delta % d:
        raise ValueError(
            f"upsilon expects a positive d | delta, got d={d}, delta={delta}"
        )

    def term(p: int, vd: int, vdelta: int, alpha: int) -> int:
        out = _sigma_bar_pp(p, vd, alpha)
        if vd < vdelta:
            out -= _sigma_bar_pp(p, vd + 1, alpha)
        return out

    return _over_primes(term, d, delta, a)


def s_delta(delta: int, a: int) -> int:
    """Torsion-weighted divisor sum: sum over d | delta of J2(d) sigma_bar^d(a)."""
    if delta < 1 or a < 1:
        raise ValueError("s_delta expects positive arguments")
    return sum(jordan2(d) * sigma_bar(d, a) for d in divisors(delta))


def s_via_lattice(delta: int, a: int) -> int:
    """Same value as s_delta, computed as a sum over square divisors.

    Sums gcd(k, delta) gcd(a/k, delta) psi(a/k^2) over all k with k^2 | a;
    this is the sublattice-type route and is kept independent of s_delta
    so the two can cross-check each other.
    """
    if delta < 1 or a < 1:
        raise ValueError("s_via_lattice expects positive arguments")
    return sum(
        gcd(k, delta) * gcd(a // k, delta) * dedekind_psi(a // (k * k))
        for k in range(1, isqrt(a) + 1) if a % (k * k) == 0
    )


def _s_pp(p: int, d: int, alpha: int) -> int:
    # s_{p^d}(p^alpha) = sum_{j=0..d} J2(p^j) sigma_bar^{p^j}(p^alpha)
    return sum(
        jordan2(p**j) * _sigma_bar_pp(p, j, alpha) for j in range(min(d, alpha) + 1)
    )


def s_delta_order(delta: int, r: int, a: int) -> int:
    """Order-r coefficient function s_delta[r](a).

    Fully multiplicative: the value is the product over primes of the
    prime-power values, which for r = p^j with j >= 1 are
    s_{p^(d-j)} - p^(2d-2j) sigma_bar^{p^(d-j+1)} at the p-part of a.
    s_delta_order(delta, 1, a) coincides with s_delta(delta, a).
    """
    if delta < 1 or a < 1:
        raise ValueError("s_delta_order expects positive arguments")
    if r < 1 or delta % r:
        raise ValueError(
            f"s_delta_order expects a positive r | delta, got r={r}, delta={delta}"
        )

    def term(p: int, d: int, j: int, alpha: int) -> int:
        if j == 0:
            return _s_pp(p, d, alpha)
        return _s_pp(p, d - j, alpha) - p ** (2 * (d - j)) * _sigma_bar_pp(
            p, d - j + 1, alpha
        )

    return _over_primes(term, delta, r, a)
