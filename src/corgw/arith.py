"""Multiplicative arithmetic functions over exact integers.

Divisor sums, the second Jordan totient, the Dedekind psi function, and the
gcd-twisted divisor sums that appear when degree-a covers of an elliptic
curve are counted together with their torsion data.  Everything is exact:
plain Python integers in, plain Python integers out, with all helpers
factoring through a single trial-division factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a tuple of (prime, exponent) pairs.

    Primes are strictly increasing and exponents are >= 1; the empty tuple
    represents 1.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


@lru_cache(maxsize=None)
def factorize(n: int) -> Factorization:
    """Trial-division factorization; inputs here stay desk-scale."""
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
    return Factorization(tuple(factors))


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _sigma_prime_power(p: int, e: int) -> int:
    # sigma(p^e) = 1 + p + ... + p^e
    return (p ** (e + 1) - 1) // (p - 1)


def sigma(a: int) -> int:
    """Sum of divisors sigma(a)."""
    if a < 1:
        raise ValueError(f"sigma expects a >= 1, got {a}")
    out = 1
    for p, e in factorize(a).factors:
        out *= _sigma_prime_power(p, e)
    return out


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
    out = 1
    for p, e in factorize(d).factors:
        out *= p ** (2 * e - 2) * (p * p - 1)
    return out


def dedekind_psi(n: int) -> int:
    """Dedekind psi; counts primitive index-n sublattices of Z^2.

    Multiplicative with psi(p^e) = p^(e-1) (p + 1).
    """
    if n < 1:
        raise ValueError(f"dedekind_psi expects n >= 1, got {n}")
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p + 1)
    return out


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
    fd = factorize(d)
    fdelta = factorize(delta)
    fa = factorize(a)
    primes = sorted({p for p, _ in fdelta.factors} | {p for p, _ in fa.factors})
    out = 1
    for p in primes:
        vd = fd.valuation(p)
        vdelta = fdelta.valuation(p)
        alpha = fa.valuation(p)
        term = _sigma_bar_pp(p, vd, alpha)
        if vd < vdelta:
            term -= _sigma_bar_pp(p, vd + 1, alpha)
        out *= term
    return out


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
    total = 0
    for k in range(1, isqrt(a) + 1):
        if a % (k * k) == 0:
            total += gcd(k, delta) * gcd(a // k, delta) * dedekind_psi(a // (k * k))
    return total


def _s_pp(p: int, d: int, alpha: int) -> int:
    # s_{p^d}(p^alpha) = sum_{j=0..d} J2(p^j) sigma_bar^{p^j}(p^alpha)
    total = 0
    for j in range(min(d, alpha) + 1):
        total += jordan2(p**j) * _sigma_bar_pp(p, j, alpha)
    return total


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
    fdelta = factorize(delta)
    fr = factorize(r)
    fa = factorize(a)
    primes = sorted({p for p, _ in fdelta.factors} | {p for p, _ in fa.factors})
    out = 1
    for p in primes:
        d = fdelta.valuation(p)
        j = fr.valuation(p)
        alpha = fa.valuation(p)
        if j == 0:
            out *= _s_pp(p, d, alpha)
        else:
            out *= _s_pp(p, d - j, alpha) - p ** (2 * (d - j)) * _sigma_bar_pp(
                p, d - j + 1, alpha
            )
    return out
