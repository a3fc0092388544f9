"""Refined divisor sums with values in the torsion group algebra.

bold_sigma(delta, a) refines the divisor sum sigma(a) into an element of
Q[(Z/delta)^2]: its coefficient at a torsion point records how many of the
sigma(a) weighted covers of the curve land on that correlator.  Two
independent closed forms exist for it, one by its characters and one by
its projector coordinates; both are computed on every call and compared,
so the pair acts as a built-in regression check.

local_invariant packages the closed form of the genus-one, one-interior-
point correlated count: a^(n-1) w1^2 bold_sigma(delta, a), optionally
translated by a special correlator shift.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .arith import divisors, sigma_bar, upsilon
from .projector import ProjectorElement

if TYPE_CHECKING:
    from .torsion import GroupAlgebraElement


class ConsistencyError(RuntimeError):
    """Two independent routes to the same value disagreed (internal bug)."""


def theta_delta_d(delta: int, d: int) -> ProjectorElement:
    """Primitive idempotent attached to a divisor d of delta: chi_d = 1.

    Equals the product over primes p | delta of theta_{p^v(d)} minus, when
    the valuation of d is below that of delta, theta_{p^(v(d)+1)}.  For
    d = delta this is just theta(delta, delta).
    """
    return ProjectorElement.from_characters(delta, {d: 1})


@lru_cache(maxsize=None)
def bold_sigma(delta: int, a: int) -> ProjectorElement:
    """Correlated refinement of sigma(a) at torsion level delta.

    Computed two ways -- by its characters chi_d = sigma_bar^(delta/d)(a),
    d | delta (the sum of sigma_bar^(delta/d)(a) theta_delta_d(delta, d)),
    and as sum of upsilon(delta, d, a) theta(delta, delta/d) -- and the
    results are required to agree exactly.  Total mass is sigma(a);
    coefficients depend only on the order of the point.
    """
    if delta < 1 or a < 1:
        raise ValueError("bold_sigma expects positive arguments")
    divs = divisors(delta)
    via_characters = ProjectorElement.from_characters(
        delta, {d: sigma_bar(delta // d, a) for d in divs}
    )
    via_upsilon = ProjectorElement(
        delta, {delta // d: upsilon(delta, d, a) for d in divs}
    )
    if via_characters != via_upsilon:
        raise ConsistencyError(
            f"bold_sigma routes disagree for delta={delta}, a={a}"
        )
    return via_characters


def local_invariant(
    a: int,
    w1: int,
    n: int,
    delta: int,
    shift: tuple[int, int] | None = None,
) -> ProjectorElement | GroupAlgebraElement:
    """Full correlated count for a genus-one cover with one interior point.

    Equals a^(n-1) w1^2 bold_sigma(delta, a), translated by the optional
    special-correlator shift, a torsion point given as its (u, v) pair mod
    delta.  The shift leaves the projector span, so a shifted count is
    dense.  Total mass is a^(n-1) sigma(a) w1^2, the unrefined count.
    """
    if delta < 1:
        raise ValueError(f"local_invariant expects delta >= 1, got {delta}")
    if a < 1 or w1 < 1:
        raise ValueError("local_invariant expects a >= 1 and w1 >= 1")
    if n < 2:
        raise ValueError(f"local_invariant expects n >= 2, got {n}")
    if w1 % delta:
        raise ValueError(
            f"local_invariant expects delta | w1, got delta={delta}, w1={w1}"
        )
    out = a ** (n - 1) * w1 * w1 * bold_sigma(delta, a)
    if shift is not None:
        out = out.translate(*shift)
    return out

