"""Exact correlated curve counts for P1-bundles over an elliptic curve.

Counts of curves in E x P1 refined by the torsion correlator of their
boundary configuration, computed through closed-form refined divisor sums
and the floor-diagram calculus, entirely in exact rational arithmetic.
"""

from .arith import (
    Factorization,
    dedekind_psi,
    divisors,
    factorize,
    jordan2,
    s_delta,
    s_delta_order,
    s_via_lattice,
    sigma,
    sigma_bar,
    upsilon,
)
from .diagrams import (
    Edge,
    Flat,
    Floor,
    FloorDiagram,
    TangencyProfile,
    bivalent_contribution,
    canonical_key,
    enumerate_diagrams,
    invariant,
    multiplicity,
    validate,
)
from .lattice import (
    Sublattice,
    enumerate_sublattices,
    lattice_type,
    oracle_local_invariant,
    torsion_image,
)
from .polyfit import (
    DiagramTemplate,
    adjacency_matrix,
    gamma_coeffs,
    invariant_by_template,
    polynomial_fit,
    weightings,
)
from .qseries import (
    GASeries,
    factorization_check,
    invariant_series,
    local_series,
    q_derivative,
    sigma_series,
)
from .refined import (
    ConsistencyError,
    bold_sigma,
    coefficient_by_order,
    local_invariant,
    theta_delta_d,
)
from .torsion import (
    GroupAlgebraElement,
    ProjectorElement,
    TorsionPoint,
    convolve,
    divide,
    m_push,
    order,
    rebase,
    theta,
    theta_coordinates,
    unrefine,
)

__version__ = "0.1.0"
