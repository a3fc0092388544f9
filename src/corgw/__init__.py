"""Exact correlated curve counts for P1-bundles over an elliptic curve.

Counts of curves in E x P1 refined by the torsion correlator of their
boundary configuration, computed through closed-form refined divisor sums
and the floor-diagram calculus, entirely in exact rational arithmetic.

The names below and the submodules load on first use (PEP 562), so that
importing one layer, or the command-line front end, does not load them all.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arith": (
        "Factorization",
        "dedekind_psi",
        "divisors",
        "factorize",
        "jordan2",
        "s_delta",
        "s_delta_order",
        "s_via_lattice",
        "sigma",
        "sigma_bar",
        "upsilon",
    ),
    "diagrams": (
        "Edge",
        "Flat",
        "Floor",
        "FloorDiagram",
        "TangencyProfile",
        "enumerate_diagrams",
        "invariant",
        "multiplicity",
        "validate",
    ),
    "lattice": (
        "Sublattice",
        "enumerate_sublattices",
        "lattice_type",
        "oracle_local_invariant",
        "torsion_image",
    ),
    "polyfit": (
        "DiagramTemplate",
        "gamma_coeffs",
        "invariant_by_template",
        "polynomial_fit",
        "weightings",
    ),
    "qseries": (
        "GASeries",
        "factorization_check",
        "invariant_series",
    ),
    "refined": (
        "ConsistencyError",
        "bold_sigma",
        "coefficient_by_order",
        "local_invariant",
        "theta_delta_d",
    ),
    "torsion": (
        "GroupAlgebraElement",
        "ProjectorElement",
        "TorsionPoint",
        "convolve",
        "theta",
        "theta_coordinates",
        "unrefine",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
