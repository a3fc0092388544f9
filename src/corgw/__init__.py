"""Exact correlated curve counts for P1-bundles over an elliptic curve.

Counts of curves in E x P1 refined by the torsion correlator of their
boundary configuration, computed through closed-form refined divisor sums
and the floor-diagram calculus, entirely in exact rational arithmetic.

The names live in the submodules, one per layer, and are imported from
there (``from corgw.search import invariant``): ``arith``,
``projector`` (the group-algebra elements the computation carries, by
their characters), ``torsion`` (the dense reference), ``refined``,
``lattice``, ``search`` (the structure search and the totals read off
it), ``diagrams`` (the diagrams, their validity and multiplicities, and
the listing), ``qseries``, ``polyfit`` and the command-line front end
``cli``.  Importing the package loads none of them.
"""

import sys

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every ``lru_cache`` defined in the corgw modules loaded so far.

    Modules not yet imported stay unloaded: their caches are empty anyway.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear") and value.__module__ == name:
                    value.cache_clear()
