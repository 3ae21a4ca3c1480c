"""Exact homology of Hurwitz spaces and twisted braid-group homology.

Tuple models of branched covers of the disc, braid-group actions on
them, truncated free resolutions over braid-group rings, exact integer
homology, coefficient-system degree machinery, and desk-scale
homological-stability experiments.  All arithmetic is exact; no
floating point anywhere.
"""

__version__ = "0.1.0"

from .braid import (  # noqa: F401
    BraidWord,
    HurwitzTuple,
    hurwitz_act,
    orbits,
    stabilize_tuple,
    total_product,
)
from .coeffsys import (  # noqa: F401
    CoeffSystem,
    GradedModule,
    build_hurwitz_system,
    build_kunneth_system,
    degree,
    delta,
)
from .experiments import h0_table, stability_table  # noqa: F401
from .groups import ClassSet, FiniteGroup, conjugacy_closure  # noqa: F401
# the homology OPERATION stays at hurstab.homology.homology so the
# top-level name keeps pointing at the submodule
from .homology import (  # noqa: F401
    Coeff,
    HomologyGroup,
    InducedHomologyMap,
    induced_map,
    is_split_injective,
    smith_normal_form,
)
from .monodromy import LabeledInjection, MonodromyModel  # noqa: F401
from .resolution import (  # noqa: F401
    FreeComplex,
    HurwitzModule,
    IntegerComplex,
    TrivialModule,
    salvetti_complex,
    specialize,
    stabilisation_chain_map,
)
