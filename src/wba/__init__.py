"""Walled Brauer algebra diagrams, the positive multilinear maps they induce,
and numerical entanglement-witness classification on small tensor powers."""

from .dense_ops import DenseOperator
from .sym_core import (
    Partition,
    Permutation,
    character,
    compose,
    coset_representatives,
    enumerate_group,
    irrep_dimension,
    schur_weyl_multiplicity,
    young_projector,
)
from .wba_algebra import (
    GroupAlgebraElement,
    WbaDiagram,
    WbaElement,
    compose_diagrams,
    f_projector,
    from_permutation,
    gamma,
    realize,
    sigma_k,
)

__version__ = "0.1.0"

__all__ = [
    "DenseOperator",
    "GroupAlgebraElement",
    "Partition",
    "Permutation",
    "WbaDiagram",
    "WbaElement",
    "character",
    "compose",
    "compose_diagrams",
    "coset_representatives",
    "enumerate_group",
    "f_projector",
    "from_permutation",
    "gamma",
    "irrep_dimension",
    "realize",
    "schur_weyl_multiplicity",
    "sigma_k",
    "young_projector",
    "__version__",
]
