"""Exact-arithmetic engine for oriented dialgebras.

Computes tree-indexed dialgebra cohomology, the equivariant bicomplex of a
finite oriented group action, singular extensions classified by degree-1
classes, and truncated one-parameter formal deformations.  All arithmetic
is exact over the rationals.
"""

from .cohomology import (
    EngineConfig,
    dialgebra_cohomology,
    equivariant_cohomology,
    is_degree1_cocycle,
)
from .deformations import (
    DeformationEquivalence,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    infinitesimal,
    infinitesimals_cohomologous,
    rigidity_probe,
    transport_constant,
    transport_deformation,
)
from .dialgebra import (
    Check,
    Dialgebra,
    Report,
    check_axioms,
    from_associative,
    from_bimodule_map,
    from_differential,
    is_morphism,
)
from .extensions import (
    SingularExtension,
    build_extension,
    canonical_section,
    check_extension,
    cocycles_cohomologous,
    extract_cocycle,
)
from .linalg import (
    Matrix,
    in_image,
    nullspace,
    rank,
)
from .oriented import (
    OrientedDialgebra,
    OrientedGroup,
    check_oriented_dialgebra,
    check_oriented_group,
    sign_group,
    symmetric_group,
    trivial_group,
)
from .trees import (
    LEAF,
    LeafOrientation,
    Tree,
    catalan,
    degeneracy,
    enumerate_trees,
    face,
    graft,
    leaf_orientation,
    tree_from_word,
)

__version__ = "0.1.0"

__all__ = [
    "Check", "DeformationEquivalence", "Dialgebra", "EngineConfig", "LEAF",
    "LeafOrientation", "Matrix", "OrientedDialgebra", "OrientedGroup", "Report",
    "SingularExtension", "TruncatedDeformation", "Tree", "__version__",
    "build_extension", "canonical_section", "catalan", "check_axioms",
    "check_deformation", "check_equivalence", "check_extension",
    "check_oriented_dialgebra", "check_oriented_group", "cocycles_cohomologous",
    "degeneracy", "dialgebra_cohomology", "enumerate_trees", "equivariant_cohomology",
    "extract_cocycle", "face", "from_associative", "from_bimodule_map",
    "from_differential", "graft", "in_image", "infinitesimal",
    "infinitesimals_cohomologous", "is_degree1_cocycle", "is_morphism",
    "leaf_orientation", "nullspace", "rank", "rigidity_probe", "sign_group",
    "symmetric_group", "transport_constant", "transport_deformation",
    "tree_from_word", "trivial_group",
]
