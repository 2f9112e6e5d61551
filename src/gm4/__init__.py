"""gm4: torus-bundle blocks over surfaces, SL(2,Z) conjugacy, signatures
and invariants of 4-dimensional graph-manifold structures."""

from .gl2z import (
    ALL_VECTORS,
    ConjClass,
    GL2Z,
    I2,
    L,
    Mat2,
    NotInSL2ZError,
    NotUnimodularError,
    R,
    S,
    SL2Z,
    classify,
    conjugate_in,
    eigenvector_eigenvalue_one,
)
from .bundles import (
    Block,
    BoundaryIso,
    Pi1Element,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    UnsupportedOperationError,
    compose_isos,
    fiber_covering_exists,
    fiber_matrix,
    fibration_unique,
    is_fiber_preserving,
    iso_inverse,
    orientation_reversing_self_diffeo_exists,
    square_root_closed,
    torus_bundle_homology,
    validate_block,
    validate_glueing,
)
from .meyer import block_signature, meyer_cocycle, psi, psi_by_folding
from .assembly import (
    ClosedBaseError,
    Comparison,
    Edge,
    GraphStructure,
    InvariantReport,
    NotReducedError,
    StructureError,
    euler_characteristic,
    first_homology,
    invariant_report,
    is_reduced,
    isomorphic_reduced,
    manifold_signature,
    reduce_structure,
    structure,
    validate_structure,
)
from .manifest import Manifest, ManifestError, dump_structure, load_structure

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
