"""Dual integral affine structures on spheres from nef-partitions.

Exact rational machinery for: nef-partition duality, central regular
subdivisions, the transversal sphere complex and its homology, bounded
tropical complexes, the discriminant locus, and monodromy certificates.
"""

from .errors import FalsificationError
from .nef import (
    NefPartition,
    NefPartitionError,
    dual_nef_partition,
    interior_vectors,
    is_irreducible,
    validate_nef_partition,
)
from .pipeline import Pipeline
from .polytope import (
    GeometryError,
    Polytope,
    Vector,
    convex_hull,
    is_reflexive,
    minkowski_sum,
    polar_dual,
)
from .subdivision import (
    BoundarySubdivision,
    WeightFunction,
    boundary_subdivision,
    lower_hull_subdivision,
)

__all__ = [
    "BoundarySubdivision",
    "FalsificationError",
    "GeometryError",
    "NefPartition",
    "NefPartitionError",
    "Pipeline",
    "Polytope",
    "Vector",
    "WeightFunction",
    "boundary_subdivision",
    "convex_hull",
    "dual_nef_partition",
    "interior_vectors",
    "is_irreducible",
    "is_reflexive",
    "lower_hull_subdivision",
    "minkowski_sum",
    "polar_dual",
    "validate_nef_partition",
]

__version__ = "0.1.0"
