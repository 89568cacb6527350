"""Exact verification toolkit for homological Helly-type intersection
criteria on simplicial subcomplex families, and for the space of line
transversals to families of open convex polygons in the plane.
"""

__version__ = "0.1.0"

from .errors import (
    HellyTopoError,
    ContractViolation,
    ValidationError,
    GenerationFailure,
    InvariantViolation,
)
from .complex_core import (
    SimplicialComplex,
    Subcomplex,
    SubcomplexFamily,
    build_complex,
    face_closure,
    grid_complex,
    intersect_members,
    union_members,
    parse_family,
    load_family,
)
from .homology import (
    CoefficientField,
    GF2,
    RATIONALS,
    BettiVector,
    betti_number,
    reduced_betti,
)
from .helly_engine import (
    Verdict,
    HypothesisLedger,
    random_family,
    run_verifier,
    sweep,
)
from .sweeps import SweepReport
from .transversal_kernel import ConvexPolygon, PolygonFamily, disjointness_class, polygons_disjoint
from .envelope import (
    ComponentSummary, TransversalProfile, components, sample_oracle, transversal_profile,
)
from .transversal_plane import (
    parse_polygon_family, load_polygon_family, sweep_transversal, verify_theorem_321,
    verify_transversal,
)

__all__ = [
    "__version__",
    "HellyTopoError",
    "ContractViolation",
    "ValidationError",
    "GenerationFailure",
    "InvariantViolation",
    "SimplicialComplex",
    "Subcomplex",
    "SubcomplexFamily",
    "build_complex",
    "face_closure",
    "grid_complex",
    "intersect_members",
    "union_members",
    "parse_family",
    "load_family",
    "CoefficientField",
    "GF2",
    "RATIONALS",
    "BettiVector",
    "betti_number",
    "reduced_betti",
    "Verdict",
    "HypothesisLedger",
    "SweepReport",
    "random_family",
    "run_verifier",
    "sweep",
    "ConvexPolygon",
    "PolygonFamily",
    "ComponentSummary",
    "TransversalProfile",
    "components",
    "disjointness_class",
    "polygons_disjoint",
    "sample_oracle",
    "transversal_profile",
    "parse_polygon_family",
    "load_polygon_family",
    "sweep_transversal",
    "verify_theorem_321",
    "verify_transversal",
]
