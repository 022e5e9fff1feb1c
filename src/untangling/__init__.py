"""Untangling straight-line circular drawings of outerplanar graphs.

A drawing is a clockwise cyclic vertex order; untangling moves as few
vertices as possible to make all chords crossing-free.  The package provides
the combinatorial model, guaranteed-bound and minimum untanglers, brute-force
oracles, hardness-reduction instance builders, and a small CLI.
"""

from .almost_planar import edge_fixed_untangle, min_untangle, one_side_untangle, unwrap_linearizations
from .blocks import (
    BlockDecomposition,
    block_decomposition,
    planar_circular_order,
    planar_order_keeping,
)
from .errors import (
    ConstructionFailed,
    FormatError,
    GenerationFailed,
    InvalidInstance,
    InvalidN,
    NotAlmostPlanar,
    NotAWitness,
    NotDistinct,
    NotOuterplanar,
    PropertyViolation,
    StructuralAssertionFailed,
    TooLarge,
    UnknownEdge,
    UnknownVertex,
    UntanglingError,
)
from .general import general_bound, untangle_general
from .generators import cycle_graph, enumerate_almost_planar_instances, gen_fig5, gen_random, gen_tight_general, path_graph
from .model import (
    ALMOST_PLANAR,
    NOT_ALMOST_PLANAR,
    PLANAR,
    AlmostPlanarClassification,
    CircularDrawing,
    Graph,
    Untangling,
    VerificationReport,
    VertexMove,
    apply_untangling,
    classify,
    crossings,
    is_crossing_free,
    is_planar_drawing,
    moves_to_reach,
    verify_untangling,
)
from .oracle import (
    DistIcorAnswer,
    ExactUntangleResult,
    enumerate_planar_orders,
    exact_3partition,
    exact_disticor,
    exact_min_untangle,
    exact_min_untangle_edge_fixed,
    naive_planar_orders,
)
from .reductions import (
    DistIcorInstance,
    PartitionWitness,
    ReducedDistIcor,
    ThreePartitionInstance,
    chunk_property_check,
    reduce_3p_to_disticor,
    reduce_disticor_to_cu,
    witness_3p_to_disticor,
)
from .render import render_svg
from .seqs import es_tight_cyclic, lccs, lics, lis

__all__ = [name for name in dir() if not name.startswith("_")]
