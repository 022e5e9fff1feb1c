"""Untangling straight-line circular drawings of outerplanar graphs.

A drawing is a clockwise cyclic vertex order; untangling moves as few
vertices as possible to make all chords crossing-free.  The package provides
the combinatorial model, guaranteed-bound and minimum untanglers, brute-force
oracles, hardness-reduction instance builders, and a small CLI.

`import untangling` loads no submodule.  Each public name below is bound to
its submodule's object on first access (PEP 562), so a caller, the CLI
included, compiles and runs only the modules it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "almost_planar": ("edge_fixed_untangle", "min_untangle", "one_side_untangle", "unwrap_linearizations"),
    "blocks": ("BlockDecomposition", "block_decomposition", "planar_circular_order", "planar_order_keeping"),
    "errors": (
        "ConstructionFailed", "FormatError", "GenerationFailed", "InvalidInstance", "InvalidN",
        "NotAlmostPlanar", "NotAWitness", "NotDistinct", "NotOuterplanar", "PropertyViolation",
        "StructuralAssertionFailed", "TooLarge", "UnknownEdge", "UnknownVertex", "UntanglingError",
    ),
    "general": ("general_bound", "untangle_general"),
    "generators": (
        "cycle_graph", "enumerate_almost_planar_instances", "gen_fig5", "gen_random", "gen_tight_general",
        "path_graph",
    ),
    "model": (
        "ALMOST_PLANAR", "NOT_ALMOST_PLANAR", "PLANAR", "AlmostPlanarClassification", "CircularDrawing",
        "Graph", "Untangling", "VerificationReport", "VertexMove", "apply_untangling", "classify",
        "crossings", "is_crossing_free", "is_planar_drawing", "moves_to_reach", "verify_untangling",
    ),
    "oracle": (
        "DistIcorAnswer", "ExactUntangleResult", "enumerate_planar_orders", "exact_3partition",
        "exact_disticor", "exact_min_untangle", "exact_min_untangle_edge_fixed", "naive_planar_orders",
    ),
    "reductions": (
        "DistIcorInstance", "PartitionWitness", "ReducedDistIcor", "ThreePartitionInstance",
        "chunk_property_check", "reduce_3p_to_disticor", "reduce_disticor_to_cu", "witness_3p_to_disticor",
    ),
    "render": ("render_svg",),
    "seqs": ("es_tight_cyclic", "lccs", "lics", "lis"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
