"""Cut-based rank invariants of tree tensor-network models.

Minimal monochromatic cuts, generic flattening-rank predictions,
train-track versus balanced-tree bond growth, model-inclusion bounds, and
an exact prime-field rank oracle that cross-checks every prediction.
"""

from importlib import import_module

from .cuts import (
    CutResult,
    ProductCut,
    max_colour_cut,
    min_mono_cut,
    min_product_cut,
    verify_colour_cut,
    verify_mono_cut,
)
from .fieldmath import DEFAULT_PRIME, SizeCapError, active_backend, rank_mod
from .hackbusch import (
    ExponentResult,
    LandmarkMismatchError,
    PermScanResult,
    Verdict,
    a_seq,
    hackbusch_verdict,
    landmark_index,
    min_exponent_over_permutations,
    tt_exponent,
)
from .models import (
    ComparisonReport,
    EdgeCheck,
    RankPrediction,
    TnsModel,
    compare_models,
    construct_hard_subset,
    load_model,
    model_from_json_dict,
    optimalize,
    predict_rank,
)
from .rng import CounterRng, derive_seed
from .trees import (
    EdgeId,
    Tree,
    TreeParseError,
    all_binary_trees,
    build_almost_perfect_binary,
    build_train_track,
    complement,
    parse_tree,
    random_binary_tree,
    relabel,
    tree_shapes,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The oracle imports numpy, which takes longer to load than the rest of
    # the package, so its names (PEP 562) and the module load on first access.
    if name != "oracle" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = import_module(".oracle", __name__)
    globals().update((attr, getattr(oracle, attr)) for attr in __all__ if attr not in globals())
    return globals()[name]


__all__ = [
    "CounterRng",
    "ComparisonReport",
    "CutResult",
    "DenseTensor",
    "DEFAULT_PRIME",
    "EdgeCheck",
    "EdgeId",
    "ExponentResult",
    "LandmarkMismatchError",
    "PermScanResult",
    "ProductCut",
    "RankPrediction",
    "SIZE_CAP",
    "SizeCapError",
    "TnsModel",
    "Tree",
    "TreeParseError",
    "Verdict",
    "a_seq",
    "active_backend",
    "all_binary_trees",
    "build_almost_perfect_binary",
    "build_train_track",
    "check_membership",
    "compare_models",
    "complement",
    "construct_hard_subset",
    "derive_seed",
    "estimate_generic_rank",
    "flattening_rank",
    "hackbusch_verdict",
    "kron",
    "landmark_index",
    "load_model",
    "max_colour_cut",
    "min_exponent_over_permutations",
    "min_mono_cut",
    "min_product_cut",
    "model_from_json_dict",
    "optimalize",
    "parse_tree",
    "predict_rank",
    "random_binary_tree",
    "rank_mod",
    "relabel",
    "sample_tns_tensor",
    "tree_shapes",
    "tt_exponent",
    "verify_colour_cut",
    "verify_mono_cut",
]
