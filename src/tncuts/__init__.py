"""Cut-based rank invariants of tree tensor-network models.

Minimal monochromatic cuts, generic flattening-rank predictions,
train-track versus balanced-tree bond growth, model-inclusion bounds, and
an exact prime-field rank oracle that cross-checks every prediction.

Importing the package loads none of its modules: each public name, and
each submodule, loads on first access (PEP 562).  So a command-line
process compiles only the modules its subcommand runs, and numpy loads
only with the oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "cuts": (
        "CutResult",
        "ProductCut",
        "construct_hard_subset",
        "max_colour_cut",
        "min_mono_cut",
        "min_product_cut",
        "verify_colour_cut",
        "verify_mono_cut",
    ),
    "fieldmath": ("DEFAULT_PRIME", "SIZE_CAP", "active_backend", "rank_mod"),
    "hackbusch": (
        "ExponentResult",
        "LandmarkMismatchError",
        "PermScanResult",
        "Verdict",
        "a_seq",
        "hackbusch_verdict",
        "landmark_index",
        "min_exponent_over_permutations",
        "tt_exponent",
    ),
    "models": (
        "ComparisonReport",
        "EdgeCheck",
        "RankPrediction",
        "TnsModel",
        "compare_models",
        "generic_rank",
        "load_model",
        "model_from_json_dict",
        "optimalize",
        "predict_rank",
    ),
    "oracle": (
        "DenseTensor",
        "check_membership",
        "estimate_generic_rank",
        "flattening_rank",
        "kron",
        "sample_tns_tensor",
    ),
    "rng": ("CounterRng", "derive_seed"),
    "trees": (
        "EdgeId",
        "SizeCapError",
        "Tree",
        "TreeParseError",
        "all_binary_trees",
        "build_almost_perfect_binary",
        "build_train_track",
        "complement",
        "parse_tree",
        "random_binary_tree",
        "relabel",
        "tree_shapes",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", *_EXPORTS}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
        return value
    if name in _SUBMODULES:  # importing a submodule binds it here too
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
