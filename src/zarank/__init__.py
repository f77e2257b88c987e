"""Biclique unions without large bipartite independent sets.

Build bipartite graphs as unions of complete bipartite pieces, certify via a
union bound that random placements avoid every k x k independent set, refute
under-provisioned families with a random-deletion attack, evaluate the
closed-form size conditions, and verify or audit depth-two superconcentrators.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the submodule that defines it. A name is imported on
# first use (PEP 562), so that ``import zarank.cli`` loads only what a command
# runs: every CLI call is a fresh interpreter.
_MODULE_OF = {
    name: module
    for module, names in {
        "attack": (
            "AttackConfig", "DeletionTrace", "SurvivorStatistics", "classify", "run_attack",
            "run_attack_trials", "survivor_statistics",
        ),
        "bounds": (
            "AsymmetricResult", "BoundReport", "ConditionCheck", "Constants", "DegreeBound", "KstCheck",
            "NormalizedProfile", "ProfileEntry", "asymmetric_condition", "asymmetric_value_at",
            "binary_entropy", "bound_report", "hansel_check", "kst_check", "kst_degree_lower_bound",
            "log2_binomial", "profile_from_family", "profile_from_normalized", "symmetric_condition",
        ),
        "construct": (
            "ConstructionCertificate", "ConstructResult", "MissProbability", "certify_union_bound",
            "construct_until_verified", "miss_probability", "miss_probability_bound",
            "miss_probability_exact", "miss_probability_exact_fraction", "miss_probability_relaxed",
            "random_family",
        ),
        "core": (
            "BicliqueFamily", "BipartiteGraph", "LayeredGraph", "RandomSource", "SchemaError",
            "SubsetSampler", "bits", "canonical_dumps", "family_from_json", "family_to_json",
            "graph_from_json", "graph_to_json", "jsonable", "layered_from_json", "layered_to_json",
            "load_json", "mask_of", "save_json", "transpose_masks", "union_of",
        ),
        "superconc": (
            "Counterexample", "EdgeAuditReport", "MiddleDecomposition", "ScVerdict", "TradeoffReport",
            "balance_degrees", "decompose", "edge_lower_bound_audit", "layered_flip",
            "max_disjoint_paths", "medium_band", "middle_bicliques", "normalize_for_tradeoff",
            "threshold_ladder", "tradeoff_audit", "verify_superconcentrator",
        ),
        "witness": ("WitnessResult", "has_kxk_independent_set"),
    }.items()
    for name in names
}
_SUBMODULES = {*_MODULE_OF.values(), "cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
