"""Biclique unions without large bipartite independent sets.

Build bipartite graphs as unions of complete bipartite pieces, certify via a
union bound that random placements avoid every k x k independent set, refute
under-provisioned families with a random-deletion attack, evaluate the
closed-form size conditions, and verify or audit depth-two superconcentrators.
"""

__version__ = "0.1.0"

from .attack import (
    AttackConfig,
    DeletionTrace,
    SurvivorStatistics,
    classify,
    run_attack,
    run_attack_trials,
    survivor_statistics,
)
from .bounds import (
    AsymmetricResult,
    BoundReport,
    ConditionCheck,
    Constants,
    NormalizedProfile,
    ProfileEntry,
    asymmetric_condition,
    asymmetric_value_at,
    binary_entropy,
    bound_report,
    hansel_check,
    kst_check,
    kst_degree_lower_bound,
    log2_binomial,
    profile_from_family,
    profile_from_normalized,
    symmetric_condition,
)
from .construct import (
    ConstructionCertificate,
    ConstructResult,
    MissProbability,
    certify_union_bound,
    construct_until_verified,
    miss_probability,
    miss_probability_bound,
    miss_probability_exact,
    miss_probability_exact_fraction,
    miss_probability_relaxed,
    random_family,
)
from .core import (
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    SchemaError,
    SubsetSampler,
    bits,
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_to_json,
    layered_from_json,
    layered_to_json,
    load_json,
    mask_of,
    save_json,
    union_of,
)
from .superconc import (
    EdgeAuditReport,
    MiddleDecomposition,
    ScVerdict,
    TradeoffReport,
    balance_degrees,
    decompose,
    edge_lower_bound_audit,
    layered_flip,
    max_disjoint_paths,
    medium_band,
    middle_bicliques,
    normalize_for_tradeoff,
    threshold_ladder,
    tradeoff_audit,
    verify_superconcentrator,
)
from .witness import (
    WitnessConfig,
    WitnessResult,
    has_kxk_independent_set,
)
