"""Random-deletion refuter: finds k x k independent sets in under-provisioned
biclique families.

One trial deletes a uniformly chosen side of every attacked biclique
(symmetric mode attacks the large ones; asymmetric mode attacks the unmarked
ones with side probabilities p_i and 1 - p_i), keeps the half of each side
whose deletion exponent d_v is smallest, optionally rebalances survival so
every kept vertex survives with probability exactly 2^-d, and then searches
the surviving rectangle for a witness against the kept bicliques only: the kept
union graph is built once per attack, and each trial searches it restricted
to its survivors. Any witness found is re-verified against every biclique of
the family before it is reported: an attacked biclique has a deleted side
disjoint from the survivors, so it cannot contribute an edge between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .bounds import NormalizedProfile, asymmetric_condition, profile_from_family
from .core import BicliqueFamily, RandomSource, bits, mask_of, union_of
from .witness import DEFAULT_NODE_BUDGET, has_kxk_independent_set

__all__ = [
    "AttackConfig",
    "DeletionTrace",
    "SurvivorStatistics",
    "classify",
    "run_attack",
    "run_attack_trials",
    "survivor_statistics",
]


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the deletion refuter; trials >= 1 and an explicit seed."""

    mode: str  # "symmetric" | "asymmetric"
    rng: RandomSource
    trials: int = 1
    marked: Optional[frozenset[int]] = None  # asymmetric; default: binding argmin
    truncation: str = "exact"  # "exact" (force survival 2^-d) | "none"
    fixed_d: Optional[float] = None  # override the median-based threshold
    node_budget: int = DEFAULT_NODE_BUDGET  # per witness search

    def __post_init__(self) -> None:
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if self.mode == "symmetric" and self.marked is not None:
            raise ValueError("a marked set applies to asymmetric mode only")
        if self.truncation not in ("exact", "none"):
            raise ValueError(f"unknown truncation {self.truncation!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.node_budget < 1:
            raise ValueError("node budget must be >= 1")
        # Deletion exponents are >= 0, so a negative threshold keeps no vertex.
        if self.fixed_d is not None and not 0.0 <= self.fixed_d < math.inf:
            raise ValueError(f"fixed_d must be a finite number >= 0, got {self.fixed_d}")


def classify(
    profile: NormalizedProfile, mode: str, marked: Optional[Iterable[int]] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split indices into (attacked, kept).

    Symmetric mode attacks indices with alpha > 1; asymmetric mode attacks the
    complement of the marked set.
    """
    r = len(profile.entries)
    if mode == "symmetric":
        attacked = tuple(i for i, e in enumerate(profile.entries) if e.alpha > 1.0)
        kept = tuple(i for i, e in enumerate(profile.entries) if e.alpha <= 1.0)
        return attacked, kept
    if mode != "asymmetric":
        raise ValueError(f"unknown attack mode {mode!r}")
    if marked is None:
        marked_set = set(asymmetric_condition(profile, 0.0).argmin_x)
        # Degenerate (empty) bicliques cannot be side-deleted; keep them.
        marked_set.update(i for i, e in enumerate(profile.entries) if e.degenerate)
    else:
        marked_set = set(marked)
        if not marked_set <= set(range(r)):
            raise ValueError(f"marked set {sorted(marked_set)} not within 0..{r - 1}")
    attacked = tuple(i for i in range(r) if i not in marked_set)
    kept = tuple(i for i in range(r) if i in marked_set)
    return attacked, kept


@dataclass(frozen=True)
class DeletionTrace:
    """Full record of one deletion trial; vertex sets are sorted index tuples."""

    mode: str
    truncation: str
    trial: int
    seed: int
    stream_id: int
    n: int
    k: int
    marked: Optional[tuple[int, ...]]
    attacked: tuple[int, ...]
    kept: tuple[int, ...]
    deleted_side: tuple[str, ...]  # aligned with `attacked`
    d_left: float
    d_right: float
    d_v_left: tuple[float, ...]
    d_v_right: tuple[float, ...]
    s_v_left: tuple[int, ...]
    s_v_right: tuple[int, ...]
    v_prime: tuple[int, ...]
    w_prime: tuple[int, ...]
    x_surv: tuple[int, ...]
    y_surv: tuple[int, ...]
    attacked_edge_pairs_surviving: int
    kept_edge_sum_surviving: int
    kept_union_edges_surviving: int
    kept_edge_sum_expectation: float
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    witness_search_complete: bool
    found: bool


class _AttackPlan:
    """Everything about an attack that does not depend on the coin flips."""

    def __init__(self, family: BicliqueFamily, config: AttackConfig):
        self.family = family
        self.config = config
        n = family.n
        profile = profile_from_family(family)
        self.profile = profile
        self.attacked, self.kept = classify(profile, config.mode, config.marked)
        self.marked = self.kept if config.mode == "asymmetric" else None

        self.left_masks = family.left
        self.right_masks = family.right

        # Side-deletion probabilities for attacked indices: delete the right
        # side of biclique i with probability p_i, the left side otherwise.
        self.p: dict[int, float] = {}
        for i in self.attacked:
            e = profile.entries[i]
            if config.mode == "asymmetric":
                if e.degenerate:
                    raise ValueError(
                        f"cannot attack empty biclique {i}: alpha + beta = 0"
                    )
                self.p[i] = e.p
            else:
                self.p[i] = 0.5

        d_v_left = [0.0] * n
        d_v_right = [0.0] * n
        s_v_left = [0] * n
        s_v_right = [0] * n
        for i in self.attacked:
            p = self.p[i]
            # Members exist on a side only if that side is nonempty, in which
            # case the corresponding probability is strictly positive.
            if self.left_masks[i]:
                w_left = math.log2(1.0 / p)
                for v in bits(self.left_masks[i]):
                    d_v_left[v] += w_left
                    s_v_left[v] += 1
            if self.right_masks[i]:
                w_right = math.log2(1.0 / (1.0 - p))
                for w in bits(self.right_masks[i]):
                    d_v_right[w] += w_right
                    s_v_right[w] += 1
        self.d_v_left = tuple(d_v_left)
        self.d_v_right = tuple(d_v_right)
        self.s_v_left = tuple(s_v_left)
        self.s_v_right = tuple(s_v_right)

        half = (n + 1) // 2
        if config.fixed_d is not None:
            self.d_left = self.d_right = float(config.fixed_d)
        else:
            self.d_left = sorted(d_v_left)[half - 1]
            self.d_right = sorted(d_v_right)[half - 1]
        self.v_prime = [v for v in range(n) if d_v_left[v] <= self.d_left][:half]
        self.w_prime = [w for w in range(n) if d_v_right[w] <= self.d_right][:half]
        self.v_prime_mask = sum(1 << v for v in self.v_prime)
        self.w_prime_mask = sum(1 << w for w in self.w_prime)

        # The kept bicliques' union, rows and columns, shared by every trial:
        # a trial searches it restricted to its survivors.
        kept_family = BicliqueFamily(
            n,
            family.k,
            tuple(self.left_masks[i] for i in self.kept),
            tuple(self.right_masks[i] for i in self.kept),
        )
        self.kept_graph = union_of(kept_family)
        self.kept_edge_sum_expectation = sum(
            self.left_masks[i].bit_count()
            * self.right_masks[i].bit_count()
            * 2.0 ** -(self.d_left + self.d_right)
            for i in self.kept
        )


def _run_trial(plan: _AttackPlan, trial: int) -> DeletionTrace:
    config = plan.config
    n = plan.family.n
    k = plan.family.k
    gen = config.rng.derive(trial).rng()

    deleted_side = []
    deleted_left_union = 0
    deleted_right_union = 0
    for i in plan.attacked:
        if gen.random() < plan.p[i]:
            deleted_side.append("right")
            deleted_right_union |= plan.right_masks[i]
        else:
            deleted_side.append("left")
            deleted_left_union |= plan.left_masks[i]

    x_surv = plan.v_prime_mask & ~deleted_left_union
    y_surv = plan.w_prime_mask & ~deleted_right_union

    if config.truncation == "exact":
        # Rebalance so each focus vertex survives with probability exactly
        # 2^-d: a stage-one survivor (probability 2^-d_v) is kept with
        # probability 2^-(d - d_v). Coin order is left side ascending, then
        # right side ascending, one coin per stage-one survivor.
        kept_mask = 0
        for v in plan.v_prime:
            if x_surv >> v & 1:
                if gen.random() < 2.0 ** -(plan.d_left - plan.d_v_left[v]):
                    kept_mask |= 1 << v
        x_surv = kept_mask
        kept_mask = 0
        for w in plan.w_prime:
            if y_surv >> w & 1:
                if gen.random() < 2.0 ** -(plan.d_right - plan.d_v_right[w]):
                    kept_mask |= 1 << w
        y_surv = kept_mask

    attacked_pairs = 0
    for i in plan.attacked:
        attacked_pairs += (plan.left_masks[i] & x_surv).bit_count() * (
            plan.right_masks[i] & y_surv
        ).bit_count()

    kept_edge_sum = 0
    for i in plan.kept:
        kept_edge_sum += (plan.left_masks[i] & x_surv).bit_count() * (
            plan.right_masks[i] & y_surv
        ).bit_count()

    witness = None
    search_complete = True
    kept_union_edges = 0
    if x_surv.bit_count() >= k and y_surv.bit_count() >= k:
        graph = plan.kept_graph
        kept_union_edges = sum((graph.adj[v] & y_surv).bit_count() for v in bits(x_surv))
        result = has_kxk_independent_set(graph, k, config.node_budget, x_surv, y_surv)
        search_complete = result.complete
        if result.found:
            s_mask, t_mask = mask_of(result.S), mask_of(result.T)
            for left, right in zip(plan.left_masks, plan.right_masks):
                if left & s_mask and right & t_mask:
                    raise AssertionError(
                        "internal error: witness not independent in the full union graph"
                    )
            witness = (result.S, result.T)

    return DeletionTrace(
        mode=config.mode,
        truncation=config.truncation,
        trial=trial,
        seed=config.rng.seed,
        stream_id=config.rng.stream_id,
        n=n,
        k=k,
        marked=plan.marked,
        attacked=plan.attacked,
        kept=plan.kept,
        deleted_side=tuple(deleted_side),
        d_left=plan.d_left,
        d_right=plan.d_right,
        d_v_left=plan.d_v_left,
        d_v_right=plan.d_v_right,
        s_v_left=plan.s_v_left,
        s_v_right=plan.s_v_right,
        v_prime=tuple(plan.v_prime),
        w_prime=tuple(plan.w_prime),
        x_surv=tuple(bits(x_surv)),
        y_surv=tuple(bits(y_surv)),
        attacked_edge_pairs_surviving=attacked_pairs,
        kept_edge_sum_surviving=kept_edge_sum,
        kept_union_edges_surviving=kept_union_edges,
        kept_edge_sum_expectation=plan.kept_edge_sum_expectation,
        witness=witness,
        witness_search_complete=search_complete,
        found=witness is not None,
    )


def run_attack(family: BicliqueFamily, config: AttackConfig) -> DeletionTrace:
    """Run trials until a witness is found; return its trace, or the last
    trial's trace if none succeeds. A fruitless attack is evidence, not an
    error."""
    plan = _AttackPlan(family, config)
    trace = None
    for trial in range(1, config.trials + 1):
        trace = _run_trial(plan, trial)
        if trace.found:
            return trace
    return trace


def run_attack_trials(family: BicliqueFamily, config: AttackConfig) -> list[DeletionTrace]:
    """Run every trial regardless of success; for statistics gathering."""
    plan = _AttackPlan(family, config)
    return [_run_trial(plan, trial) for trial in range(1, config.trials + 1)]


@dataclass(frozen=True)
class SurvivorStatistics:
    """Aggregates over exact-truncation traces of one (family, config)."""

    trials: int
    found_count: int
    d_left: float
    d_right: float
    mean_ratio_left: float
    mean_ratio_right: float
    min_ratio_left: float
    min_ratio_right: float
    frac_ratio_ge_quarter_left: float
    frac_ratio_ge_quarter_right: float
    survival_freq_left: dict[int, float]
    survival_freq_right: dict[int, float]
    mean_kept_edge_sum: float
    kept_edge_sum_expectation: float



def survivor_statistics(traces: Sequence[DeletionTrace]) -> SurvivorStatistics:
    """Empirical survivor concentration: |X| / (n 2^-d) per side, the fraction
    of trials clearing 1/4, per-vertex survival frequencies, and the surviving
    kept-edge sum against its product-form expectation."""
    if not traces:
        raise ValueError("no traces given")
    first = traces[0]
    if any(t.truncation != "exact" for t in traces):
        raise ValueError("survivor statistics requires exact truncation traces")
    if any(
        (t.d_left, t.d_right, t.n, t.v_prime, t.w_prime)
        != (first.d_left, first.d_right, first.n, first.v_prime, first.w_prime)
        for t in traces
    ):
        raise ValueError("traces must come from a single family and configuration")

    n = first.n
    denom_left = n * 2.0 ** -first.d_left
    denom_right = n * 2.0 ** -first.d_right
    if not denom_left or not denom_right:
        d = max(first.d_left, first.d_right)
        raise ValueError(
            f"d = {d} is too large: n * 2^-d underflows to 0, so survivor ratios are undefined"
        )
    ratios_left = [len(t.x_surv) / denom_left for t in traces]
    ratios_right = [len(t.y_surv) / denom_right for t in traces]
    trials = len(traces)

    counts_left = {v: 0 for v in first.v_prime}
    counts_right = {w: 0 for w in first.w_prime}
    for t in traces:
        for v in t.x_surv:
            counts_left[v] += 1
        for w in t.y_surv:
            counts_right[w] += 1

    return SurvivorStatistics(
        trials=trials,
        found_count=sum(1 for t in traces if t.found),
        d_left=first.d_left,
        d_right=first.d_right,
        mean_ratio_left=sum(ratios_left) / trials,
        mean_ratio_right=sum(ratios_right) / trials,
        min_ratio_left=min(ratios_left),
        min_ratio_right=min(ratios_right),
        frac_ratio_ge_quarter_left=sum(1 for x in ratios_left if x >= 0.25) / trials,
        frac_ratio_ge_quarter_right=sum(1 for x in ratios_right if x >= 0.25) / trials,
        survival_freq_left={v: c / trials for v, c in counts_left.items()},
        survival_freq_right={w: c / trials for w, c in counts_right.items()},
        mean_kept_edge_sum=sum(t.kept_edge_sum_surviving for t in traces) / trials,
        kept_edge_sum_expectation=first.kept_edge_sum_expectation,
    )
