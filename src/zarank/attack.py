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

The two sides differ only in their survival probabilities (p_i on the left,
1 - p_i on the right), so each step that treats a side is one routine called
once per side: ``_side`` plans it, ``_truncate`` rebalances its survivors, and
``_surviving_pairs`` counts the edges that bicliques place between survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
    complement of the marked set. A marked set in symmetric mode is an error.
    """
    r = len(profile.entries)
    if mode == "symmetric":
        if marked is not None:
            raise ValueError("a marked set applies to asymmetric mode only")
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


class _Side(NamedTuple):
    """One side of a plan: per-vertex deletion exponents d_v and attack
    counts s_v, the threshold d, and the kept half with its mask."""

    d_v: tuple[float, ...]
    s_v: tuple[int, ...]
    d: float
    focus: tuple[int, ...]
    mask: int


def _side(n: int, masks: Sequence[int], survive: dict[int, float], fixed_d: Optional[float]) -> _Side:
    """The plan of one side. ``survive`` maps each attacked index to the
    probability that this side of its biclique survives; a member of it gains
    log2(1 / q) in d_v. The kept half is the first ceil(n / 2) vertices with
    d_v <= d, where d is ``fixed_d`` or the median of d_v."""
    d_v = [0.0] * n
    s_v = [0] * n
    for i, q in survive.items():
        # Members exist only if this side is nonempty, in which case its
        # survival probability is strictly positive.
        if masks[i]:
            w = math.log2(1.0 / q)
            for v in bits(masks[i]):
                d_v[v] += w
                s_v[v] += 1
    half = (n + 1) // 2
    d = float(fixed_d) if fixed_d is not None else sorted(d_v)[half - 1]
    focus = tuple([v for v in range(n) if d_v[v] <= d][:half])
    return _Side(tuple(d_v), tuple(s_v), d, focus, mask_of(focus))


class _AttackPlan:
    """Everything about an attack that does not depend on the coin flips.
    Each side is planned by the one routine ``_side``."""

    def __init__(self, family: BicliqueFamily, config: AttackConfig):
        self.family = family
        self.config = config
        profile = profile_from_family(family)
        self.attacked, self.kept = classify(profile, config.mode, config.marked)
        self.marked = self.kept if config.mode == "asymmetric" else None

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

        n = family.n
        self.left = _side(n, family.left, self.p, config.fixed_d)
        self.right = _side(n, family.right, {i: 1.0 - q for i, q in self.p.items()}, config.fixed_d)

        # The kept bicliques' union, rows and columns, shared by every trial:
        # a trial searches it restricted to its survivors.
        left, right = tuple(family.left[i] for i in self.kept), tuple(family.right[i] for i in self.kept)
        self.kept_graph = union_of(BicliqueFamily(n, family.k, left, right))
        self.kept_edge_sum_expectation = sum(
            a.bit_count() * b.bit_count() * 2.0 ** -(self.left.d + self.right.d) for a, b in zip(left, right)
        )


def _truncate(gen, side: _Side, surv: int) -> int:
    """Rebalance so each focus vertex survives with probability exactly
    2^-d: a stage-one survivor (probability 2^-d_v) is kept with probability
    2^-(d - d_v), one coin per stage-one survivor in ascending order."""
    kept = 0
    for v in side.focus:
        if surv >> v & 1 and gen.random() < 2.0 ** -(side.d - side.d_v[v]):
            kept |= 1 << v
    return kept


def _surviving_pairs(family: BicliqueFamily, indices: Iterable[int], x: int, y: int) -> int:
    """Sum of |L_i & x| * |R_i & y| over the given bicliques: the edges they
    place between x and y, counted with multiplicity."""
    return sum((family.left[i] & x).bit_count() * (family.right[i] & y).bit_count() for i in indices)


def _run_trial(plan: _AttackPlan, trial: int) -> DeletionTrace:
    config = plan.config
    family = plan.family
    k = family.k
    gen = config.rng.derive(trial).rng()

    deleted_side = []
    deleted = {"left": 0, "right": 0}
    for i in plan.attacked:
        side = "right" if gen.random() < plan.p[i] else "left"
        deleted_side.append(side)
        deleted[side] |= getattr(family, side)[i]
    x_surv = plan.left.mask & ~deleted["left"]
    y_surv = plan.right.mask & ~deleted["right"]
    if config.truncation == "exact":
        # Coin order: left side ascending, then right side ascending.
        x_surv = _truncate(gen, plan.left, x_surv)
        y_surv = _truncate(gen, plan.right, y_surv)

    witness = None
    search_complete = True
    kept_union_edges = 0
    if x_surv.bit_count() >= k and y_surv.bit_count() >= k:
        graph = plan.kept_graph
        kept_union_edges = sum((graph.adj[v] & y_surv).bit_count() for v in bits(x_surv))
        result = has_kxk_independent_set(graph, k, config.node_budget, x_surv, y_surv)
        search_complete = result.complete
        if result.found:
            if _surviving_pairs(family, range(family.size), mask_of(result.S), mask_of(result.T)):
                raise AssertionError("internal error: witness not independent in the full union graph")
            witness = (result.S, result.T)

    return DeletionTrace(
        mode=config.mode,
        truncation=config.truncation,
        trial=trial,
        seed=config.rng.seed,
        stream_id=config.rng.stream_id,
        n=family.n,
        k=k,
        marked=plan.marked,
        attacked=plan.attacked,
        kept=plan.kept,
        deleted_side=tuple(deleted_side),
        d_left=plan.left.d,
        d_right=plan.right.d,
        d_v_left=plan.left.d_v,
        d_v_right=plan.right.d_v,
        s_v_left=plan.left.s_v,
        s_v_right=plan.right.s_v,
        v_prime=plan.left.focus,
        w_prime=plan.right.focus,
        x_surv=tuple(bits(x_surv)),
        y_surv=tuple(bits(y_surv)),
        attacked_edge_pairs_surviving=_surviving_pairs(family, plan.attacked, x_surv, y_surv),
        kept_edge_sum_surviving=_surviving_pairs(family, plan.kept, x_surv, y_surv),
        kept_union_edges_surviving=kept_union_edges,
        kept_edge_sum_expectation=plan.kept_edge_sum_expectation,
        witness=witness,
        witness_search_complete=search_complete,
        found=witness is not None,
    )


def _trials(family: BicliqueFamily, config: AttackConfig) -> Iterator[DeletionTrace]:
    plan = _AttackPlan(family, config)
    return (_run_trial(plan, trial) for trial in range(1, config.trials + 1))


def run_attack(family: BicliqueFamily, config: AttackConfig) -> DeletionTrace:
    """Run trials until a witness is found; return its trace, or the last
    trial's trace if none succeeds. A fruitless attack is evidence, not an
    error."""
    for trace in _trials(family, config):
        if trace.found:
            break
    return trace


def run_attack_trials(family: BicliqueFamily, config: AttackConfig) -> list[DeletionTrace]:
    """Run every trial regardless of success; for statistics gathering."""
    return list(_trials(family, config))


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
