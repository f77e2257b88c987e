"""Depth-two superconcentrator verification and degree-decomposition audits.

A (S, T, k) query is a unit-capacity flow problem with split middle vertices,
so the flow value is the maximum number of vertex disjoint V-M-W paths.
Exhaustive verification scans (k, S, T) in lex order. Once every smaller k
has passed, Menger's theorem reduces a k to the Hall-type condition
|N(S) & N(T)| >= k over bitmask neighbourhoods, so a prefix 1..b of k values
needs no flow at all. Since N(.) only grows with its argument, a depth-first
search over S-prefixes and T-prefixes skips every extension of a prefix that
already decides the outcome. A k reached past a gap in the list runs a
max-flow per pair, and a counterexample's flow is computed once, for the
report. Sampled verification runs a max-flow per pair. The audits reproduce
the bookkeeping of the two lower bound arguments at instance scale: degree
balancing, the High/Medium/Low split against (n/k) times a threshold, the
disjoint ladder of k values, and the entropy condition on the middle-vertex
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .bounds import (
    NormalizedProfile,
    asymmetric_condition,
    asymmetric_value_at,
    profile_from_family,
    symmetric_condition,
)
from .core import (
    BicliqueFamily,
    LayeredGraph,
    RandomSource,
    SubsetSampler,
    bits,
    mask_of,
    transpose_masks,
)

__all__ = [
    "Counterexample",
    "ScVerdict",
    "MiddleDecomposition",
    "EdgeAuditReport",
    "TradeoffReport",
    "max_disjoint_paths",
    "verify_superconcentrator",
    "middle_bicliques",
    "decompose",
    "balance_degrees",
    "layered_flip",
    "normalize_for_tradeoff",
    "threshold_ladder",
    "medium_band",
    "edge_lower_bound_audit",
    "tradeoff_audit",
]

DEFAULT_PAIR_BUDGET = 2_000_000
_MAX_RUNGS = 512  # cap on threshold_ladder's length


# ---------------------------------------------------------------------------
# Unit-capacity flow
# ---------------------------------------------------------------------------


def _depth_two_flow(
    adj_vm: Sequence[int], adj_mw: Sequence[int], s_list: Sequence[int], t_mask: int
) -> int:
    """Unit-capacity max-flow from the sources ``s_list`` to the sinks in
    ``t_mask`` through split middle vertices, on bitmasks.

    Greedy paths come first: each source, in ascending order, takes the
    lowest unused middle that still reaches a free sink. Then every round runs
    one BFS over the residual network with frontiers kept as masks over the
    sources, middle-in, middle-out and sink nodes, and flips the shortest
    augmenting path it finds. Residual moves: s -> m-in along an edge without
    flow, m-in -> s back along the edge with flow, m-in -> m-out for an
    unused middle, m-out -> m-in for a used one, m-out -> t along an edge
    without flow, t -> m-out back along the edge with flow.
    """
    out = [row & t_mask for row in adj_mw]
    mid_of_s: dict[int, int] = {}
    src_of_m: dict[int, int] = {}
    sink_of_m: dict[int, int] = {}
    mid_of_t: dict[int, int] = {}
    used = 0  # middles that carry a path
    free_t = t_mask
    for s in s_list:
        cand = adj_vm[s] & ~used
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            reach = out[u] & free_t
            if reach:
                t_low = reach & -reach
                t = t_low.bit_length() - 1
                mid_of_s[s] = u
                src_of_m[u] = s
                sink_of_m[u] = t
                mid_of_t[t] = u
                used |= low
                free_t ^= t_low
                break
            cand ^= low

    while free_t:
        seen_s = 0
        for s in s_list:
            if s not in mid_of_s:
                seen_s |= 1 << s
        if not seen_s:
            break
        seen_i = seen_o = seen_t = 0
        levels = [(seen_s, 0, 0, 0)]
        hit = 0
        while not hit:
            fs, fi, fo, ft = levels[-1]
            ni = fo & used  # m-out -> m-in, backward through a used middle
            no = fi & ~used  # m-in -> m-out through an unused middle
            ns = nt = 0
            for s in bits(fs):
                ni |= adj_vm[s]
            for u in bits(fi & used):
                ns |= 1 << src_of_m[u]
            for u in bits(fo):
                nt |= out[u]
            for t in bits(ft):
                no |= 1 << mid_of_t[t]
            ns &= ~seen_s
            ni &= ~seen_i
            no &= ~seen_o
            nt &= ~seen_t
            if not (ns or ni or no or nt):
                return len(mid_of_s)
            seen_s |= ns
            seen_i |= ni
            seen_o |= no
            seen_t |= nt
            levels.append((ns, ni, no, nt))
            hit = nt & free_t

        # Walk back one level at a time; kinds are 0 = s, 1 = m-in, 2 = m-out, 3 = t.
        t = (hit & -hit).bit_length() - 1
        path = [(3, t)]
        kind, node = 3, t
        for fs, fi, fo, ft in reversed(levels[:-1]):
            if kind == 3:
                kind = 2
                node = next(u for u in bits(fo) if out[u] >> node & 1)
            elif kind == 2:
                if used >> node & 1:
                    kind, node = 3, sink_of_m[node]
                else:
                    kind = 1
            elif kind == 1:
                if used >> node & 1 and fo >> node & 1:
                    kind = 2
                else:
                    kind = 0
                    node = next(s for s in bits(fs) if adj_vm[s] >> node & 1)
            else:
                kind, node = 1, mid_of_s[node]
            path.append((kind, node))
        path.reverse()

        # Flip the path. A forward move out of s or m-out sets its partner and
        # m-in -> m-out starts using a middle, m-out -> m-in frees it. The
        # backward moves m-in -> s and t -> m-out need no update: the move
        # after them overwrites what they undo.
        for (ka, a), (kb, b) in zip(path, path[1:]):
            if ka == 0:
                mid_of_s[a] = b
                src_of_m[b] = a
            elif ka == 1 and kb == 2:
                used |= 1 << a
            elif ka == 2 and kb == 1:
                used &= ~(1 << a)
                del src_of_m[a], sink_of_m[a]
            elif ka == 2:
                sink_of_m[a] = b
                mid_of_t[b] = a
        free_t &= ~(1 << t)
    return len(mid_of_s)


def max_disjoint_paths(g: LayeredGraph, sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Maximum number of vertex-disjoint V->M->W paths from S to T."""
    s_list, t_list = sorted(set(sources)), sorted(set(sinks))
    if any(ends and not 0 <= ends[0] <= ends[-1] < g.n for ends in (s_list, t_list)):
        raise ValueError(f"sources and sinks must lie in [0, {g.n})")
    return _depth_two_flow(g.adj_vm, g.adj_mw, s_list, mask_of(t_list))


class Counterexample(NamedTuple):
    """k-sets S and T joined by only ``max_flow`` < k disjoint paths."""

    k: int
    S: tuple[int, ...]
    T: tuple[int, ...]
    max_flow: int


@dataclass(frozen=True)
class ScVerdict:
    """Verification outcome. Sampled mode can refute but never certify."""

    is_superconcentrator: bool
    counterexample: Optional[Counterexample]
    k_checked: tuple[int, ...]
    mode: str
    pairs_checked: int
    seed: Optional[int] = None
    stream_id: Optional[int] = None
    certified: bool = field(init=False)  # a superconcentrator, found in exhaustive mode

    def __post_init__(self) -> None:
        object.__setattr__(self, "certified", self.is_superconcentrator and self.mode == "exhaustive")


def _lex_rank(combo: Sequence[int], n: int) -> int:
    """Position of the sorted k-subset ``combo`` of range(n) in
    ``itertools.combinations`` order."""
    k = len(combo)
    rank = 0
    start = 0
    for i, c in enumerate(combo):
        for x in range(start, c):
            rank += math.comb(n - 1 - x, k - 1 - i)
        start = c + 1
    return rank


def _first_kset(rows: Sequence[int], k: int, cols: Optional[Sequence[int]] = None):
    """The lex-first k-subset of range(len(rows)) that a depth-first search
    over its prefixes reaches, or None; with ``cols``, as a pair with the
    lex-first T that violates against it.

    A prefix P is extended while it can still lead to a Hall violation.
    Without ``cols`` (the T side, rows already cut to N(S)) that is while the
    union of its rows has fewer than k bits. With ``cols`` (the S side) it is
    while some k-set T violates against the union N(P): every T when
    |N(P)| < k, the first being 0..k-1, and otherwise the T-side search on
    the rows ``N(P) & cols[w]`` finds one, run once per distinct N(P).
    Unions only grow as a prefix is extended, so no extension of a prefix
    that fails passes either. The search pays off when these prunes fire
    well above depth k; where they fire only near it, the search can take
    longer than visiting every pair (README, Performance).
    """
    n = len(rows)
    chosen: list[int] = []
    t_combo = first_t = tuple(range(k))
    t_of: dict[int, object] = {}  # S side: the T search's result per N(P)
    # One frame per depth: the union of the prefix's rows and an iterator
    # over the indices left to try after it.
    stack = [(0, iter(range(n - k + 1)))]
    while stack:
        acc, untried = stack[-1]
        for i in untried:
            grown = acc | rows[i]
            if cols is None:
                if grown.bit_count() >= k:
                    continue
            elif grown.bit_count() < k:
                t_combo = first_t  # every T violates against N(P)
            else:
                if grown not in t_of:
                    t_of[grown] = _first_kset([grown & col for col in cols], k)
                t_combo = t_of[grown]
                if t_combo is None:
                    continue
            chosen.append(i)
            if len(chosen) == k:
                return tuple(chosen) if cols is None else (tuple(chosen), t_combo)
            stack.append((grown, iter(range(i + 1, n - k + len(chosen) + 1))))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
    return None


def _exhaustive_scan(g: LayeredGraph, ks: list[int]) -> ScVerdict:
    """Every (k, S, T) in lex order, up to the first pair with fewer than k
    disjoint paths.

    By Menger's theorem a pair of k-sets S, T has fewer than k disjoint paths
    iff some A in S, B in T have |N(A) & N(B)| < |A| + |B| - k; trimming the
    larger of A, B then gives a pair of size min(|A|, |B|) with
    |N(A) & N(B)| < min(|A|, |B|). So when every smaller k has passed, the
    failing pairs of k-sets are exactly the Hall violations |N(S) & N(T)| < k,
    and ``_first_kset`` finds the lex-first one with two pruned depth-first
    searches instead of visiting every pair. A violation's flow runs once,
    to report its max_flow and confirm the deficit. That holds at
    the k in position k - 1 of the sorted list; any other k runs a max-flow
    per pair. ``pairs_checked`` is the lex rank of the counterexample either
    way, counting every pair of the earlier levels.
    """
    n = g.n
    pairs_before = 0
    for pos, k in enumerate(ks):
        size = math.comb(n, k)
        if k == pos + 1:
            found = _first_kset(g.adj_vm, k, g.into_w)
            if found is not None:
                s_combo, t_combo = found
                flow = max_disjoint_paths(g, s_combo, t_combo)
                if flow >= k:
                    raise AssertionError("internal error: Hall violation without a flow deficit")
                pairs = pairs_before + _lex_rank(s_combo, n) * size + _lex_rank(t_combo, n) + 1
                counterexample = Counterexample(k, s_combo, t_combo, flow)
                return ScVerdict(False, counterexample, tuple(ks), "exhaustive", pairs)
        else:
            combos = list(combinations(range(n), k))
            for si, s_combo in enumerate(combos):
                for ti, t_combo in enumerate(combos):
                    flow = max_disjoint_paths(g, s_combo, t_combo)
                    if flow < k:
                        pairs = pairs_before + si * size + ti + 1
                        counterexample = Counterexample(k, s_combo, t_combo, flow)
                        return ScVerdict(False, counterexample, tuple(ks), "exhaustive", pairs)
        pairs_before += size ** 2
    return ScVerdict(True, None, tuple(ks), "exhaustive", pairs_before)


def verify_superconcentrator(
    g: LayeredGraph,
    k_values: Iterable[int] | str = "all",
    mode: str = "exhaustive",
    samples: int = 100,
    rng: Optional[RandomSource] = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ScVerdict:
    """Check k disjoint paths for every (or a sampled set of) S, T pairs.

    Exhaustive mode covers all C(n,k)^2 pairs per k and is complete. It scans
    (k, S, T) in lex order and stops at the first counterexample; a k whose
    smaller k values are all in the list is decided by a pruned search for a
    Hall-type violation, and any other k by a max-flow per pair.
    ``pairs_checked`` counts the pairs up to and including the counterexample,
    as a pair-by-pair scan would, and ``pair_budget`` caps that total pair
    count before any work starts. k values must be plain ints. Sampled mode draws
    ``samples`` uniform pairs per k, runs a max-flow on each, and can only
    refute.
    """
    n = g.n
    if k_values == "all":
        ks = list(range(1, n + 1))
    else:
        ks = list(k_values)
        for k in ks:
            if type(k) is not int:
                raise ValueError(f"k values must be integers, got {k!r}")
        ks = sorted(set(ks))
        if any(k < 1 or k > n for k in ks):
            raise ValueError(f"k values must lie in [1, {n}]")
    if not ks:
        raise ValueError("no k values to check")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown verification mode {mode!r}")

    if mode == "exhaustive":
        total = sum(math.comb(n, k) ** 2 for k in ks)
        if total > pair_budget:
            raise ValueError(
                f"exhaustive verification needs {total} pair checks, budget is {pair_budget}"
            )
        return _exhaustive_scan(g, ks)

    if samples < 1:
        raise ValueError(f"sampled verification needs samples >= 1, got {samples}")
    if rng is None:
        raise ValueError("sampled verification requires a random source")
    gen = rng.rng()
    sampler = SubsetSampler(n, gen)
    pairs_checked = 0
    for k in ks:
        for _ in range(samples):
            s_combo = tuple(sorted(sampler.draw_list(k)))
            t_combo = tuple(sorted(sampler.draw_list(k)))
            pairs_checked += 1
            flow = max_disjoint_paths(g, s_combo, t_combo)
            if flow < k:
                return ScVerdict(
                    False,
                    Counterexample(k, s_combo, t_combo, flow),
                    tuple(ks),
                    mode,
                    pairs_checked,
                    rng.seed,
                    rng.stream_id,
                )
    return ScVerdict(True, None, tuple(ks), mode, pairs_checked, rng.seed, rng.stream_id)


# ---------------------------------------------------------------------------
# Decomposition and balancing
# ---------------------------------------------------------------------------


def middle_bicliques(
    g: LayeredGraph, restrict: Iterable[int], k: int = 1
) -> BicliqueFamily:
    """One biclique per selected middle vertex: (V in-neighbors, W out-neighbors).

    Bicliques appear in ascending middle-vertex order, so callers can map
    family indices back to middle ids by sorting their selection.
    """
    order = sorted(set(restrict))
    if any(u < 0 or u >= g.m for u in order):
        raise ValueError(f"middle selection outside [0, {g.m})")
    left = tuple(g.middle_in[u] for u in order)
    return BicliqueFamily(g.n, k, left, tuple(g.adj_mw[u] for u in order))


@dataclass(frozen=True)
class MiddleDecomposition:
    """Three-way split of the middle layer against (n/k) * base thresholds."""

    k: int
    threshold_base: float
    degree_basis: str  # "balanced" | "w"
    high: tuple[int, ...]
    medium: tuple[int, ...]
    low: tuple[int, ...]
    medium_edges_v: int


def decompose(
    g: LayeredGraph, k: int, threshold_base: float, degree: str = "balanced"
) -> MiddleDecomposition:
    """Partition middle vertices into High/Medium/Low by degree against the
    ``medium_band`` cuts (n/k) / threshold_base and (n/k) * threshold_base."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}")
    if threshold_base <= 1.0:
        raise ValueError(f"threshold base must exceed 1, got {threshold_base}")
    if degree not in ("balanced", "w"):
        raise ValueError(f"unknown degree basis {degree!r}")
    in_deg = g.in_degrees()
    deg = g.out_degrees()
    if degree == "balanced" and in_deg != deg:
        u = next(u for u in range(g.m) if in_deg[u] != deg[u])
        raise ValueError(
            f"middle vertex {u} has degrees ({in_deg[u]}, {deg[u]}); "
            "balance the graph first or pick an explicit degree basis"
        )

    lo_cut, hi_cut = medium_band(g.n, k, threshold_base)
    high, medium, low = [], [], []
    for u in range(g.m):
        if deg[u] >= hi_cut:
            high.append(u)
        elif deg[u] < lo_cut:
            low.append(u)
        else:
            medium.append(u)
    return MiddleDecomposition(
        k=k,
        threshold_base=threshold_base,
        degree_basis=degree,
        high=tuple(high),
        medium=tuple(medium),
        low=tuple(low),
        medium_edges_v=sum(in_deg[u] for u in medium),
    )


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask`` (all of them if it has fewer)."""
    out = 0
    for _ in range(count):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def balance_degrees(g: LayeredGraph, a: float | int = 1, b: float | int = 1) -> LayeredGraph:
    """Pad edges so every middle vertex has deg_V / deg_W = a/b within integer
    rounding. Never removes edges; raises if a vertex would need more than n
    neighbors, or if the padding would more than double the total edge count
    (beyond the per-vertex rounding allowance). Added edges go to the smallest
    available vertex indices, so the result is deterministic."""
    if a <= 0 or b <= 0:
        raise ValueError(f"target ratio parts must be positive, got ({a}, {b})")
    ratio = Fraction(a) / Fraction(b)
    n, m = g.n, g.m
    in_masks = g.middle_in
    out_masks = list(g.adj_mw)
    full = (1 << n) - 1
    half = Fraction(1, 2)

    new_in = list(in_masks)
    for u in range(m):
        dv = in_masks[u].bit_count()
        dw = out_masks[u].bit_count()
        if dv == 0 and dw == 0:
            continue
        target: Optional[tuple[int, int]] = None
        if ratio <= 1:
            for y in range(dw, n + 1):
                x = int(ratio * y + half)
                if x >= dv and x <= n:
                    target = (x, y)
                    break
        else:
            for x in range(dv, n + 1):
                y = int(x / ratio + half)
                if y >= dw and y <= n:
                    target = (x, y)
                    break
        if target is None:
            raise ValueError(
                f"cannot balance middle vertex {u} (degrees {dv}, {dw}) to {a}:{b} within n={n}"
            )
        x, y = target
        if x > dv:
            extra = _lowest_bits(full & ~new_in[u], x - dv)
            if extra.bit_count() < x - dv:
                raise ValueError(f"middle vertex {u} needs in-degree {x} > n={n}")
            new_in[u] |= extra
        if y > dw:
            extra = _lowest_bits(full & ~out_masks[u], y - dw)
            if extra.bit_count() < y - dw:
                raise ValueError(f"middle vertex {u} needs out-degree {y} > n={n}")
            out_masks[u] |= extra

    balanced = LayeredGraph(n, m, tuple(transpose_masks(new_in, n)), tuple(out_masks))
    balanced.__dict__["middle_in"] = tuple(new_in)  # fills the cached view
    before = g.vm_edge_count + g.mw_edge_count
    after = balanced.vm_edge_count + balanced.mw_edge_count
    if before and after > 2 * before + m:
        raise ValueError(
            f"balancing to {a}:{b} would grow total edges {before} -> {after}, "
            "more than the promised factor two"
        )
    return balanced


def layered_flip(g: LayeredGraph) -> LayeredGraph:
    """Swap the roles of V and W (reverse every edge). The flip's rows are
    the input's column views and its column views the input's rows."""
    flipped = LayeredGraph(g.n, g.m, g.into_w, g.middle_in)
    flipped.__dict__.update(middle_in=g.adj_mw, into_w=g.adj_vm)  # fills the cached views
    return flipped


def normalize_for_tradeoff(g: LayeredGraph) -> tuple[LayeredGraph, bool]:
    """Orient so the V side has the smaller average degree, then balance every
    middle vertex to the graph's own a:b ratio."""
    flipped = g.vm_edge_count > g.mw_edge_count
    if flipped:
        g = layered_flip(g)
    if g.vm_edge_count == 0 or g.mw_edge_count == 0:
        raise ValueError("tradeoff normalization needs edges in both layers")
    return balance_degrees(g, g.vm_edge_count, g.mw_edge_count), flipped


# ---------------------------------------------------------------------------
# Ladders and audits
# ---------------------------------------------------------------------------


def medium_band(n: int, k: int, threshold_base: float) -> tuple[float, float]:
    """Degree interval [lo, hi) that lands a middle vertex in Medium(k)."""
    return (n / k) / threshold_base, (n / k) * threshold_base


def threshold_ladder(n: int, threshold_base: float) -> list[int]:
    """Integer k values spanning [n^{1/4}, n^{3/4}] whose Medium bands are
    pairwise disjoint.

    Consecutive rungs grow by at least threshold_base^2, which makes band
    disjointness exact by construction; rounding never shrinks the gap because
    each next rung is bumped until its band clears the previous one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = float(threshold_base)
    if t <= 1.0:
        raise ValueError(f"threshold base must exceed 1, got {threshold_base}")
    lo = math.ceil(n ** 0.25)
    hi = math.floor(n ** 0.75)
    rungs: list[int] = []
    k = lo
    while k <= hi and len(rungs) < _MAX_RUNGS:
        rungs.append(k)
        nxt = max(math.ceil(k * t * t), k + 1)
        # Guard against float rounding: the next band's upper end must not
        # poke above this band's lower end (bands are half-open).
        while medium_band(n, nxt, t)[1] > medium_band(n, k, t)[0]:
            nxt += 1
        k = nxt
    return rungs


def _mediums_disjoint(decs: Sequence[MiddleDecomposition]) -> bool:
    """True iff no middle vertex is Medium at two rungs."""
    mediums = [dec.medium for dec in decs]
    return len(set().union(*mediums)) == sum(map(len, mediums))


def _live_profile(g: LayeredGraph, dec: MiddleDecomposition) -> tuple[list[int], NormalizedProfile, set[int]]:
    """The Medium and Low middles in ascending order, the profile of their
    bicliques at ``dec.k`` (entry i belongs to middle i of the list), and the
    Low set."""
    selection = sorted(dec.medium + dec.low)
    return selection, profile_from_family(middle_bicliques(g, selection, dec.k)), set(dec.low)


@dataclass(frozen=True)
class EdgeAuditReport:
    """Instance-scale audit of the edge lower-bound argument."""

    n: int
    m: int
    constant: float
    threshold_base: float
    ladder: tuple[int, ...]
    ladder_min_required: int
    ladder_long_enough: bool
    bands: tuple[tuple[float, float], ...]
    bands_disjoint: bool
    medium_sets_disjoint: bool
    per_k: tuple[dict, ...]
    total_edges: int
    total_edges_balanced: int
    total_edge_target: float
    total_edges_ok: bool


def edge_lower_bound_audit(g: LayeredGraph, constant: float) -> EdgeAuditReport:
    """Audit the (log n)^2-threshold decomposition across the k ladder.

    Per rung: checks |High(k)| < k, evaluates the two-branch condition on the
    Medium+Low middle-vertex profile (both the plain form and the variant with
    alpha^2 kept only on Low), and compares Medium-incident edges with
    (constant/2) n log2 n. Asymptotic claims are reported, never asserted.
    """
    n = g.n
    if n < 2:
        raise ValueError("audit needs n >= 2")
    balanced = balance_degrees(g, 1, 1)
    log_n = math.log2(n)
    t = log_n ** 2
    if t <= 1.0:
        raise ValueError(f"n={n} gives threshold base {t} <= 1; audit undefined")
    ladder = threshold_ladder(n, t)
    bands = tuple(medium_band(n, k, t) for k in ladder)
    loglog = math.log2(log_n) if log_n > 1 else 0.0
    min_required = math.floor(0.1 * log_n / loglog) if loglog > 0 else 0

    decs = [decompose(balanced, k, t) for k in ladder]
    per_k = []
    for k, dec in zip(ladder, decs):
        selection, profile, low_set = _live_profile(balanced, dec)
        sym_lhs = symmetric_condition(profile, 0.0).lhs
        fixedk_lhs = 0.0
        for u, entry in zip(selection, profile.entries):
            fixedk_lhs += entry.alpha * entry.alpha if u in low_set else entry.alpha
        medium_edges = dec.medium_edges_v  # balanced: V side equals W side
        target = 0.5 * constant * n * log_n
        per_k.append(
            {
                "k": k,
                "high_count": len(dec.high),
                "medium_count": len(dec.medium),
                "low_count": len(dec.low),
                "high_premise_ok": len(dec.high) < k,
                "medium_edges_per_side": medium_edges,
                "medium_edge_target": target,
                "medium_edges_ok": medium_edges >= target,
                "symmetric_lhs": sym_lhs,
                "fixedk_lhs": fixedk_lhs,
                "rhs": constant * k * log_n,
            }
        )

    total = g.vm_edge_count + g.mw_edge_count
    target_total = (constant / 20.0) * n * log_n ** 2 / loglog if loglog > 0 else 0.0
    return EdgeAuditReport(
        n=n,
        m=g.m,
        constant=constant,
        threshold_base=t,
        ladder=tuple(ladder),
        ladder_min_required=min_required,
        ladder_long_enough=len(ladder) >= min_required,
        bands=bands,
        # k ascending means bands descending; adjacent half-open bands may touch.
        bands_disjoint=all(nxt[1] <= prev[0] for prev, nxt in zip(bands, bands[1:])),
        medium_sets_disjoint=_mediums_disjoint(decs),
        per_k=tuple(per_k),
        total_edges=total,
        total_edges_balanced=balanced.vm_edge_count + balanced.mw_edge_count,
        total_edge_target=target_total,
        total_edges_ok=total >= target_total,
    )


@dataclass(frozen=True)
class TradeoffReport:
    """Instance-scale audit of the V/W average-degree tradeoff argument."""

    n: int
    m: int
    constant: float
    a: float
    b: float
    ladder: tuple[int, ...]
    ladder_length: int
    per_k_medium_v_edges: tuple[int, ...]
    k0: int
    k0_v_edges: int
    pigeonhole_bound: float  # a * n / L
    pigeonhole_exact: bool
    high_count_k0: int
    high_premise_ok: bool
    medium_sets_disjoint: bool
    asymmetric_min: float
    asymmetric_argmin: tuple[int, ...]
    value_at_low: float
    condition_rhs: float
    tradeoff_lhs: float  # a log2((a+b)/a) log2 b
    rhs_scale: float  # (log2 n)^2
    tradeoff_ok: bool


def tradeoff_audit(g: LayeredGraph, constant: float) -> TradeoffReport:
    """Audit the asymmetric condition on the b^2-threshold ladder.

    Requires a graph already normalized with ``normalize_for_tradeoff`` (V side
    average at most W side average, per-vertex degrees in the a:b ratio). The
    chosen k0 minimizes V-to-Medium edges, and the pigeonhole bound
    min <= a n / L is checked exactly in integer arithmetic.
    """
    n = g.n
    evm, emw = g.vm_edge_count, g.mw_edge_count
    if evm == 0 or emw == 0:
        raise ValueError("tradeoff audit needs edges in both layers")
    a_frac = Fraction(evm, n)
    b_frac = Fraction(emw, n)
    if a_frac > b_frac:
        raise ValueError("V side average exceeds W side; run normalize_for_tradeoff first")
    a = float(a_frac)
    b = float(b_frac)
    if b <= 1.0:
        raise ValueError(f"W side average degree {b} <= 1: threshold base undefined")
    ratio = a_frac / b_frac
    in_deg = g.in_degrees()
    out_deg = g.out_degrees()
    for u in range(g.m):
        if in_deg[u] == 0 and out_deg[u] == 0:
            continue
        if abs(in_deg[u] - float(ratio) * out_deg[u]) > 1.0 + 1e-9:
            raise ValueError(
                f"middle vertex {u} has degrees ({in_deg[u]}, {out_deg[u]}) off the "
                f"{evm}:{emw} ratio; run normalize_for_tradeoff first"
            )

    t = b * b
    ladder = threshold_ladder(n, t)
    if not ladder:
        raise ValueError(f"no ladder rungs inside [n^(1/4), n^(3/4)] for n={n}")
    decs = [decompose(g, k, t, degree="w") for k in ladder]
    medium_v_edges = tuple(dec.medium_edges_v for dec in decs)
    best = min(range(len(ladder)), key=lambda i: (medium_v_edges[i], ladder[i]))
    k0 = ladder[best]
    dec0 = decs[best]
    length = len(ladder)
    # min * L <= total V->M edges, exactly, because the Medium sets are disjoint.
    pigeonhole_exact = medium_v_edges[best] * length <= evm

    selection, profile, low_set = _live_profile(g, dec0)
    asym = asymmetric_condition(profile, constant)
    value_at_low = asymmetric_value_at(
        profile, [i for i, u in enumerate(selection) if u in low_set]
    )

    log_n = math.log2(n)
    tradeoff_lhs = a * math.log2((a + b) / a) * math.log2(b)
    rhs_scale = log_n ** 2
    return TradeoffReport(
        n=n,
        m=g.m,
        constant=constant,
        a=a,
        b=b,
        ladder=tuple(ladder),
        ladder_length=length,
        per_k_medium_v_edges=medium_v_edges,
        k0=k0,
        k0_v_edges=medium_v_edges[best],
        pigeonhole_bound=a * n / length,
        pigeonhole_exact=pigeonhole_exact,
        high_count_k0=len(dec0.high),
        high_premise_ok=len(dec0.high) < k0,
        medium_sets_disjoint=_mediums_disjoint(decs),
        asymmetric_min=asym.min_over_x,
        asymmetric_argmin=tuple(sorted(selection[i] for i in asym.argmin_x)),
        value_at_low=value_at_low,
        condition_rhs=asym.rhs,
        tradeoff_lhs=tradeoff_lhs,
        rhs_scale=rhs_scale,
        tradeoff_ok=tradeoff_lhs >= constant * rhs_scale,
    )
