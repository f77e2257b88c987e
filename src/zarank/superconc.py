"""Depth-two superconcentrator verification and degree-decomposition audits.

A (S, T, k) query asks for k vertex disjoint V-M-W paths. With each middle
split into an in side and an out side, their maximum number is the size of
a maximum bipartite matching, out sides and sources against in sides and
sinks, minus m; greedy paths and then Kuhn's augmenting searches find it.
Exhaustive verification scans (k, S, T) in lex order. Once every smaller k
has passed, Menger's theorem reduces a k to the Hall-type condition
|N(S) & N(T)| >= k over bitmask neighbourhoods. Since N(.) only grows with
its argument, a depth-first search over S-prefixes skips every extension
of a prefix against which no T violates. The T side is the k-subset search
the witness search uses: each middle u spans the biclique in(u) x out(u),
so T violates against N(S) exactly when the masks N(S) & ~N(w), w in T,
keep |N(S)| - k + 1 common bits, and ``core._search`` finds the lex-first
such T. The Hall search runs on the sizes 1, 2, ... in turn, listed or
not, until it finds a violation, so a listed k whose smaller sizes are all
clean needs no flow at all; only a k past a violation at an unlisted
smaller size runs a max-flow per pair. One node budget counts the S-prefix
steps, the T search's nodes and those flows, and a scan that spends it
ends inconclusive. Sampled verification runs a max-flow per pair. Each
mode's scan only names its counterexample; ``verify_superconcentrator``
runs that pair's flow once more, confirms the deficit and builds the
verdict, the same way for both modes.
The audits reproduce the bookkeeping of the two lower bound arguments at
instance scale: degree balancing, the High/Medium/Low split of the middles
by W-side degree against (n/k) times a threshold, the disjoint ladder of k
values, and the entropy condition on the middle-vertex profile. Each audit
takes the raw graph and balances it itself: the edge audit to 1:1, the
tradeoff audit to the graph's own a:b ratio, after flipping V and W when
the V side has the larger average degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterable, NamedTuple, Optional, Sequence

from .bounds import (
    NormalizedProfile,
    asymmetric_condition,
    asymmetric_value_at,
    profile_from_family,
    symmetric_condition,
)
from .core import (
    DEFAULT_NODE_BUDGET,
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    SubsetSampler,
    _Budget,
    _live,
    _search,
    bits,
    mask_of,
)

# transpose_masks is unused here; bench/tests checks the tracer wraps this binding.
from .core import transpose_masks  # noqa: F401

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
    "threshold_ladder",
    "medium_band",
    "edge_lower_bound_audit",
    "tradeoff_audit",
]

_MAX_RUNGS = 512  # cap on threshold_ladder's length


# ---------------------------------------------------------------------------
# Unit-capacity flow
# ---------------------------------------------------------------------------


def _depth_two_flow(vm: Sequence[int], mw: Sequence[int], s_list: Sequence[int], t_mask: int) -> int:
    """Unit-capacity max-flow from the sources ``s_list`` to the sinks in
    ``t_mask`` through split middle vertices, as a bipartite matching on
    bitmasks.

    Split each middle u into an in side and an out side. The left side holds
    the out sides and the sources, the right side the in sides and the sinks;
    source s is joined to in(u) for each edge s -> u, out(u) to in(u), and
    out(u) to each sink t with an edge u -> t. A middle adds two edges to a
    matching only on a path s - in(u), out(u) - t, and at most one otherwise,
    so a maximum matching has m edges more than there are disjoint V-M-W
    paths. Matching every middle to itself gives m edges and leaves only the
    sources free, so each source with an augmenting path adds one path, and
    the flow is the number of sources that augment. A free vertex with no
    augmenting path never gains one after other augmentations (Kuhn's lemma),
    so one pass over the sources suffices.

    A greedy pass first gives each source, in ascending order, the lowest idle
    middle that still reaches a free sink: an augmenting path of length three.
    Then one Kuhn depth-first search runs from each source the greedy pass
    left, on an explicit stack, with a ``seen`` mask over the right ids reset
    for every source; on success each frame's left takes the right it tried
    last. Each left tries a free sink first, then an idle middle's in side or
    a taken sink, then the rest. On the flows of large-shallow's sampled run
    and of planted n = 256 and 512 superconcentrators, dropping the greedy
    pass made them 2.1-2.7x slower, dropping the free-sink preference 1.4-1.6x
    and dropping the idle-middle preference 1.25-1.4x.
    """
    m = len(mw)
    out = [row & t_mask for row in mw]
    # Left ids: u is middle u's out side, m + s is source s. Right ids: u is
    # middle u's in side, m + t is sink t.
    mate: dict[int, int] = {}  # right -> left; in side u defaults to out side u
    free = t_mask  # the sinks no out side has taken
    used = 0  # the in sides a source has taken
    flow = 0
    rest = []
    for s in s_list:
        cand = vm[s] & ~used
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            reach = out[u] & free
            if reach:
                t_low = reach & -reach
                mate[u] = m + s
                mate[m + t_low.bit_length() - 1] = u
                used |= low
                free ^= t_low
                flow += 1
                break
            cand ^= low
        else:
            rest.append(s)

    free <<= m
    for s in rest:
        seen = 0
        stack = [[m + s, vm[s], -1]]  # frames [left, its rights, the right tried]
        while stack:
            frame = stack[-1]
            cand = frame[1] & ~seen
            if not cand:
                stack.pop()
                continue
            pick = cand & free or cand & ~used or cand
            low = pick & -pick
            seen |= low
            r = frame[2] = low.bit_length() - 1
            if low & free:
                free ^= low
                for x, _, r in stack:
                    mate[r] = x
                    if x >= m:  # a source takes an in side
                        used |= 1 << r
                    elif x == r:  # an out side takes its own in side back
                        used ^= 1 << r
                flow += 1
                break
            x = mate.get(r, r)
            stack.append([x, out[x] << m | 1 << x if x < m else vm[x - m], -1])
    return flow


def max_disjoint_paths(g: LayeredGraph, sources: Iterable[int], sinks: Iterable[int]) -> int:
    """Maximum number of vertex-disjoint V->M->W paths from S to T."""
    s_list, t_list = sorted(set(sources)), sorted(set(sinks))
    if any(ends and not 0 <= ends[0] <= ends[-1] < g.n for ends in (s_list, t_list)):
        raise ValueError(f"sources and sinks must lie in [0, {g.n})")
    return _depth_two_flow(g.vm.adj, g.mw.adj, s_list, mask_of(t_list))


class Counterexample(NamedTuple):
    """k-sets S and T joined by only ``max_flow`` < k disjoint paths."""

    k: int
    S: tuple[int, ...]
    T: tuple[int, ...]
    max_flow: int


@dataclass(frozen=True)
class ScVerdict:
    """Verification outcome: ``is_superconcentrator`` is True, False with a
    counterexample, or None when the exhaustive search's node budget ran
    out. Sampled mode can refute but never certify."""

    is_superconcentrator: Optional[bool]
    counterexample: Optional[Counterexample]
    k_checked: tuple[int, ...]
    mode: str
    pairs_checked: int
    seed: Optional[int] = None
    stream_id: Optional[int] = None
    certified: bool = field(init=False)  # a superconcentrator, found in exhaustive mode

    def __post_init__(self) -> None:
        object.__setattr__(self, "certified", self.is_superconcentrator is True and self.mode == "exhaustive")


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


def _first_kset(rows: Sequence[int], k: int, cols: Sequence[int], budget: _Budget):
    """The lex-first Hall violation: the first k-subset S of range(len(rows))
    that a depth-first search over its prefixes reaches, paired with the
    lex-first k-subset T of range(len(cols)) that violates against it,
    None, or "budget".

    A prefix P is extended while some k-set T has |N(P) & N(T)| < k, where
    N(P) is the union of its rows and N(T) that of its ``cols``: every T
    when |N(P)| < k, the first being 0..k-1; otherwise the first T that
    ``_search`` finds on the rows ``N(P) & ~cols[w]``, whose AND keeps
    |N(P)| - k + 1 bits exactly when T violates. That search runs once per
    distinct N(P), in the identity order, and counts its nodes on
    ``budget``, as does each step to a prefix. Unions only grow as a prefix
    is extended, so no extension of a prefix that fails passes either. The
    search pays off when these prunes fire well above depth k; where they
    fire only near it, the search can take longer than visiting every pair
    (README, Performance).
    """
    n = len(rows)
    chosen: list[int] = []
    first_t = tuple(range(k))  # when |N(P)| < k every T violates
    t_of: dict[int, Optional[tuple[int, ...]]] = {}  # the T search's result per N(P)
    # One frame per depth: the union of the prefix's rows and an iterator
    # over the indices left to try after it.
    stack = [(0, iter(range(n - k + 1)))]
    while stack:
        acc, untried = stack[-1]
        for i in untried:
            if not budget.tick():
                return "budget"
            grown = acc | rows[i]
            size = grown.bit_count()
            if size >= k and grown not in t_of:
                t_rows = [grown & ~col for col in cols]
                threshold = size - k + 1
                live = _live(t_rows, threshold)
                found = next(_search(t_rows, grown, k, threshold, budget, live, 0, len(live) - k + 1))
                if found == "budget":
                    return found
                t_of[grown] = None if found is None else tuple(found[1])
            t_combo = t_of[grown] if size >= k else first_t
            if t_combo is None:
                continue
            chosen.append(i)
            if len(chosen) == k:
                return tuple(chosen), t_combo
            stack.append((grown, iter(range(i + 1, n - k + len(chosen) + 1))))
            break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
    return None


def _exhaustive_scan(g: LayeredGraph, ks: list[int], node_budget: int):
    """Every (k, S, T) in lex order, up to the first pair with fewer than k
    disjoint paths or until ``node_budget`` nodes are spent: that pair as
    (k, S, T), None, or "budget", with the pairs checked.

    By Menger's theorem a pair of k-sets S, T has fewer than k disjoint paths
    iff some A in S, B in T have |N(A) & N(B)| < |A| + |B| - k; trimming the
    larger of A, B then gives a pair of size min(|A|, |B|) with
    |N(A) & N(B)| < min(|A|, |B|). So when every smaller k has passed, the
    failing pairs of k-sets are exactly the Hall violations |N(S) & N(T)| < k,
    and ``_first_kset`` finds the lex-first one instead of visiting every
    pair: a depth-first search over S-prefixes that asks the shared k-subset
    search ``_search`` for each T. Since a failure at any size implies a
    Hall violation at some size no larger, sizes 1..k - 1 free of Hall
    violations mean that every smaller k passes. So the scan runs the Hall
    search on sizes 1, 2, ... up to each listed k, listed or not, and stops
    at the first violation: a listed k is then decided by the Hall result
    when every smaller size is clean, and by a max-flow per pair when the
    violation lies at an unlisted smaller size. One budget counts the
    S-prefix steps, the T search's nodes and the pairs given a flow;
    once they pass ``node_budget`` the scan gives "budget", and the pairs
    of the levels already decided. A counterexample comes with its lex
    rank, counting every pair of the earlier levels.
    """
    n = g.n
    pairs_before = 0
    budget = _Budget(node_budget)
    clean, hall = 0, None  # sizes 1..clean have no Hall violation; hall is the first one found
    for k in ks:
        size = math.comb(n, k)
        while hall is None and clean < k:
            hall = _first_kset(g.vm.adj, clean + 1, g.mw.cols, budget)
            clean += hall is None
        if clean + 1 >= k:
            found = hall
        else:
            pairs = ((s, t) for s in combinations(range(n), k) for t in combinations(range(n), k))
            found = next((pair for pair in pairs if not budget.tick() or max_disjoint_paths(g, *pair) < k), None)
        if budget.nodes > budget.limit:  # either search stops at the tick that passes the limit
            return "budget", pairs_before
        if found is not None:
            s_combo, t_combo = found
            return (k, s_combo, t_combo), pairs_before + _lex_rank(s_combo, n) * size + _lex_rank(t_combo, n) + 1
        pairs_before += size ** 2
    return None, pairs_before


def _sampled_scan(g: LayeredGraph, ks: list[int], samples: int, rng: RandomSource):
    """``samples`` uniform pairs per k, up to the first with fewer than k
    disjoint paths: that pair as (k, S, T) or None, with the pairs checked."""
    sampler = SubsetSampler(g.n, rng.rng())
    pairs_checked = 0
    for k in ks:
        for _ in range(samples):
            s_combo = tuple(sorted(sampler.draw_list(k)))
            t_combo = tuple(sorted(sampler.draw_list(k)))
            pairs_checked += 1
            if max_disjoint_paths(g, s_combo, t_combo) < k:
                return (k, s_combo, t_combo), pairs_checked
    return None, pairs_checked


def verify_superconcentrator(
    g: LayeredGraph,
    k_values: Iterable[int] | str = "all",
    mode: str = "exhaustive",
    samples: int = 100,
    rng: Optional[RandomSource] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ScVerdict:
    """Check k disjoint paths for every (or a sampled set of) S, T pairs.

    Exhaustive mode covers all C(n,k)^2 pairs per k and is complete. It scans
    (k, S, T) in lex order and stops at the first counterexample. A pruned
    search for Hall-type violations runs on the sizes 1, 2, ... whether
    listed or not; a listed k whose smaller sizes have none is decided by
    it, and a k past a violation at an unlisted smaller size by a max-flow
    per pair.
    ``pairs_checked`` counts the pairs up to and including the counterexample,
    as a pair-by-pair scan would. The searches spend at most ``node_budget``
    nodes: an S-prefix step, a T search node or a pair given a flow costs
    one, and a budget below one raises ``ValueError``. A search that runs
    out returns ``is_superconcentrator=None``, with ``pairs_checked``
    counting the pairs of the levels already decided. k values must be
    plain ints. Sampled mode draws ``samples`` uniform pairs
    per k, runs a max-flow on each, can only refute, and ignores
    ``node_budget``. In either mode the counterexample's flow is run again
    here, and one that shows no deficit raises ``AssertionError``.
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
        if node_budget < 1:
            raise ValueError("node budget must be >= 1")
        found, pairs_checked = _exhaustive_scan(g, ks, node_budget)
        seed = stream_id = None
    else:
        if samples < 1:
            raise ValueError(f"sampled verification needs samples >= 1, got {samples}")
        if rng is None:
            raise ValueError("sampled verification requires a random source")
        found, pairs_checked = _sampled_scan(g, ks, samples, rng)
        seed, stream_id = rng.seed, rng.stream_id
    counterexample = None
    if found not in (None, "budget"):
        k, s_combo, t_combo = found
        flow = max_disjoint_paths(g, s_combo, t_combo)
        if flow >= k:
            raise AssertionError("internal error: counterexample without a flow deficit")
        counterexample = Counterexample(k, s_combo, t_combo, flow)
    is_sc = None if found == "budget" else counterexample is None
    return ScVerdict(is_sc, counterexample, tuple(ks), mode, pairs_checked, seed, stream_id)


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
    left = tuple(g.vm.cols[u] for u in order)
    return BicliqueFamily(g.n, k, left, tuple(g.mw.adj[u] for u in order))


@dataclass(frozen=True)
class MiddleDecomposition:
    """Three-way split of the middle layer against (n/k) * base thresholds."""

    k: int
    high: tuple[int, ...]
    medium: tuple[int, ...]
    low: tuple[int, ...]
    medium_edges_v: int


def decompose(g: LayeredGraph, k: int, threshold_base: float) -> MiddleDecomposition:
    """Partition middle vertices into High/Medium/Low by W-side (out) degree
    against the ``medium_band`` cuts (n/k) / threshold_base and
    (n/k) * threshold_base. After a 1:1 balance the W-side degree is also
    the V-side degree."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}")
    if threshold_base <= 1.0:
        raise ValueError(f"threshold base must exceed 1, got {threshold_base}")
    deg = [row.bit_count() for row in g.mw.adj]
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
        high=tuple(high),
        medium=tuple(medium),
        low=tuple(low),
        medium_edges_v=sum(g.vm.cols[u].bit_count() for u in medium),
    )


def _rounded_pair(lead_min: int, follow_min: int, num: int, den: int) -> tuple[int, int]:
    """The least ``lead >= lead_min`` whose ``follow``, ``lead * num/den``
    rounded half up, is at least ``follow_min``, and that ``follow``.

    ``follow >= follow_min`` is ``2*num*lead + den >= 2*den*follow_min``, and
    ``follow`` never falls as ``lead`` grows, so the least lead is a ceiling.
    """
    lead = max(lead_min, -((den - 2 * den * follow_min) // (2 * num)))
    return lead, (2 * num * lead + den) // (2 * den)


def balance_degrees(g: LayeredGraph, a: float | int = 1, b: float | int = 1) -> LayeredGraph:
    """Pad edges so every middle vertex has deg_V / deg_W = a/b within integer
    rounding. Never removes edges; raises if a vertex would need more than n
    neighbors, or if the padding would more than double the total edge count
    (beyond the per-vertex rounding allowance). Added edges go to the smallest
    available vertex indices, so the result is deterministic.

    A middle of degrees (dv, dw) gets the least target (x, y) with x >= dv
    and y >= dw: with ratio a/b <= 1, the least y whose x = round(y * a/b)
    reaches dv, and otherwise the least x whose y = round(x * b/a) reaches
    dw, rounding halves up. Both are computed in closed form on the exact
    ratio, not by a scan over y or x.
    """
    from fractions import Fraction  # on use: sc-verify loads this module but needs no fractions

    if a <= 0 or b <= 0:
        raise ValueError(f"target ratio parts must be positive, got ({a}, {b})")
    ratio = Fraction(a) / Fraction(b)
    p, q = ratio.numerator, ratio.denominator
    n, m = g.n, g.m
    in_masks = g.vm.cols
    out_masks = list(g.mw.adj)
    full = (1 << n) - 1

    new_in = list(in_masks)
    for u in range(m):
        dv = in_masks[u].bit_count()
        dw = out_masks[u].bit_count()
        if dv == 0 and dw == 0:
            continue
        if p <= q:
            y, x = _rounded_pair(dw, dv, p, q)
        else:
            x, y = _rounded_pair(dv, dw, q, p)
        if x > n or y > n:
            raise ValueError(
                f"cannot balance middle vertex {u} (degrees {dv}, {dw}) to {a}:{b} within n={n}"
            )
        if x > dv:
            new_in[u] |= mask_of(islice(bits(full & ~new_in[u]), x - dv))
        if y > dw:
            out_masks[u] |= mask_of(islice(bits(full & ~out_masks[u]), y - dw))

    vm = BipartiteGraph(m, n, tuple(new_in)).transposed()
    balanced = LayeredGraph(vm, BipartiteGraph(m, n, tuple(out_masks)))
    before = g.vm.edge_count + g.mw.edge_count
    after = balanced.vm.edge_count + balanced.mw.edge_count
    if before and after > 2 * before + m:
        raise ValueError(
            f"balancing to {a}:{b} would grow total edges {before} -> {after}, "
            "more than the promised factor two"
        )
    return balanced


def layered_flip(g: LayeredGraph) -> LayeredGraph:
    """Swap the roles of V and W (reverse every edge): each layer of the flip
    is the other layer of the input, transposed."""
    return LayeredGraph(g.mw.transposed(), g.vm.transposed())


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

    total = g.vm.edge_count + g.mw.edge_count
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
        total_edges_balanced=balanced.vm.edge_count + balanced.mw.edge_count,
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


def tradeoff_audit(g: LayeredGraph, constant: float) -> tuple[TradeoffReport, bool]:
    """Audit the asymmetric condition on the b^2-threshold ladder, and say
    whether V and W were swapped.

    The audit orients and balances its own input: it flips the graph when
    the V side has the larger average degree, so that a <= b, and then pads
    every middle vertex to the graph's own a:b ratio with ``balance_degrees``.
    The chosen k0 minimizes V-to-Medium edges, and the pigeonhole bound
    min <= a n / L is checked exactly in integer arithmetic.
    """
    flipped = g.vm.edge_count > g.mw.edge_count
    if flipped:
        g = layered_flip(g)
    if g.vm.edge_count == 0 or g.mw.edge_count == 0:
        raise ValueError("tradeoff normalization needs edges in both layers")
    g = balance_degrees(g, g.vm.edge_count, g.mw.edge_count)
    n = g.n
    evm = g.vm.edge_count
    a = evm / n
    b = g.mw.edge_count / n
    if b <= 1.0:
        raise ValueError(f"W side average degree {b} <= 1: threshold base undefined")

    t = b * b
    ladder = threshold_ladder(n, t)
    if not ladder:
        raise ValueError(f"no ladder rungs inside [n^(1/4), n^(3/4)] for n={n}")
    decs = [decompose(g, k, t) for k in ladder]
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
    ), flipped
