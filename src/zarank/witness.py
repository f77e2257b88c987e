"""Detection of k x k bipartite independent sets, plus small general-graph search.

The branch-and-bound search is complete: a ``found=False`` verdict with
``complete=True`` means no witness exists. Node budgets make incompleteness a
first-class outcome (``found=None``) so callers can never mistake a timeout
for absence. Every returned witness is re-verified bit by bit before it
leaves this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .core import BipartiteGraph, Side, VertexSet, bits, mask_of, transpose_masks

__all__ = [
    "WitnessConfig",
    "WitnessResult",
    "has_kxk_independent_set",
    "counting_refuter",
    "general_graph_has_independent_set",
]

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_GENERAL_LIMIT = 24


@dataclass(frozen=True)
class WitnessConfig:
    mode: str = "branch_bound"  # "branch_bound" | "exhaustive"
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.mode not in ("branch_bound", "exhaustive"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.node_budget < 1:
            raise ValueError("node budget must be >= 1")


@dataclass(frozen=True)
class WitnessResult:
    """Three-valued verdict: found True/False, or None when the budget ran out."""

    found: Optional[bool]
    S: Optional[VertexSet]
    T: Optional[VertexSet]
    method: str
    nodes_explored: int
    complete: bool

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "S": self.S.indices() if self.S is not None else None,
            "T": self.T.indices() if self.T is not None else None,
            "method": self.method,
            "nodes_explored": self.nodes_explored,
            "complete": self.complete,
        }


def _verify_rectangle(g: BipartiteGraph, s_mask: int, t_mask: int) -> bool:
    """True iff no edge of g lies inside S x T."""
    for v in bits(s_mask):
        if g.adj[v] & t_mask:
            return False
    return True


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def _branch_bound(
    adj_t: Sequence[int],
    n_other: int,
    k: int,
    budget: _Budget,
) -> Optional[tuple[int, list[int]]] | str:
    """Search k-subsets of the branch side for a common non-neighborhood of
    size >= k on the other side.

    ``adj_t`` maps each branch-side vertex to its other-side neighbor mask.
    Vertices are tried in ascending-degree order with index tie-break, so the
    returned witness is deterministic: the first k-subset of positions, in
    ``itertools.combinations`` order, whose common non-neighborhood has >= k
    bits (which need not be the globally lexicographically least witness).
    Returns (non_neighbor_mask, chosen_vertices), None when the search space
    is exhausted, or "budget".

    Each node carries its live candidates: the later positions that keep the
    common non-neighborhood at >= k bits. Common masks only shrink, so a node
    with fewer live candidates than picks still needed has no completion. The
    search runs on an explicit stack, so its depth is bounded by k only.
    """
    n_branch = len(adj_t)
    full_other = (1 << n_other) - 1
    order = sorted(range(n_branch), key=lambda w: (adj_t[w].bit_count(), w))
    non_nbrs = [full_other & ~adj_t[w] for w in order]

    if not budget.tick():
        return "budget"
    live = [pos for pos in range(n_branch) if non_nbrs[pos].bit_count() >= k]
    chosen: list[int] = []
    # One frame per depth: [common mask, live candidates, next candidate index].
    stack: list[list] = [[full_other, live, 0]]
    while stack:
        frame = stack[-1]
        common, live, i = frame
        need = k - len(chosen)  # picks still needed, this one included
        if i > len(live) - need:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[2] = i + 1
        pos = live[i]
        shrunk = common & non_nbrs[pos]
        if not budget.tick():
            return "budget"
        if need == 1:
            chosen.append(pos)
            return shrunk, [order[p] for p in chosen]
        rest = [p for p in live[i + 1 :] if (shrunk & non_nbrs[p]).bit_count() >= k]
        if len(rest) >= need - 1:
            chosen.append(pos)
            stack.append([shrunk, rest, 0])
    return None


def _exhaustive(
    adj: Sequence[int], n_left: int, n_right: int, k: int, budget: _Budget
) -> Optional[tuple[int, int]] | str:
    """Enumerate every (S, T) pair in index order; first hit wins."""
    for s_combo in combinations(range(n_left), k):
        if not budget.tick():
            return "budget"
        neighbor_union = 0
        for v in s_combo:
            neighbor_union |= adj[v]
        if (neighbor_union.bit_count()) > n_right - k:
            continue
        candidate = ((1 << n_right) - 1) & ~neighbor_union
        for t_combo in combinations(range(n_right), k):
            t_mask = mask_of(t_combo)
            if t_mask & ~candidate:
                continue
            return mask_of(s_combo), t_mask
    return None


def has_kxk_independent_set(
    g: BipartiteGraph, k: int, config: WitnessConfig | None = None
) -> WitnessResult:
    """Complete search for a k x k independent set.

    Branches over the side with smaller average degree (ties to the right
    side), maintaining the intersection of the chosen vertices' non-neighbor
    masks and the branch-side candidates that keep it at k or more, and
    pruning once too few candidates remain.
    """
    config = config or WitnessConfig()
    if k < 1 or k > min(g.n_left, g.n_right):
        raise ValueError(f"k={k} does not fit a {g.n_left}x{g.n_right} graph")

    budget = _Budget(config.node_budget)
    if config.mode == "exhaustive":
        outcome = _exhaustive(g.adj, g.n_left, g.n_right, k, budget)
        if outcome == "budget":
            return WitnessResult(None, None, None, "exhaustive", budget.nodes, False)
        if outcome is None:
            return WitnessResult(False, None, None, "exhaustive", budget.nodes, True)
        s_mask, t_mask = outcome
    else:
        edge_count = g.edge_count
        avg_left = edge_count / g.n_left
        avg_right = edge_count / g.n_right
        branch_right = avg_right <= avg_left
        if branch_right:
            adj_t = transpose_masks(g.adj, g.n_right)  # right vertex -> left nbrs
            outcome = _branch_bound(adj_t, g.n_left, k, budget)
        else:
            outcome = _branch_bound(list(g.adj), g.n_right, k, budget)
        if outcome == "budget":
            return WitnessResult(None, None, None, "branch_bound", budget.nodes, False)
        if outcome is None:
            return WitnessResult(False, None, None, "branch_bound", budget.nodes, True)
        common, chosen = outcome
        chosen_mask = mask_of(chosen)
        other_mask = mask_of(list(bits(common))[:k])
        if branch_right:
            s_mask, t_mask = other_mask, chosen_mask
        else:
            s_mask, t_mask = chosen_mask, other_mask

    if not _verify_rectangle(g, s_mask, t_mask):
        raise AssertionError("internal error: witness failed re-verification")
    return WitnessResult(
        True,
        VertexSet(Side.LEFT, g.n_left, s_mask),
        VertexSet(Side.RIGHT, g.n_right, t_mask),
        config.mode,
        budget.nodes,
        True,
    )


def counting_refuter(
    g: BipartiteGraph, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[WitnessResult]:
    """Counting shortcut: if sum_v C(n_right - deg(v), k) > (k-1) * C(n_right, k),
    some k-subset T of the right side has >= k common non-neighbors; find one
    and return it verified. A count below the threshold is inconclusive and
    yields None (never a claim of absence), and so does a fallback search that
    runs out of its ``node_budget`` before it finds the witness."""
    if g.n_left != g.n_right:
        raise ValueError("counting refuter requires equal side sizes")
    n = g.n_left
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}")
    total = sum(math.comb(n - row.bit_count(), k) for row in g.adj)
    threshold = (k - 1) * math.comb(n, k)
    if total <= threshold:
        return None

    # Greedy first: extend T by the right vertex keeping the most common
    # non-neighbors (index tie-break).
    nodes = 0
    full_left = (1 << n) - 1
    adj_t = transpose_masks(g.adj, n)
    non_nbrs = [full_left & ~adj_t[w] for w in range(n)]
    common = full_left
    t_list: list[int] = []
    available = set(range(n))
    for _ in range(k):
        best_w, best_count = -1, -1
        for w in sorted(available):
            nodes += 1
            count = (common & non_nbrs[w]).bit_count()
            if count > best_count:
                best_w, best_count = w, count
        common &= non_nbrs[best_w]
        available.remove(best_w)
        t_list.append(best_w)
    if common.bit_count() >= k:
        s_mask = mask_of(list(bits(common))[:k])
        t_mask = mask_of(t_list)
    else:
        # The count guarantees existence, so the complete search must succeed.
        fallback = has_kxk_independent_set(g, k, WitnessConfig(node_budget=node_budget))
        if fallback.found is None:
            return None
        if not fallback.found:
            raise AssertionError("counting threshold exceeded but no witness found")
        nodes += fallback.nodes_explored
        s_mask, t_mask = fallback.S.mask, fallback.T.mask
    if not _verify_rectangle(g, s_mask, t_mask):
        raise AssertionError("internal error: counting witness failed re-verification")
    return WitnessResult(
        True,
        VertexSet(Side.LEFT, n, s_mask),
        VertexSet(Side.RIGHT, n, t_mask),
        "counting",
        nodes,
        True,
    )


def general_graph_has_independent_set(
    adjacency: Sequence[int], k: int, limit: int = DEFAULT_GENERAL_LIMIT
) -> Optional[list[int]]:
    """Complete search for an independent set of size k in a general graph.

    ``adjacency[v]`` is the neighbor bitmask of vertex v (self-loops ignored).
    Only intended for small n; raises above ``limit``.
    """
    n = len(adjacency)
    if n > limit:
        raise ValueError(f"general-graph search limited to n <= {limit}, got n={n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    if k > n:
        return None

    def recurse(candidates: int, current: list[int]) -> Optional[list[int]]:
        if len(current) == k:
            return list(current)
        if len(current) + candidates.bit_count() < k:
            return None
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            current.append(v)
            found = recurse(rest & ~adjacency[v], current)
            if found is not None:
                return found
            current.pop()
            # v excluded: candidates for deeper calls already lack v via rest.
        return None

    return recurse((1 << n) - 1, [])
