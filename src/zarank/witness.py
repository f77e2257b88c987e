"""Detection of k x k bipartite independent sets.

The branch-and-bound search is complete: a ``found=False`` verdict with
``complete=True`` means no witness exists. Node budgets make incompleteness a
first-class outcome (``found=None``) so callers can never mistake a timeout
for absence. Every returned witness is re-verified bit by bit before it
leaves this module.

The search runs in two phases over one input. A probe tries the branch-side
vertices in ascending-degree order, which finds most witnesses in a few
hundred nodes, and stops after ``_PROBE_NODES`` nodes. Only if the probe
stops does the search restart in descending-degree order (fewest
non-neighbours first), which proves absence with 2-3x fewer nodes, and run it
to completion. One node budget spans both phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import BipartiteGraph, bits, jsonable, mask_of, transpose_masks

__all__ = [
    "WitnessConfig",
    "WitnessResult",
    "has_kxk_independent_set",
]

DEFAULT_NODE_BUDGET = 10_000_000
_PROBE_NODES = 20_000  # node cap of the ascending-order probe


@dataclass(frozen=True)
class WitnessConfig:
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError("node budget must be >= 1")


@dataclass(frozen=True)
class WitnessResult:
    """Three-valued verdict: found True/False, or None when the budget ran out.

    A found witness is S x T with S on the left and T on the right, each a
    sorted tuple of vertex indices.
    """

    found: Optional[bool]
    S: Optional[tuple[int, ...]]
    T: Optional[tuple[int, ...]]
    nodes_explored: int
    complete: bool

    def to_json(self) -> dict:
        return {**jsonable(self), "method": "branch_bound"}


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
    order: Sequence[int],
) -> Optional[tuple[int, list[int]]] | str:
    """Search k-subsets of the branch side for a common non-neighborhood of
    size >= k on the other side.

    ``adj_t`` maps each branch-side vertex to its other-side neighbor mask,
    and ``order`` lists the branch-side vertices in the order they are tried.
    The returned witness is the first k-subset of positions in ``order``, in
    ``itertools.combinations`` order, whose common non-neighborhood has >= k
    bits (which need not be the globally lexicographically least witness).
    The probe passes ascending (degree, index) order and the proof
    descending-degree order, ``(-degree, index)``; a search that stays within
    the probe's cap reports the probe's witness, any other the proof's.
    Returns (non_neighbor_mask, chosen_vertices), None when the search space
    is exhausted, or "budget".

    Each node carries its live candidates: the later positions that keep the
    common non-neighborhood at >= k bits. Common masks only shrink, so a node
    with fewer live candidates than picks still needed has no completion. The
    search runs on an explicit stack, so its depth is bounded by k only.
    """
    n_branch = len(adj_t)
    full_other = (1 << n_other) - 1
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


def has_kxk_independent_set(
    g: BipartiteGraph, k: int, config: WitnessConfig | None = None
) -> WitnessResult:
    """Complete search for a k x k independent set.

    Branches over the side with smaller average degree (ties to the right
    side), maintaining the intersection of the chosen vertices' non-neighbor
    masks and the branch-side candidates that keep it at k or more, and
    pruning once too few candidates remain. An ascending-degree probe of at
    most ``_PROBE_NODES`` nodes runs first; if it stops at its cap, a
    descending-degree search runs to completion within what is left of
    ``config.node_budget``. ``nodes_explored`` counts the nodes of both.
    """
    config = config or WitnessConfig()
    if k < 1 or k > min(g.n_left, g.n_right):
        raise ValueError(f"k={k} does not fit a {g.n_left}x{g.n_right} graph")

    branch_right = g.edge_count / g.n_right <= g.edge_count / g.n_left
    if branch_right:
        adj_t, n_other = transpose_masks(g.adj, g.n_right), g.n_left  # right vertex -> left nbrs
    else:
        adj_t, n_other = g.adj, g.n_right
    degree = [row.bit_count() for row in adj_t]
    ascending = sorted(range(len(adj_t)), key=lambda w: (degree[w], w))
    budget = _Budget(min(config.node_budget, _PROBE_NODES))
    outcome = _branch_bound(adj_t, n_other, k, budget, ascending)
    if outcome == "budget" and budget.limit < config.node_budget:
        budget.limit = config.node_budget
        descending = sorted(range(len(adj_t)), key=lambda w: (-degree[w], w))
        outcome = _branch_bound(adj_t, n_other, k, budget, descending)
    if outcome == "budget":
        return WitnessResult(None, None, None, budget.nodes, False)
    if outcome is None:
        return WitnessResult(False, None, None, budget.nodes, True)
    common, chosen = outcome
    chosen_mask = mask_of(chosen)
    other_mask = mask_of(list(bits(common))[:k])
    if branch_right:
        s_mask, t_mask = other_mask, chosen_mask
    else:
        s_mask, t_mask = chosen_mask, other_mask

    if not _verify_rectangle(g, s_mask, t_mask):
        raise AssertionError("internal error: witness failed re-verification")
    return WitnessResult(True, tuple(bits(s_mask)), tuple(bits(t_mask)), budget.nodes, True)
