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

# transpose_masks is unused here; bench/tests checks the tracer wraps this binding.
from .core import BipartiteGraph, bits, jsonable, mask_of, transpose_masks  # noqa: F401

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
    non_nbrs: Sequence[int], domain: int, k: int, budget: _Budget
) -> Optional[tuple[int, list[int]]] | str:
    """Search k-subsets of the branch side for a common non-neighborhood of
    size >= k on the other side.

    ``non_nbrs`` lists, in the order the branch-side vertices are tried, each
    one's non-neighbor mask within ``domain``, the other side's domain. The
    returned witness is the first k-subset of positions in that order, in
    ``itertools.combinations`` order, whose common non-neighborhood has >= k
    bits (which need not be the globally lexicographically least witness).
    The probe passes ascending (degree, index) order and the proof
    descending-degree order, ``(-degree, index)``; a search that stays within
    the probe's cap reports the probe's witness, any other the proof's.
    Returns (non_neighbor_mask, chosen positions), None when the search space
    is exhausted, or "budget".

    Each node carries its live candidates: the later positions that keep the
    common non-neighborhood at >= k bits. Common masks only shrink, so a node
    with fewer live candidates than picks still needed has no completion. The
    search runs on an explicit stack, so its depth is bounded by k only.
    """
    if not budget.tick():
        return "budget"
    live = [pos for pos in range(len(non_nbrs)) if non_nbrs[pos].bit_count() >= k]
    chosen: list[int] = []
    # One frame per depth: [common mask, live candidates, next candidate index].
    stack: list[list] = [[domain, live, 0]]
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
            return shrunk, chosen
        rest = [p for p in live[i + 1 :] if (shrunk & non_nbrs[p]).bit_count() >= k]
        if len(rest) >= need - 1:
            chosen.append(pos)
            stack.append([shrunk, rest, 0])
    return None


def has_kxk_independent_set(
    g: BipartiteGraph,
    k: int,
    config: WitnessConfig | None = None,
    left: int | None = None,
    right: int | None = None,
) -> WitnessResult:
    """Complete search for a k x k independent set of ``g`` restricted to the
    vertex domains ``left`` and ``right`` (bitmasks; default: the whole side).

    Branches over the larger domain (ties to the right side), the one with
    the smaller average degree, maintaining the intersection of the chosen
    vertices' non-neighbor masks and the branch-side candidates that keep it
    at k or more, and pruning once too few candidates remain. Degrees count
    in-domain neighbors only, so the search takes the same steps as on the
    domains' induced subgraph with its vertices renumbered in order. An
    ascending-degree probe of at most ``_PROBE_NODES`` nodes runs first; if
    it stops at its cap, a descending-degree search runs to completion within
    what is left of ``config.node_budget``. ``nodes_explored`` counts the
    nodes of both. A domain with fewer than k vertices holds no witness and
    costs no node.
    """
    config = config or WitnessConfig()
    if k < 1 or k > min(g.n_left, g.n_right):
        raise ValueError(f"k={k} does not fit a {g.n_left}x{g.n_right} graph")
    left = (1 << g.n_left) - 1 if left is None else left
    right = (1 << g.n_right) - 1 if right is None else right
    if left < 0 or left >> g.n_left or right < 0 or right >> g.n_right:
        raise ValueError(f"domain masks must lie within the {g.n_left}x{g.n_right} graph")
    if min(left.bit_count(), right.bit_count()) < k:
        return WitnessResult(False, None, None, 0, True)

    branch_right = left.bit_count() <= right.bit_count()
    if branch_right:
        rows, branch, other = g.cols, right, left  # right vertex -> left nbrs
    else:
        rows, branch, other = g.adj, left, right
    keyed = sorted(((rows[w] & other).bit_count(), w) for w in bits(branch))
    order = [w for _, w in keyed]
    budget = _Budget(min(config.node_budget, _PROBE_NODES))
    outcome = _branch_bound([other & ~rows[w] for w in order], other, k, budget)
    if outcome == "budget" and budget.limit < config.node_budget:
        budget.limit = config.node_budget
        order = [w for _, w in sorted(keyed, key=lambda dw: (-dw[0], dw[1]))]
        outcome = _branch_bound([other & ~rows[w] for w in order], other, k, budget)
    if outcome == "budget":
        return WitnessResult(None, None, None, budget.nodes, False)
    if outcome is None:
        return WitnessResult(False, None, None, budget.nodes, True)
    common, chosen = outcome
    chosen_mask = mask_of(order[p] for p in chosen)
    other_mask = mask_of(list(bits(common))[:k])
    if branch_right:
        s_mask, t_mask = other_mask, chosen_mask
    else:
        s_mask, t_mask = chosen_mask, other_mask

    if not _verify_rectangle(g, s_mask, t_mask):
        raise AssertionError("internal error: witness failed re-verification")
    return WitnessResult(True, tuple(bits(s_mask)), tuple(bits(t_mask)), budget.nodes, True)
