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
to completion. One node budget spans both phases. Each node's candidate
filter gives up as soon as the node is lost, which saves time only: the
nodes searched are the same.

The proof starts while the probe still runs. A probe that stops always
stops at ``_PROBE_NODES + 1`` nodes, so the proof's budget is known in
advance. Once the probe has spent ``_PROBE_SLICE`` nodes unsettled, the
proof's top-level branches (pick the i-th live candidate first, then search
what remains after it) go to an ``OrderedForks`` pool, whose workers start
on them at once; they share no state, since there is no incumbent. The
parent goes on probing from where it was. If the probe settles, the pool is
closed and the probe's result stands. Otherwise the parent takes the branch
results in branch order, adds up their node counts, and stops at the first
witness or once the sum passes the budget. Each process counts the branches
it searches on its own copy of one budget, so it stops where the sum would
have passed the budget anyway, and verdict, witness and ``nodes_explored``
are exactly the serial ones. A search that settles within the slice never
makes a pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Optional, Sequence

# transpose_masks is unused here; bench/tests checks the tracer wraps this binding.
from .core import BipartiteGraph, bits, mask_of, transpose_masks  # noqa: F401
from .forks import OrderedForks

__all__ = [
    "WitnessResult",
    "has_kxk_independent_set",
]

DEFAULT_NODE_BUDGET = 10_000_000
_PROBE_NODES = 20_000  # node cap of the ascending-order probe
_PROBE_SLICE = 2_000  # probe nodes spent before the proof workers start; at most _PROBE_NODES


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
    method: str = field(default="branch_bound", init=False)  # the search that gave the verdict


def _verify_rectangle(g: BipartiteGraph, s_mask: int, t_mask: int) -> bool:
    """True iff no edge of g lies inside S x T."""
    for v in bits(s_mask):
        if g.adj[v] & t_mask:
            return False
    return True


class _Budget:
    """Counts search nodes: ``tick`` fails once they pass ``limit``.

    ``pause(at, call)`` lowers the limit to ``at`` nodes. The tick that
    passes it calls ``call()`` once and restores the limit, so the search
    goes on from where it was.
    """

    __slots__ = ("nodes", "limit", "paused")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit
        self.paused = None  # (limit, call) while a pause is pending

    def pause(self, at: int, call: Callable[[], None]) -> None:
        self.paused = (self.limit, call)
        self.limit = at

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit or self._resume()

    def _resume(self) -> bool:
        if self.paused is None:
            return False
        self.limit, call = self.paused
        self.paused = None
        call()
        return self.nodes <= self.limit


def _live(non_nbrs: Sequence[int], k: int) -> list[int]:
    """The positions whose non-neighborhood alone holds k vertices: the
    root's live candidates."""
    return [pos for pos in range(len(non_nbrs)) if non_nbrs[pos].bit_count() >= k]


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
    """
    if not budget.tick():
        return "budget"
    live = _live(non_nbrs, k)
    return _search(non_nbrs, domain, k, budget, live, 0, len(live) - k + 1)


def _search(
    non_nbrs: Sequence[int], domain: int, k: int, budget: _Budget, live: list[int], first: int, stop: int
) -> Optional[tuple[int, list[int]]] | str:
    """The top-level branches of ``_branch_bound`` that pick ``live[first]``
    up to ``live[stop - 1]`` first, searched in order.

    Each node carries its live candidates: the later positions that keep the
    common non-neighborhood at >= k bits. Common masks only shrink, so a node
    with fewer live candidates than picks still needed has no completion; a
    frame's stop index is the first candidate with too few after it. The
    filter that finds a node's live candidates gives up as soon as more have
    failed than the node can spare, since the node is then pruned whatever
    the rest give. The search runs on an explicit stack, so its depth is
    bounded by k only.
    """
    chosen: list[int] = []
    # One frame per depth: [common mask, live candidates, next index, stop index].
    stack: list[list] = [[domain, live, first, stop]]
    while stack:
        frame = stack[-1]
        common, live, i, stop = frame
        if i >= stop:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[2] = i + 1
        pos = live[i]
        shrunk = common & non_nbrs[pos]
        if not budget.tick():
            return "budget"
        need = k - len(chosen)  # picks still needed, this one included
        if need == 1:
            chosen.append(pos)
            return shrunk, chosen
        rest: list[int] = []
        spare = len(live) - i - need  # the later candidates that may fail before this node is pruned
        for p in live[i + 1 :]:
            if (shrunk & non_nbrs[p]).bit_count() >= k:
                rest.append(p)
            elif spare:
                spare -= 1
            else:
                break
        else:
            chosen.append(pos)
            stack.append([shrunk, rest, 0, len(rest) - need + 2])
    return None


class _Proof:
    """The descending-degree search that runs once the probe stops at its
    cap, with ``limit`` nodes below its root.

    It is set up while the probe still runs, and its top-level branches go
    to an ``OrderedForks`` at once. Each process counts the branches it
    searches on its own copy of ``budget``.
    """

    def __init__(self, keyed: list[tuple[int, int]], rows: Sequence[int], other: int, k: int, limit: int):
        self.order = [w for _, w in sorted(keyed, key=lambda dw: (-dw[0], dw[1]))]
        non_nbrs = [other & ~rows[w] for w in self.order]
        live = _live(non_nbrs, k)
        budget = _Budget(limit)

        def branch(first: int) -> tuple[Optional[tuple[int, list[int]]] | str, int]:
            start = budget.nodes
            return _search(non_nbrs, other, k, budget, live, first, first + 1), budget.nodes - start

        branches = len(live) - k + 1
        self.forks = OrderedForks(branch, branches, branches - 1)

    def run(self, budget: _Budget) -> Optional[tuple[int, list[int]]] | str:
        """The proof's outcome, as ``_branch_bound`` gives it, counted on
        ``budget``: the branches' outcomes in branch order, their nodes added
        up, to the first witness or until the sum passes the limit (then
        ``limit + 1`` nodes, as ``_Budget`` reports)."""
        if not budget.tick():
            return "budget"
        for outcome, nodes in self.forks:
            budget.nodes += nodes
            if budget.nodes > budget.limit:
                budget.nodes = budget.limit + 1
                return "budget"
            if outcome is not None:
                return outcome
        return None


def has_kxk_independent_set(
    g: BipartiteGraph,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
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
    what is left of ``node_budget``. ``nodes_explored`` counts the
    nodes of both. A domain with fewer than k vertices holds no witness and
    costs no node.
    """
    if node_budget < 1:
        raise ValueError("node budget must be >= 1")
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
    budget = _Budget(min(node_budget, _PROBE_NODES))
    proof: list[_Proof] = []  # set up once the probe has spent its slice unsettled
    if node_budget > _PROBE_NODES:
        # A probe that stops always stops at _PROBE_NODES + 1 nodes, and the
        # proof's root takes one more, so what the proof may spend below its
        # root is known before the probe ends.
        limit = node_budget - _PROBE_NODES - 2
        budget.pause(min(_PROBE_SLICE, _PROBE_NODES), lambda: proof.append(_Proof(keyed, rows, other, k, limit)))
    try:
        outcome = _branch_bound([other & ~rows[w] for w in order], other, k, budget)
        if outcome == "budget" and proof:
            budget.limit = node_budget
            order = proof[0].order
            outcome = proof[0].run(budget)
    finally:
        for started in proof:
            started.forks.close()
    if outcome == "budget":
        return WitnessResult(None, None, None, budget.nodes, False)
    if outcome is None:
        return WitnessResult(False, None, None, budget.nodes, True)
    common, chosen = outcome
    chosen_mask = mask_of(order[p] for p in chosen)
    other_mask = mask_of(islice(bits(common), k))
    if branch_right:
        s_mask, t_mask = other_mask, chosen_mask
    else:
        s_mask, t_mask = chosen_mask, other_mask

    if not _verify_rectangle(g, s_mask, t_mask):
        raise AssertionError("internal error: witness failed re-verification")
    return WitnessResult(True, tuple(bits(s_mask)), tuple(bits(t_mask)), budget.nodes, True)
