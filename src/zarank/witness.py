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

The proof runs on every CPU this process may use. Its top-level branches
(pick the i-th live candidate first, then search what remains after it)
share no state, since there is no incumbent, so each branch is one task for
a set of forked workers. The parent reads the results in branch order and
adds up their node counts, and stops at the first witness or once the sum
passes the budget; verdict, witness and ``nodes_explored`` are exactly the
serial ones, and every worker is killed and reaped before the search
returns. A worker that exits without a result makes the search raise. The
proof stays serial on one CPU, where ``fork`` is unavailable, in a process
that runs other threads, and inside a multiprocessing child (such as a
``sweep --jobs`` worker). The probe is always serial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

# transpose_masks is unused here; bench/tests checks the tracer wraps this binding.
from .core import BipartiteGraph, bits, mask_of, transpose_masks  # noqa: F401

__all__ = [
    "WitnessResult",
    "has_kxk_independent_set",
]

DEFAULT_NODE_BUDGET = 10_000_000
_PROBE_NODES = 20_000  # node cap of the ascending-order probe
_LOST_WORKER = "a witness-search worker exited without a result"


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
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def _branch_bound(
    non_nbrs: Sequence[int], domain: int, k: int, budget: _Budget, workers: int = 1
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

    With ``workers`` > 1 the top-level branches run on up to that many
    forked processes (``_split_search``), with the same outcome and node
    count.
    """
    if not budget.tick():
        return "budget"
    live = [pos for pos in range(len(non_nbrs)) if non_nbrs[pos].bit_count() >= k]
    branches = len(live) - k + 1
    if workers > 1 and branches > 1:
        return _split_search(non_nbrs, domain, k, budget, live, range(branches), workers)
    return _search(non_nbrs, domain, k, budget, live, 0, branches)


def _search(
    non_nbrs: Sequence[int], domain: int, k: int, budget: _Budget, live: list[int], first: int, stop: int
) -> Optional[tuple[int, list[int]]] | str:
    """The top-level branches of ``_branch_bound`` that pick ``live[first]``
    up to ``live[stop - 1]`` first, searched in order.

    Each node carries its live candidates: the later positions that keep the
    common non-neighborhood at >= k bits. Common masks only shrink, so a node
    with fewer live candidates than picks still needed has no completion; a
    frame's stop index is the first candidate with too few after it. The
    search runs on an explicit stack, so its depth is bounded by k only.
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
        rest = [p for p in live[i + 1 :] if (shrunk & non_nbrs[p]).bit_count() >= k]
        if len(rest) >= need - 1:
            chosen.append(pos)
            stack.append([shrunk, rest, 0, len(rest) - need + 2])
    return None


def _proof_worker(conn, non_nbrs: Sequence[int], domain: int, k: int, limit: int, live: list[int]) -> None:
    """Search each top-level branch the parent sends within ``limit`` nodes
    and send back (outcome, nodes)."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    while True:
        first = conn.recv()
        budget = _Budget(limit)
        conn.send((_search(non_nbrs, domain, k, budget, live, first, first + 1), budget.nodes))


def _split_search(
    non_nbrs: Sequence[int], domain: int, k: int, budget: _Budget, live: list[int], branches: range, workers: int
) -> Optional[tuple[int, list[int]]] | str:
    """``_search`` over the top-level ``branches``, one task per branch, on
    up to ``workers`` forked processes.

    The branches share no state, so each runs alone within what is left of
    the budget. A worker always holds its next branch in its pipe, so it
    never waits for the parent; the parent reads the results in branch order
    and adds up their nodes, and stops at the first witness or once the sum
    passes the limit (reporting ``limit + 1`` nodes, as ``_Budget`` does).
    Outcome and node count are the serial ones. The parent also waits on
    each worker's exit sentinel: a worker never exits on its own, so one
    that does, like one whose pipe breaks, raises ``RuntimeError``. Every
    worker is killed (SIGKILL, which no inherited handler can catch) and
    reaped before this returns or raises.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    args = (non_nbrs, domain, k, budget.limit - budget.nodes, live)
    procs, queued, results = [], {}, {}  # queued: per worker, its branches in order
    unsent = iter(branches)
    try:
        for _ in range(min(workers, len(branches))):
            conn, child_conn = ctx.Pipe()
            queued[conn] = []
            proc = ctx.Process(target=_proof_worker, args=(child_conn, *args), daemon=True)
            proc.start()
            procs.append(proc)
            child_conn.close()
        sentinels = [proc.sentinel for proc in procs]
        for branch in branches:
            try:
                while branch not in results:
                    for conn, tasks in queued.items():
                        while len(tasks) < 2 and (task := next(unsent, None)) is not None:
                            conn.send(task)
                            tasks.append(task)
                    ready = wait(sentinels + [conn for conn, tasks in queued.items() if tasks])
                    if any(sentinel in ready for sentinel in sentinels):
                        raise RuntimeError(_LOST_WORKER)
                    for conn in ready:
                        results[queued[conn].pop(0)] = conn.recv()
            except (EOFError, OSError) as exc:
                raise RuntimeError(_LOST_WORKER) from exc
            outcome, nodes = results.pop(branch)
            budget.nodes += nodes
            if budget.nodes > budget.limit:
                budget.nodes = budget.limit + 1
                return "budget"
            if outcome is not None:
                return outcome
        return None
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in queued:
            conn.close()


def _proof_workers() -> int:
    """Processes the absence proof may run on: the CPUs this process may use,
    or 1 (serial) without ``fork``, in a process that runs other threads
    (forking one is unsafe), or inside a multiprocessing child, such as a
    ``sweep --jobs`` worker.

    ``multiprocessing`` is imported here, where a proof first needs it:
    imported with this module it raised the CLI's peak RSS by about 0.45 MB,
    although ``zarank.cli`` loads it later anyway.
    """
    import multiprocessing
    import threading

    if (
        multiprocessing.parent_process() is not None
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    outcome = _branch_bound([other & ~rows[w] for w in order], other, k, budget)
    if outcome == "budget" and budget.limit < node_budget:
        budget.limit = node_budget
        order = [w for _, w in sorted(keyed, key=lambda dw: (-dw[0], dw[1]))]
        outcome = _branch_bound([other & ~rows[w] for w in order], other, k, budget, _proof_workers())
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
