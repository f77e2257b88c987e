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

The proof runs on every CPU this process may use, and starts while the probe
still runs. A probe that stops always stops at ``_PROBE_NODES + 1`` nodes, so
the proof's budget is known in advance. Once the probe has spent
``_PROBE_SLICE`` nodes unsettled, forked workers, one per CPU but the
parent's, start on the proof's top-level branches (pick the i-th live
candidate first, then search what remains after it), which share no state,
since there is no incumbent. Each worker takes the next untaken branch and
needs nothing from the parent. The parent goes on probing from where it was.
If the probe settles, the workers are killed and its result stands.
Otherwise the parent merges the branch results in branch order, taking
untaken branches itself while it waits, adds up their node counts, and stops
at the first witness or once the sum passes the budget; verdict, witness and
``nodes_explored`` are exactly the serial ones, and every worker is killed
and reaped before the search returns. A worker that exits without a result,
even while the parent probes, makes the search raise. The proof stays serial
on one CPU, where ``fork`` is unavailable, in a process that runs other
threads, and inside a multiprocessing child (such as a ``sweep --jobs``
worker). A search that settles within the slice never forks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

# transpose_masks is unused here; bench/tests checks the tracer wraps this binding.
from .core import BipartiteGraph, bits, mask_of, transpose_masks  # noqa: F401

__all__ = [
    "WitnessResult",
    "has_kxk_independent_set",
]

DEFAULT_NODE_BUDGET = 10_000_000
_PROBE_NODES = 20_000  # node cap of the ascending-order probe
_PROBE_SLICE = 2_000  # probe nodes spent before the proof workers start; at most _PROBE_NODES
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


class _Tickets:
    """The proof's top-level branches 0 .. ``stop`` - 1, handed out in order
    to whichever process asks next, through a pipe that forked workers
    inherit.

    The pipe holds one token, the next branch's number in 8 bytes, written
    and read whole. A process takes a branch by reading the token, which
    only one reader gets, and writing back the next one.
    """

    def __init__(self, stop: int):
        self.stop = stop
        self.fds = os.pipe()
        os.set_blocking(self.fds[0], False)
        os.write(self.fds[1], (0).to_bytes(8, "little"))

    def take(self, sentinels: Sequence = ()) -> Optional[int]:
        """The next branch, or None once every branch is taken.

        A worker killed while it holds the token never puts it back, so a
        caller that passes the workers' exit ``sentinels`` does not wait for
        it for ever: it raises ``RuntimeError`` once one has exited.
        """
        from multiprocessing.connection import wait

        while True:
            try:
                token = os.read(self.fds[0], 8)
                break
            except BlockingIOError:  # another process holds the token
                ready = wait([self.fds[0], *sentinels])
                if any(sentinel in ready for sentinel in sentinels):
                    raise RuntimeError(_LOST_WORKER) from None
        branch = int.from_bytes(token, "little")
        os.write(self.fds[1], min(branch + 1, self.stop).to_bytes(8, "little"))
        return branch if branch < self.stop else None

    def close(self) -> None:
        for fd in self.fds:
            os.close(fd)


def _walk(
    tickets: _Tickets, non_nbrs: Sequence[int], domain: int, k: int, limit: int, live: list[int], sentinels=()
) -> Iterator[tuple[int, Optional[tuple[int, list[int]]] | str, int]]:
    """Search the proof's top-level branches that ``tickets`` hands out, in
    order, each within what is left of ``limit`` nodes, and yield (branch,
    outcome, nodes) for each.

    A witness or a spent limit ends the walk: the merge stops at or before
    that branch, since it adds up the nodes of every branch up to it, this
    walk's among them.
    """
    while (first := tickets.take(sentinels)) is not None:
        budget = _Budget(limit)
        outcome = _search(non_nbrs, domain, k, budget, live, first, first + 1)
        yield first, outcome, budget.nodes
        if outcome is not None:
            return
        limit -= budget.nodes


def _proof_worker(conn, *walk_args) -> None:
    """Send the parent each result of ``_walk(*walk_args)``. The worker needs
    nothing from the parent, and waits for it to kill the worker once the
    walk ends."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    conn.send(None)  # started
    for result in _walk(*walk_args):
        conn.send(result)
    conn.recv()  # the parent sends nothing: this returns only once it has gone


class _Proof:
    """The descending-degree search that runs once the probe stops at its
    cap, with ``limit`` nodes below its root.

    It is set up while the probe still runs. On more than one usable CPU
    (``_proof_workers``) it forks one worker per CPU but the parent's, and
    they start on its top-level branches at once, each taking the next
    untaken branch (``_Tickets``); the branches share no state, since the
    search keeps no incumbent. The parent joins them once its probe has
    stopped. ``close`` kills (SIGKILL, which no inherited handler can catch)
    and reaps every worker.
    """

    def __init__(self, keyed: list[tuple[int, int]], rows: Sequence[int], other: int, k: int, limit: int):
        self.order = [w for _, w in sorted(keyed, key=lambda dw: (-dw[0], dw[1]))]
        self.non_nbrs = [other & ~rows[w] for w in self.order]
        self.domain, self.k, self.limit = other, k, limit
        self.live = _live(self.non_nbrs, k)
        self.procs: list = []
        self.conns: list = []
        self.tickets: Optional[_Tickets] = None
        branches = len(self.live) - k + 1
        if branches > 1 and limit > 0 and (cpus := _proof_workers()) > 1:
            self._fork(branches, min(cpus - 1, branches - 1))

    def _fork(self, branches: int, workers: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.tickets = _Tickets(branches)
        args = (self.tickets, self.non_nbrs, self.domain, self.k, self.limit, self.live)
        try:
            for _ in range(workers):
                conn, child_conn = ctx.Pipe()
                self.conns.append(conn)
                proc = ctx.Process(target=_proof_worker, args=(child_conn, *args), daemon=True)
                proc.start()
                self.procs.append(proc)
                child_conn.close()
        except BaseException:  # the caller holds no _Proof yet to close
            self.close()
            raise

    def run(self, budget: _Budget) -> Optional[tuple[int, list[int]]] | str:
        """The proof's outcome, as ``_branch_bound`` gives it, counted on ``budget``."""
        if not budget.tick():
            return "budget"
        if self.procs:
            return self._merge(budget)
        return _search(self.non_nbrs, self.domain, self.k, budget, self.live, 0, len(self.live) - self.k + 1)

    def _merge(self, budget: _Budget) -> Optional[tuple[int, list[int]]] | str:
        """Merge the branch results in branch order, adding up their nodes;
        stop at the first witness or once the sum passes the limit
        (reporting ``limit + 1`` nodes, as ``_Budget`` does). Outcome and node
        count are the serial ones.

        While the branch merged next is still out and no message waits, the
        parent searches the next untaken branch itself, as a worker would.
        A worker never exits on its own, so the parent watches each worker's
        exit sentinel as well as its pipe: a worker that exits, like one
        whose pipe breaks, raises ``RuntimeError``. Each worker's first
        message says it has started, and the merge returns only once every
        worker has sent it, so a worker that dies at once raises even when
        the parent has searched every branch itself.
        """
        from multiprocessing.connection import wait

        sentinels = [proc.sentinel for proc in self.procs]
        own = _walk(self.tickets, self.non_nbrs, self.domain, self.k, self.limit, self.live, sentinels)
        results: dict = {}  # branch -> (outcome, nodes), until merged
        silent = set(self.conns)  # workers not heard from yet

        def receive(block: bool) -> bool:
            """Read every message that waits; False if none does and not ``block``."""
            ready = wait(self.conns + sentinels, None if block else 0)
            if any(sentinel in ready for sentinel in sentinels):
                raise RuntimeError(_LOST_WORKER)
            for conn in ready:
                message = conn.recv()
                silent.discard(conn)
                if message is not None:
                    results[message[0]] = message[1:]
            return bool(ready)

        outcome = None
        try:
            for branch in range(len(self.live) - self.k + 1):
                while branch not in results:
                    if not receive(block=own is None) and own is not None:
                        result = next(own, None)
                        if result is None:
                            own = None
                        else:
                            results[result[0]] = result[1:]
                outcome, nodes = results.pop(branch)
                budget.nodes += nodes
                if budget.nodes > budget.limit:
                    budget.nodes = budget.limit + 1
                    outcome = "budget"
                if outcome is not None:
                    break
            while silent:
                receive(block=True)
        except (EOFError, OSError) as exc:
            raise RuntimeError(_LOST_WORKER) from exc
        return outcome

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()
        if self.tickets is not None:
            self.tickets.close()
            self.tickets = None


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
            started.close()
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
