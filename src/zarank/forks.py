"""An ordered fork pool: ``fn(0) .. fn(count - 1)`` on forked workers and the
calling process, yielded in task order.

The workers fork when the pool is made, so they start on the first tasks
while the caller may still do other work. Forked, they inherit ``fn`` and
whatever it reads, so nothing but the results is pickled. A task goes to
whichever process asks first: a pipe holds one token, the next task's number
in 8 bytes, written and read whole, and a process takes a task by reading the
token, which only one reader gets, and writing back the next one. Iterating
the pool yields the results in task order. While the result due next is
still out and none waits, the caller takes the next untaken task itself.

Faults. A task's exception is raised at that task's turn, where a serial
loop would raise it. A worker never exits on its own, so the caller waits on
each worker's exit as well as on its pipe: a worker that exits, or whose
pipe breaks, makes the iteration raise ``RuntimeError``. Each worker's first
message says it has started, and nothing is yielded before every worker has
sent it, so a worker that dies at once raises even when the caller runs
every task itself. A worker killed while it holds the token never writes it
back; the caller then sees its exit and raises. ``close`` kills (SIGKILL,
which no inherited handler can catch) and reaps every worker.

A pool forks nothing, and runs every task in the caller, on one CPU,
without ``fork``, in a process that runs other threads (forking one is
unsafe), inside a multiprocessing child (such as another pool's worker) and
while this process has other live multiprocessing children (such as another
pool's workers). A pool allowed no worker, or given one task, never imports
``multiprocessing``: imported with the witness search it raised the CLI's
peak RSS by about 0.45 MB.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional, Sequence

_LOST = "a worker exited without a result"


class OrderedForks:
    """``fn(0) .. fn(count - 1)`` in task order, run by the caller and at
    most ``workers`` forked processes, fewer than ``count`` and than the CPUs
    this process may use. Close it, or use it as a context manager."""

    def __init__(self, fn: Callable[[int], object], count: int, workers: int):
        self.fn, self.count = fn, count
        self.procs: list = []
        self.conns: list = []
        self.fds: tuple = ()  # the token pipe, once forked
        workers = min(workers, count - 1)
        if workers > 0 and (workers := min(workers, _usable_cpus() - 1)) > 0:
            self._fork(workers)

    def _fork(self, workers: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.fds = os.pipe()
        os.set_blocking(self.fds[0], False)
        os.write(self.fds[1], (0).to_bytes(8, "little"))
        try:
            for _ in range(workers):
                conn, child_conn = ctx.Pipe()
                self.conns.append(conn)
                proc = ctx.Process(target=_work, args=(self, child_conn), daemon=True)
                proc.start()
                self.procs.append(proc)
                child_conn.close()
        except BaseException:  # the caller holds no pool yet to close
            self.close()
            raise

    def _take(self, sentinels: Sequence = ()) -> Optional[int]:
        """The next untaken task, or None once every task is taken. A caller
        that passes the workers' exit ``sentinels`` does not wait for ever
        for a token that a killed worker held: it raises ``RuntimeError``
        once one has exited."""
        from multiprocessing.connection import wait

        while True:
            try:
                token = os.read(self.fds[0], 8)
                break
            except BlockingIOError:  # another process holds the token
                ready = wait([self.fds[0], *sentinels])
                if any(sentinel in ready for sentinel in sentinels):
                    raise RuntimeError(_LOST) from None
        task = int.from_bytes(token, "little")
        os.write(self.fds[1], min(task + 1, self.count).to_bytes(8, "little"))
        return task if task < self.count else None

    def __iter__(self) -> Iterator:
        if not self.procs:
            yield from map(self.fn, range(self.count))
            return
        from multiprocessing.connection import wait

        sentinels = [proc.sentinel for proc in self.procs]
        results: dict = {}  # task -> (ok, value), until yielded
        silent = set(self.conns)  # workers not heard from yet
        own = True  # an untaken task may be left for the caller

        def receive(block: bool) -> bool:
            """Read every message that waits; False if none does and not ``block``."""
            try:
                ready = wait(self.conns + sentinels, None if block else 0)
                if any(sentinel in ready for sentinel in sentinels):
                    raise RuntimeError(_LOST)
                for conn in ready:
                    message = conn.recv()
                    silent.discard(conn)
                    if message is not None:
                        results[message[0]] = message[1:]
            except (EOFError, OSError) as exc:
                raise RuntimeError(_LOST) from exc
            return bool(ready)

        while silent:
            receive(block=True)
        for task in range(self.count):
            while task not in results:
                if not receive(block=not own) and own:
                    mine = self._take(sentinels)
                    if mine is None:
                        own = False
                    else:
                        results[mine] = _run(self.fn, mine)
            ok, value = results.pop(task)
            if not ok:
                raise value
            yield value

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()
        for fd in self.fds:
            os.close(fd)
        self.fds = ()

    def __enter__(self) -> OrderedForks:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run(fn: Callable[[int], object], task: int) -> tuple[bool, object]:
    """(True, ``fn(task)``), or (False, the exception it raised)."""
    try:
        return True, fn(task)
    except Exception as exc:
        return False, exc


def _work(pool: OrderedForks, conn) -> None:
    """A worker: say it has started, send (task, ok, value) for each task it
    takes, then wait for the caller to kill it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles Ctrl-C
    conn.send(None)  # started
    while (task := pool._take()) is not None:
        conn.send((task, *_run(pool.fn, task)))
    conn.recv()  # the caller sends nothing: this returns only once it has gone


def _usable_cpus() -> int:
    """The CPUs this process may use, or 1 where a pool may not fork (see
    the module docstring)."""
    import multiprocessing
    import threading

    if (
        multiprocessing.parent_process() is not None
        or multiprocessing.active_children()
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
