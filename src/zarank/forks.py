"""An ordered fork pool: ``fn(0) .. fn(count - 1)`` on forked workers,
yielded in task order.

The workers fork when the pool is made, so they start on the first tasks
while the caller may still do other work. Forked, they inherit ``fn`` and
whatever it reads, so nothing but the results is pickled. A task goes to
whichever worker asks first: a pipe holds one token, the next task's number
in 8 bytes, written and read whole, and a worker takes a task by reading the
token, which only one reader gets, and writing back the next one. The caller
runs no task: iterating the pool waits on the workers and yields their
results in task order.

Faults. A task's exception is raised at that task's turn, where a serial
loop would raise it. A worker never exits on its own, so the caller waits on
each worker's exit as well as on its pipe: a worker that exits, or whose
pipe breaks, makes the iteration raise ``RuntimeError``. Each worker's first
message says it has started, and nothing is yielded before every worker has
sent it. A worker killed while it holds the token never writes it back; the
caller then sees its exit and raises. ``close`` kills (SIGKILL, which no
inherited handler can catch) and reaps every worker.

A pool forks one worker per CPU this process may use, at most ``workers``
and one per task. Where that would be one worker it forks none, and the
caller runs every task itself, serially. So it does on one CPU, without
``fork``, in a process that runs other threads (forking one is unsafe),
inside a multiprocessing child (such as another pool's worker) and while
this process has other live multiprocessing children (such as another
pool's workers). A pool allowed one worker, or given one task, never imports
``multiprocessing``: imported with the witness search it raised the CLI's
peak RSS by about 0.45 MB.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

_LOST = "a worker exited without a result"


class OrderedForks:
    """``fn(0) .. fn(count - 1)`` in task order, run by at most ``workers``
    forked processes, no more than ``count`` and than the CPUs this process
    may use, or by the caller alone if that allows only one. Close it, or
    use it as a context manager."""

    def __init__(self, fn: Callable[[int], object], count: int, workers: int):
        self.fn, self.count = fn, count
        self.procs: list = []
        self.conns: list = []
        self.fds: tuple = ()  # the token pipe, once forked
        workers = min(workers, count)
        if workers > 1 and (workers := min(workers, _usable_cpus())) > 1:
            self._fork(workers)

    def _fork(self, workers: int) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.fds = os.pipe()
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

    def _take(self) -> Optional[int]:
        """The next untaken task, or None once every task is taken."""
        task = int.from_bytes(os.read(self.fds[0], 8), "little")
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
        for task in range(self.count):
            while silent or task not in results:
                try:
                    ready = wait(self.conns + sentinels)
                    if any(sentinel in ready for sentinel in sentinels):
                        raise RuntimeError(_LOST)
                    for conn in ready:
                        message = conn.recv()
                        silent.discard(conn)
                        if message is not None:
                            results[message[0]] = message[1:]
                except (EOFError, OSError) as exc:
                    raise RuntimeError(_LOST) from exc
            ok, value = results.pop(task)
            if not ok:
                raise value
            yield value

    def close(self) -> None:
        """Kill and reap every worker and release its fds; a second call
        does nothing."""
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.join()
            proc.close()  # its popen fds would stay open until the object is collected
        for conn in self.conns:
            conn.close()
        for fd in self.fds:
            os.close(fd)
        self.procs, self.conns, self.fds = [], [], ()

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
