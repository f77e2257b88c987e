"""Runs one workload's passes in a fresh process and prints a JSON summary.

Started by ``run.py``; not meant to be run by hand. The process imports
``zarank`` before any timing, calls ``zarank.cli.main(argv)`` in process for
every command, swallows its stdout and stderr, and checks every outcome
outside the timed region. It is a closed loop with one client: each command
starts when the previous one has returned. Its peak resident set is the
workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import spans
import workloads

MIN_PASSES = {0: 3, 1: 4}  # with --trace 1, at least two traced and two untraced


def run_pass(cli, ops: list[workloads.Op], digests: dict[str, str], failures: list[str]) -> list[float]:
    """Run every command once; return the wall time of each."""
    times = []
    for index, op in enumerate(ops):
        if op.prepare is not None:
            op.prepare()
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if error is None and rc != op.expect_rc:
            error = f"exit code {rc}, expected {op.expect_rc}: {sink.getvalue().strip()[-200:]}"
        if error is None:
            try:
                error = op.check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        if error is None:
            for path in op.outputs:
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                if digests.setdefault(path, digest) != digest:
                    error = f"{Path(path).name} differs from the first pass"
        if error is not None:
            failures.append(f"op {index} ({op.command}): {error}")
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="JSON map of input name -> path")
    parser.add_argument("--out", required=True, help="directory for reports")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import zarank
    import zarank.cli as cli

    files = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    ops = workloads.build_ops(args.workload, args.seed, files, Path(args.out))
    tracer = spans.Tracer()
    digests: dict[str, str] = {}
    failures: list[str] = []
    passes: list[dict] = []
    start = time.perf_counter()
    # Untraced passes give the end-to-end numbers. With --trace 1 traced
    # passes alternate with untraced ones, so both see the same conditions.
    while True:
        # Each pass writes its reports as new files. Rewriting a file that was
        # just written makes ext4 flush it on close (auto_da_alloc), which
        # would add tens of milliseconds of disk wait to every report.
        shutil.rmtree(args.out, ignore_errors=True)
        Path(args.out).mkdir(parents=True)
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            with tracer:
                times = run_pass(cli, ops, digests, failures)
        else:
            times = run_pass(cli, ops, digests, failures)
        record = {"traced": traced, "times": times}
        if traced:
            record["layers"] = spans.layer_metrics(tracer.spans, tracer.counters, sum(times))
            record["counts"] = {
                key: tracer.counters.get(key, [])
                for key in ("witness.nodes_per_search", "superconc.pairs_per_verify")
            }
        passes.append(record)
        enough = len(passes) >= MIN_PASSES[args.trace]
        if enough and time.perf_counter() - start >= args.seconds:
            break

    print(json.dumps({
        "version": zarank.__version__,
        "commands": [op.command for op in ops],
        "passes": passes,
        "attempted": len(ops) * len(passes),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
