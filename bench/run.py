"""Benchmark of the zarank CLI on seeded instances.

    python3 bench/run.py --workload construct-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The run generates the workload's
inputs from the seed (untimed), measures set-up time in fresh interpreters,
then runs the workload's command list in one worker process for at least
``--seconds`` and checks every outcome. It prints a table of every metric
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced passes with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # the whole run, set-up and checks included
SETUP_RUNS = 15
SETUP_CODE = """
import time
start = time.perf_counter()
import zarank.cli
try:
    zarank.cli.main(["--version"])
except SystemExit:
    pass
print(time.perf_counter() - start)
"""


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("ZARANK_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Import zarank.cli and build its parser in fresh interpreters. The first
    run is discarded: it may compile the modules, which users pay once."""
    samples = []
    for index in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if index:
            samples.append(float(out.stdout.split()[-1]))
    return samples


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it
    (nearest rank), or None when there are too few samples."""
    ordered = sorted(values)
    for q in (99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return q, ordered[rank - 1]
    return None


def source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zarank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def print_row(name: str, unit: str, values: list[float]) -> None:
    high = high_percentile(values)
    tail = f"p{high[0]}={high[1]:.6g}" if high else "p-high=n/a"
    print(f"  {name:<16} {statistics.median(values):>12.6g} {unit:<6} {tail:<16} samples={len(values)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "zarank" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"{ROOT} is not a zarank source checkout (needs src/zarank and tests/oracles.py)")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        files = gen.generate(args.workload, args.seed, work / "inputs")
        (work / "inputs.json").write_text(json.dumps(files), encoding="utf-8")
        env = child_env()
        setup = measure_setup(env)
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--inputs", str(work / "inputs.json"),
             "--out", str(work / "out"), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - began)),
        )
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {DEADLINE_S:.0f} s")
    except subprocess.CalledProcessError as exc:
        return fail(f"set-up interpreter failed: {exc.stderr.strip()[-500:]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if worker.returncode != 0:
        return fail(f"worker exited with {worker.returncode}: {worker.stderr.strip()[-2000:]}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    commands = result["commands"]
    failed = len(result["failures"])
    attempted = result["attempted"]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "zarank_version": result["version"], **source_identity(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    walls = [sum(p["times"]) for p in untraced]
    print(f"end-to-end, tracing off ({len(untraced)} passes of {len(commands)} commands):")
    print_row("wall_s", "s", walls)
    print("  wall_s per pass: " + " ".join(f"{w:.4f}" for w in walls))
    for command in dict.fromkeys(commands):
        per_pass = [sum(t for c, t in zip(commands, p["times"]) if c == command) for p in untraced]
        print_row(command.replace("-", "_") + "_s", "s", per_pass)
    print(f"  {'ops_failed_frac':<16} {failed / attempted:>12.6g} ratio  ({failed} of {attempted} operations)")
    print(f"  {'peak_rss_mb':<16} {result['peak_rss_mb']:>12.6g} MB")
    print_row("setup_s", "s", setup)

    if args.trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
        }
        layers["trace.overhead_frac"] = (
            statistics.median(sum(p["times"]) for p in traced) / statistics.median(walls) - 1.0
        )
        print(f"per layer, median of {len(traced)} traced passes:")
        for name, value in layers.items():
            print(f"  {name:<32} {value:.6g}")
        baseline = json.loads((BENCH / "baselines.json").read_text(encoding="utf-8"))
        if args.seed == baseline["seed"]:
            for name, expected in baseline["work_counts"].get(args.workload, {}).items():
                got = traced[0]["counts"][name]
                verdict = "reproduced" if got == expected else f"differs: recorded {expected}"
                print(f"seed-{args.seed} baseline {name} = {got}: {verdict}")
        values, declared = layers, config["per_layer"]
    else:
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": result["peak_rss_mb"],
                  "setup_s": statistics.median(setup)}
        declared = config["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
