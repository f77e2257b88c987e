"""Seeded instance generator for the benchmark.

Writes the CLI's own JSON formats (sizes lists, biclique families, layered
graphs, sweep specs) from a workload seed. It shares no code with ``zarank``:
the program only ever sees the files written here. The same (workload, seed)
always gives byte-identical files, because every random choice comes from a
``random.Random`` seeded with a string (hashed with SHA-512, so independent of
``PYTHONHASHSEED``) and every document is written with sorted keys.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from gate import is_superconcentrator


def rng_for(workload: str, seed: int, label: str) -> random.Random:
    return random.Random(f"zarank-bench:{workload}:{seed}:{label}")


def write_json(path: Path, doc: object) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return str(path)


def random_family(rng: random.Random, n: int, k: int, sizes: list[tuple[int, int]]) -> dict:
    """Uniform placements: each biclique takes a uniform m-subset of the left
    side and a uniform n2-subset of the right side."""
    return {
        "n": n,
        "k": k,
        "bicliques": [
            {"left": sorted(rng.sample(range(n), m)), "right": sorted(rng.sample(range(n), n2))}
            for m, n2 in sizes
        ],
    }


def relabel_family(doc: dict, rng: random.Random) -> dict:
    """Apply a uniform permutation to each side's vertex labels.

    The union graph stays isomorphic, so every verdict is unchanged and a
    complete absence proof visits the same number of search nodes; only the
    vertex order the program sees differs from seed to seed.
    """
    n = doc["n"]
    left = list(range(n))
    right = list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    return {
        "n": n,
        "k": doc["k"],
        "bicliques": [
            {"left": sorted(left[v] for v in b["left"]), "right": sorted(right[w] for w in b["right"])}
            for b in doc["bicliques"]
        ],
    }


def random_masks(rng: random.Random, rows: int, cols: int, p: float) -> list[int]:
    return [sum(1 << c for c in range(cols) if rng.random() < p) for _ in range(rows)]


def layered_doc(n: int, m: int, adj_vm: list[int], adj_mw: list[int]) -> dict:
    return {
        "n": n,
        "m": m,
        "edges_vm": [[v, u] for v in range(n) for u in range(m) if adj_vm[v] >> u & 1],
        "edges_mw": [[u, w] for u in range(m) for w in range(n) if adj_mw[u] >> w & 1],
    }


def complete_layered(n: int, m: int) -> tuple[list[int], list[int]]:
    return [(1 << m) - 1] * n, [(1 << n) - 1] * m


def planted_superconcentrator(
    rng: random.Random, n: int, extra_middles: int, p: float
) -> tuple[int, list[int], list[int]]:
    """A random layered graph that is a superconcentrator by construction.

    Middles 0..n-1 form the planted core: each receives every V vertex and
    sends to exactly one W vertex, a random perfect matching. Any k-sets S, T
    then have k disjoint paths (s_j -> middle matched to t_j -> t_j). Random
    edges with probability ``p``, and ``extra_middles`` random middles, are
    added on top; adding edges or vertices never breaks the property.
    """
    m = n + extra_middles
    adj_vm = [mask | ((1 << n) - 1) for mask in random_masks(rng, n, m, p)]
    match = list(range(n))
    rng.shuffle(match)
    adj_mw = random_masks(rng, m, n, p)
    for u in range(n):
        adj_mw[u] |= 1 << match[u]
    return m, adj_vm, adj_mw


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

# The certified instances of the roadmap: sides n/k, seed 1 for `construct`.
DEEP_INSTANCES = ((150, 10, 120), (200, 10, 132))
# Dense but under-provisioned: a witness exists and is found in a few nodes.
SHALLOW_N, SHALLOW_K = 1000, 12
SHALLOW_SIZES = [(250, 50)] * 40 + [(50, 50)] * 100
BOUNDS_N, BOUNDS_K, BOUNDS_R = 2000, 10, 400
SAMPLED_N, SAMPLED_EXTRA, SAMPLED_P = 64, 16, 0.05
AUDIT_N, AUDIT_M, AUDIT_P_VM, AUDIT_P_MW = 2048, 256, 0.05, 0.07
SWEEP_POINTS = 20
EXHAUSTIVE_N = 9
RANDOM_DENSE_P = 0.7


def generate(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the inputs of one workload into ``out``; return name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if workload == "construct-deep":
        for n, k, r in DEEP_INSTANCES:
            files[f"sizes{n}"] = write_json(out / f"sizes{n}.json", [[n // k, n // k]] * r)
    elif workload == "large-shallow":
        fam = random_family(rng_for(workload, seed, "family"), SHALLOW_N, SHALLOW_K, SHALLOW_SIZES)
        files["family1000"] = write_json(out / "family1000.json", fam)
        files["sizes1000"] = write_json(out / "sizes1000.json", [list(s) for s in SHALLOW_SIZES])
        side = BOUNDS_N // BOUNDS_K
        fam = random_family(
            rng_for(workload, seed, "bounds"), BOUNDS_N, BOUNDS_K, [(side, side)] * BOUNDS_R
        )
        files["family2000"] = write_json(out / "family2000.json", fam)
        m, vm, mw = planted_superconcentrator(
            rng_for(workload, seed, "sampled"), SAMPLED_N, SAMPLED_EXTRA, SAMPLED_P
        )
        files["layered64"] = write_json(out / "layered64.json", layered_doc(SAMPLED_N, m, vm, mw))
        rng = rng_for(workload, seed, "audit")
        vm = random_masks(rng, AUDIT_N, AUDIT_M, AUDIT_P_VM)
        mw = random_masks(rng, AUDIT_M, AUDIT_N, AUDIT_P_MW)
        files["layered2048"] = write_json(
            out / "layered2048.json", layered_doc(AUDIT_N, AUDIT_M, vm, mw)
        )
        spec = {
            "command": "construct",
            "grid": {
                "n": [60],
                "k": [8],
                "sizes": [[[8, 8]] * 70],
                "seed": list(range(SWEEP_POINTS * (seed - 1) + 1, SWEEP_POINTS * seed + 1)),
            },
            "params": {"mode": "exact", "max_attempts": 3},
            "output_csv": "../out/sweep.csv",  # the report directory beside the inputs
        }
        files["sweep"] = write_json(out / "sweep.json", spec)
    elif workload == "sc-exhaustive":
        n = EXHAUSTIVE_N
        vm, mw = complete_layered(n, n)
        files["complete9"] = write_json(out / "complete9.json", layered_doc(n, n, vm, mw))
        vm, mw = complete_layered(n, n - 1)
        files["complete9m8"] = write_json(out / "complete9m8.json", layered_doc(n, n - 1, vm, mw))
        # Redraw until the graph is a superconcentrator, so that exhaustive
        # verification always visits every pair: a counterexample found early
        # would make the pass length depend on the seed.
        rng = rng_for(workload, seed, "dense")
        while True:
            vm = random_masks(rng, n, n, RANDOM_DENSE_P)
            mw = random_masks(rng, n, n, RANDOM_DENSE_P)
            if is_superconcentrator(n, n, vm, mw):
                break
        files["dense9"] = write_json(out / "dense9.json", layered_doc(n, n, vm, mw))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files
