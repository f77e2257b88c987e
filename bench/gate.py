"""Independent correctness checks for the benchmark.

Nothing here imports ``zarank``: witnesses are re-checked edge by edge against
a union graph rebuilt from the family file, superconcentrator verdicts are
fixed by a Hall-type criterion or a planted certificate, and flow values of
reported counterexamples are recomputed with the definitional oracle
``tests/oracles.brute_max_two_paths``.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def oracles():
    """The test suite's definitional oracles, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def union_rows(family: dict) -> list[int]:
    """Per left vertex, the mask of right vertices it is joined to."""
    rows = [0] * family["n"]
    for b in family["bicliques"]:
        right = 0
        for w in b["right"]:
            right |= 1 << w
        for v in b["left"]:
            rows[v] |= right
    return rows


def witness_error(rows: list[int], n: int, k: int, s: list[int], t: list[int]) -> str | None:
    """Why (S, T) is not a k x k independent set of the union graph, or None."""
    if len(set(s)) != k or len(set(t)) != k or len(s) != k or len(t) != k:
        return f"witness sides have sizes ({len(s)}, {len(t)}), expected k={k}"
    if not all(0 <= v < n for v in s) or not all(0 <= w < n for w in t):
        return "witness vertex out of range"
    t_mask = 0
    for w in t:
        t_mask |= 1 << w
    for v in s:
        if rows[v] & t_mask:
            return f"witness is not independent: left vertex {v} has an edge into T"
    return None


def layered_masks(doc: dict) -> tuple[int, int, list[int], list[int]]:
    n, m = doc["n"], doc["m"]
    adj_vm = [0] * n
    adj_mw = [0] * m
    for v, u in doc["edges_vm"]:
        adj_vm[v] |= 1 << u
    for u, w in doc["edges_mw"]:
        adj_mw[u] |= 1 << w
    return n, m, adj_vm, adj_mw


def is_superconcentrator(n: int, m: int, adj_vm: list[int], adj_mw: list[int]) -> bool:
    """Exhaustive Hall-type test, for small n only.

    By Menger's theorem, k-sets S, T have k vertex-disjoint V-M-W paths iff
    every A in S, B in T has |N(A) & N(B)| >= |A| + |B| - k. Over all k this
    reduces to: every pair of equal-size A in V, B in W has
    |N(A) & N(B)| >= |A|.
    """
    into_w = [0] * n
    for u in range(m):
        for w in range(n):
            if adj_mw[u] >> w & 1:
                into_w[w] |= 1 << u
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    n_a = [0] * (1 << n)
    n_b = [0] * (1 << n)
    for subset in range(1, 1 << n):
        low = subset & -subset
        v = low.bit_length() - 1
        n_a[subset] = n_a[subset ^ low] | adj_vm[v]
        n_b[subset] = n_b[subset ^ low] | into_w[v]
        by_size[subset.bit_count()].append(subset)
    for size in range(1, n + 1):
        for a in by_size[size]:
            na = n_a[a]
            for b in by_size[size]:
                if (na & n_b[b]).bit_count() < size:
                    return False
    return True


def has_planted_core(n: int, m: int, adj_vm: list[int], adj_mw: list[int]) -> bool:
    """Sufficient condition for a superconcentrator, for any n.

    If some middles receive every V vertex and those middles can be matched
    to all of W (each middle to a distinct out-neighbour), any k-sets S, T are
    joined by k disjoint paths s_j -> (middle matched to t_j) -> t_j.
    """
    common = (1 << m) - 1
    for row in adj_vm:
        common &= row
    core = [u for u in range(m) if common >> u & 1]
    owner: dict[int, int] = {}  # w -> core middle matched to it

    def augment(u: int, seen: set[int]) -> bool:
        for w in range(n):
            if adj_mw[u] >> w & 1 and w not in seen:
                seen.add(w)
                if w not in owner or augment(owner[w], seen):
                    owner[w] = u
                    return True
        return False

    for u in core:
        augment(u, set())
    return len(owner) == n


def counterexample_error(
    adj_vm: list[int], adj_mw: list[int], k: int, s: list[int], t: list[int], flow: int
) -> str | None:
    """Why a reported counterexample is wrong, or None."""
    if len(set(s)) != k or len(set(t)) != k:
        return f"counterexample sides have sizes ({len(set(s))}, {len(set(t))}), expected k={k}"
    true_flow = oracles().brute_max_two_paths(adj_vm, adj_mw, s, t)
    if true_flow != flow:
        return f"reported max_flow {flow}, oracle gives {true_flow}"
    if true_flow >= k:
        return f"not a counterexample: oracle finds {true_flow} >= k={k} disjoint paths"
    return None
