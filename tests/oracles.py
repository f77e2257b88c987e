"""Independent reference implementations.

Everything here is written straight from definitions (full enumeration,
exact rational arithmetic, high-precision decimals) and deliberately shares
no code path with the library, so the tests can pin expected values against
a second opinion. The one exception, ``compressed_domain_search``, checks
only the domain restriction of the witness search, so it calls that search
on a renumbered copy.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence


def naive_bipartite_witness(
    adj: Sequence[int], n_left: int, n_right: int, k: int
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Enumerate every (S, T) pair of k-subsets in index order; definitional."""
    t_masks = []
    t_combos = list(combinations(range(n_right), k))
    for t_combo in t_combos:
        mask = 0
        for w in t_combo:
            mask |= 1 << w
        t_masks.append(mask)
    for s_combo in combinations(range(n_left), k):
        union = 0
        for v in s_combo:
            union |= adj[v]
        for t_combo, t_mask in zip(t_combos, t_masks):
            if not (union & t_mask):
                return s_combo, t_combo
    return None


def compressed_domain_search(g, k: int, left: int, right: int, node_budget: int):
    """The witness search restricted to vertex domains, by definition: build
    the subgraph the two domain masks induce, with its vertices renumbered in
    ascending order, search all of it, and map the witness back. A domain
    with fewer than k vertices holds no witness, and no search runs."""
    from zarank.core import BipartiteGraph
    from zarank.witness import WitnessResult, has_kxk_independent_set

    left_ids = [v for v in range(g.n_left) if left >> v & 1]
    right_ids = [w for w in range(g.n_right) if right >> w & 1]
    if min(len(left_ids), len(right_ids)) < k:
        return WitnessResult(False, None, None, 0, True)
    rows = tuple(
        sum(1 << j for j, w in enumerate(right_ids) if g.adj[v] >> w & 1) for v in left_ids
    )
    result = has_kxk_independent_set(BipartiteGraph(len(left_ids), len(right_ids), rows), k, node_budget)
    if not result.found:
        return result
    s = tuple(left_ids[i] for i in result.S)
    t = tuple(right_ids[j] for j in result.T)
    return WitnessResult(True, s, t, result.nodes_explored, result.complete)


def naive_general_independent_set(
    adjacency: Sequence[int], k: int
) -> Optional[tuple[int, ...]]:
    """All k-subsets, all pairs checked for non-adjacency."""
    n = len(adjacency)
    for combo in combinations(range(n), k):
        ok = True
        for i in range(len(combo)):
            for j in range(i + 1, len(combo)):
                if adjacency[combo[i]] >> combo[j] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return combo
    return None


def enumerate_miss_probability(n: int, k: int, m: int, n2: int) -> Fraction:
    """Exact miss probability by enumerating every (V_i, W_i) placement against
    the rectangle formed by the first k vertices of each side."""
    s_set = set(range(k))
    left_hits = sum(1 for combo in combinations(range(n), m) if s_set & set(combo))
    right_hits = sum(1 for combo in combinations(range(n), n2) if s_set & set(combo))
    total_left = comb(n, m)
    total_right = comb(n, n2)
    hit_both = Fraction(left_hits, total_left) * Fraction(right_hits, total_right)
    return 1 - hit_both


def brute_min_over_subsets(
    terms: Sequence[tuple[float, float]]
) -> tuple[float, frozenset[int]]:
    """Minimize sum(product or entropy per index) over all 2^r subsets X.

    ``terms[i]`` is (product_term, entropy_term); X collects the product side.
    Returns the minimum and the first minimizing subset in mask order.
    """
    r = len(terms)
    best = None
    best_x = frozenset()
    for mask in range(1 << r):
        total = 0.0
        for i in range(r):
            total += terms[i][0] if mask >> i & 1 else terms[i][1]
        if best is None or total < best:
            best = total
            best_x = frozenset(i for i in range(r) if mask >> i & 1)
    return best, best_x


def brute_max_two_paths(
    adj_vm: Sequence[int], adj_mw: Sequence[int], sources: Sequence[int], sinks: Sequence[int]
) -> int:
    """Maximum system of vertex-disjoint V-M-W paths by memoized exhaustive
    assignment; only viable for small layers."""
    s_list = sorted(set(sources))
    t_mask = 0
    for w in set(sinks):
        t_mask |= 1 << w
    memo: dict[tuple[int, int, int], int] = {}

    def best(i: int, used_m: int, used_w: int) -> int:
        if i == len(s_list):
            return 0
        key = (i, used_m, used_w)
        if key in memo:
            return memo[key]
        value = best(i + 1, used_m, used_w)  # leave s_list[i] unused
        middles = adj_vm[s_list[i]] & ~used_m
        while middles:
            low = middles & -middles
            u = low.bit_length() - 1
            middles ^= low
            targets = adj_mw[u] & t_mask & ~used_w
            while targets:
                low_w = targets & -targets
                w = low_w.bit_length() - 1
                targets ^= low_w
                cand = 1 + best(i + 1, used_m | (1 << u), used_w | (1 << w))
                if cand > value:
                    value = cand
            # u exhausted for this source
        memo[key] = value
        return value

    return best(0, 0, 0)


def decimal_log2_fraction(value: Fraction, prec: int = 60) -> Decimal:
    """High-precision base-2 logarithm of a positive rational."""
    if value <= 0:
        raise ValueError("log2 of a non-positive rational")
    getcontext().prec = prec
    ln2 = Decimal(2).ln()
    return (Decimal(value.numerator).ln() - Decimal(value.denominator).ln()) / ln2


def decimal_certificate(n: int, k: int, sizes: Sequence[tuple[int, int]], prec: int = 60) -> Decimal:
    """High-precision recomputation of the union-bound certificate (exact mode)."""
    getcontext().prec = prec
    total = Decimal(0)
    for m, n2 in sizes:
        a = Fraction(comb(n - k, m), comb(n, m)) if m <= n - k else Fraction(0)
        b = Fraction(comb(n - k, n2), comb(n, n2)) if n2 <= n - k else Fraction(0)
        miss = 1 - (1 - a) * (1 - b)
        total += decimal_log2_fraction(miss, prec)
    total += 2 * decimal_log2_fraction(Fraction(comb(n, k)), prec)
    return total
