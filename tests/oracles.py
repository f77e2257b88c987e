"""Independent reference implementations.

Everything here is written straight from definitions (full enumeration,
exact rational arithmetic, high-precision decimals) and deliberately shares
no code path with the library, so the tests can pin expected values against
a second opinion. The one exception, ``compressed_domain_search``, checks
only the domain restriction of the witness search, so it calls that search
on a renumbered copy.
"""

from __future__ import annotations

from collections import deque
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
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


def counting_lhs(n: int, k: int, edges: int) -> Fraction:
    """n * C(n - edges/n, k) / C(n, k) in exact rationals, the generalized
    binomial C(x, k) = x(x-1)...(x-k+1)/k! taken as 0 for x < k."""
    x = Fraction(n * n - edges, n)
    if x < k:
        return Fraction(0)
    top = Fraction(1)
    for i in range(k):
        top *= x - i
    return n * top / Fraction(comb(n, k) * factorial(k))


def projective_plane_complement(p: int) -> list[int]:
    """Rows of the complement of the point-line incidence graph of PG(2, p),
    p prime: bit j of row i is set when point i is not on line j.

    Points and lines are both the vectors of GF(p)^3 whose first nonzero
    coordinate is 1, p^2 + p + 1 of each, and a point lies on a line when
    their dot product is 0 mod p. Two points share exactly one line, so the
    complement has no 2 x 2 independent set."""
    vectors = [(1, a, b) for a in range(p) for b in range(p)] + [(0, 1, a) for a in range(p)] + [(0, 0, 1)]
    return [
        sum(1 << j for j, line in enumerate(vectors) if sum(x * y for x, y in zip(point, line)) % p)
        for point in vectors
    ]


def brown_graph_complement(p: int, r: int) -> list[int]:
    """Rows of the complement of the bipartite double cover of Brown's graph,
    p an odd prime: bit j of row i is set when points i and j of GF(p)^3 are
    not adjacent, where x ~ y iff sum((x_a - y_a)^2) == r mod p.

    Point i has coordinates (i // p^2, i // p mod p, i mod p). A 3 x 3
    independent set of the complement is a K_{3,3} of the graph. Brown
    (1966): for r != 0 with -r a non-residue mod p the graph has none."""
    points = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    return [
        sum(1 << j for j, y in enumerate(points) if sum((u - v) ** 2 for u, v in zip(x, y)) % p != r)
        for x in points
    ]


def one_sided_witness(adj: Sequence[int], n_right: int, k: int) -> Optional[tuple[int, ...]]:
    """The lex-first k-subset S of the left side with at least k common
    non-neighbours, or None; an independent S x T exists iff one does.
    Enumerates S alone, so k = 3 stays cheap at a hundred vertices."""
    full = (1 << n_right) - 1
    for s_combo in combinations(range(len(adj)), k):
        union = 0
        for v in s_combo:
            union |= adj[v]
        if bin(full & ~union).count("1") >= k:
            return s_combo
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


def edmonds_karp_two_paths(
    adj_vm: Sequence[int], adj_mw: Sequence[int], sources: Sequence[int], sinks: Sequence[int]
) -> int:
    """Maximum system of vertex-disjoint V-M-W paths as a maximum flow, by
    Edmonds-Karp on an explicit node-split network: a super source feeds each
    source, each middle is an in node and an out node joined by one arc, and
    each sink feeds a super sink; every arc has capacity one. Polynomial, so
    it checks graphs far past ``brute_max_two_paths``'s reach."""
    n, m = len(adj_vm), len(adj_mw)
    top, bottom = "source", "sink"
    residual: dict[object, dict[object, int]] = {top: {}, bottom: {}}

    def arc(a: object, b: object) -> None:
        residual.setdefault(a, {})[b] = 1
        residual.setdefault(b, {}).setdefault(a, 0)

    for v in set(sources):
        arc(top, ("v", v))
    for w in set(sinks):
        arc(("w", w), bottom)
    for u in range(m):
        arc(("in", u), ("out", u))
        for v in range(n):
            if adj_vm[v] >> u & 1:
                arc(("v", v), ("in", u))
        for w in range(n):
            if adj_mw[u] >> w & 1:
                arc(("out", u), ("w", w))
    flow = 0
    while True:
        parent: dict[object, object] = {top: None}
        queue = deque([top])
        while queue and bottom not in parent:
            a = queue.popleft()
            for b, room in residual[a].items():
                if room and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if bottom not in parent:
            return flow
        b = bottom
        while parent[b] is not None:
            a = parent[b]
            residual[a][b] -= 1
            residual[b][a] += 1
            b = a
        flow += 1


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


def exact_certificate(n: int, k: int, sizes: Sequence[tuple[int, int]]) -> bool:
    """Exact-mode union-bound verdict, prod_i miss_i * C(n, k)^2 < 1, in
    rationals and one biclique at a time: a side of m vertices, drawn one
    by one without replacement, avoids a fixed k-set when every draw lands
    among the n - k - i vertices left outside it."""

    def avoid(m: int) -> Fraction:
        p = Fraction(1)
        for i in range(m):
            p *= Fraction(max(n - k - i, 0), n - i)
        return p

    product = Fraction(comb(n, k) ** 2)
    for m, n2 in sizes:
        product *= 1 - (1 - avoid(m)) * (1 - avoid(n2))
    return product < 1


def lowest_bit_positions(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending, peeling the lowest set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bitwise_transpose(rows: Sequence[int], n_cols: int) -> list[int]:
    """Column masks of a bit matrix, one bit test per matrix cell."""
    return [
        sum(1 << r for r, row in enumerate(rows) if row >> c & 1) for c in range(n_cols)
    ]


def _is_index(value, size: int) -> bool:
    """A JSON integer (a bool is not one) in [0, size)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def edge_list_rows(edges, n_from: int, n_to: int) -> Optional[list[int]]:
    """Per source vertex, the mask of its targets in a JSON edge list, or
    None unless ``edges`` is a list of [from, to] lists with from in
    [0, n_from) and to in [0, n_to). One plain loop, one edge at a time."""
    if not isinstance(edges, list):
        return None
    rows = [0] * n_from
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2):
            return None
        if not (_is_index(edge[0], n_from) and _is_index(edge[1], n_to)):
            return None
        rows[edge[0]] = rows[edge[0]] | 2 ** edge[1]
    return rows


def index_list_mask(indices, n: int) -> Optional[int]:
    """The mask of a JSON list of vertex indices, or None unless every entry
    is an integer in [0, n). One plain loop, one index at a time."""
    if not isinstance(indices, list):
        return None
    mask = 0
    for value in indices:
        if not _is_index(value, n):
            return None
        if not mask >> value & 1:
            mask += 2**value
    return mask


def brute_first_kset(rows: Sequence[int], k: int, threshold: int) -> Optional[tuple[int, ...]]:
    """The first ``combinations`` k-subset of positions of ``rows`` whose
    rows' AND has at least ``threshold`` bits, or None."""
    for combo in combinations(range(len(rows)), k):
        common = rows[combo[0]]
        for pos in combo[1:]:
            common &= rows[pos]
        if bin(common).count("1") >= threshold:
            return combo
    return None


def randrange_subsets(n: int, rng, sizes: Sequence[int]) -> list[list[int]]:
    """Partial Fisher-Yates on a fresh list per draw, one
    ``rng.randrange(i, n)`` per swap."""
    out = []
    for m in sizes:
        arr = list(range(n))
        for i in range(m):
            j = rng.randrange(i, n)
            arr[i], arr[j] = arr[j], arr[i]
        out.append(arr[:m])
    return out


def scan_balance_target(dv: int, dw: int, n: int, a, b) -> Optional[tuple[int, int]]:
    """Least balanced degree pair (x, y) for a middle of degrees (dv, dw), by a
    linear scan on the exact ratio a/b: with a/b <= 1, y runs up from dw and
    x = round(y * a/b); otherwise x runs up from dv and y = round(x * b/a),
    rounding halves up. None when no pair within n has x >= dv and y >= dw."""
    ratio = Fraction(a) / Fraction(b)
    half = Fraction(1, 2)
    if ratio <= 1:
        for y in range(dw, n + 1):
            x = int(ratio * y + half)
            if dv <= x <= n:
                return x, y
    else:
        for x in range(dv, n + 1):
            y = int(x / ratio + half)
            if dw <= y <= n:
                return x, y
    return None


def scan_balance_degrees(in_masks: Sequence[int], out_masks: Sequence[int], n: int, a, b):
    """Per middle vertex, its in- and out-mask padded to the scan's target
    with the lowest absent vertices; ``ValueError`` if some middle has no
    target. Checks neither the growth bound nor the input."""
    new_in, new_out = [], []
    for u, (in_mask, out_mask) in enumerate(zip(in_masks, out_masks)):
        dv, dw = bin(in_mask).count("1"), bin(out_mask).count("1")
        if dv == 0 and dw == 0:
            new_in.append(in_mask)
            new_out.append(out_mask)
            continue
        target = scan_balance_target(dv, dw, n, a, b)
        if target is None:
            raise ValueError(f"cannot balance middle vertex {u}")
        for mask, degree, store in ((in_mask, target[0], new_in), (out_mask, target[1], new_out)):
            absent = [v for v in range(n) if not mask >> v & 1]
            for v in absent[: degree - bin(mask).count("1")]:
                mask |= 1 << v
            store.append(mask)
    return new_in, new_out
