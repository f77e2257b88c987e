"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances and trial counts are fixed here, not configurable.
"""

import math
import random
import time
from itertools import combinations

from oracles import (
    brute_max_two_paths,
    brute_min_over_subsets,
    naive_bipartite_witness,
    naive_general_independent_set,
    two_branch_miss_bound,
)
from zarank.attack import AttackConfig, run_attack, run_attack_trials, survivor_statistics
from zarank.bounds import NormalizedProfile, ProfileEntry, hansel_check, kst_check, profile_from_family
from zarank.bounds import asymmetric_condition
from zarank.cli import main as cli_main
from zarank.construct import (
    certify_union_bound,
    construct_until_verified,
    miss_probability_exact_fraction,
)
from zarank.core import (
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    SubsetSampler,
    bits,
    save_json,
    union_of,
)
from zarank.superconc import (
    max_disjoint_paths,
    medium_band,
    threshold_ladder,
    tradeoff_audit,
    verify_superconcentrator,
)
from zarank.witness import has_kxk_independent_set


def _report(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status} ({elapsed:.1f}s): {description}")
    assert ok, f"criterion {num} failed: {description}"


def _random_square_graph(rng, n, p):
    rows = tuple(
        sum(1 << w for w in range(n) if rng.random() < p) for _ in range(n)
    )
    return BipartiteGraph(n, n, rows)


def _only_large_family(n, k, r, m, seed):
    rng = random.Random(seed)
    pairs = [(rng.sample(range(n), m), rng.sample(range(n), m)) for _ in range(r)]
    return BicliqueFamily.from_index_lists(n, k, pairs)


def test_criterion_01_basic_miss_probability_monte_carlo():
    start = time.monotonic()
    n, k, m = 1000, 100, 10
    exact = float(miss_probability_exact_fraction(n, k, m, m))
    bound_at_one = 1.0 - (1.0 - math.exp(-1.0)) ** 2
    ok = exact <= bound_at_one <= 0.6004236 + 1e-7

    trials = 100_000
    gen = RandomSource(808).rng()
    left = SubsetSampler(n, gen)
    right = SubsetSampler(n, gen)
    misses = 0
    for _ in range(trials):
        avoid_s = not any(x < k for x in left.draw_list(m))
        avoid_t = not any(x < k for x in right.draw_list(m))
        if avoid_s or avoid_t:
            misses += 1
    freq = misses / trials
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    ok = ok and abs(freq - exact) <= 3.0 * sigma
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(
        1,
        f"miss frequency {freq:.5f} within 3 sigma of exact {exact:.5f} "
        f"(sigma={sigma:.5f}), exact <= {bound_at_one:.7f}",
        ok,
        elapsed,
    )


def test_criterion_02_two_branch_bound_dominates_relaxed():
    start = time.monotonic()
    # The certificate's relaxed terms at alpha = j k / n = j / 1000, j = 1..10^4
    n, k = 10_000, 10
    sizes = [(j, j) for j in range(1, 10_001)]
    terms = certify_union_bound(n, k, sizes, "relaxed").per_index_log2_miss
    violations = 0
    for (j, _), term in zip(sizes, terms):
        if 2.0 ** term > two_branch_miss_bound(j * k / n):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 1.0
    _report(2, f"{violations} violations over 10^4 grid points in (0, 10]", ok, elapsed)


def test_criterion_03_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(3003)
    disagreements = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(3, n))
        p = rng.choice([0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95])
        g = _random_square_graph(rng, n, p)
        expect = naive_bipartite_witness(g.adj, n, n, k)
        got = has_kxk_independent_set(g, k)
        assert got.complete
        if got.found is not (expect is not None):
            disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 120.0
    _report(3, f"{disagreements} disagreements over 1000 graphs (n<=12, k<=3)", ok, elapsed)


def test_criterion_04_counting_check_on_certified_graphs():
    start = time.monotonic()
    rng = random.Random(404)
    certified = 0
    violations = 0
    attempts = 0
    while certified < 500 and attempts < 8000:
        attempts += 1
        n = rng.randint(4, 12)
        k = rng.randint(2, 3)
        p = rng.choice([0.55, 0.7, 0.85, 0.95])
        g = _random_square_graph(rng, n, p)
        if naive_bipartite_witness(g.adj, n, n, k) is not None:
            continue
        certified += 1
        if not kst_check(g, k).satisfied:
            violations += 1
    elapsed = time.monotonic() - start
    ok = certified >= 500 and violations == 0
    _report(
        4,
        f"{violations} violations over {certified} oracle-certified graphs",
        ok,
        elapsed,
    )


def _random_hansel_placement(rng):
    """Random biclique placements in a general vertex set; returns
    (n, k, per-placement vertex counts, union adjacency)."""
    k = rng.choice([2, 2, 3, 4])
    n = rng.randint(max(4, 2 * k - 1), 10)
    adj = [0] * n
    sizes = []

    def place(a_set, b_set):
        for u in a_set:
            for v in b_set:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        sizes.append(len(a_set) + len(b_set))

    if k == 2:
        # Full splits; the union must be complete to kill every 2-subset.
        r = math.ceil(math.log2(n)) + rng.randint(1, 3)
        for _ in range(r):
            a_set = {v for v in range(n) if rng.random() < 0.5}
            place(a_set, set(range(n)) - a_set)
    else:
        r = rng.randint(2 * k, 4 * k)
        for _ in range(r):
            a = rng.randint(1, n // 2)
            chosen = rng.sample(range(n), 2 * a)
            place(set(chosen[:a]), set(chosen[a:]))
    return n, k, sizes, adj


def test_criterion_05_vertex_sum_bound_on_certified_placements():
    start = time.monotonic()
    rng = random.Random(505)
    certified = 0
    violations = 0
    attempts = 0
    while certified < 200 and attempts < 4000:
        attempts += 1
        n, k, sizes, adj = _random_hansel_placement(rng)
        if naive_general_independent_set(adj, k) is not None:
            continue
        certified += 1
        if not hansel_check(sizes, n, k).satisfied:
            violations += 1
    elapsed = time.monotonic() - start
    ok = certified >= 200 and violations == 0
    _report(
        5,
        f"{violations} violations over {certified} certified placements (n<=10)",
        ok,
        elapsed,
    )


def test_criterion_06_subset_minimization_closed_form():
    start = time.monotonic()
    rng = random.Random(606)
    mismatches = 0
    for _ in range(1000):
        r = rng.randint(1, 12)
        pairs = [(rng.uniform(0.005, 4.0), rng.uniform(0.005, 4.0)) for _ in range(r)]
        profile = NormalizedProfile(4096, 64, tuple(ProfileEntry.make(a, b) for a, b in pairs), False)
        closed = asymmetric_condition(profile, 0.0)
        brute, _ = brute_min_over_subsets(
            [(e.product_term, e.entropy_term) for e in profile.entries]
        )
        if closed.min_over_x != brute:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0
    _report(6, f"{mismatches} mismatches over 1000 profiles with r <= 12", ok, elapsed)


def test_criterion_07_certified_construction_succeeds_fast():
    start = time.monotonic()
    n, k = 60, 8
    sizes = [(8, 8)] * 70
    cert = certify_union_bound(n, k, sizes, "exact")
    assert cert.certified, "test sizes must be certified"
    successes = 0
    for seed in range(1, 21):
        try:
            result = construct_until_verified(n, k, sizes, RandomSource(seed), 3)
        except Exception:
            continue
        if result.attempts <= 3:
            successes += 1
    elapsed = time.monotonic() - start
    ok = successes >= 19 and elapsed < 300.0
    _report(
        7,
        f"{successes}/20 seeded runs verified within 3 attempts "
        f"(certificate {cert.log2_failure_bound:.2f})",
        ok,
        elapsed,
    )


def test_criterion_08_attack_validity_and_survival_exactness():
    start = time.monotonic()
    mixed = [
        (_only_large_family(48, 6, 7, 9, seed=101), "symmetric", None),
        (_only_large_family(40, 5, 6, 9, seed=102), "symmetric", None),
        (_only_large_family(24, 3, 5, 9, seed=103), "symmetric", None),
        (
            BicliqueFamily.from_index_lists(
                32,
                4,
                [
                    (list(range(16)), list(range(16, 32))),
                    (list(range(16, 32)), list(range(16))),
                    ([0, 1, 2, 3], [4, 5, 6]),
                    ([8, 9], [10, 11, 12]),
                ],
            ),
            "asymmetric",
            frozenset({2, 3}),
        ),
        (_only_large_family(32, 4, 6, 9, seed=105), "symmetric", None),
    ]
    reverify_failures = 0
    attacked_leaks = 0
    trials_per_family = 2000
    for idx, (fam, mode, marked) in enumerate(mixed):
        g = union_of(fam)
        config = AttackConfig(
            mode=mode, rng=RandomSource(8000 + idx), trials=trials_per_family, marked=marked
        )
        for trace in run_attack_trials(fam, config):
            if trace.attacked_edge_pairs_surviving != 0:
                attacked_leaks += 1
            if trace.witness is not None:
                s, t = trace.witness
                t_mask = sum(1 << w for w in t)
                if any(g.adj[v] & t_mask for v in s):
                    reverify_failures += 1

    # Survival exactness on a dedicated family with forced truncation.
    fam = _only_large_family(16, 3, 3, 6, seed=888)
    trials = 10_000
    config = AttackConfig(mode="symmetric", rng=RandomSource(8800), trials=trials)
    stats = survivor_statistics(run_attack_trials(fam, config))
    survival_ok = True
    for freq_map, d in (
        (stats.survival_freq_left, stats.d_left),
        (stats.survival_freq_right, stats.d_right),
    ):
        p = 2.0 ** -d
        sigma = math.sqrt(p * (1.0 - p) / trials)
        for freq in freq_map.values():
            if abs(freq - p) > 3.0 * sigma:
                survival_ok = False
    elapsed = time.monotonic() - start
    ok = reverify_failures == 0 and attacked_leaks == 0 and survival_ok
    _report(
        8,
        f"{reverify_failures} re-verification failures, {attacked_leaks} attacked-edge "
        f"leaks over 10^4 trials; survival within 3 sigma of 2^-d: {survival_ok}",
        ok,
        elapsed,
    )


def test_criterion_09_attack_effectiveness_on_sparse_large_families():
    start = time.monotonic()
    n, k, r, m = 48, 6, 7, 9
    budget = 0.25 * k * math.log2(n)
    hits = 0
    for seed in range(200, 220):
        fam = _only_large_family(n, k, r, m, seed=seed)
        profile = profile_from_family(fam)
        assert all(e.alpha > 1 for e in profile.entries)
        assert sum(e.alpha for e in profile.entries) <= budget
        config = AttackConfig(mode="symmetric", rng=RandomSource(seed), trials=200)
        trace = run_attack(fam, config)
        if trace.found:
            s, t = trace.witness
            g = union_of(fam)
            t_mask = sum(1 << w for w in t)
            assert not any(g.adj[v] & t_mask for v in s)
            hits += 1
    elapsed = time.monotonic() - start
    ok = hits >= 18
    _report(9, f"{hits}/20 under-provisioned families refuted within 200 trials", ok, elapsed)


def test_criterion_10_superconcentrator_verifier():
    start = time.monotonic()

    def complete(n, m):
        return LayeredGraph(BipartiteGraph(n, m, ((1 << m) - 1,) * n), BipartiteGraph(m, n, ((1 << n) - 1,) * m))

    full_ok = True
    for n in range(2, 7):
        verdict = verify_superconcentrator(complete(n, n), "all")
        full_ok = full_ok and verdict.certified

    n = 6
    thin = complete(n, n - 1)
    below = verify_superconcentrator(thin, range(1, n))
    at_top = verify_superconcentrator(thin, [n])
    thin_ok = (
        below.is_superconcentrator
        and not at_top.is_superconcentrator
        and at_top.counterexample[0] == n
        and at_top.counterexample[3] == n - 1
    )

    rng = random.Random(1010)
    flow_mismatches = 0
    for _ in range(200):
        size = rng.randint(2, 8)
        mid = rng.randint(1, 8)
        vm = tuple(
            sum(1 << u for u in range(mid) if rng.random() < rng.uniform(0.2, 0.8))
            for _ in range(size)
        )
        mw = tuple(
            sum(1 << w for w in range(size) if rng.random() < rng.uniform(0.2, 0.8))
            for _ in range(mid)
        )
        g = LayeredGraph(BipartiteGraph(size, mid, vm), BipartiteGraph(mid, size, mw))
        kk = rng.randint(1, min(4, size))
        S = rng.sample(range(size), kk)
        T = rng.sample(range(size), kk)
        if max_disjoint_paths(g, S, T) != brute_max_two_paths(vm, mw, S, T):
            flow_mismatches += 1
    elapsed = time.monotonic() - start
    ok = full_ok and thin_ok and flow_mismatches == 0
    _report(
        10,
        f"complete tripartite certified (n<=6): {full_ok}; missing-middle fails only "
        f"at k=n: {thin_ok}; {flow_mismatches} flow/oracle mismatches over 200 instances",
        ok,
        elapsed,
    )


def _ratio_instance(n, m, seed):
    """Middle degrees (q, 2q) with q random: per-vertex ratio exactly 1:2."""
    rng = random.Random(seed)
    edges_vm = []
    edges_mw = []
    next_v = 0
    next_w = 0
    for u in range(m):
        q = rng.randint(1, 6)
        for j in range(q):
            edges_vm.append(((next_v + j) % n, u))
        next_v += q
        for j in range(2 * q):
            edges_mw.append((u, (next_w + j) % n))
        next_w += 2 * q
    return LayeredGraph.from_edge_lists(n, m, edges_vm, edges_mw)


def test_criterion_11_audit_mechanics():
    start = time.monotonic()

    ladder_ok = True
    for n in (16, 4096, 2 ** 20, 2 ** 36, 2 ** 48, 2 ** 56, 2 ** 64, 10 ** 12 + 39):
        log_n = math.log2(n)
        t = log_n ** 2
        ladder = threshold_ladder(n, t)
        required = math.floor(0.1 * log_n / math.log2(log_n))
        if len(ladder) < required:
            ladder_ok = False
        bands = [medium_band(n, k, t) for k in ladder]
        for (prev_lo, _), (_, next_hi) in zip(bands, bands[1:]):
            if next_hi > prev_lo:
                ladder_ok = False

    pigeonhole_ok = True
    for seed in range(20):
        g = _ratio_instance(256, 64, seed)
        if g.mw.edge_count <= 256:
            continue
        report = tradeoff_audit(g, 0.01)[0]
        if not (report.pigeonhole_exact and report.medium_sets_disjoint):
            pigeonhole_ok = False
        if report.k0_v_edges * report.ladder_length > g.vm.edge_count:
            pigeonhole_ok = False

    ln2 = math.log(2.0)
    grid_violations = 0
    for i in range(1, 101):
        for j in range(1, 101):
            alpha, beta = 0.05 * i, 0.05 * j
            if beta * math.log2((alpha + beta) / beta) > alpha / ln2:
                grid_violations += 1

    elapsed = time.monotonic() - start
    ok = ladder_ok and pigeonhole_ok and grid_violations == 0
    _report(
        11,
        f"ladder disjointness/length: {ladder_ok}; pigeonhole exact on instances: "
        f"{pigeonhole_ok}; {grid_violations} entropy-bound violations on 10^4 grid",
        ok,
        elapsed,
    )


def test_criterion_12_byte_identical_reports(tmp_path):
    start = time.monotonic()
    fam_doc = {
        "n": 12,
        "k": 2,
        "bicliques": [
            {"left": [0, 1, 2], "right": [3, 4]},
            {"left": [5, 6], "right": [7, 8, 9]},
        ],
    }
    fam_path = tmp_path / "family.json"
    save_json(fam_path, fam_doc)
    sizes_path = tmp_path / "sizes.json"
    save_json(sizes_path, [[8, 8]] * 70)
    layered_doc = {
        "n": 4,
        "m": 4,
        "edges_vm": [[v, u] for v in range(4) for u in range(4)],
        "edges_mw": [[u, w] for u in range(4) for w in range(4)],
    }
    layered_path = tmp_path / "layered.json"
    save_json(layered_path, layered_doc)

    identical = True
    runs = [
        lambda out: cli_main([
            "attack", "--family", str(fam_path), "--mode", "sym", "--trials", "6",
            "--seed", "9", "--json-out", out,
        ]),
        lambda out: cli_main([
            "construct", "--n", "60", "--k", "8", "--sizes", str(sizes_path),
            "--seed", "4", "--out-cert", out,
        ]),
        lambda out: cli_main([
            "sc-verify", "--layered", str(layered_path), "--mode", "sampled",
            "--samples", "10", "--seed", "2", "--json-out", out,
        ]),
    ]
    for idx, run in enumerate(runs):
        first = tmp_path / f"run{idx}_a.json"
        second = tmp_path / f"run{idx}_b.json"
        run(str(first))
        run(str(second))
        if first.read_bytes() != second.read_bytes():
            identical = False
    elapsed = time.monotonic() - start
    _report(12, f"byte-identical reruns for attack/construct/sc-verify: {identical}", identical, elapsed)
