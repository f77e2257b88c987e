import math
import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_max_two_paths, edmonds_karp_two_paths, scan_balance_degrees
from zarank import superconc
from zarank.core import BipartiteGraph, LayeredGraph, RandomSource, transpose_masks
from zarank.superconc import (
    balance_degrees,
    decompose,
    edge_lower_bound_audit,
    layered_flip,
    max_disjoint_paths,
    medium_band,
    middle_bicliques,
    threshold_ladder,
    tradeoff_audit,
    verify_superconcentrator,
)


def layered(n, m, vm, mw):
    return LayeredGraph(BipartiteGraph(n, m, tuple(vm)), BipartiteGraph(m, n, tuple(mw)))


def complete_layered(n, m):
    full_m = (1 << m) - 1
    full_n = (1 << n) - 1
    return layered(n, m, tuple([full_m] * n), tuple([full_n] * m))


def random_layered(rng, n, m, p_vm, p_mw):
    vm = tuple(
        sum(1 << u for u in range(m) if rng.random() < p_vm) for _ in range(n)
    )
    mw = tuple(
        sum(1 << w for w in range(n) if rng.random() < p_mw) for _ in range(m)
    )
    return layered(n, m, vm, mw)


class TestFlow:
    def test_single_path(self):
        g = LayeredGraph.from_edge_lists(2, 1, [(0, 0), (1, 0)], [(0, 0), (0, 1)])
        assert max_disjoint_paths(g, [0, 1], [0, 1]) == 1  # middle is a cut

    def test_parallel_paths(self):
        g = LayeredGraph.from_edge_lists(2, 2, [(0, 0), (1, 1)], [(0, 0), (1, 1)])
        assert max_disjoint_paths(g, [0, 1], [0, 1]) == 2

    def test_no_middle_no_paths(self):
        g = layered(2, 0, (0, 0), ())
        assert max_disjoint_paths(g, [0], [1]) == 0

    def test_ends_outside_the_graph_rejected(self):
        g = layered(2, 1, (0, 1), (1,))
        assert max_disjoint_paths(g, [1], [0]) == 1 and max_disjoint_paths(g, [], []) == 0
        for sources, sinks in [([-1], [0]), ([2], [0]), ([1], [-1]), ([1], [2]), ([0, 1, 5], [0])]:
            with pytest.raises(ValueError, match=r"must lie in \[0, 2\)"):
                max_disjoint_paths(g, sources, sinks)

    def test_matches_exhaustive_oracle(self):
        # Sources and sinks come unsorted and with repeats.
        rng = random.Random(19)
        deficits = 0
        for _ in range(400):
            n = rng.randint(1, 8)
            m = rng.randint(0, 9)
            g = random_layered(rng, n, m, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            S = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]
            T = [rng.randrange(n) for _ in range(rng.randint(0, n + 2))]
            flow = max_disjoint_paths(g, S, T)
            assert flow == brute_max_two_paths(g.vm.adj, g.mw.adj, S, T), (g, S, T)
            deficits += flow < min(len(set(S)), len(set(T)))
        assert deficits > 100

    def test_augmenting_path_reroutes_greedy_choice(self):
        # Greedy sends source 0 through middle 0, which source 1 needs; one
        # augmentation moves source 0 to middle 1.
        g = LayeredGraph.from_edge_lists(
            2, 2, [(0, 0), (0, 1), (1, 0)], [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        assert max_disjoint_paths(g, [0, 1], [0, 1]) == 2
        # Middle 0 greedily takes sink 0, the only sink middle 1 reaches.
        g = LayeredGraph.from_edge_lists(
            2, 2, [(0, 0), (1, 1)], [(0, 0), (0, 1), (1, 0)]
        )
        assert max_disjoint_paths(g, [0, 1], [0, 1]) == 2
        # Graphs whose later rounds read the state an augmentation left:
        # a middle newly put to use, a middle whose whole path is taken back
        # (t -> m-out -> m-in -> s), and a middle moved to another sink.
        for n, m, vm, mw in [
            (7, 5, (27, 30, 1, 3, 6, 31, 7), (0, 14, 112, 79, 17)),
            (5, 8, (197, 154, 13, 16, 34), (19, 0, 4, 16, 4, 4, 8, 1)),
            (6, 7, (37, 0, 0, 17, 4, 12), (3, 60, 3, 3, 62, 5, 4)),
        ]:
            g = layered(n, m, vm, mw)
            assert max_disjoint_paths(g, range(n), range(n)) == 4

    def test_every_pair_of_subsets_on_tiny_graphs(self):
        rng = random.Random(61)
        graphs = [complete_layered(3, 2), layered(3, 0, (0, 0, 0), ())]
        graphs += [random_layered(rng, 4, rng.randint(1, 5), 0.5, 0.5) for _ in range(6)]
        for g in graphs:
            subsets = [
                c for size in range(g.n + 1) for c in combinations(range(g.n), size)
            ]
            for S in subsets:
                for T in subsets:
                    assert max_disjoint_paths(g, S, T) == brute_max_two_paths(
                        g.vm.adj, g.mw.adj, S, T
                    ), (g, S, T)

    def test_matches_edmonds_karp_on_larger_graphs(self):
        # Sparse graphs up to n = 60, m = 80 with |S| = |T|, as sc-verify
        # asks: the greedy pass leaves sources to the augmenting searches,
        # and a search that kept its seen mask from the last source would
        # miss paths on some of them.
        rng = random.Random(29)
        deficits = 0
        for _ in range(300):
            n, m = rng.randint(1, 60), rng.randint(0, 80)
            g = random_layered(rng, n, m, rng.uniform(0.03, 0.1), rng.uniform(0.03, 0.1))
            k = rng.randint(0, n)
            S, T = rng.sample(range(n), k), rng.sample(range(n), k)
            flow = max_disjoint_paths(g, S, T)
            assert flow == edmonds_karp_two_paths(g.vm.adj, g.mw.adj, S, T), (g, S, T)
            deficits += flow < k
        assert deficits > 100


class TestVerify:
    def test_complete_tripartite_passes_all_k(self):
        for n in (2, 3, 4):
            verdict = verify_superconcentrator(complete_layered(n, n), "all")
            assert verdict.is_superconcentrator and verdict.certified
            assert verdict.pairs_checked == sum(
                math.comb(n, k) ** 2 for k in range(1, n + 1)
            )

    def test_missing_middle_fails_exactly_at_top_k(self):
        n = 5
        g = complete_layered(n, n - 1)
        ok = verify_superconcentrator(g, range(1, n))
        assert ok.is_superconcentrator
        bad = verify_superconcentrator(g, [n])
        assert not bad.is_superconcentrator
        k, s, t, flow = bad.counterexample
        assert k == n and flow == n - 1

    def test_empty_k_list_rejected(self):
        for g in (complete_layered(3, 3), layered(3, 0, (0, 0, 0), ())):
            with pytest.raises(ValueError, match="no k values"):
                verify_superconcentrator(g, [])
            with pytest.raises(ValueError, match="no k values"):
                verify_superconcentrator(g, [], mode="sampled", samples=2, rng=RandomSource(1))

    def test_non_integer_k_rejected(self):
        g = layered(2, 1, (1, 1), (3,))
        for k_values in ([1.9], ["2"], [True], [1, 2.0], [None]):
            with pytest.raises(ValueError, match="k values must be integers"):
                verify_superconcentrator(g, k_values)
            with pytest.raises(ValueError, match="k values must be integers"):
                verify_superconcentrator(g, k_values, mode="sampled", samples=2, rng=RandomSource(1))
        assert verify_superconcentrator(g, (k for k in [2, 1, 2])).k_checked == (1, 2)

    def test_empty_middle_fails_at_k1(self):
        g = layered(3, 0, (0, 0, 0), ())
        verdict = verify_superconcentrator(g, [1])
        assert not verdict.is_superconcentrator
        assert verdict.counterexample[0] == 1

    def test_sampled_mode_needs_seed_and_never_certifies(self):
        g = complete_layered(4, 4)
        with pytest.raises(ValueError):
            verify_superconcentrator(g, "all", mode="sampled")
        verdict = verify_superconcentrator(
            g, "all", mode="sampled", samples=5, rng=RandomSource(3)
        )
        assert verdict.is_superconcentrator and not verdict.certified

    def test_sampled_mode_can_refute(self):
        g = complete_layered(4, 3)
        verdict = verify_superconcentrator(
            g, [4], mode="sampled", samples=3, rng=RandomSource(1)
        )
        assert not verdict.is_superconcentrator

    def test_exhaustive_counterexample_without_a_deficit_raises(self, monkeypatch):
        # The verdict builder runs the named pair's flow again; k = 1 on a
        # complete graph has full flow for every pair.
        monkeypatch.setattr(superconc, "_first_kset", lambda rows, k, cols, budget: ((0,), (0,)))
        with pytest.raises(AssertionError, match="internal error: counterexample without a flow deficit"):
            verify_superconcentrator(complete_layered(3, 3), [1])

    def test_sampled_counterexample_without_a_deficit_raises(self, monkeypatch):
        # The scan sees a deficit on its one pair; the builder's own run of
        # that pair's flow does not.
        flows, real = [], superconc.max_disjoint_paths

        def first_flow_short(g, sources, sinks):
            flows.append((sources, sinks))
            return 0 if len(flows) == 1 else real(g, sources, sinks)

        monkeypatch.setattr(superconc, "max_disjoint_paths", first_flow_short)
        with pytest.raises(AssertionError, match="internal error: counterexample without a flow deficit"):
            verify_superconcentrator(complete_layered(3, 3), [1], mode="sampled", samples=1, rng=RandomSource(1))
        assert len(flows) == 2 and flows[0] == flows[1]

    def test_counterexample_flows_pinned(self):
        # V vertices 0..4 reach only middles 0..2, so any S of four of them
        # has flow 3. Expected values are those of the previous flow code.
        vm = tuple(0b111 if v < 5 else 0xFF for v in range(8))
        mw = tuple([0xFF] * 6 + [0b1111, 0b11110000])
        g = layered(8, 8, vm, mw)
        sampled = [
            verify_superconcentrator(
                g, "all", mode="sampled", samples=10, rng=RandomSource(seed)
            )
            for seed in range(5)
        ]
        assert [(v.counterexample, v.pairs_checked) for v in sampled] == [
            ((5, (0, 1, 2, 4, 5), (0, 2, 4, 6, 7), 4), 44),
            ((4, (0, 1, 2, 4), (1, 3, 5, 6), 3), 32),
            ((4, (1, 2, 3, 4), (1, 2, 5, 6), 3), 36),
            ((4, (0, 1, 2, 4), (2, 3, 5, 6), 3), 33),
            ((5, (0, 1, 2, 3, 5), (1, 2, 4, 5, 6), 4), 43),
        ]
        hall = verify_superconcentrator(g, "all")  # decided by the Hall test
        assert (hall.counterexample, hall.pairs_checked) == (
            (4, (0, 1, 2, 3), (0, 1, 2, 3), 3), 3985
        )
        above = verify_superconcentrator(g, range(5, 9))  # past the unlisted k = 4: by the flow
        assert above.counterexample == (5, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), 3)
        for verdict in sampled + [hall, above]:
            _, S, T, flow = verdict.counterexample
            assert flow == brute_max_two_paths(g.vm.adj, g.mw.adj, S, T)

    def test_budget_enforced(self):
        # On K(10, 10, 10) no T search takes a node, so only the S-prefix
        # steps count: 10, 9 and 8 decide k = 1, 2 and 3, and k = 4 runs out.
        verdict = verify_superconcentrator(complete_layered(10, 10), "all", node_budget=30)
        assert (verdict.is_superconcentrator, verdict.certified, verdict.counterexample) == (None, False, None)
        assert verdict.pairs_checked == 16_525 == sum(math.comb(10, k) ** 2 for k in (1, 2, 3))

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node budget must be >= 1"):
            verify_superconcentrator(complete_layered(4, 4), "all", node_budget=budget)

    def test_budget_is_spent_exactly(self):
        # 10 + 9 + ... + 1 = 55 S-prefix steps certify K(10, 10, 10).
        g = complete_layered(10, 10)
        assert verify_superconcentrator(g, "all", node_budget=55).certified
        short = verify_superconcentrator(g, "all", node_budget=54)
        assert (short.is_superconcentrator, short.pairs_checked) == (None, math.comb(20, 10) - 2)  # k = 1..9

    def test_budget_counts_each_pair_past_a_gap(self):
        # V0 and V2 reach middles 0 and 2, and W2 and W3 only middles 0 and
        # 1, so the unlisted k = 2 fails, yet every pair at k = 3 passes.
        # The Hall search spends what deciding [1, 2] takes; k = 3, past the
        # violation, costs one node per pair.
        g = layered(4, 3, (0b101, 0b010, 0b101, 0b110), (0b1101, 0b1111, 0b0011))
        hall = next(b for b in range(1, 100) if verify_superconcentrator(g, [1, 2], node_budget=b).counterexample)
        pairs = math.comb(4, 3) ** 2
        full = verify_superconcentrator(g, [1, 3], node_budget=hall + pairs)
        assert full.certified and full.pairs_checked == 16 + pairs
        short = verify_superconcentrator(g, [1, 3], node_budget=hall + pairs - 1)
        assert (short.is_superconcentrator, short.pairs_checked) == (None, 16)

    def test_unlisted_sizes_cost_their_hall_steps(self):
        # K(10, 10, 10): sizes 1 to 4 take 10 + 9 + 8 + 7 S-prefix steps,
        # whether listed or not, and certify 3..4 with no flow.
        g = complete_layered(10, 10)
        assert verify_superconcentrator(g, range(3, 5), node_budget=34).certified
        short = verify_superconcentrator(g, range(3, 5), node_budget=33)
        assert (short.is_superconcentrator, short.pairs_checked) == (None, math.comb(10, 3) ** 2)
        none_decided = verify_superconcentrator(g, range(3, 5), node_budget=26)
        assert (none_decided.is_superconcentrator, none_decided.pairs_checked) == (None, 0)

    def test_level_past_a_clean_gap_needs_no_flow(self, monkeypatch):
        # On K(30, 30, 30) k = 2 alone has 189,225 pairs; the Hall search
        # decides it, and any other list, without a flow.
        monkeypatch.setattr(superconc, "max_disjoint_paths", None)
        g = complete_layered(30, 30)
        start = time.perf_counter()
        for ks in ([2], [3, 4], [1, 5, 30]):
            verdict = verify_superconcentrator(g, ks)
            assert verdict.certified and verdict.pairs_checked == sum(math.comb(30, k) ** 2 for k in ks)
        assert time.perf_counter() - start < 0.5

    def test_budget_binds_on_a_large_complete_graph(self):
        # No T search takes a node here, so only the tick per S-prefix step
        # bounds the ~n^2/2 steps.
        start = time.perf_counter()
        verdict = verify_superconcentrator(complete_layered(200, 200), "all", node_budget=1_000)
        assert verdict.is_superconcentrator is None and not verdict.certified
        assert verdict.pairs_checked == sum(math.comb(200, k) ** 2 for k in range(1, 6))
        assert time.perf_counter() - start < 1.0

    def test_budget_out_or_the_unlimited_verdict(self):
        # Any budget gives the unlimited verdict or None; None counts whole
        # levels, and a larger budget never turns a decision back into None.
        rng = random.Random(67)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(2, 6)
            g = random_layered(rng, n, rng.randint(1, n + 2), rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0))
            ks = "all" if rng.random() < 0.5 else sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            full = verify_superconcentrator(g, ks)
            decided = False
            for budget in range(1, 80):
                verdict = verify_superconcentrator(g, ks, node_budget=budget)
                if verdict.is_superconcentrator is None:
                    assert not decided and verdict.counterexample is None
                    levels = [sum(math.comb(n, k) ** 2 for k in full.k_checked[:i]) for i in range(n + 1)]
                    assert verdict.pairs_checked in levels and verdict.pairs_checked <= full.pairs_checked
                    outcomes.add(None)
                else:
                    assert verdict == full
                    decided = True
                    outcomes.add(full.is_superconcentrator)
        assert outcomes == {None, True, False}

    def test_edgeless_graph_refuted_at_k1_at_once(self, monkeypatch):
        g = layered(8000, 0, (0,) * 8000, ())
        start = time.perf_counter()
        verdict = verify_superconcentrator(g, "all")
        assert (verdict.counterexample, verdict.pairs_checked) == ((1, (0,), (0,), 0), 1)
        assert time.perf_counter() - start < 0.5

        # The per-pair scan past the violation at the unlisted k = 1 must
        # draw its k-sets as it goes: drawing all C(8000, 4000) of them
        # first exhausts memory, so the k-sets come from a source that fails
        # on the third one.
        drawn = []

        def few_combinations(items, k):
            for combo in combinations(items, k):
                drawn.append(k)
                assert len(drawn) <= 2, "k-sets drawn ahead of the pairs"
                yield combo

        monkeypatch.setattr(superconc, "combinations", few_combinations)
        past_a_gap = verify_superconcentrator(g, [4000, 7999])
        assert past_a_gap.counterexample == (4000, tuple(range(4000)), tuple(range(4000)), 0)
        assert past_a_gap.pairs_checked == 1

    def test_monotone_under_edge_addition(self):
        # Adding edges keeps a certified graph certified.
        rng = random.Random(23)
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            m = rng.randint(1, n + 2)
            g = random_layered(rng, n, m, rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            if not verify_superconcentrator(g, "all").certified:
                continue
            vm, mw = list(g.vm.adj), list(g.mw.adj)
            for _ in range(rng.randint(1, 4)):
                vm[rng.randrange(n)] |= 1 << rng.randrange(m)
                mw[rng.randrange(m)] |= 1 << rng.randrange(n)
            assert verify_superconcentrator(layered(n, m, tuple(vm), tuple(mw)), "all").certified
            checked += 1
        assert checked > 50


def reference_verdict(g, ks, flow):
    """(is_sc, counterexample, pairs_checked) by enumerating (k, S, T) in lex order."""
    pairs = 0
    for k in ks:
        for s in combinations(range(g.n), k):
            for t in combinations(range(g.n), k):
                pairs += 1
                value = flow(s, t)
                if value < k:
                    return False, (k, s, t, value), pairs
    return True, None, pairs


def check_against_reference(g, rng, flow):
    """Verdicts of several k lists of g against ``reference_verdict``, as
    (refuted, certified) counts."""
    n = g.n
    b = rng.randint(1, n)
    lists = [("all", range(1, n + 1)), (range(1, b + 1), range(1, b + 1))]
    if n >= 2:
        a = rng.randint(2, n)
        above = range(a, rng.randint(a, n) + 1)  # by the flow past an unlisted violation
        lists.append((above, above))
    # Gaps: unlisted sizes run the Hall search too, and only a level past an
    # unlisted violation is decided by the flow.
    lists += [(gaps, gaps) for gaps in ([1, 3], [2, 4], [1, 2, 4]) if gaps[-1] <= n]
    refuted = certified = 0
    for k_values, ks in lists:
        verdict = verify_superconcentrator(g, k_values)
        expect = reference_verdict(g, ks, flow)
        got = (verdict.is_superconcentrator, verdict.counterexample, verdict.pairs_checked)
        assert got == expect, (g, list(ks))
        assert verdict.k_checked == tuple(ks)
        refuted += not verdict.is_superconcentrator
        certified += verdict.certified
    return refuted, certified


def cached(flow):
    cache = {}

    def lookup(s, t):
        if (s, t) not in cache:
            cache[s, t] = flow(s, t)
        return cache[s, t]

    return lookup


class TestHallScan:
    def test_matches_per_pair_oracle(self):
        rng = random.Random(59)
        refuted = certified = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(0, 7)
            g = random_layered(rng, n, m, rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))
            flow = cached(lambda s, t: brute_max_two_paths(g.vm.adj, g.mw.adj, s, t))
            r, c = check_against_reference(g, rng, flow)
            refuted += r
            certified += c
        assert refuted > 100 and certified > 100

    def test_matches_per_pair_flow_at_n6_7(self):
        # brute_max_two_paths is too slow here; max_disjoint_paths, checked
        # against it above, is the per-pair flow.
        rng = random.Random(61)
        refuted = certified = 0
        for _ in range(100):
            n = rng.randint(6, 7)
            m = rng.randint(0, 9)
            g = random_layered(rng, n, m, rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0))
            r, c = check_against_reference(g, rng, cached(lambda s, t: max_disjoint_paths(g, s, t)))
            refuted += r
            certified += c
        assert refuted > 200 and certified > 100

    def test_level_after_a_gap_is_decided_by_the_flow(self):
        # V0 and V1 reach only middle 0, so k = 2 fails. At k = 3 all three
        # middles are in N(V) & N(W), yet the flow is 2.
        g = layered(3, 3, (0b001, 0b001, 0b110), (0b111,) * 3)
        verdict = verify_superconcentrator(g, [1, 3])
        assert (verdict.counterexample, verdict.pairs_checked) == ((3, (0, 1, 2), (0, 1, 2), 2), 10)
        verdict = verify_superconcentrator(g, "all")
        assert (verdict.counterexample, verdict.pairs_checked) == ((2, (0, 1), (0, 1), 1), 10)


def relabelled(g, perm_v, perm_m, perm_w):
    """g with V vertex v renamed perm_v[v], and likewise for M and W."""
    def moved(mask, perm):
        return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)

    vm, mw = [0] * g.n, [0] * g.m
    for v in range(g.n):
        vm[perm_v[v]] = moved(g.vm.adj[v], perm_m)
    for u in range(g.m):
        mw[perm_m[u]] = moved(g.mw.adj[u], perm_w)
    return layered(g.n, g.m, tuple(vm), tuple(mw))


def planted_superconcentrator(rng, n, extra_middles, p):
    """Middles 0..n-1 receive every V vertex and each sends to one W vertex
    of a random perfect matching, so any k-sets S, T have k disjoint paths;
    random edges and ``extra_middles`` more middles come on top."""
    g = random_layered(rng, n, n + extra_middles, p, p)
    match = rng.sample(range(n), n)
    vm = tuple(row | ((1 << n) - 1) for row in g.vm.adj)
    mw = tuple(row | (1 << match[u]) if u < n else row for u, row in enumerate(g.mw.adj))
    return layered(g.n, g.m, vm, mw)


class TestMetamorphic:
    def test_relabelling_and_flip_keep_the_verdict(self):
        rng = random.Random(71)
        verdicts = set()
        for _ in range(120):
            n = rng.randint(2, 7)
            m = rng.randint(1, n + 2)
            g = random_layered(rng, n, m, rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0))
            expect = verify_superconcentrator(g, "all").is_superconcentrator
            identity_v, identity_m = list(range(n)), list(range(m))
            for variant in (
                relabelled(g, rng.sample(range(n), n), identity_m, identity_v),
                relabelled(g, identity_v, rng.sample(range(m), m), identity_v),
                relabelled(g, identity_v, identity_m, rng.sample(range(n), n)),
                layered_flip(g),
            ):
                assert verify_superconcentrator(variant, "all").is_superconcentrator == expect, g
            verdicts.add(expect)
        assert verdicts == {True, False}

    def test_planted_n14_certified_under_the_default_budget(self):
        # C(28, 14) - 1 pairs, about 4e7, far more than the default budget
        # of 1e7 nodes that certifies them.
        g = planted_superconcentrator(random.Random(14), 14, 2, 0.1)
        verdict = verify_superconcentrator(g, "all")
        assert verdict.certified and verdict.pairs_checked == math.comb(28, 14) - 1


class TestMiddleBicliques:
    def test_single_vertex(self):
        g = LayeredGraph.from_edge_lists(3, 1, [(0, 0), (1, 0)], [(0, 2)])
        fam = middle_bicliques(g, [0], k=1)
        assert fam.left == (0b11,) and fam.right == (0b100,)

    def test_empty_selection(self):
        g = complete_layered(4, 2)
        assert middle_bicliques(g, [], k=1).size == 0

    def test_complete_tripartite_union_is_complete(self):
        from zarank.core import union_of

        g = complete_layered(4, 2)
        fam = middle_bicliques(g, [0, 1], k=1)
        assert union_of(fam).edge_count == 16


class TestDecompose:
    def test_uniform_degrees_all_medium(self):
        # Each middle vertex has degree n/k on both sides.
        n, k = 16, 4
        g = LayeredGraph.from_edge_lists(
            n,
            2,
            [(v, 0) for v in range(4)] + [(v, 1) for v in range(4, 8)],
            [(0, w) for w in range(4)] + [(1, w) for w in range(4, 8)],
        )
        dec = decompose(g, k, threshold_base=2.0)
        assert dec.medium == (0, 1) and dec.high == () and dec.low == ()

    def test_heavy_vertex_is_high(self):
        n = 8
        g = layered(
            n, 2, tuple([0b11] * n), ((1 << n) - 1, 0)
        )
        # middle 0 has degrees (8, 8); middle 1 has (8, 0). The split is by
        # W-degree, against the cuts (8/4)*2 = 4 and (8/4)/2 = 1:
        dec = decompose(g, 4, 2.0)
        assert 0 in dec.high and 1 in dec.low

    def test_partition_property(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_layered(rng, 10, 8, 0.4, 0.4)
            dec = decompose(g, 3, 1.5)
            cells = [set(dec.high), set(dec.medium), set(dec.low)]
            assert not (cells[0] & cells[1] or cells[0] & cells[2] or cells[1] & cells[2])
            assert cells[0] | cells[1] | cells[2] == set(range(8))

    def test_threshold_base_must_exceed_one(self):
        with pytest.raises(ValueError):
            decompose(complete_layered(4, 4), 2, 1.0)

    def test_premise_flag_when_everything_high(self):
        # deg = n >= (n/k) t exactly when k >= t.
        n = 16
        dec = decompose(complete_layered(n, n), 16, 16.0)
        assert len(dec.high) == n  # |High| >= k: the audit premise fails here


class TestBalance:
    def test_input_graph_unchanged(self):
        g = LayeredGraph.from_edge_lists(4, 2, [(0, 0)], [(0, 0), (0, 1), (1, 2)])
        before = g.vm.cols
        balanced = balance_degrees(g, 1, 1)
        assert [col.bit_count() for col in balanced.vm.cols] == [2, 1]
        assert g.vm.cols == before == (0b0001, 0)

    def test_already_balanced_identity(self):
        g = complete_layered(4, 3)
        assert balance_degrees(g, 1, 1) == g

    def test_ratio_one_to_two_pads_left(self):
        g = LayeredGraph.from_edge_lists(
            8, 1, [(0, 0)], [(0, w) for w in range(4)]
        )
        balanced = balance_degrees(g, 1, 2)
        assert [col.bit_count() for col in balanced.vm.cols] == [2]
        assert [row.bit_count() for row in balanced.mw.adj] == [4]
        # Original edges survive.
        assert balanced.vm.adj[0] & 1

    def test_pads_lowest_free_vertices_around_existing_edges(self):
        # Middle 0 has in-neighbours {1, 4, 5, 9} and needs four more; middle 1
        # has out-neighbours {1, 4, 8} and needs four more. The padding takes
        # the lowest absent vertices, skipping the present ones.
        g = LayeredGraph.from_edge_lists(
            10, 3,
            [(1, 0), (4, 0), (5, 0), (9, 0)] + [(v, 1) for v in (0, 2, 3, 6, 7, 8, 9)] + [(3, 2), (7, 2)],
            [(0, w) for w in (0, 2, 3, 6, 7, 8, 9, 1)] + [(1, 1), (1, 4), (1, 8)] + [(2, 0), (2, 5)],
        )
        balanced = balance_degrees(g, 1, 1)
        assert balanced.vm.cols == (0b1001111111, 0b1111001101, 0b0010001000)
        assert balanced.mw.adj == (0b1111001111, 0b0100111111, 0b0000100001)

    def test_never_removes_and_at_most_doubles_per_layer(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_layered(rng, 12, 10, 0.4, 0.5)
            if g.vm.edge_count == 0 or g.mw.edge_count == 0:
                continue
            balanced = balance_degrees(g, g.vm.edge_count, g.mw.edge_count)
            for v in range(g.n):
                assert g.vm.adj[v] & ~balanced.vm.adj[v] == 0
            for u in range(g.m):
                assert g.mw.adj[u] & ~balanced.mw.adj[u] == 0
            assert balanced.vm.edge_count <= 2 * g.vm.edge_count + g.m
            assert balanced.mw.edge_count <= 2 * g.mw.edge_count + g.m

    def test_one_to_one_padding(self):
        g = LayeredGraph.from_edge_lists(
            6, 2, [(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 0), (1, 0), (1, 1)]
        )
        balanced = balance_degrees(g, 1, 1)
        assert [col.bit_count() for col in balanced.vm.cols] == [row.bit_count() for row in balanced.mw.adj]

    def test_infeasible_ratio(self):
        g = LayeredGraph.from_edge_lists(2, 1, [(0, 0), (1, 0)], [(0, 0)])
        with pytest.raises(ValueError, match="cannot balance middle vertex 0"):
            balance_degrees(g, 5, 1)  # needs deg_V = 5 > n = 2

    def test_closed_form_matches_the_scan(self):
        # The per-middle targets are computed in closed form; the oracle scans
        # y (or x) upwards on the exact ratio. Float parts are exact binary
        # fractions, so they are compared as such.
        rng = random.Random(61)
        ratios = [(1, 1), (1, 2), (2, 1), (3, 7), (7, 3), (1000, 999), (1, 1000), (0.1, 0.3), (2.5, 1)]
        for trial in range(1500):
            n, m = rng.randint(1, 24), rng.randint(1, 4)
            in_masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
            out_masks = [rng.getrandbits(n) for _ in range(m)]
            g = layered(n, m, tuple(transpose_masks(in_masks, n)), tuple(out_masks))
            a, b = ratios[trial % len(ratios)] if trial % 3 else (rng.uniform(0.05, 20), rng.uniform(0.05, 20))
            try:
                expected = scan_balance_degrees(in_masks, out_masks, n, a, b)
            except ValueError:
                with pytest.raises(ValueError, match="cannot balance"):
                    balance_degrees(g, a, b)
                continue
            before = g.vm.edge_count + g.mw.edge_count
            after = sum(map(int.bit_count, expected[0] + expected[1]))
            if before and after > 2 * before + m:
                with pytest.raises(ValueError, match="more than the promised factor two"):
                    balance_degrees(g, a, b)
                continue
            balanced = balance_degrees(g, a, b)
            assert (list(balanced.vm.cols), list(balanced.mw.adj)) == expected, (in_masks, out_masks, n, a, b)


class TestLadder:
    def test_counts_and_disjointness_across_scales(self):
        for n in (16, 256, 4096, 2 ** 20, 2 ** 36, 2 ** 48, 2 ** 56, 2 ** 64,
                  10 ** 6 + 7, 10 ** 12 + 39):
            log_n = math.log2(n)
            t = log_n ** 2
            ladder = threshold_ladder(n, t)
            loglog = math.log2(log_n)
            required = math.floor(0.1 * log_n / loglog)
            assert len(ladder) >= required
            assert all(n ** 0.25 <= k + 1 and k <= n ** 0.75 for k in ladder)
            bands = [medium_band(n, k, t) for k in ladder]
            for (prev_lo, _), (_, next_hi) in zip(bands, bands[1:]):
                assert next_hi <= prev_lo

    def test_strictly_increasing(self):
        ladder = threshold_ladder(2 ** 64, 4.0)
        assert all(a < b for a, b in zip(ladder, ladder[1:]))

    def test_base_must_exceed_one(self):
        with pytest.raises(ValueError):
            threshold_ladder(100, 1.0)


def ratio_half_instance():
    """n=512, b=2: 30 heavy middles (13, 26) and 122 light ones (1, 2)."""
    n = 512
    heavy, light = 30, 122
    edges_vm = []
    edges_mw = []
    for u in range(heavy):
        for j in range(13):
            edges_vm.append(((13 * u + j) % n, u))
        for j in range(26):
            edges_mw.append((u, (26 * u + j) % n))
    for i in range(light):
        u = heavy + i
        edges_vm.append(((13 * heavy + i) % n, u))
        for j in range(2):
            edges_mw.append((u, (26 * heavy + 2 * i + j) % n))
    return LayeredGraph.from_edge_lists(n, heavy + light, edges_vm, edges_mw)


def skewed_instance():
    """n=8: middles of degrees (1, 1), (0, 1), (2, 0), (1, 8), (0, 0) and
    (1, 0), each joined to V and W vertices 0..d-1."""
    degrees = [(1, 1), (0, 1), (2, 0), (1, 8), (0, 0), (1, 0)]
    edges_vm = [(v, u) for u, (dv, _) in enumerate(degrees) for v in range(dv)]
    edges_mw = [(u, w) for u, (_, dw) in enumerate(degrees) for w in range(dw)]
    return LayeredGraph.from_edge_lists(8, len(degrees), edges_vm, edges_mw)


class TestTradeoffAudit:
    def test_mixed_instance_pigeonhole_and_selection(self):
        g = ratio_half_instance()
        assert g.vm.edge_count == 512 and g.mw.edge_count == 1024
        report, flipped = tradeoff_audit(g, 0.01)
        assert not flipped
        assert report.a == 1.0 and report.b == 2.0
        assert report.ladder == (5, 80)
        # Heavy middles (deg_w 26) sit in Medium(5); light ones in Medium(80).
        assert report.per_k_medium_v_edges == (30 * 13, 122 * 1)
        assert report.k0 == 80 and report.k0_v_edges == 122
        assert report.pigeonhole_exact
        assert report.k0_v_edges * report.ladder_length <= g.vm.edge_count
        assert report.medium_sets_disjoint
        assert report.value_at_low >= report.asymmetric_min

    def test_argmin_names_middle_ids(self):
        # Eight middles with degrees (2, 4); with_isolated puts an isolated
        # middle 0 in front, which the profile drops as degenerate.
        def instance(with_isolated):
            first = 1 if with_isolated else 0
            edges_vm, edges_mw = [], []
            for i in range(8):
                u = first + i
                edges_vm += [(2 * i, u), (2 * i + 1, u)]
                edges_mw += [(u, (4 * i + j) % 16) for j in range(4)]
            return LayeredGraph.from_edge_lists(16, first + 8, edges_vm, edges_mw)

        assert tradeoff_audit(instance(True), 0.01)[0].asymmetric_argmin == tuple(range(1, 9))
        assert tradeoff_audit(instance(False), 0.01)[0].asymmetric_argmin == tuple(range(8))

    def test_flipped_input_gives_the_same_report(self):
        g = ratio_half_instance()
        flipped_input = layered_flip(g)
        assert flipped_input.vm.edge_count == 1024
        assert tradeoff_audit(flipped_input, 0.01) == (tradeoff_audit(g, 0.01)[0], True)

    def test_balances_its_own_input(self):
        # Middle 3 has degrees (1, 8) against the graph's 5:10 ratio. The
        # padding moves the averages to 9:14, a ratio no middle was padded
        # to; the audit runs on the padded graph all the same.
        g = skewed_instance()
        balanced = balance_degrees(g, 5, 10)
        assert (balanced.vm.edge_count, balanced.mw.edge_count) == (9, 14)
        report, flipped = tradeoff_audit(g, 0.01)
        assert not flipped
        assert (report.a * g.n, report.b * g.n) == (9, 14)
        assert report.k0_v_edges * report.ladder_length <= balanced.vm.edge_count

    @pytest.mark.parametrize("vm_edges, mw_edges", [([], [(0, 0)]), ([(0, 0)], [])])
    def test_a_layer_without_edges_rejected(self, vm_edges, mw_edges):
        g = LayeredGraph.from_edge_lists(8, 1, vm_edges, mw_edges)
        with pytest.raises(ValueError, match="tradeoff normalization needs edges in both layers"):
            tradeoff_audit(g, 0.01)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_skewed_inputs_give_a_report_or_a_size_error(self, data):
        # Any graph that balance_degrees accepts, oriented as the audit
        # orients it, is audited or refused for its size alone.
        n = data.draw(st.integers(4, 40))
        m = data.draw(st.integers(1, 12))
        sides = st.lists(st.integers(0, n - 1), max_size=n)
        middles = [(data.draw(sides), data.draw(sides)) for _ in range(m)]
        edges_vm = [(v, u) for u, (vs, _) in enumerate(middles) for v in set(vs)]
        edges_mw = [(u, w) for u, (_, ws) in enumerate(middles) for w in set(ws)]
        g = LayeredGraph.from_edge_lists(n, m, edges_vm, edges_mw)
        oriented = layered_flip(g) if g.vm.edge_count > g.mw.edge_count else g
        assume(oriented.vm.edge_count and oriented.mw.edge_count)
        try:
            balance_degrees(oriented, oriented.vm.edge_count, oriented.mw.edge_count)
        except ValueError:
            assume(False)
        try:
            report, flipped = tradeoff_audit(g, 0.01)
        except ValueError as exc:
            assert re.fullmatch(r"W side average degree \S+ <= 1: .*|no ladder rungs .*", str(exc))
        else:
            assert flipped == (oriented is not g) and report.a <= report.b

    def test_b_at_most_one_rejected(self):
        g = LayeredGraph.from_edge_lists(8, 2, [(0, 0), (1, 1)], [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            tradeoff_audit(g, 0.01)

    def test_entropy_side_bound_on_grid(self):
        ln2 = math.log(2.0)
        for i in range(1, 101):
            for j in range(1, 101):
                alpha, beta = 0.05 * i, 0.05 * j
                assert beta * math.log2((alpha + beta) / beta) <= alpha / ln2


class TestLayeredFlip:
    def test_involution(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_layered(rng, 6, 5, 0.5, 0.5)
            f = layered_flip(g)
            assert layered_flip(f) == g
            # The flip's views are filled, and each is the transpose of its rows.
            assert "cols" in vars(f.vm) and "cols" in vars(f.mw)
            assert list(f.vm.cols) == transpose_masks(f.vm.adj, f.m)
            assert list(f.mw.cols) == transpose_masks(f.mw.adj, f.n)

    def test_edge_reversal(self):
        g = LayeredGraph.from_edge_lists(3, 2, [(0, 1)], [(1, 2)])
        f = layered_flip(g)
        assert f.vm.adj[2] == 0b10  # old M->W edge (1, 2) becomes V'=2 -> M=1
        assert f.mw.adj[1] == 0b001  # old V->M edge (0, 1) becomes M=1 -> W'=0


class TestEdgeAudit:
    def test_complete_tripartite_report(self):
        g = complete_layered(16, 16)
        report = edge_lower_bound_audit(g, 0.01)
        assert report.ladder == (2,)
        assert report.bands_disjoint and report.medium_sets_disjoint
        row = report.per_k[0]
        # Middle degree 16 sits inside [(16/2)/16, (16/2)*16) = [0.5, 128).
        assert row["medium_count"] == 16 and row["high_premise_ok"]
        assert row["medium_edges_per_side"] == 256
        assert report.total_edges == 512

    def test_random_instance_structure(self):
        rng = random.Random(8)
        g = random_layered(rng, 32, 24, 0.3, 0.3)
        report = edge_lower_bound_audit(g, 0.01)
        assert report.bands_disjoint
        for row in report.per_k:
            assert row["high_count"] + row["medium_count"] + row["low_count"] == 24
        assert report.total_edges_balanced <= 2 * report.total_edges + g.m
