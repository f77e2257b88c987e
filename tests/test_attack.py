import math
import random
import statistics

import pytest

import zarank.attack
from oracles import compressed_domain_search
from zarank.attack import (
    AttackConfig,
    classify,
    run_attack,
    run_attack_trials,
    survivor_statistics,
)
from zarank.bounds import profile_from_family, profile_from_normalized
from zarank.core import BicliqueFamily, RandomSource, jsonable, union_of
from zarank.witness import has_kxk_independent_set


def rectangle_is_independent(g, s_indices, t_indices):
    t_mask = sum(1 << w for w in t_indices)
    return all(g.adj[v] & t_mask == 0 for v in s_indices)


def only_large_family(n, k, r, m, seed):
    """r bicliques of size m x m with m k / n > 1, placed at random."""
    rng = random.Random(seed)
    pairs = [
        (rng.sample(range(n), m), rng.sample(range(n), m)) for _ in range(r)
    ]
    fam = BicliqueFamily.from_index_lists(n, k, pairs)
    assert all(e.alpha > 1 for e in profile_from_family(fam).entries)
    return fam


class TestClassify:
    def test_symmetric_threshold_at_one(self):
        profile = profile_from_normalized(100, 10, [(0.5, 0.5), (2.0, 2.0)])
        assert classify(profile, "symmetric") == ((1,), (0,))

    def test_asymmetric_complement_of_marked(self):
        profile = profile_from_normalized(100, 10, [(0.5, 0.7), (2.0, 1.0)])
        assert classify(profile, "asymmetric", marked={0}) == ((1,), (0,))

    def test_all_small_attacks_nothing(self):
        profile = profile_from_normalized(100, 10, [(0.5, 0.5), (1.0, 1.0)])
        attacked, kept = classify(profile, "symmetric")
        assert attacked == () and kept == (0, 1)

    @pytest.mark.parametrize("marked", [[0], []])
    def test_marked_set_rejected_in_symmetric_mode(self, marked):
        fam = BicliqueFamily.from_index_lists(8, 2, [(range(6), range(6)), ([7], [7])])
        profile = profile_from_family(fam)
        assert classify(profile, "symmetric") == ((0,), (1,))
        with pytest.raises(ValueError, match="a marked set applies to asymmetric mode only"):
            classify(profile, "symmetric", marked)

    def test_default_marked_is_binding_argmin(self):
        # alpha = beta = 1: product term 1 < entropy term 2, so index marked.
        profile = profile_from_normalized(100, 10, [(1.0, 1.0)])
        attacked, kept = classify(profile, "asymmetric")
        assert attacked == () and kept == (0,)


class TestRunAttack:
    def test_empty_family_immediate_witness(self):
        fam = BicliqueFamily(6, 3)
        config = AttackConfig(mode="symmetric", rng=RandomSource(1), trials=4)
        trace = run_attack(fam, config)
        assert trace.found and trace.trial == 1
        s, t = trace.witness
        assert len(s) == 3 and len(t) == 3

    def test_complete_biclique_never_refuted(self):
        n = 8
        fam = BicliqueFamily.from_index_lists(n, 2, [(list(range(n)), list(range(n)))])
        config = AttackConfig(mode="symmetric", rng=RandomSource(3), trials=16)
        traces = run_attack_trials(fam, config)
        assert not any(t.found for t in traces)
        # One side of the lone attacked biclique is always wiped out.
        for t in traces:
            assert t.x_surv == () or t.y_surv == ()

    def test_attacked_bicliques_never_bridge_survivors(self):
        fam = only_large_family(48, 6, 7, 9, seed=5)
        config = AttackConfig(mode="symmetric", rng=RandomSource(7), trials=60)
        for trace in run_attack_trials(fam, config):
            assert trace.attacked_edge_pairs_surviving == 0

    def test_witnesses_reverify_against_full_union(self):
        g_cache = {}
        for seed in range(6):
            fam = only_large_family(48, 6, 7, 9, seed=seed)
            g = g_cache.setdefault(seed, union_of(fam))
            config = AttackConfig(mode="symmetric", rng=RandomSource(seed + 100), trials=50)
            trace = run_attack(fam, config)
            if trace.found:
                s, t = trace.witness
                assert len(s) == 6 and len(t) == 6
                assert rectangle_is_independent(g, s, t)

    def test_determinism(self):
        fam = only_large_family(32, 4, 5, 9, seed=2)
        config = AttackConfig(mode="symmetric", rng=RandomSource(42), trials=10)
        assert jsonable(run_attack(fam, config)) == jsonable(run_attack(fam, config))

    def test_survivors_subset_of_focus_sets(self):
        fam = only_large_family(32, 4, 5, 9, seed=9)
        config = AttackConfig(mode="symmetric", rng=RandomSource(13), trials=20)
        for trace in run_attack_trials(fam, config):
            assert set(trace.x_surv) <= set(trace.v_prime)
            assert set(trace.y_surv) <= set(trace.w_prime)
            for side in (trace.v_prime, trace.w_prime, trace.x_surv, trace.y_surv):
                assert list(side) == sorted(set(side))

    def test_symmetric_equals_asymmetric_with_half_probabilities(self):
        # Equal sizes on both sides; marking exactly the small indices makes
        # the asymmetric run flip the same coins as the symmetric one.
        n, k = 16, 4
        rng = random.Random(77)
        pairs = []
        for m in (2, 8, 6, 4, 7):
            pairs.append((rng.sample(range(n), m), rng.sample(range(n), m)))
        fam = BicliqueFamily.from_index_lists(n, k, pairs)
        profile = profile_from_family(fam)
        marked = frozenset(i for i, e in enumerate(profile.entries) if e.alpha <= 1)
        sym = AttackConfig(mode="symmetric", rng=RandomSource(5), trials=12)
        asym = AttackConfig(mode="asymmetric", rng=RandomSource(5), trials=12, marked=marked)
        sym_traces = run_attack_trials(fam, sym)
        asym_traces = run_attack_trials(fam, asym)
        for a, b in zip(sym_traces, asym_traces):
            assert a.attacked == b.attacked
            assert a.deleted_side == b.deleted_side
            assert a.x_surv == b.x_surv
            assert a.y_surv == b.y_surv
            assert a.witness == b.witness

    def test_asymmetric_deletion_weights(self):
        # 3 x 12 biclique: p = 3/15 = 0.2, so d_v = log2(5) on the left and
        # log2(1/0.8) on the right for members.
        n, k = 15, 5
        fam = BicliqueFamily.from_index_lists(
            n, k, [(list(range(3)), list(range(12)))]
        )
        config = AttackConfig(
            mode="asymmetric", rng=RandomSource(1), trials=1, marked=frozenset()
        )
        trace = run_attack_trials(fam, config)[0]
        assert trace.d_v_left[0] == pytest.approx(math.log2(5.0))
        assert trace.d_v_left[4] == 0.0
        assert trace.d_v_right[0] == pytest.approx(math.log2(1.25))

    def test_attacking_empty_biclique_rejected(self):
        fam = BicliqueFamily.from_index_lists(8, 2, [([], [])])
        config = AttackConfig(
            mode="asymmetric", rng=RandomSource(1), marked=frozenset()
        )
        with pytest.raises(ValueError):
            run_attack(fam, config)

    def test_fixed_d_threshold(self):
        fam = only_large_family(32, 4, 5, 9, seed=4)
        config = AttackConfig(
            mode="symmetric", rng=RandomSource(9), trials=2, fixed_d=0.0
        )
        trace = run_attack_trials(fam, config)[0]
        assert trace.d_left == 0.0
        for v in trace.v_prime:
            assert trace.d_v_left[v] == 0.0

    @pytest.mark.parametrize("fixed_d", [-900.0, -0.5, math.inf, -math.inf, math.nan])
    def test_fixed_d_must_be_finite_and_non_negative(self, fixed_d):
        # -900 used to overflow 2^-(d_left + d_right) in the kept-edge expectation.
        with pytest.raises(ValueError, match="fixed_d"):
            AttackConfig(mode="symmetric", rng=RandomSource(9), fixed_d=fixed_d)

    @pytest.mark.parametrize("marked", [frozenset({0}), frozenset()])
    def test_marked_set_rejected_in_symmetric_mode(self, marked):
        # Symmetric mode attacks by size alone, so a marked set would be dropped.
        with pytest.raises(ValueError, match="asymmetric mode only"):
            AttackConfig(mode="symmetric", rng=RandomSource(9), marked=marked)

    def test_node_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="node budget"):
            AttackConfig(mode="symmetric", rng=RandomSource(9), node_budget=0)


class TestDomainSearch:
    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("truncation", ["exact", "none"])
    def test_trials_search_like_compressed_copies(self, monkeypatch, mode, truncation):
        # Each trial searches the kept union on its survivors; every result
        # equals the search of the compressed survivor subgraph.
        n, k = 48, 3
        rng = random.Random(11)
        shapes = [(24, 16)] * 6 + [(6, 6)] * 20  # the six large ones are attacked
        pairs = [(rng.sample(range(n), a), rng.sample(range(n), b)) for a, b in shapes]
        fam = BicliqueFamily.from_index_lists(n, k, pairs)
        searches = []
        real_search = zarank.attack.has_kxk_independent_set

        def spy(g, k, node_budget, left, right):
            result = real_search(g, k, node_budget, left, right)
            searches.append((g, left, right, result))
            assert result == compressed_domain_search(g, k, left, right, node_budget)
            return result

        monkeypatch.setattr(zarank.attack, "has_kxk_independent_set", spy)
        config = AttackConfig(
            mode=mode, rng=RandomSource(5), trials=40, truncation=truncation,
            marked=frozenset(range(6, 26)) if mode == "asymmetric" else None,
            node_budget=10,
        )
        traces = run_attack_trials(fam, config)
        kept_rows = [0] * n
        for i in traces[0].kept:
            for v in pairs[i][0]:
                kept_rows[v] |= sum(1 << w for w in pairs[i][1])
        searched = [t for t in traces if min(len(t.x_surv), len(t.y_surv)) >= k]
        assert len(searches) == len(searched)
        for trace, (g, left, right, result) in zip(searched, searches):
            assert g.adj == tuple(kept_rows)
            assert (left, right) == (sum(1 << v for v in trace.x_surv), sum(1 << w for w in trace.y_surv))
            assert trace.witness == ((result.S, result.T) if result.found else None)
            assert trace.witness_search_complete == result.complete
            edges = sum((kept_rows[v] >> w) & 1 for v in trace.x_surv for w in trace.y_surv)
            assert trace.kept_union_edges_surviving == edges
        assert {result.found for *_, result in searches} == {True, False}


class TestSurvivalExactness:
    def test_per_vertex_survival_matches_two_to_minus_d(self):
        fam = only_large_family(16, 3, 3, 6, seed=8)
        trials = 3000
        config = AttackConfig(mode="symmetric", rng=RandomSource(21), trials=trials)
        stats = survivor_statistics(run_attack_trials(fam, config))
        for freq_map, d in (
            (stats.survival_freq_left, stats.d_left),
            (stats.survival_freq_right, stats.d_right),
        ):
            p = 2.0 ** -d
            sigma = math.sqrt(p * (1 - p) / trials)
            for freq in freq_map.values():
                assert abs(freq - p) < 4 * sigma + 1e-12


class TestSurvivorStatistics:
    def test_no_attacked_indices_keeps_exactly_half(self):
        n = 12
        fam = BicliqueFamily.from_index_lists(n, 3, [([0, 1], [2, 3])])  # alpha <= 1
        config = AttackConfig(mode="symmetric", rng=RandomSource(2), trials=50)
        stats = survivor_statistics(run_attack_trials(fam, config))
        assert stats.d_left == 0.0
        assert stats.mean_ratio_left == pytest.approx(0.5)
        assert stats.frac_ratio_ge_quarter_left == 1.0

    def test_single_biclique_covering_v_mean_ratio_half(self):
        n, k = 24, 4  # alpha = n k / n = k > 1: attacked
        fam = BicliqueFamily.from_index_lists(n, k, [(list(range(n)), list(range(n)))])
        trials = 4000
        config = AttackConfig(mode="symmetric", rng=RandomSource(17), trials=trials)
        traces = run_attack_trials(fam, config)
        stats = survivor_statistics(traces)
        assert stats.d_left == 1.0
        ratios = [len(t.x_surv) / (n * 0.5) for t in traces]
        sigma_mean = statistics.pstdev(ratios) / math.sqrt(trials)
        assert abs(stats.mean_ratio_left - 0.5) < 3 * sigma_mean + 1e-9

    def test_kept_edge_sum_matches_product_expectation(self):
        # Attacked bicliques pair the left of one half with the right of the
        # other half, so kept-edge endpoints never share an attacked coin.
        n, k = 16, 2
        lo, hi = list(range(8)), list(range(8, 16))
        pairs = [
            (lo, hi),          # attacked A
            (hi, lo),          # attacked B
            ([0, 1, 2], [3, 4]),   # kept
            ([4, 5], [5, 6, 7]),   # kept
        ]
        fam = BicliqueFamily.from_index_lists(n, k, pairs)
        trials = 4000
        config = AttackConfig(
            mode="asymmetric",
            rng=RandomSource(31),
            trials=trials,
            marked=frozenset({2, 3}),
        )
        traces = run_attack_trials(fam, config)
        stats = survivor_statistics(traces)
        assert stats.d_left == 1.0 and stats.d_right == 1.0
        assert stats.kept_edge_sum_expectation == pytest.approx((6 + 6) * 0.25)
        samples = [t.kept_edge_sum_surviving for t in traces]
        sigma_mean = statistics.pstdev(samples) / math.sqrt(trials)
        assert abs(stats.mean_kept_edge_sum - stats.kept_edge_sum_expectation) < 3 * sigma_mean

    def test_requires_exact_truncation(self):
        fam = BicliqueFamily(8, 2)
        config = AttackConfig(
            mode="symmetric", rng=RandomSource(1), trials=2, truncation="none"
        )
        traces = run_attack_trials(fam, config)
        with pytest.raises(ValueError):
            survivor_statistics(traces)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            survivor_statistics([])


class TestEffectiveness:
    def test_attack_at_least_as_good_as_plain_search_under_budget(self):
        budget = 400
        attack_hits = 0
        plain_hits = 0
        seeds = range(50)
        for seed in seeds:
            fam = only_large_family(40, 6, 5, 8, seed=seed)
            config = AttackConfig(
                mode="symmetric",
                rng=RandomSource(seed),
                trials=20,
                node_budget=budget,
            )
            if run_attack(fam, config).found:
                attack_hits += 1
            plain = has_kxk_independent_set(union_of(fam), 6, budget)
            if plain.found:
                plain_hits += 1
        assert attack_hits >= plain_hits
        assert attack_hits >= 45  # the deletion empties every large biclique
