import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zarank.witness
from oracles import compressed_domain_search, naive_bipartite_witness
from zarank.construct import construct_until_verified
from zarank.core import BipartiteGraph, RandomSource, union_of
from zarank.witness import WitnessConfig, has_kxk_independent_set


def random_graph(rng, n_left, n_right, p):
    rows = tuple(
        sum(1 << w for w in range(n_right) if rng.random() < p) for _ in range(n_left)
    )
    return BipartiteGraph(n_left, n_right, rows)


def rectangle_is_independent(g, s_indices, t_indices):
    t_mask = sum(1 << w for w in t_indices)
    return all(g.adj[v] & t_mask == 0 for v in s_indices)


def first_combination_witness(g, k, descending=False):
    """The witness the search must report, straight from its definition.

    The branch side is the one with the smaller average degree (ties to the
    right). Its vertices are sorted by (degree, index), or by (-degree, index)
    when ``descending`` (the order of the search after its probe); the
    witness is the first ``combinations`` of sorted positions whose common
    non-neighbourhood has >= k vertices, together with the k smallest of
    those vertices. Returns (S, T) as sorted index tuples, or None.
    """
    branch_right = g.edge_count / g.n_right <= g.edge_count / g.n_left
    if branch_right:
        rows = [sum(1 << v for v in range(g.n_left) if g.adj[v] >> w & 1) for w in range(g.n_right)]
        n_other = g.n_left
    else:
        rows, n_other = list(g.adj), g.n_right
    sign = -1 if descending else 1
    order = sorted(range(len(rows)), key=lambda v: (sign * bin(rows[v]).count("1"), v))
    for combo in combinations(order, k):
        common = [u for u in range(n_other) if not any(rows[v] >> u & 1 for v in combo)]
        if len(common) >= k:
            chosen, other = tuple(sorted(combo)), tuple(common[:k])
            return (other, chosen) if branch_right else (chosen, other)
    return None


@pytest.fixture(scope="module")
def union150():
    """The seed-1 (n, k, r) = (150, 10, 120) union: no 10 x 10 independent set,
    and the ascending-order probe runs out before it proves that."""
    result = construct_until_verified(150, 10, [(15, 15)] * 120, RandomSource(1), 4)
    assert result.attempts == 1 and result.verification.found is False
    return union_of(result.family)


class TestHasKxk:
    def test_empty_graph_first_witness(self):
        res = has_kxk_independent_set(BipartiteGraph.empty(2, 2), 1)
        assert res.found and res.S == (0,) and res.T == (0,)

    def test_complete_graph_none(self):
        g = BipartiteGraph(3, 3, tuple([0b111] * 3))
        for k in (1, 2, 3):
            res = has_kxk_independent_set(g, k)
            assert res.found is False and res.complete

    def test_perfect_matching_n3_k2(self):
        g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert has_kxk_independent_set(g, 2).found is False
        assert naive_bipartite_witness(g.adj, 3, 3, 2) is None

    def test_exhaustive_mode_agrees(self):
        # The branch-and-bound search agrees with exhaustive enumeration over
        # every k-subset (the naive oracle) on dense and sparse 6x6 graphs.
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, 6, 6, rng.choice([0.2, 0.5, 0.8]))
            k = rng.randint(1, 3)
            expect = naive_bipartite_witness(g.adj, 6, 6, k)
            res = has_kxk_independent_set(g, k)
            assert res.complete
            assert res.found is (expect is not None)
            if res.found:
                assert rectangle_is_independent(g, res.S, res.T)

    def test_oracle_equivalence_batch(self):
        rng = random.Random(17)
        cases = []
        for _ in range(200):
            n = rng.randint(2, 10)
            k = rng.randint(1, min(3, n))
            cases.append((n, k, random_graph(rng, n, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))))
        for n, k, g in cases:
            expect = naive_bipartite_witness(g.adj, n, n, k)
            res = has_kxk_independent_set(g, k)
            assert res.complete
            assert res.found is (expect is not None)
            if res.found:
                assert rectangle_is_independent(g, res.S, res.T)

    def test_transpose_invariance(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), rng.randint(2, 9), 0.4)
            k = rng.randint(1, 2)
            if k > min(g.n_left, g.n_right):
                continue
            assert (
                has_kxk_independent_set(g, k).found
                == has_kxk_independent_set(BipartiteGraph(g.n_right, g.n_left, g.cols), k).found
            )

    def test_monotone_under_edge_addition(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 8)
            k = rng.randint(1, 2)
            g = random_graph(rng, n, n, 0.3)
            found_before = has_kxk_independent_set(g, k).found
            v, w = rng.randrange(n), rng.randrange(n)
            rows = list(g.adj)
            rows[v] |= 1 << w
            found_after = has_kxk_independent_set(BipartiteGraph(n, n, tuple(rows)), k).found
            assert not (found_before is False and found_after is True)

    def test_no_witness_survives_family_augmentation(self):
        # A family whose union has no witness keeps that property under any
        # extra biclique: unions only gain edges.
        rng = random.Random(53)
        checked = 0
        while checked < 30:
            n = rng.randint(3, 8)
            k = rng.randint(1, 2)
            pairs = [
                (rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 4))
            ]
            from zarank.core import BicliqueFamily, union_of

            fam = BicliqueFamily.from_index_lists(n, k, pairs)
            if has_kxk_independent_set(union_of(fam), k).found:
                continue
            extra = (rng.sample(range(n), rng.randint(0, n)), rng.sample(range(n), rng.randint(0, n)))
            bigger = BicliqueFamily.from_index_lists(n, k, pairs + [extra])
            assert has_kxk_independent_set(union_of(bigger), k).found is False
            checked += 1

    def test_witness_order_matches_definition(self):
        rng = random.Random(41)
        sides = set()
        for _ in range(300):
            n_left, n_right = rng.randint(2, 9), rng.randint(2, 9)
            g = random_graph(rng, n_left, n_right, rng.choice([0.1, 0.3, 0.5, 0.7]))
            k = rng.randint(1, min(3, n_left, n_right))
            sides.add(g.edge_count / g.n_right <= g.edge_count / g.n_left)
            expect = first_combination_witness(g, k)
            res = has_kxk_independent_set(g, k)
            assert res.complete and res.found is (expect is not None)
            if res.found:
                assert (res.S, res.T) == expect
        assert sides == {True, False}  # both branch sides exercised

    def test_fallback_order_matches_definition(self, monkeypatch):
        # With a one-node probe every search that is not settled at the root
        # falls back to descending-degree order; its witness is pinned on the
        # same graphs as the probe's.
        monkeypatch.setattr(zarank.witness, "_PROBE_NODES", 1)
        rng = random.Random(41)
        orders_differ = 0
        for _ in range(300):
            n_left, n_right = rng.randint(2, 9), rng.randint(2, 9)
            g = random_graph(rng, n_left, n_right, rng.choice([0.1, 0.3, 0.5, 0.7]))
            k = rng.randint(1, min(3, n_left, n_right))
            expect = first_combination_witness(g, k, descending=True)
            res = has_kxk_independent_set(g, k)
            assert res.complete and res.found is (expect is not None)
            assert res.found is (naive_bipartite_witness(g.adj, n_left, n_right, k) is not None)
            if res.found:
                assert (res.S, res.T) == expect
                orders_differ += expect != first_combination_witness(g, k)
        assert orders_differ > 0  # the two orders are told apart

    def test_deep_k_needs_no_recursion(self):
        g = BipartiteGraph.empty(1200, 1200)
        res = has_kxk_independent_set(g, 1100)
        assert res.found is True and res.complete
        assert len(res.S) == len(res.T) == 1100
        assert rectangle_is_independent(g, res.S, res.T)

    def test_candidate_filter_cuts_absence_proof(self):
        # Seed-1 construct at (n, k, r) = (150, 10, 120): the search without
        # live-candidate filtering needs 270,045 nodes to prove absence.
        result = construct_until_verified(150, 10, [(15, 15)] * 120, RandomSource(1), 4)
        assert result.attempts == 1 and result.verification.found is False
        assert result.verification.nodes_explored < 270_045

    def test_fail_first_proof_cuts_absence_proof(self, union150):
        # The ascending-order search alone needs 151,632 nodes here.
        res = has_kxk_independent_set(union150, 10)
        assert res.found is False and res.complete
        assert res.nodes_explored < 100_000

    def test_one_budget_spans_probe_and_proof(self, union150):
        cap = zarank.witness._PROBE_NODES
        # A budget within the probe's cap never reaches the proof.
        res = has_kxk_independent_set(union150, 10, WitnessConfig(node_budget=cap))
        assert res.found is None and not res.complete
        assert res.nodes_explored == cap + 1
        # Just above the cap, the proof gets what the probe left over.
        budget = cap + 500
        res = has_kxk_independent_set(union150, 10, WitnessConfig(node_budget=budget))
        assert res.found is None and not res.complete
        assert cap < res.nodes_explored <= budget + 1

    def test_budget_exhaustion_is_unknown(self):
        g = BipartiteGraph(12, 12, tuple([1] * 12))  # all left -> right 0
        res = has_kxk_independent_set(g, 3, WitnessConfig(node_budget=2))
        assert res.found is None and not res.complete
        assert res.nodes_explored >= 2

    def test_determinism(self):
        rng = random.Random(37)
        g = random_graph(rng, 9, 9, 0.35)
        a = has_kxk_independent_set(g, 2)
        b = has_kxk_independent_set(g, 2)
        assert a == b

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            has_kxk_independent_set(BipartiteGraph.empty(3, 3), 4)


class TestDomains:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_domain_search_matches_compressed_copy(self, data):
        # Same witness, node count and completeness as searching the induced
        # subgraph renumbered, in both phases and under tight budgets; the
        # domains include empty ones and ones smaller than k.
        n_left, n_right = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        rows = tuple(data.draw(st.lists(st.integers(0, (1 << n_right) - 1), min_size=n_left, max_size=n_left)))
        g = BipartiteGraph(n_left, n_right, rows)
        k = data.draw(st.integers(1, min(3, n_left, n_right)))
        left = data.draw(st.integers(0, (1 << n_left) - 1))
        right = data.draw(st.integers(0, (1 << n_right) - 1))
        config = WitnessConfig(node_budget=data.draw(st.sampled_from([1, 3, 10_000_000])))
        with mock.patch.object(zarank.witness, "_PROBE_NODES", data.draw(st.sampled_from([1, 20_000]))):
            got = has_kxk_independent_set(g, k, config, left, right)
            assert got == compressed_domain_search(g, k, left, right, config)
        if got.found:
            assert all(left >> v & 1 for v in got.S) and all(right >> w & 1 for w in got.T)

    def test_full_domains_are_the_default(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9), rng.randint(2, 9), rng.choice([0.2, 0.5]))
            k = rng.randint(1, 2)
            full = (1 << g.n_left) - 1, (1 << g.n_right) - 1
            assert has_kxk_independent_set(g, k, None, *full) == has_kxk_independent_set(g, k)

    def test_small_domain_holds_no_witness(self):
        g = BipartiteGraph.empty(5, 5)
        for left, right in ((0, 0b11111), (0b11111, 0), (0b11, 0b11111)):
            res = has_kxk_independent_set(g, 3, None, left, right)
            assert (res.found, res.S, res.T, res.nodes_explored, res.complete) == (False, None, None, 0, True)

    def test_domain_outside_graph_rejected(self):
        g = BipartiteGraph.empty(3, 3)
        for left, right in ((0b1000, 0b111), (0b111, -1)):
            with pytest.raises(ValueError, match="domain"):
                has_kxk_independent_set(g, 1, None, left, right)
