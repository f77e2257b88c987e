import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_min_over_subsets, counting_lhs, naive_bipartite_witness, projective_plane_complement
from zarank.bounds import (
    Constants,
    asymmetric_condition,
    asymmetric_value_at,
    binary_entropy,
    bound_report,
    hansel_check,
    kst_check,
    kst_degree_lower_bound,
    log2_binomial,
    profile_from_family,
    profile_from_normalized,
    symmetric_condition,
)
from zarank.cli import main
from zarank.core import BicliqueFamily, BipartiteGraph, jsonable, load_json, save_json


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_symmetry_and_max(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
        assert binary_entropy(p) <= 1.0 + 1e-12


class TestLog2Binomial:
    def test_matches_integer_binomials(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert log2_binomial(float(n), k) == pytest.approx(
                    math.log2(math.comb(n, k)), abs=1e-9
                )

    def test_below_k_is_minus_inf(self):
        assert log2_binomial(2.5, 3) == -math.inf
        assert log2_binomial(-1.0, 2) == -math.inf


def complete_bipartite(n):
    return BipartiteGraph(n, n, tuple([(1 << n) - 1] * n))


class TestKstCheck:
    def test_complete_graph_satisfied_with_zero_lhs(self):
        res = kst_check(complete_bipartite(4), 2)
        assert res.lhs == 0.0 and res.rhs == 1.0 and res.satisfied

    def test_empty_graph_violated(self):
        res = kst_check(BipartiteGraph.empty(4, 4), 2)
        assert res.lhs == pytest.approx(4.0, abs=1e-9)
        assert not res.satisfied

    def test_perfect_matching_tight(self):
        g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 1), (2, 2)])
        res = kst_check(g, 2)
        assert res.lhs == pytest.approx(1.0, abs=1e-9)
        assert res.satisfied
        assert naive_bipartite_witness(g.adj, 3, 3, 2) is None

    def test_holds_on_oracle_certified_graphs(self):
        rng = random.Random(11)
        checked = 0
        while checked < 120:
            n = rng.randint(3, 10)
            k = rng.randint(2, 3)
            if k > n:
                continue
            p = rng.choice([0.5, 0.7, 0.9])
            adj = tuple(
                sum(1 << w for w in range(n) if rng.random() < p) for _ in range(n)
            )
            g = BipartiteGraph(n, n, adj)
            if naive_bipartite_witness(adj, n, n, k) is not None:
                continue
            assert kst_check(g, k).satisfied
            checked += 1

    def test_satisfied_matches_exact_rationals(self):
        rng = random.Random(13)
        for _ in range(1000):
            n = rng.randint(1, 12)
            k = rng.randint(1, n)
            cells = rng.sample(range(n * n), rng.randint(0, n * n))
            adj = [0] * n
            for cell in cells:
                adj[cell // n] |= 1 << cell % n
            check = kst_check(BipartiteGraph(n, n, tuple(adj)), k)
            assert check.satisfied == (counting_lhs(n, k, len(cells)) <= k - 1)

    @pytest.mark.parametrize("n, k, d", [(3, 2, 1), (5, 3, 1), (7, 2, 4), (7, 4, 1)])
    def test_holds_with_equality_on_oracle_certified_circulants(self, n, k, d):
        # At these (n, k) and average degree d the bound holds with equality:
        # n * C(n - d, k) == (k - 1) * C(n, k). Row v is {v + s mod n : s in S}.
        assert n * math.comb(n - d, k) == (k - 1) * math.comb(n, k)
        certified = 0
        for shifts in combinations(range(n), d):
            adj = tuple(sum(1 << (v + s) % n for s in shifts) for v in range(n))
            if naive_bipartite_witness(adj, n, n, k) is None:
                assert kst_check(BipartiteGraph(n, n, adj), k).satisfied
                certified += 1
        assert certified >= 3

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_projective_plane_complement_meets_the_bound(self, p):
        # The exact lhs is 1 = k - 1; the reported float reads 1.0000000000000013
        # at p = 2 and 3, 1.0 at p = 5 and 0.9999999999999778 at p = 7.
        n = p * p + p + 1
        g = BipartiteGraph(n, n, tuple(projective_plane_complement(p)))
        assert g.edge_count == n * (n - p - 1)
        assert naive_bipartite_witness(g.adj, n, n, 2) is None
        check = kst_check(g, 2)
        assert check.satisfied and check.rhs == 1.0
        assert check.lhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_projective_plane_complement_through_the_cli(self, tmp_path, capsys, p):
        # One biclique {v} x (lines not through v) per point.
        n = p * p + p + 1
        rows = projective_plane_complement(p)
        bicliques = [{"left": [v], "right": [j for j in range(n) if rows[v] >> j & 1]} for v in range(n)]
        family = tmp_path / "family.json"
        save_json(family, {"n": n, "k": 2, "bicliques": bicliques})
        assert main(["verify", "--family", str(family)]) == 0
        assert capsys.readouterr().out.startswith("no 2x2 independent set (complete search")
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--family", str(family), "--json-out", str(out)]) == 0
        assert "counting:  lhs=1 rhs=1 satisfied=True\n" in capsys.readouterr().out
        assert load_json(out)["bounds"]["kst"]["satisfied"] is True


class TestKstDegreeLowerBound:
    def test_reference_value(self):
        res = kst_degree_lower_bound(10000, 100)
        assert res.degree_bound == pytest.approx(618.0892242814992, rel=1e-12)
        assert res.edge_bound == pytest.approx(10000 * res.degree_bound, rel=1e-12)

    def test_n_equals_k_instantiation(self):
        n = k = 10
        ratio = math.log2(n / (k - 1))
        assert kst_degree_lower_bound(n, k).degree_bound == pytest.approx(
            ratio / (k + ratio), rel=1e-12
        )

    def test_monotone_decreasing_in_k(self):
        n = 10 ** 6
        lo = int(n ** 0.1) + 1
        hi = int(n ** 0.9)
        ks = sorted(set(int(lo * (hi / lo) ** (i / 40)) for i in range(41)))
        values = [kst_degree_lower_bound(n, k).degree_bound for k in ks]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kst_degree_lower_bound(10, 1)


class TestHanselCheck:
    def test_rhs_for_n16_k2(self):
        res = hansel_check([16, 16, 16, 16], 16, 2)
        assert res.rhs == pytest.approx(64.0, abs=1e-12)
        assert res.lhs == 64.0 and res.satisfied

    def test_single_edge_tight_on_two_vertices(self):
        res = hansel_check([2], 2, 2)
        assert res.rhs == pytest.approx(2.0, abs=1e-12)
        assert res.satisfied

    def test_empty_sizes_never_satisfied_below_n(self):
        res = hansel_check([], 4, 2)
        assert res.lhs == 0.0 and res.rhs > 0.0 and not res.satisfied

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hansel_check([1], 4, 1)


class TestSymmetricCondition:
    def test_two_branch_sum(self):
        profile = profile_from_normalized(100, 10, [(0.5, 0.5), (2.0, 2.0)])
        assert symmetric_condition(profile, 0.0).lhs == pytest.approx(2.25, abs=1e-12)

    def test_boundary_alpha_one(self):
        profile = profile_from_normalized(100, 10, [(1.0, 1.0)] * 5)
        assert symmetric_condition(profile, 0.0).lhs == pytest.approx(5.0, abs=1e-12)

    def test_empty_profile(self):
        profile = profile_from_normalized(100, 10, [])
        res = symmetric_condition(profile, 1.0)
        assert res.lhs == 0.0 and not res.satisfied

    def test_asymmetric_entry_rejected(self):
        profile = profile_from_normalized(100, 10, [(0.5, 0.6)])
        with pytest.raises(ValueError):
            symmetric_condition(profile, 1.0)


class TestAsymmetricCondition:
    def test_single_unit_entry(self):
        profile = profile_from_normalized(100, 10, [(1.0, 1.0)])
        res = asymmetric_condition(profile, 0.0)
        # Options: X={0} gives 1, X={} gives 2 H(1/2) = 2.
        assert res.min_over_x == pytest.approx(1.0, abs=1e-12)
        assert res.argmin_x == frozenset({0})

    def test_matches_brute_force_small(self):
        rng = random.Random(23)
        for _ in range(80):
            r = rng.randint(1, 8)
            pairs = [
                (rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)) for _ in range(r)
            ]
            profile = profile_from_normalized(64, 8, pairs)
            res = asymmetric_condition(profile, 0.0)
            terms = [(e.product_term, e.entropy_term) for e in profile.entries]
            brute, _ = brute_min_over_subsets(terms)
            assert res.min_over_x == brute
            assert asymmetric_value_at(profile, res.argmin_x) == res.min_over_x

    def test_symmetric_entries_product_branch_until_two(self):
        for alpha in (0.3, 1.0, 1.7, 2.0, 2.4, 5.0):
            profile = profile_from_normalized(100, 10, [(alpha, alpha)])
            e = profile.entries[0]
            assert e.entropy_term == pytest.approx(2 * alpha, abs=1e-12)
            res = asymmetric_condition(profile, 0.0)
            expected = alpha * alpha if alpha <= 2.0 else 2 * alpha
            assert res.min_over_x == pytest.approx(expected, abs=1e-12)

    def test_degenerate_entry_skipped(self):
        # An empty biclique adds 0 to every X and stays out of the argmin,
        # which keeps the profile's own indices.
        pairs = [(1.0, 3.0), (0.0, 0.0), (2.0, 0.5)]
        full = asymmetric_condition(profile_from_normalized(100, 10, pairs), 1.0)
        live = asymmetric_condition(profile_from_normalized(100, 10, pairs[::2]), 1.0)
        assert full.min_over_x == live.min_over_x
        assert full.argmin_x == {2 * j for j in live.argmin_x}
        assert 1 not in full.argmin_x
        empty = asymmetric_condition(profile_from_normalized(100, 10, [(0.0, 0.0)]), 1.0)
        assert empty.min_over_x == 0.0 and empty.argmin_x == frozenset()


class TestProfileFromFamily:
    def test_balanced_unit(self):
        fam = BicliqueFamily.from_index_lists(
            100, 10, [(list(range(10)), list(range(10)))]
        )
        e = profile_from_family(fam).entries[0]
        assert (e.alpha, e.beta, e.p) == (1.0, 1.0, 0.5)

    def test_asymmetric_entry(self):
        fam = BicliqueFamily.from_index_lists(
            100, 10, [(list(range(5)), list(range(20)))]
        )
        e = profile_from_family(fam).entries[0]
        assert e.alpha == pytest.approx(0.5)
        assert e.beta == pytest.approx(2.0)
        assert e.p == pytest.approx(0.2)

    def test_empty_biclique_degenerate(self):
        fam = BicliqueFamily.from_index_lists(100, 10, [([], [])])
        e = profile_from_family(fam).entries[0]
        assert e.degenerate and e.p == 0.0 and e.entropy_term == 0.0

    def test_sizes_recoverable_from_normalized_values(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(4, 200)
            k = rng.randint(1, n)
            pairs = [
                (rng.randint(0, n), rng.randint(0, n)) for _ in range(rng.randint(1, 6))
            ]
            fam = BicliqueFamily.from_index_lists(
                n, k, [(list(range(m)), list(range(m2))) for m, m2 in pairs]
            )
            profile = profile_from_family(fam)
            for (m, m2), e in zip(pairs, profile.entries):
                assert abs(e.alpha * n / k - m) < 1e-9
                assert abs(e.beta * n / k - m2) < 1e-9

    def test_regime_flag(self):
        # k = 10 = 100^(1/2) sits inside [100^0.1, 100^0.9]; alpha = beta = 1.
        fam = BicliqueFamily.from_index_lists(
            100, 10, [(list(range(10)), list(range(10)))]
        )
        assert profile_from_family(fam).in_theorem_regime
        # k = 2 < 100^0.1 * ... actually 100^0.1 ~ 1.58, so k=2 is inside; use alpha far out.
        fam2 = BicliqueFamily.from_index_lists(100, 10, [([0], [0])])
        assert not profile_from_family(fam2).in_theorem_regime


class TestConstants:
    @pytest.mark.parametrize("name, value", [("A", 0.0), ("B", -1.0), ("C", -0.5), ("D", math.nan)])
    def test_non_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"constant {name} must be positive"):
            Constants(**{name: value})


class TestBoundReport:
    def test_report_fields_serialize(self):
        fam = BicliqueFamily.from_index_lists(
            12, 3, [(list(range(6)), list(range(6))), ([6, 7], [8, 9])]
        )
        report = bound_report(fam)
        doc = jsonable(report)
        assert doc["n"] == 12 and doc["k"] == 3 and doc["r"] == 2
        assert set(doc["thresholds"]) == {"A", "B", "C", "D"}
        assert set(doc["kst"]) == {"lhs", "rhs", "satisfied", "degree_bound", "edge_bound"}
        assert set(doc["hansel"]) == {"lhs", "rhs", "satisfied"}
        assert doc["symmetric_lhs"] is not None

    def test_counting_check_reads_the_union_graph(self):
        rng = random.Random(17)
        for _ in range(30):
            n, k = rng.randint(2, 12), 2
            pairs = [
                (rng.sample(range(n), rng.randint(0, n)), rng.sample(range(n), rng.randint(0, n)))
                for _ in range(rng.randint(0, 6))
            ]
            fam = BicliqueFamily.from_index_lists(n, k, pairs)
            edges = {(v, w) for left, right in pairs for v in left for w in right}
            check = kst_check(BipartiteGraph.from_edges(n, n, edges), k)
            report = bound_report(fam)
            assert (report.kst.lhs, report.kst.rhs, report.kst.satisfied) == tuple(check)

    def test_asymmetric_family_has_no_symmetric_lhs(self):
        fam = BicliqueFamily.from_index_lists(12, 3, [([0, 1], [2, 3, 4])])
        assert bound_report(fam).symmetric_lhs is None

    def test_asymmetric_argmin_uses_family_indices(self):
        # The empty biclique at index 0 is left out of the minimisation; the
        # argmin must still name bicliques by their index in the family.
        block, shifted = list(range(10)), list(range(5, 15))
        fam = BicliqueFamily.from_index_lists(
            20, 3, [([], []), (block, block), (shifted, shifted), ([0, 1], [0, 1])]
        )
        assert bound_report(fam).asymmetric_argmin_x == (1, 2, 3)
