import math
import random
from fractions import Fraction

import pytest

from oracles import decimal_certificate, enumerate_miss_probability, exact_certificate
from zarank.construct import (
    certify_union_bound,
    construct_until_verified,
    miss_probability,
    miss_probability_bound,
    miss_probability_exact,
    miss_probability_exact_fraction,
    miss_probability_relaxed,
    random_family,
)
from zarank.core import BicliqueFamily, RandomSource, union_of
from zarank.witness import has_kxk_independent_set


class TestMissExact:
    def test_small_case_eleven_thirtysixths(self):
        assert miss_probability_exact_fraction(4, 2, 2, 2) == Fraction(11, 36)

    def test_empty_side_always_misses(self):
        assert miss_probability_exact(10, 3, 0, 5) == 1.0

    def test_full_k_cannot_be_avoided(self):
        assert miss_probability_exact(6, 6, 1, 1) == 0.0

    def test_matches_enumeration(self):
        for n, k, m, n2 in [(4, 2, 2, 2), (5, 2, 1, 3), (5, 3, 2, 2), (6, 2, 3, 1), (6, 4, 2, 3)]:
            assert miss_probability_exact_fraction(n, k, m, n2) == enumerate_miss_probability(
                n, k, m, n2
            )

    def test_monotone_non_increasing(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(3, 40)
            k = rng.randint(1, n - 1)
            m = rng.randint(0, n - 1)
            n2 = rng.randint(0, n - 1)
            base = miss_probability_exact_fraction(n, k, m, n2)
            assert miss_probability_exact_fraction(n, k, m + 1, n2) <= base
            assert miss_probability_exact_fraction(n, k, m, n2 + 1) <= base
            assert miss_probability_exact_fraction(n, k + 1, m, n2) <= base


class TestMissRelaxedAndBound:
    def test_relaxed_unit(self):
        assert miss_probability_relaxed(1.0, 1.0) == pytest.approx(
            0.6004235991062719, abs=1e-14
        )

    def test_relaxed_zero_is_one(self):
        assert miss_probability_relaxed(0.0, 0.0) == 1.0

    def test_relaxed_limit_vanishes(self):
        assert miss_probability_relaxed(800.0, 900.0) < 1e-300

    def test_bound_values(self):
        assert miss_probability_bound(1.0) == pytest.approx(
            math.exp(-1.0 / 3.0), abs=1e-14
        )
        assert miss_probability_bound(0.0) == 1.0
        assert miss_probability_bound(2.0) == pytest.approx(
            0.5413411329464508, abs=1e-12
        )

    def test_chain_exact_below_relaxed(self):
        # Exhaustive at small n, sampled up to the contract's n = 200.
        for n in range(2, 25):
            for k in range(1, n + 1):
                for m in range(0, n + 1):
                    exact = miss_probability_exact(n, k, m, m)
                    relaxed = miss_probability_relaxed(m * k / n, m * k / n)
                    assert exact <= relaxed + 1e-12
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 200)
            k = rng.randint(1, n)
            m = rng.randint(0, n)
            n2 = rng.randint(0, n)
            exact = miss_probability_exact(n, k, m, n2)
            relaxed = miss_probability_relaxed(m * k / n, n2 * k / n)
            assert exact <= relaxed + 1e-12

    def test_relaxed_below_bound_on_grid(self):
        for j in range(1, 2001):
            alpha = 0.005 * j
            assert miss_probability_relaxed(alpha, alpha) <= miss_probability_bound(alpha)

    def test_combined_struct(self):
        mp = miss_probability(100, 10, 10, 10)
        assert mp.exact <= mp.relaxed <= mp.bound
        assert miss_probability(100, 10, 5, 20).bound is None


class TestCertificate:
    def test_empty_sizes_not_certified(self):
        cert = certify_union_bound(10, 3, [])
        assert cert.log2_failure_bound == pytest.approx(
            2 * math.log2(math.comb(10, 3)), abs=1e-12
        )
        assert not cert.certified

    def test_full_biclique_is_minus_infinity(self):
        cert = certify_union_bound(6, 3, [(6, 6)])
        assert cert.log2_failure_bound == -math.inf and cert.certified

    def test_forty_bicliques_match_decimal_oracle(self):
        sizes = [(8, 8)] * 40
        cert = certify_union_bound(60, 8, sizes, "exact")
        oracle = float(decimal_certificate(60, 8, sizes))
        assert cert.log2_failure_bound == pytest.approx(oracle, abs=1e-9)
        assert cert.certified == (oracle < 0)

    def test_exact_certifies_whenever_relaxed_does(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(6, 60)
            k = rng.randint(2, max(2, n // 4))
            r = rng.randint(0, 30)
            sizes = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(r)]
            exact = certify_union_bound(n, k, sizes, "exact")
            relaxed = certify_union_bound(n, k, sizes, "relaxed")
            assert exact.log2_failure_bound <= relaxed.log2_failure_bound + 1e-9
            if relaxed.certified:
                assert exact.certified

    def test_exact_verdict_matches_rational_oracle(self):
        # A random grid of sizes, with repeats, empty sides and k up to n.
        rng = random.Random(61)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(2, 40)
            k = rng.randint(1, n)
            shapes = [(rng.randint(0, n), rng.randint(0, n)) for _ in range(rng.randint(1, 3))]
            sizes = [rng.choice(shapes) for _ in range(rng.randint(0, 30))]
            cert = certify_union_bound(n, k, sizes, "exact")
            assert cert.certified == exact_certificate(n, k, sizes)
            for log2_miss, (m, n2) in zip(cert.per_index_log2_miss, sizes):  # each size's own float
                miss = miss_probability_exact_fraction(n, k, m, n2)
                assert log2_miss == (math.log2(miss.numerator) - math.log2(miss.denominator) if miss else -math.inf)
            verdicts.add(cert.certified)
        assert verdicts == {True, False}

    def test_product_of_exactly_one_is_not_certified(self):
        # A side of n - k vertices against a full side misses the k x k
        # rectangle with probability 1 / C(n, k), so the two orientations
        # together meet the bound with equality; so do empty sides at k = n.
        cases = [(n, k, [(n - k, n), (n, n - k)]) for n in range(2, 30) for k in range(1, n)]
        cases += [(n, n, [(0, n), (n, 0), (0, 0)] * 3) for n in range(1, 12)]
        cases += [(6, 2, [(4, 6), (0, 6), (6, 4), (0, 3)]), (1, 1, [])]
        for n, k, sizes in cases:
            assert not exact_certificate(n, k, sizes)
            assert not certify_union_bound(n, k, sizes, "exact").certified
            # one more biclique, which misses with probability below 1, certifies
            assert certify_union_bound(n, k, sizes + [(1, 1)], "exact").certified

    def test_size_validation(self):
        with pytest.raises(ValueError):
            certify_union_bound(5, 2, [(6, 1)])


class TestRandomFamily:
    def test_full_size_is_unique_subset(self):
        fam = random_family(5, 2, [(5, 5)], RandomSource(1))
        assert fam.left[0] == fam.right[0] == (1 << 5) - 1

    def test_same_seed_identical(self):
        sizes = [(3, 4), (2, 2), (5, 1)]
        a = random_family(9, 2, sizes, RandomSource(99, 1))
        b = random_family(9, 2, sizes, RandomSource(99, 1))
        assert a == b

    def test_sizes_respected(self):
        fam = random_family(12, 3, [(4, 7), (0, 2)], RandomSource(5))
        assert fam.side_cardinalities() == [(4, 7), (0, 2)]

    def test_marginal_membership_frequency(self):
        # Each vertex lands in a 5-subset of 20 with probability 1/4.
        draws = 200_000
        fam = random_family(20, 4, [(5, 5)] * draws, RandomSource(123))
        hits = sum(mask & 1 for mask in fam.left)
        sigma = math.sqrt(0.25 * 0.75 / draws)
        assert abs(hits / draws - 0.25) < 3 * sigma

    def test_size_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_family(4, 2, [(5, 1)], RandomSource(0))


class TestConstructUntilVerified:
    def test_full_biclique_first_attempt(self):
        result = construct_until_verified(6, 3, [(6, 6)], RandomSource(2), 4)
        assert result.attempts == 1
        assert result.verification.found is False

    def test_empty_sizes_always_fail(self):
        result = construct_until_verified(6, 3, [], RandomSource(2), 3)
        assert result.attempts == 3
        assert result.verification.found is True
        assert len(result.verification.S) == len(result.verification.T) == 3
        # The witness is genuine evidence against the (empty) union graph.
        g = union_of(result.family)
        t_mask = sum(1 << w for w in result.verification.T)
        assert all(g.adj[v] & t_mask == 0 for v in result.verification.S)

    def test_certified_sizes_verify_quickly(self):
        sizes = [(8, 8)] * 70
        assert certify_union_bound(60, 8, sizes).certified
        for seed in range(3):
            result = construct_until_verified(60, 8, sizes, RandomSource(seed), 3)
            assert result.attempts <= 3
            assert has_kxk_independent_set(union_of(result.family), 8).found is False

    def test_deterministic_given_seed(self):
        sizes = [(8, 8)] * 70
        a = construct_until_verified(60, 8, sizes, RandomSource(11), 3)
        b = construct_until_verified(60, 8, sizes, RandomSource(11), 3)
        assert a.family == b.family and a.attempts == b.attempts
