import contextlib
import csv
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zarank.forks
import zarank.witness
from oracles import (
    brown_graph_complement,
    compressed_domain_search,
    naive_bipartite_witness,
    one_sided_witness,
    projective_plane_complement,
)
from zarank.construct import construct_until_verified, random_family
from zarank.cli import main
from zarank.core import BipartiteGraph, RandomSource, load_json, save_json, union_of
from zarank.forks import OrderedForks
from zarank.witness import has_kxk_independent_set


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


def full_filter_search(non_nbrs, domain, k, threshold, budget, live, first, stop):
    """``core._search`` as it was before its candidate filter could stop
    early: each node's filter scans every later candidate in one list
    comprehension. A generator like it, which yields "budget" when a tick
    fails and goes on from that node if resumed. Kept here only as the
    reference for node counts."""
    chosen = []
    stack = [[domain, live, first, stop]]
    while stack:
        frame = stack[-1]
        common, live, i, stop = frame
        if i >= stop:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        frame[2] = i + 1
        pos = live[i]
        shrunk = common & non_nbrs[pos]
        if not budget.tick():
            yield "budget"
        need = k - len(chosen)
        if need == 1:
            chosen.append(pos)
            yield shrunk, chosen
            return
        rest = [p for p in live[i + 1 :] if (shrunk & non_nbrs[p]).bit_count() >= threshold]
        if len(rest) >= need - 1:
            chosen.append(pos)
            stack.append([shrunk, rest, 0, len(rest) - need + 2])
    yield None


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
        monkeypatch.setattr(zarank.forks, "_usable_cpus", lambda: 1)  # 300 tiny proofs: no forks
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

    def test_early_exit_filter_changes_only_time(self, monkeypatch, union150):
        # The filter gives up on a node once too many candidates failed. The
        # verdict agrees with the naive oracle, and the whole result, node
        # count included, with the reference search that scans every
        # candidate; in both phases and under tight budgets.
        monkeypatch.setattr(zarank.forks, "_usable_cpus", lambda: 1)  # 400 tiny proofs: no forks
        rng = random.Random(59)
        for _ in range(400):
            n_left, n_right = rng.randint(2, 12), rng.randint(2, 12)
            g = random_graph(rng, n_left, n_right, rng.choice([0.1, 0.3, 0.5, 0.7]))
            k = rng.randint(1, min(4, n_left, n_right))
            budget = rng.choice([3, 12, 10_000_000])
            monkeypatch.setattr(zarank.witness, "_PROBE_NODES", rng.choice([1, 20_000]))
            got = has_kxk_independent_set(g, k, budget)
            with monkeypatch.context() as patched:
                patched.setattr(zarank.witness, "_search", full_filter_search)
                assert has_kxk_independent_set(g, k, budget) == got
            if got.complete:
                assert got.found is (naive_bipartite_witness(g.adj, n_left, n_right, k) is not None)
        # The seed-1 n = 150 proof, 85,215 nodes with either filter.
        monkeypatch.setattr(zarank.witness, "_PROBE_NODES", 20_000)
        monkeypatch.setattr(zarank.witness, "_search", full_filter_search)
        assert has_kxk_independent_set(union150, 10).nodes_explored == 85_215

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
        res = has_kxk_independent_set(union150, 10, cap)
        assert res.found is None and not res.complete
        assert res.nodes_explored == cap + 1
        # Just above the cap, the proof gets what the probe left over.
        budget = cap + 500
        res = has_kxk_independent_set(union150, 10, budget)
        assert res.found is None and not res.complete
        assert cap < res.nodes_explored <= budget + 1

    def test_budget_exhaustion_is_unknown(self):
        g = BipartiteGraph(12, 12, tuple([1] * 12))  # all left -> right 0
        res = has_kxk_independent_set(g, 3, 2)
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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node budget must be >= 1"):
            has_kxk_independent_set(BipartiteGraph.empty(3, 3), 1, budget)


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
        budget = data.draw(st.sampled_from([1, 3, 10_000_000]))
        probe = data.draw(st.sampled_from([1, 20_000]))
        # Serial proofs: a fork per tiny proof would dominate the test's time.
        with mock.patch.object(zarank.witness, "_PROBE_NODES", probe), mock.patch.object(
            zarank.forks, "_usable_cpus", lambda: 1
        ):
            got = has_kxk_independent_set(g, k, budget, left, right)
            assert got == compressed_domain_search(g, k, left, right, budget)
        if got.found:
            assert all(left >> v & 1 for v in got.S) and all(right >> w & 1 for w in got.T)

    def test_full_domains_are_the_default(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 9), rng.randint(2, 9), rng.choice([0.2, 0.5]))
            k = rng.randint(1, 2)
            full = (1 << g.n_left) - 1, (1 << g.n_right) - 1
            assert has_kxk_independent_set(g, k, left=full[0], right=full[1]) == has_kxk_independent_set(g, k)

    def test_small_domain_holds_no_witness(self):
        g = BipartiteGraph.empty(5, 5)
        for left, right in ((0, 0b11111), (0b11111, 0), (0b11, 0b11111)):
            res = has_kxk_independent_set(g, 3, left=left, right=right)
            assert (res.found, res.S, res.T, res.nodes_explored, res.complete) == (False, None, None, 0, True)

    def test_domain_outside_graph_rejected(self):
        g = BipartiteGraph.empty(3, 3)
        for left, right in ((0b1000, 0b111), (0b111, -1)):
            with pytest.raises(ValueError, match="domain"):
                has_kxk_independent_set(g, 1, left=left, right=right)


class TestAbsentCheck:
    """An absent verdict on the whole of a square graph is checked against
    the counting bound before it leaves the search."""

    @staticmethod
    def claims_absence(*args):
        yield None

    def test_absence_claimed_on_a_square_graph_with_a_witness_raises(self, monkeypatch):
        monkeypatch.setattr(zarank.witness, "_search", self.claims_absence)
        with pytest.raises(AssertionError, match="absent verdict on a graph that fails the k=2 counting check"):
            has_kxk_independent_set(BipartiteGraph.empty(4, 4), 2)
        with pytest.raises(AssertionError, match="fails the k=2 counting check"):
            construct_until_verified(8, 2, [(1, 1)] * 3, RandomSource(1, 0))

    def test_domains_and_non_square_graphs_are_not_checked(self, monkeypatch):
        monkeypatch.setattr(zarank.witness, "_search", self.claims_absence)
        absent = (False, None, None, 1, True)
        square, full = BipartiteGraph.empty(4, 4), 0b1111
        for left, right in ((full, None), (None, full), (full, full), (0b111, 0b1011)):
            res = has_kxk_independent_set(square, 2, left=left, right=right)
            assert (res.found, res.S, res.T, res.nodes_explored, res.complete) == absent
        for g in (BipartiteGraph.empty(4, 5), BipartiteGraph.empty(5, 4)):
            res = has_kxk_independent_set(g, 2)
            assert (res.found, res.S, res.T, res.nodes_explored, res.complete) == absent


class TestSplitProof:
    """The proof phase split over forked workers, started while the probe
    still runs, reports exactly what the serial search reports: verdict,
    witness, node count and completeness."""

    @staticmethod
    def use_cpus(monkeypatch, count):
        # The proof splits over the CPUs this process may use; the pool's
        # other guards (threads, multiprocessing children) stay on.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    def search(self, monkeypatch, g, k, budget, workers):
        self.use_cpus(monkeypatch, workers)
        result = has_kxk_independent_set(g, k, budget)
        assert multiprocessing.active_children() == []
        return result

    @staticmethod
    def count_calls(monkeypatch, owner, name, counted=lambda *args: True):
        calls = []
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: counted(*args) and calls.append(1) or method(*args))
        return calls

    def count_merges(self, monkeypatch):
        # Proofs run once the probe has stopped, on a pool that forked workers.
        return self.count_calls(monkeypatch, zarank.witness._Proof, "run", lambda proof, budget: proof.forks.procs)

    def test_split_matches_serial(self, monkeypatch):
        # Small probe caps and slices. Budgets run out inside the slice,
        # between the slice and the probe's cap, at the proof's root, at its
        # first branch node and mid-proof, and some are full ones; a one-node
        # probe leaves every witness to the proof.
        forks = self.count_calls(monkeypatch, OrderedForks, "_fork")
        merges = self.count_merges(monkeypatch)
        rng = random.Random(53)
        outcomes = set()
        for case in range(16):
            probe = rng.choice([1, 1, 5, 12, 40])
            piece = rng.randint(1, min(probe, 8))
            monkeypatch.setattr(zarank.witness, "_PROBE_NODES", probe)
            monkeypatch.setattr(zarank.witness, "_PROBE_SLICE", piece)
            while True:
                g = random_graph(rng, rng.randint(6, 16), rng.randint(6, 16), rng.choice([0.2, 0.35, 0.5]))
                k = rng.randint(2, min(4, g.n_left, g.n_right))
                full = self.search(monkeypatch, g, k, 10_000_000, 1)
                if full.nodes_explored > piece + 10:
                    break
            nodes = full.nodes_explored
            workers = 2 + case % 2
            budgets = {piece - 1, piece, piece + 1, probe, probe + 1, probe + 2, probe + 3}
            budgets |= {(probe + nodes) // 2, nodes - 1, nodes, 10_000_000}
            for budget in sorted(budgets - {0}):
                expect = self.search(monkeypatch, g, k, budget, 1)
                assert self.search(monkeypatch, g, k, budget, workers) == expect
                outcomes.add((expect.found, expect.nodes_explored > probe + 1))
        assert len(merges) > 40
        assert len(forks) > len(merges)  # some probes settled after their workers started
        # found, absent and out of budget, each also past the proof's root
        assert {(True, True), (False, True), (None, True), (None, False)} <= outcomes

    def test_split_keeps_serial_node_count(self, monkeypatch, union150):
        for workers in (1, 2, 3):
            res = self.search(monkeypatch, union150, 10, 10_000_000, workers)
            assert (res.found, res.nodes_explored, res.complete) == (False, 85_215, True)
        # budgets that run out early in the proof, mid-proof and at its last node
        for budget in (30_000, 60_000, 85_214):
            expect = self.search(monkeypatch, union150, 10, budget, 1)
            assert expect.found is None and expect.nodes_explored == budget + 1
            for workers in (2, 3):
                assert self.search(monkeypatch, union150, 10, budget, workers) == expect

    def test_probe_witness_after_the_slice_kills_the_workers(self, monkeypatch):
        # The probe finds this union's witness 4,038 nodes in, after the
        # workers started; they are killed and the probe's witness stands.
        family = random_family(150, 10, [(15, 15)] * 111, RandomSource(2))
        g = union_of(family)
        exits = []
        close = multiprocessing.process.BaseProcess.close

        def recorded_close(proc):  # the pool closes each worker once it has reaped it
            exits.append(proc.exitcode)
            close(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "close", recorded_close)
        expect = self.search(monkeypatch, g, 10, 10_000_000, 1)
        assert expect.found is True
        assert zarank.witness._PROBE_SLICE < expect.nodes_explored == 4_038 <= zarank.witness._PROBE_NODES
        assert exits == []
        merges = self.count_merges(monkeypatch)
        assert self.search(monkeypatch, g, 10, 10_000_000, 3) == expect
        assert exits == [-signal.SIGKILL] * 3 and merges == []

    def test_no_worker_outlives_a_search(self, monkeypatch, union150):
        self.use_cpus(monkeypatch, 2)
        assert has_kxk_independent_set(union150, 10).found is False
        assert multiprocessing.active_children() == []
        res = has_kxk_independent_set(union150, 10, 50_000)
        assert res.found is None and multiprocessing.active_children() == []
        # a witness that only the proof finds
        monkeypatch.setattr(zarank.witness, "_PROBE_NODES", 1)
        res = has_kxk_independent_set(union150, 7)
        assert res.found is True and res.nodes_explored > 2
        assert multiprocessing.active_children() == []

    def test_lost_worker_raises(self, monkeypatch, union150):
        # Each worker exits at once, while the parent still has 18,000 probe
        # nodes to search; the merge that follows the probe raises.
        self.use_cpus(monkeypatch, 3)  # three workers
        monkeypatch.setattr(zarank.forks, "_work", lambda *args: os._exit(1))
        run = zarank.witness._Proof.run

        def run_after_exits(proof, budget):
            assert budget.nodes == zarank.witness._PROBE_NODES + 1
            for proc in proof.forks.procs:
                proc.join(timeout=10)
            assert [proc.exitcode for proc in proof.forks.procs] == [1, 1, 1]
            return run(proof, budget)

        monkeypatch.setattr(zarank.witness._Proof, "run", run_after_exits)
        with pytest.raises(RuntimeError, match="worker"):
            has_kxk_independent_set(union150, 10)
        assert multiprocessing.active_children() == []

    def test_exited_worker_raises_while_its_pipe_stays_open(self, monkeypatch, union150):
        # Copies of the workers' pipe ends held here keep the parent from
        # reading EOF; the workers' exit sentinels still show them gone.
        held = []
        fork = multiprocessing.get_context("fork")
        pipe = fork.Pipe

        def held_pipe():
            conn, child_conn = pipe()
            held.append(os.dup(child_conn.fileno()))
            return conn, child_conn

        self.use_cpus(monkeypatch, 3)  # three workers
        monkeypatch.setattr(fork, "Pipe", held_pipe)
        monkeypatch.setattr(zarank.forks, "_work", lambda *args: os._exit(1))
        try:
            with pytest.raises(RuntimeError, match="worker"):
                has_kxk_independent_set(union150, 10)
        finally:
            for fd in held:
                os.close(fd)
        assert len(held) == 3 and multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds through /proc")
    def test_no_fd_or_child_outlives_a_pool(self, monkeypatch, union150, tmp_path):
        # This process's open fds and live children are the same before and
        # after a split proof that the probe settles, one that merges to
        # absence, one that raises on a lost worker, a parallel sweep, and a
        # pool that is closed twice while it and its workers stay referenced.
        settled = union_of(random_family(150, 10, [(15, 15)] * 111, RandomSource(2)))
        family = {"n": 8, "k": 2, "bicliques": [{"left": [0], "right": [0]}]}
        save_json(tmp_path / "family.json", family)
        spec = {"command": "verify", "grid": {"k": [1, 2], "seed": [0, 1]}, "params": {"family": "family.json"}}
        save_json(tmp_path / "spec.json", dict(spec, output_csv="out.csv"))

        def lost_worker():
            with monkeypatch.context() as patched:
                patched.setattr(zarank.forks, "_work", lambda *args: os._exit(1))
                with pytest.raises(RuntimeError, match="worker"):
                    has_kxk_independent_set(union150, 10)
            return True

        kept = []

        def closed_pool_kept():
            with OrderedForks(lambda task: task, 3, 2) as pool:
                kept.append((pool, pool.procs))  # the pool and its worker objects
                assert len(pool.procs) == 2 and list(pool) == [0, 1, 2]
            pool.close()
            return True

        cases = [
            lambda: has_kxk_independent_set(settled, 10).found is True,
            lambda: has_kxk_independent_set(union150, 10).found is False,
            lost_worker,
            lambda: main(["sweep", "--spec", str(tmp_path / "spec.json"), "--jobs", "2", "--force"]) == 1,
            closed_pool_kept,
        ]
        self.use_cpus(monkeypatch, 3)
        for case in cases:
            before = sorted(os.listdir("/proc/self/fd")), multiprocessing.active_children()
            assert case()
            assert (sorted(os.listdir("/proc/self/fd")), multiprocessing.active_children()) == before

    def test_tickets_hand_out_each_branch_once(self, monkeypatch):
        # Three processes take from one pool's token: every task once, in
        # order per taker, then None for all.
        def taker(pool, conn):
            conn.send(list(iter(pool._take, None)))
            conn.recv()

        self.use_cpus(monkeypatch, 3)
        monkeypatch.setattr(zarank.forks, "_work", taker)
        with OrderedForks(lambda task: task, 300, 2) as pool:
            taken = [list(iter(pool._take, None))] + [conn.recv() for conn in pool.conns]
            assert pool._take() is None
        assert all(tasks == sorted(tasks) for tasks in taken)
        assert sorted(sum(taken, [])) == list(range(300))

    def test_worker_lost_holding_the_ticket_raises(self, monkeypatch):
        # A worker killed between reading the token and writing back the next
        # one leaves no token, and the other worker waits for it for ever; the
        # caller sees the first worker's exit and raises.
        self.use_cpus(monkeypatch, 2)
        monkeypatch.setattr(zarank.forks, "_work", lambda pool, conn: os.read(pool.fds[0], 8) and os._exit(1))
        with OrderedForks(lambda task: task, 5, 2) as pool:
            assert len(pool.procs) == 2
            with pytest.raises(RuntimeError, match="worker"):
                list(pool)
        assert multiprocessing.active_children() == []

    def test_caller_runs_no_task(self, monkeypatch):
        self.use_cpus(monkeypatch, 3)
        with OrderedForks(lambda task: time.sleep(0.05) or os.getpid(), 6, 3) as pool:
            pids = list(pool)
        assert len(pids) == 6 and os.getpid() not in pids

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_workers_die_with_a_killed_caller(self):
        # A caller killed by SIGKILL runs no cleanup. Its two workers, each
        # asleep in a minute-long task that has printed the worker's pid,
        # must be gone, or zombies left for a reaper, within 5 s. Three
        # processes in all; the test kills any it leaves.
        def running(pid):
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
            except FileNotFoundError:
                return False

        code = (
            "import os, time, zarank.forks\n"
            "zarank.forks._usable_cpus = lambda: 2\n"
            "task = lambda task: os.write(1, b'%d\\n' % os.getpid()) and time.sleep(60)\n"
            "pool = zarank.forks.OrderedForks(task, 4, 2)\n"
            "time.sleep(60)\n"
        )
        src = str(Path(zarank.forks.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        caller = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        alive = []
        try:
            pids = [int(caller.stdout.readline()) for _ in range(2)]
            caller.kill()
            caller.wait(timeout=10)
            deadline = time.monotonic() + 5
            while (alive := list(filter(running, pids))) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert alive == []
        finally:
            caller.kill()
            caller.wait(timeout=10)
            caller.stdout.close()
            for pid in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_workers_exit_quietly_once_the_callers_ends_close(self, monkeypatch, capfd):
        # Each worker closes the caller's pipe ends it inherits, so the
        # caller's own are the last ones open. Closing them, as the caller's
        # death would, makes each worker's next send, or its last receive,
        # fail, and the worker exits 0 without a traceback.
        self.use_cpus(monkeypatch, 2)
        with OrderedForks(lambda task: time.sleep(0.05) or task, 20, 2) as pool:
            assert next(iter(pool)) == 0
            for conn in pool.conns:
                conn.close()
            for proc in pool.procs:
                proc.join(timeout=10)
            assert [proc.exitcode for proc in pool.procs] == [0, 0]
        assert capfd.readouterr().err == ""

    def test_a_worker_whose_caller_has_gone_before_it_starts_exits(self, monkeypatch):
        # A caller that dies between the fork and the death signal leaves its
        # workers with another parent; each exits before taking a task.
        self.use_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "getppid", lambda: -1)
        with OrderedForks(lambda task: task, 3, 2) as pool:
            with pytest.raises(RuntimeError, match="worker"):
                list(pool)
            for proc in pool.procs:
                proc.join(timeout=10)
            assert [proc.exitcode for proc in pool.procs] == [0, 0]

    def test_serial_without_fork_with_threads_or_inside_a_child(self, monkeypatch):
        cpus = zarank.forks._usable_cpus
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=ctx) as pool:
            assert pool.submit(cpus).result() == 1
        assert cpus() == len(os.sched_getaffinity(0))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        self.use_cpus(monkeypatch, 2)
        with OrderedForks(lambda task: task, 2, 1) as pool:  # one worker: the caller runs every task
            assert pool.procs == [] and list(pool) == [0, 1]
        # while another pool of this process has live workers
        with OrderedForks(lambda task: task, 2, 2) as pool:
            assert len(pool.procs) == 2 and cpus() == 1
            assert list(pool) == [0, 1]
        assert cpus() == 2
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert cpus() == 1


def brown_is_k33_free(p, r):
    """Brown's condition: r != 0 and -r a non-residue mod p (Euler's criterion)."""
    return r % p != 0 and pow(-r % p, (p - 1) // 2, p) == p - 1


def one_biclique_per_row(rows, k):
    """A family whose union has these rows: {v} x row v for every v."""
    n = len(rows)
    bicliques = [{"left": [v], "right": [j for j in range(n) if rows[v] >> j & 1]} for v in range(n)]
    return {"n": n, "k": k, "bicliques": bicliques}


class TestKnownAnswers:
    """Absent verdicts at hundreds of vertices whose answer is a theorem."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_brown_graph_k33_free_exactly_under_browns_condition(self, p):
        # K_{3,3}-free at p = 3, r = 1, at p = 5, r = 2, 3 and at p = 7,
        # r = 1, 2, 4; every other r (including r = 0, whose double cover
        # joins each point to itself) has a K_{3,3}, and the search finds one.
        # At p = 7 (n = 343) each absence takes past the 20,000-node probe,
        # so its verdict comes from the forked descending-order proof.
        n = p ** 3
        absent = []
        for r in range(p):
            rows = brown_graph_complement(p, r)
            result = has_kxk_independent_set(BipartiteGraph(n, n, tuple(rows)), 3)
            assert result.complete and result.found is not brown_is_k33_free(p, r), r
            if result.found:
                t_mask = sum(1 << w for w in result.T)
                assert all(rows[v] & t_mask == 0 for v in result.S)
            else:
                absent.append(r)
                if p == 7:
                    assert result.nodes_explored > 20_001, r
            if p == 3:
                assert (one_sided_witness(rows, n, 3) is not None) == result.found
        assert absent == {3: [1], 5: [2, 3], 7: [1, 2, 4]}[p]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_projective_plane_complement_loses_absence_to_any_deleted_edge(self, p):
        # The incidence graph is maximal C4-free: adding any point-line pair
        # to it, which deletes one union edge, creates a 2 x 2 independent set.
        # Absence takes one node per point. From p = 5 on, a seeded sample
        # of 50 deletions is checked: all 775 at p = 5 take about 2.5 s on
        # a 2-vCPU machine, mostly in the naive oracle.
        rows = projective_plane_complement(p)
        n = len(rows)
        whole = has_kxk_independent_set(BipartiteGraph(n, n, tuple(rows)), 2)
        assert (whole.found, whole.complete, whole.nodes_explored) == (False, True, n)
        edges = [(v, w) for v in range(n) for w in range(n) if rows[v] >> w & 1]
        assert len(edges) == n * (n - p - 1)
        if p >= 5:
            edges = random.Random(p).sample(edges, 50)
        for v, w in edges:
            cut = list(rows)
            cut[v] &= ~(1 << w)
            result = has_kxk_independent_set(BipartiteGraph(n, n, tuple(cut)), 2)
            assert result.found, (v, w)
            assert v in result.S and w in result.T
            assert naive_bipartite_witness(cut, n, n, 2) is not None

    def test_verify_and_sweep_agree_on_known_answers(self, tmp_path, capsys):
        cut = projective_plane_complement(3)
        cut[0] &= cut[0] - 1  # delete the union edge at point 0's lowest line
        cases = [
            ("pg2.json", projective_plane_complement(2), 2, False),
            ("pg3.json", projective_plane_complement(3), 2, False),
            ("pg3_cut.json", cut, 2, True),
            ("brown3_1.json", brown_graph_complement(3, 1), 3, False),
            ("brown3_2.json", brown_graph_complement(3, 2), 3, True),
            ("brown5_2.json", brown_graph_complement(5, 2), 3, False),
        ]
        reports = []
        for name, rows, k, found in cases:
            save_json(tmp_path / name, one_biclique_per_row(rows, k))
            out = tmp_path / f"report-{name}"
            assert main(["verify", "--family", str(tmp_path / name), "--json-out", str(out)]) == int(found)
            witness = load_json(out)["witness"]
            assert (witness["found"], witness["complete"]) == (found, True)
            reports.append(witness)
        grid = {"family": [name for name, *_ in cases], "seed": [0]}
        save_json(tmp_path / "spec.json", {"command": "verify", "grid": grid, "output_csv": "out.csv"})
        assert main(["sweep", "--spec", str(tmp_path / "spec.json")]) == 1
        with open(tmp_path / "out.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = [("true" if w["found"] else "false", str(w["nodes_explored"])) for w in reports]
        assert [(row["found"], row["nodes_explored"]) for row in rows] == expected
