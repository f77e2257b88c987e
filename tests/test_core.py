import functools
import inspect
import json
import operator
import random
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bitwise_transpose,
    brute_first_kset,
    edge_list_rows,
    index_list_mask,
    lowest_bit_positions,
    randrange_subsets,
)
from zarank.core import (
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    SchemaError,
    SubsetSampler,
    _Budget,
    _live,
    _search,
    bits,
    family_from_json,
    family_to_json,
    graph_from_json,
    graph_to_json,
    jsonable,
    layered_from_json,
    layered_to_json,
    mask_of,
    transpose_masks,
    union_of,
)
from zarank.superconc import balance_degrees


def random_graph(rng, n_left, n_right, p):
    rows = []
    for _ in range(n_left):
        row = 0
        for w in range(n_right):
            if rng.random() < p:
                row |= 1 << w
        rows.append(row)
    return BipartiteGraph(n_left, n_right, tuple(rows))


class TestBicliqueFamily:
    def test_side_counts_are_popcounts(self):
        fam = BicliqueFamily.from_index_lists(8, 2, [([0, 3, 7], [1]), ([], [2, 5])])
        assert fam.left == (0b10001001, 0) and fam.right == (0b10, 0b100100)
        assert fam.side_cardinalities() == [(3, 1), (0, 2)]
        assert fam.side_cardinalities() == [
            (lm.bit_count(), rm.bit_count()) for lm, rm in zip(fam.left, fam.right)
        ]
        assert list(bits(fam.left[0])) == [0, 3, 7]
        assert fam.left[0] >> 3 & 1 and not fam.left[0] >> 4 & 1
        assert fam.size == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (1 << 4,), (0,))
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (0,), (1 << 4,))
        with pytest.raises(ValueError):
            BicliqueFamily.from_index_lists(4, 2, [([4], [0])])
        BicliqueFamily(4, 2, ((1 << 4) - 1,), ((1 << 4) - 1,))  # bit n - 1 is in range

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (-1,), (0,))
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (0,), (-1,))

    def test_mismatched_side_counts_rejected(self):
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (1, 2), (1,))
        with pytest.raises(ValueError):
            BicliqueFamily(4, 2, (), (1,))

    @pytest.mark.parametrize("n, k", [(4, 0), (4, -1), (4, 5), (0, 1)])
    def test_k_outside_one_to_n_rejected(self, n, k):
        with pytest.raises(ValueError, match=rf"1 <= k <= n, got k={k}, n={n}"):
            BicliqueFamily(n, k)


class TestGraphChecks:
    def test_bipartite_row_count_must_match(self):
        for rows in [(), (0, 0), (0, 0, 0, 0)]:
            with pytest.raises(ValueError, match=rf"adjacency has {len(rows)} rows, expected 3"):
                BipartiteGraph(3, 2, rows)

    def test_bipartite_rows_must_lie_in_range(self):
        for row in (-1, 1 << 2, 1 << 40):
            with pytest.raises(ValueError, match=r"adjacency row 1 has neighbors outside \[0, 2\)"):
                BipartiteGraph(3, 2, (0b11, row, 0))
        BipartiteGraph(3, 2, (0b11, 0b11, 0))  # bit n_right - 1 is in range

    def test_layers_must_meet(self):
        # Either side of M->W must match the other side of V->M.
        vm = BipartiteGraph(3, 2, (0b01, 0b10, 0b11))
        for mw in [BipartiteGraph.empty(3, 3), BipartiteGraph.empty(2, 2), BipartiteGraph.empty(3, 2)]:
            with pytest.raises(ValueError, match=rf"layers do not meet: V->M is 3x2, M->W is {mw.n_left}x{mw.n_right}"):
                LayeredGraph(vm, mw)
        g = LayeredGraph(vm, BipartiteGraph.empty(2, 3))
        assert (g.n, g.m) == (3, 2)


class TestUnion:
    def test_single_biclique_edge_count(self):
        fam = BicliqueFamily.from_index_lists(3, 2, [([0, 1], [0, 1])])
        assert union_of(fam).edge_count == 4

    def test_duplicate_bicliques_idempotent(self):
        pair = ([0, 2], [1, 2])
        once = BicliqueFamily.from_index_lists(4, 2, [pair])
        twice = BicliqueFamily.from_index_lists(4, 2, [pair, pair])
        assert union_of(once) == union_of(twice)

    def test_disjoint_singletons_make_matching(self):
        fam = BicliqueFamily.from_index_lists(2, 1, [([0], [0]), ([1], [1])])
        g = union_of(fam)
        assert g.edge_count == 2
        assert g.has_edge(0, 0) and g.has_edge(1, 1)
        assert not g.has_edge(0, 1)

    def test_empty_family_empty_graph(self):
        fam = BicliqueFamily(4, 2)
        assert union_of(fam).edge_count == 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_monotone_under_extra_biclique(self, data):
        n = data.draw(st.integers(2, 8))
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, n - 1), max_size=n),
                    st.lists(st.integers(0, n - 1), max_size=n),
                ),
                max_size=4,
            )
        )
        extra = data.draw(
            st.tuples(
                st.lists(st.integers(0, n - 1), max_size=n),
                st.lists(st.integers(0, n - 1), max_size=n),
            )
        )
        base = union_of(BicliqueFamily.from_index_lists(n, 1, pairs))
        bigger = union_of(BicliqueFamily.from_index_lists(n, 1, pairs + [extra]))
        for v in range(n):
            assert base.adj[v] & ~bigger.adj[v] == 0


class TestTranspose:
    def test_empty(self):
        g = BipartiteGraph.empty(3, 2)
        t = g.transposed()
        assert (t.n_left, t.n_right, t.edge_count) == (2, 3, 0)

    def test_single_edge(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 1)])
        assert g.transposed().has_edge(1, 0)
        assert g.transposed().edge_count == 1

    def test_involution_random(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, 8, 8, 0.4)
            assert g.transposed().transposed() == g

    def test_masks_match_has_bit_reference(self):
        rng = random.Random(17)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 9), (9, 1), (1, 1), (70, 3), (3, 70), (2, 2048), (40, 300)]
        shapes += [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(300)]
        for n_rows, n_cols in shapes:
            p = rng.choice([0.0, 0.05, 0.5, 1.0])
            rows = [
                sum(1 << c for c in range(n_cols) if rng.random() < p) for _ in range(n_rows)
            ]
            if n_rows and n_cols:
                rows[rng.randrange(n_rows)] = 0
                rows[rng.randrange(n_rows)] |= 1 << (n_cols - 1)
            cols = transpose_masks(rows, n_cols)
            assert cols == bitwise_transpose(rows, n_cols), (rows, n_cols)
            if n_rows:
                assert transpose_masks(cols, n_rows) == rows

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_columns_are_the_transpose(self, data):
        n = data.draw(st.integers(1, 9))
        side = st.lists(st.integers(0, n - 1), max_size=n)
        pairs = data.draw(st.lists(st.tuples(side, side), max_size=5))
        g = union_of(BicliqueFamily.from_index_lists(n, 1, pairs))
        assert list(g.cols) == transpose_masks(g.adj, n)
        assert g.transposed().transposed() == g

    def test_columns_take_no_part_in_equality(self):
        rows = (0b01, 0b11, 0b10)
        fresh, computed = BipartiteGraph(3, 2, rows), BipartiteGraph(3, 2, rows)
        assert computed.cols == (0b011, 0b110)
        assert "cols" in vars(computed) and "cols" not in vars(fresh)
        assert fresh == computed and hash(fresh) == hash(computed)
        fam = BicliqueFamily.from_index_lists(2, 1, [([0, 1], [0]), ([1], [1])])
        filled = union_of(fam)
        assert "cols" in vars(filled)
        assert filled == BipartiteGraph(2, 2, filled.adj)
        assert hash(filled) == hash(BipartiteGraph(2, 2, filled.adj))

    def test_transposed_swaps_sides_and_fills_columns(self):
        rng = random.Random(29)
        for n_left, n_right in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 7), (7, 4), (9, 9)]:
            g = random_graph(rng, n_left, n_right, 0.4)
            t = g.transposed()
            assert (t.n_left, t.n_right) == (n_right, n_left)
            assert list(t.adj) == transpose_masks(g.adj, n_right)
            assert "cols" in vars(t) and t.cols == g.adj
            assert t == BipartiteGraph(n_right, n_left, t.adj)
            assert t.transposed() == g

    def test_layer_views_cached_and_immutable(self):
        g = LayeredGraph.from_edge_lists(3, 2, [(0, 1), (2, 1), (1, 0)], [(0, 0), (1, 2)])
        assert (g.n, g.m) == (3, 2)
        masks = g.vm.cols
        assert masks == (0b010, 0b101)
        assert g.vm.cols is masks
        assert g.mw.cols == (0b01, 0, 0b10) and g.mw.cols is g.mw.cols
        assert [col.bit_count() for col in g.vm.cols] == [1, 2]
        fresh = LayeredGraph(BipartiteGraph(3, 2, g.vm.adj), BipartiteGraph(2, 3, g.mw.adj))
        assert "cols" not in vars(fresh.vm) and "cols" not in vars(fresh.mw)
        assert fresh == g and hash(fresh) == hash(g)
        # balance_degrees fills its result's V->M column view from the rows it built.
        rng = random.Random(43)
        for _ in range(30):
            n, m = rng.randint(1, 9), rng.randint(0, 9)
            vm = tuple(rng.getrandbits(m) if m else 0 for _ in range(n))
            mw = tuple(rng.getrandbits(n) for _ in range(m))
            g = LayeredGraph(BipartiteGraph(n, m, vm), BipartiteGraph(m, n, mw))
            if g.vm.edge_count == 0 or g.mw.edge_count == 0:
                continue
            for a, b in ((1, 1), (g.vm.edge_count, g.mw.edge_count)):
                try:
                    balanced = balance_degrees(g, a, b)
                except ValueError:
                    continue
                assert "cols" in vars(balanced.vm)
                assert list(balanced.vm.cols) == transpose_masks(balanced.vm.adj, m)


class TestSubsetSearch:
    def test_first_kset_matches_brute_force(self):
        # The witness search passes threshold k, the Hall search other values.
        rng = random.Random(67)
        found = {True: 0, False: 0}
        for _ in range(600):
            n, width = rng.randint(1, 10), rng.randint(1, 10)
            p = rng.choice([0.3, 0.6, 0.85])
            rows = [sum(1 << b for b in range(width) if rng.random() < p) for _ in range(n)]
            k = rng.randint(1, n)
            threshold = rng.choice([k, rng.randint(1, width + 1)])
            live = _live(rows, threshold)
            got = next(_search(rows, (1 << width) - 1, k, threshold, _Budget(float("inf")), live, 0, len(live) - k + 1))
            expect = brute_first_kset(rows, k, threshold)
            found[threshold == k] += expect is not None
            if expect is None:
                assert got is None
            else:
                common, chosen = got
                assert tuple(chosen) == expect
                assert common == functools.reduce(operator.and_, (rows[pos] for pos in expect))
        assert min(found.values()) > 50

    def test_paused_search_resumes_where_it_stopped(self):
        # A search stopped at any limit, then resumed with the limit raised,
        # ends as an uninterrupted one: the same outcome and node count. So
        # does one stopped at every node.
        assert _Budget.__slots__ == ("nodes", "limit")
        rng = random.Random(71)
        found = {True: 0, False: 0}
        stops = 0
        for _ in range(300):
            n, width = rng.randint(4, 14), rng.randint(4, 14)
            p = rng.choice([0.5, 0.7, 0.85])
            rows = [sum(1 << b for b in range(width) if rng.random() < p) for _ in range(n)]
            k = rng.randint(2, min(6, n))
            threshold = rng.choice([k, rng.randint(1, width + 1)])
            live = _live(rows, threshold)

            def search(budget):
                return _search(rows, (1 << width) - 1, k, threshold, budget, live, 0, len(live) - k + 1)

            whole = _Budget(float("inf"))
            expect = next(search(whole))
            found[threshold == k] += expect is not None
            for limit in range(1, whole.nodes + 1):
                budget = _Budget(limit)
                paused = search(budget)
                outcome = next(paused)
                if limit < whole.nodes:
                    assert outcome == "budget" and budget.nodes == limit + 1
                    budget.limit = float("inf")
                    outcome = next(paused)
                    stops += 1
                assert (outcome, budget.nodes) == (expect, whole.nodes)
            budget = _Budget(1)
            stepped = search(budget)
            outcomes = [next(stepped)]
            while outcomes[-1] == "budget":
                budget.limit += 1
                outcomes.append(next(stepped))
            assert outcomes == ["budget"] * (whole.nodes - 1) + [expect] and budget.nodes == whole.nodes
        assert min(found.values()) > 50 and stops > 500


PREFIX = [(v % 2, v % 3) for v in range(1000)]  # 1,000 valid edges of a 2 x 3 graph


class TestSerialization:
    def test_family_round_trip(self):
        fam = BicliqueFamily.from_index_lists(
            10, 3, [([0, 1, 2], [3, 4]), ([5], [6, 7, 8]), ([9], [0])]
        )
        assert family_from_json(family_to_json(fam)) == fam

    def test_graph_round_trip(self):
        g = BipartiteGraph.from_edges(4, 5, [(0, 4), (2, 1), (3, 3)])
        assert graph_from_json(graph_to_json(g)) == g

    def test_layered_round_trip(self):
        g = LayeredGraph.from_edge_lists(3, 2, [(0, 0), (2, 1)], [(0, 1), (1, 2)])
        assert layered_from_json(layered_to_json(g)) == g

    def test_vertex_index_out_of_range_names_biclique(self):
        doc = {"n": 10, "k": 2, "bicliques": [{"left": [0], "right": [10]}]}
        with pytest.raises(SchemaError, match=r"bicliques\[0\].right\[0\]"):
            family_from_json(doc)

    def test_k_zero_rejected(self):
        with pytest.raises(SchemaError, match="k"):
            family_from_json({"n": 5, "k": 0, "bicliques": []})

    def test_edge_out_of_range_named(self):
        doc = {"n_left": 2, "n_right": 2, "edges": [[0, 0], [1, 2]]}
        with pytest.raises(SchemaError, match=r"edges\[1\]"):
            graph_from_json(doc)

    def test_edge_constructors_name_the_first_bad_edge(self):
        cases = [
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 2), (2, 0), (-1, 0)]), "edge (2, 0) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [[0, 2], [1, -1]]), "edge (1, -1) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1.0)]), "edge (0, 1.0) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1), (0, 1, 2)]), "edge (0, 1, 2) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1), [1]]), "edge (1,) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(True, 0)]), "edge (True, 0) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(1, False)]), "edge (1, False) outside 2x3"),
            (lambda: LayeredGraph.from_edge_lists(3, 2, [(2, 1), (3, 0)], []), "V->M edge (3, 0) outside 3x2"),
            (lambda: LayeredGraph.from_edge_lists(3, 2, [(0, 0)], [(1, 2), (2, 0)]), "M->W edge (2, 0) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1), {"from": 1, "to": 1}]), "edge ('from', 'to') outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, ["01"]), "edge ('0', '1') outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1), (1, 2), (1, True)]), "edge (1, True) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(0, 1), (1.0, 2)]), "edge (1.0, 2) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, [(1, 3)]), "edge (1, 3) outside 2x3"),
            (lambda: LayeredGraph.from_edge_lists(3, 2, [(0, 0)], [(1, 2), (1, None)]), "M->W edge (1, None) outside 2x3"),
            (lambda: BipartiteGraph.from_edges(2, 3, PREFIX + [(0, 3)]), "edge (0, 3) outside 2x3"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
        # An edge that is no sequence at all fails as Python words it.
        for edges, message in (([(0, 1), 5], "'int' object is not iterable"), ([None], "'NoneType' object is not iterable")):
            with pytest.raises(TypeError) as info:
                BipartiteGraph.from_edges(2, 3, edges)
            assert str(info.value) == message
        with pytest.raises(TypeError, match="'int' object is not iterable"):
            LayeredGraph.from_edge_lists(3, 2, [(w, v) for v, w in PREFIX] + [7], [])

    def test_edge_constructors_accept_any_iterable(self):
        g = BipartiteGraph.from_edges(3, 2, ((v, v % 2) for v in range(3)))
        assert g.adj == (0b01, 0b10, 0b01)
        assert BipartiteGraph.from_edges(3, 2, [[2, 1]]) == BipartiteGraph.from_edges(3, 2, {(2, 1)})
        assert BipartiteGraph.from_edges(3, 2, []) == BipartiteGraph.empty(3, 2)
        g = LayeredGraph.from_edge_lists(2, 2, zip([0, 1], [1, 1]), iter([[1, 0], (1, 1)]))
        assert g.vm.adj == (0b10, 0b10) and g.mw.adj == (0, 0b11)

    def test_jsonable_encodes_fields_recursively(self):
        class Pair(NamedTuple):
            lhs: float
            rhs: float

        @dataclass(frozen=True)
        class Inner:
            freq: dict
            pair: Pair

        @dataclass(frozen=True)
        class Outer:
            flag: bool
            missing: Optional[int]
            ids: tuple
            inner: Inner

        report = Outer(True, None, ((1, 2), ()), Inner({10: 0.5, 2: 1.0}, Pair(0.25, 3.0)))
        doc = jsonable(report)
        expected = {
            "flag": True,
            "missing": None,
            "ids": [[1, 2], []],
            "inner": {"freq": {"10": 0.5, "2": 1.0}, "pair": {"lhs": 0.25, "rhs": 3.0}},
        }
        assert doc == expected  # a tuple never equals a list, so none is left
        assert json.loads(json.dumps(doc)) == doc  # nor an int key
        assert doc["flag"] is True

    def test_non_integer_index_rejected(self):
        doc = {"n": 4, "k": 1, "bicliques": [{"left": [True], "right": []}]}
        with pytest.raises(SchemaError):
            family_from_json(doc)


def _family_doc(left):
    return {"n": 4, "k": 2, "bicliques": [{"left": [0, 1], "right": [2]}, {"left": left, "right": [0]}]}


def _graph_doc(pair):
    return {"n_left": 3, "n_right": 2, "edges": [[0, 1], [2, 0], pair]}


class TestLoaderMessages:
    """The loaders check each list in the pass that builds it and word the
    first error on a slow path; these texts pin the wording, one case per
    malformed shape."""

    @pytest.mark.parametrize(
        "load, doc, message",
        [
            (family_from_json, _family_doc([0, True]), "family.bicliques[1].left[1]: expected an integer, got True"),
            (family_from_json, _family_doc([1, -1]), "family.bicliques[1].left[1]: vertex index -1 out of range for n=4"),
            (family_from_json, _family_doc([3, 4]), "family.bicliques[1].left[1]: vertex index 4 out of range for n=4"),
            (family_from_json, _family_doc([2.0]), "family.bicliques[1].left[0]: expected an integer, got 2.0"),
            (family_from_json, _family_doc("0,1"), "family.bicliques[1].left: expected a list of vertex indices"),
            (graph_from_json, _graph_doc([1, 1, 0]), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc({"from": 1, "to": 1}), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc([1, False]), "graph.edges[2].to: expected an integer, got False"),
            (graph_from_json, _graph_doc([-1, 0]), "graph.edges[2].from: index -1 out of range for size 3"),
            (graph_from_json, _graph_doc([1, 2]), "graph.edges[2].to: index 2 out of range for size 2"),
            (graph_from_json, _graph_doc([1.0, 0]), "graph.edges[2].from: expected an integer, got 1.0"),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": "edges", "edges_mw": []},
                "layered.edges_vm: expected a list of [from, to] pairs",
            ),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": [[0, 0]], "edges_mw": [[1, 2], [2, 0]]},
                "layered.edges_mw[1].from: index 2 out of range for size 2",
            ),
            (graph_from_json, _graph_doc(5), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc(None), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc({"0": 1, "1": 0}), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc("01"), "graph.edges[2]: expected a [from, to] pair"),
            (graph_from_json, _graph_doc([1, True]), "graph.edges[2].to: expected an integer, got True"),
            (graph_from_json, _graph_doc([0.5, 1]), "graph.edges[2].from: expected an integer, got 0.5"),
            (graph_from_json, _graph_doc([1, "x"]), "graph.edges[2].to: expected an integer, got 'x'"),
            (graph_from_json, _graph_doc([2, None]), "graph.edges[2].to: expected an integer, got None"),
            (family_from_json, _family_doc([0, 1, False]), "family.bicliques[1].left[2]: expected an integer, got False"),
            (family_from_json, _family_doc([3, 2, 1.5]), "family.bicliques[1].left[2]: expected an integer, got 1.5"),
            (family_from_json, _family_doc([0, None]), "family.bicliques[1].left[1]: expected an integer, got None"),
            (family_from_json, _family_doc([0, "1"]), "family.bicliques[1].left[1]: expected an integer, got '1'"),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": [[0, 0], [2, 1], 7], "edges_mw": []},
                "layered.edges_vm[2]: expected a [from, to] pair",
            ),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": [[0, 0]], "edges_mw": [None]},
                "layered.edges_mw[0]: expected a [from, to] pair",
            ),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": [[w, v] for v, w in PREFIX] + [[1, 2]], "edges_mw": []},
                "layered.edges_vm[1000].to: index 2 out of range for size 2",
            ),
            (
                layered_from_json,
                {"n": 3, "m": 2, "edges_vm": [], "edges_mw": [list(pair) for pair in PREFIX] + [[1, 3]]},
                "layered.edges_mw[1000].to: index 3 out of range for size 3",
            ),
            (
                graph_from_json,
                {"n_left": 3, "n_right": 2, "edges": [[w, v] for v, w in PREFIX] + [[True, 0]]},
                "graph.edges[1000].from: expected an integer, got True",
            ),
            (
                family_from_json,
                {"n": 4, "k": 2, "bicliques": [{"left": [v % 4 for v in range(1000)] + [4], "right": []}]},
                "family.bicliques[0].left[1000]: vertex index 4 out of range for n=4",
            ),
            (
                family_from_json,
                {"n": 4, "k": 2, "bicliques": [{"left": [], "right": [v % 4 for v in range(1000)] + [-1]}]},
                "family.bicliques[0].right[1000]: vertex index -1 out of range for n=4",
            ),
        ],
    )
    def test_exact_message(self, load, doc, message):
        with pytest.raises(SchemaError) as info:
            load(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "load, doc, key",
        [
            (family_from_json, {"n": 10**30, "k": 1, "bicliques": []}, "family.n"),
            (family_from_json, {"n": 5, "k": 10**30, "bicliques": []}, "family.k"),
            (graph_from_json, {"n_left": 10**30, "n_right": 1, "edges": []}, "graph.n_left"),
            (graph_from_json, {"n_left": 1, "n_right": sys.maxsize + 1, "edges": []}, "graph.n_right"),
            (layered_from_json, {"n": 10**30, "m": 1, "edges_vm": [], "edges_mw": []}, "layered.n"),
            (layered_from_json, {"n": 1, "m": 10**30, "edges_vm": [], "edges_mw": []}, "layered.m"),
        ],
    )
    def test_size_no_list_can_hold_rejected(self, load, doc, key):
        # Refused before anything is allocated.
        with pytest.raises(SchemaError) as info:
            load(doc)
        size = doc[key.partition(".")[2]]
        assert str(info.value) == f"{key}: {size} is more than a list can hold (at most {sys.maxsize})"

    def test_malformed_edges_refused_before_any_row_is_made(self):
        # No list of 2**62 rows can be made, so rows made before every edge
        # list is checked would end in MemoryError instead.
        huge = 2**62
        with pytest.raises(SchemaError, match=r"^layered\.edges_mw\[1\]\.from: index 2 out of range for size 2$"):
            layered_from_json({"n": huge, "m": 2, "edges_vm": [[0, 0]], "edges_mw": [[0, 0], [2, 0]]})
        with pytest.raises(SchemaError, match=r"^graph\.edges\[1\]\.to: index 2 out of range for size 2$"):
            graph_from_json({"n_left": huge, "n_right": 2, "edges": [[0, 0], [0, 2]]})
        with pytest.raises(ValueError, match=rf"^M->W edge \(2, 0\) outside 2x{huge}$"):
            LayeredGraph.from_edge_lists(huge, 2, [(0, 0)], [(0, 0), (2, 0)])
        with pytest.raises(MemoryError):
            layered_from_json({"n": huge, "m": 2, "edges_vm": [[0, 0]], "edges_mw": [[0, 0]]})


def _spoil(rng, lists):
    """Half the time ``lists`` as it is; else with one list replaced by a
    non-list, or with a wrong-typed, misshapen or out-of-range entry
    inserted into it."""
    lists = [list(value) for value in lists]
    if lists and rng.random() < 0.5:
        pos = rng.randrange(len(lists))
        if rng.random() < 0.05:
            lists[pos] = rng.choice(["0,1", None, 3, {}])
        else:
            bad = [5, None, {}, {"0": 1, "1": 0}, "01", True, False, 1.0, 2.5, "1", [1], [0, 1, 2], [], -1, 40]
            bad += [[True, 0], [0, False], [1.0, 0], [0, None], [-1, 0], [0, -1], [40, 0], [0, 40]]
            lists[pos].insert(rng.randint(0, len(lists[pos])), rng.choice(bad))
    return lists


class TestLoaderOracle:
    """The loaders against the one-loop builders of ``oracles``: random
    documents, half with one bad entry somewhere, load to the oracle's rows
    and masks, and are refused exactly when the oracle refuses them."""

    def test_loaders_match_the_definitional_builders(self):
        rng = random.Random(83)
        loaded = {"family": 0, "graph": 0, "layered": 0}
        refused = dict(loaded)
        for _ in range(3000):
            shape = rng.choice(list(loaded))
            n, m = rng.randint(1, 12), rng.randint(0, 12)
            length = rng.choice([0, 1, 3, 8, 30]) if m else 0
            if shape == "family":
                sides = [[rng.randrange(n) for _ in range(rng.randint(0, length))] for _ in range(2 * rng.randint(1, 4))]
                sides = _spoil(rng, sides)
                doc = {"n": n, "k": 1, "bicliques": [{"left": l, "right": r} for l, r in zip(sides[::2], sides[1::2])]}
                masks = [index_list_mask(side, n) for side in sides]
                load, views, expect = family_from_json, ("left", "right"), (masks[::2], masks[1::2])
            elif shape == "graph":
                (edges,) = _spoil(rng, [[[rng.randrange(n), rng.randrange(m)] for _ in range(length)]])
                doc = {"n_left": n, "n_right": m, "edges": edges}
                load, views, expect = graph_from_json, ("adj",), (edge_list_rows(edges, n, m),)
            else:
                vm = [[rng.randrange(n), rng.randrange(m)] for _ in range(length)]
                mw = [[rng.randrange(m), rng.randrange(n)] for _ in range(length)]
                vm, mw = _spoil(rng, [vm, mw])
                doc = {"n": n, "m": m, "edges_vm": vm, "edges_mw": mw}
                load, views = layered_from_json, ("vm.adj", "mw.adj")
                expect = (edge_list_rows(vm, n, m), edge_list_rows(mw, m, n))
            accepted = all(view is not None and None not in view for view in expect)
            try:
                built = load(doc)
            except SchemaError:
                assert not accepted, doc
                refused[shape] += 1
            else:
                assert accepted and tuple(list(operator.attrgetter(view)(built)) for view in views) == expect, doc
                loaded[shape] += 1
        assert min(loaded.values()) > 400 and min(refused.values()) > 400, (loaded, refused)


class TestRandomSource:
    def test_same_seed_same_stream_identical(self):
        a = RandomSource(123, 4).rng()
        b = RandomSource(123, 4).rng()
        assert [a.random() for _ in range(32)] == [b.random() for _ in range(32)]

    def test_streams_differ(self):
        a = RandomSource(123, 0).rng()
        b = RandomSource(123, 1).rng()
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]

    def test_derive_is_deterministic(self):
        assert RandomSource(9, 2).derive(7) == RandomSource(9, 2).derive(7)
        assert RandomSource(9, 2).derive(7) != RandomSource(9, 2).derive(8)


class TestSubsetSampler:
    def test_draws_are_subsets_and_deterministic(self):
        s1 = SubsetSampler(10, random.Random(1))
        s2 = SubsetSampler(10, random.Random(1))
        for m in (0, 1, 5, 10, 3):
            a = s1.draw_list(m)
            assert sorted(a) == sorted(set(a))
            assert all(0 <= x < 10 for x in a)
            assert len(a) == m
            assert a == s2.draw_list(m)

    def test_marginal_frequency(self):
        # Each vertex should land in a 2-subset of 4 with probability 1/2.
        sampler = SubsetSampler(4, random.Random(7))
        trials = 20000
        hits = sum(1 for _ in range(trials) if 0 in sampler.draw_list(2))
        sigma = (0.5 * 0.5 / trials) ** 0.5
        assert abs(hits / trials - 0.5) < 4 * sigma

    def test_all_subsets_reachable_uniformly(self):
        sampler = SubsetSampler(4, random.Random(3))
        counts = {}
        trials = 12000
        for _ in range(trials):
            key = tuple(sorted(sampler.draw_list(2)))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = trials / 6
        sigma = (trials * (1 / 6) * (5 / 6)) ** 0.5
        for value in counts.values():
            assert abs(value - expected) < 5 * sigma

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            SubsetSampler(4, random.Random(0)).draw_list(5)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 1000])
    def test_stream_is_randrange_fisher_yates(self, n):
        # Two samplers share one Random, as random_family uses them. Each draw
        # must consume exactly what randrange(i, n) per swap would, so a change
        # to CPython's randrange fails here instead of changing every family.
        sizes = [m for m in (0, 1, n) for _ in range(3)] + [n // 2, n - 1, 1, 0]
        rng = random.Random(n)
        left, right = SubsetSampler(n, rng), SubsetSampler(n, rng)
        drawn = [(left if pos % 2 else right).draw_list(m) for pos, m in enumerate(sizes)]
        reference = random.Random(n)
        assert drawn == randrange_subsets(n, reference, sizes)
        assert rng.getrandbits(64) == reference.getrandbits(64)  # nothing more was consumed
        assert left._arr == right._arr == list(range(n))


class TestBits:
    @given(st.integers(0, (1 << 40) - 1))
    def test_bits_round_trip(self, mask):
        assert mask_of(bits(mask)) == mask
        assert len(list(bits(mask))) == mask.bit_count()

    def test_matches_lowest_bit_reference_on_both_paths(self):
        rng = random.Random(29)
        masks = [0, 1, 0xFF, (1 << 64) - 1, (1 << 2048) - 1, 1 << 100_000 | 1, 1 << 7, 1 << 8]
        for n in (8, 9, 63, 64, 65, 256, 1000, 2048):
            for k in sorted({1, 2, n // 64, n // 32, n // 32 + 1, n // 4, n - 1, n}):
                masks.append(sum(1 << v for v in rng.sample(range(n), k)))
                masks.append(masks[-1] | 1 << n - 1)
        # Longer than 4096 bits: dense in the top 4096, dense only below them, just over.
        masks += [(1 << 5000) - 1 << 95_000, (1 << 5000) - 1 | 1 << 99_999, (1 << 4097) - 1]
        dense = [m for m in masks if m.bit_count() << 5 > m.bit_length()]
        assert 0 < len(dense) < len(masks)  # both paths are exercised
        for mask in masks:
            assert list(bits(mask)) == lowest_bit_positions(mask), hex(mask)

    def test_stays_a_lazy_generator(self):
        assert inspect.isgeneratorfunction(bits)
        huge = 1 << 100_000 | 1 << 3
        it = bits(huge)
        assert next(it) == 3 and next(it) == 100_000
        dense = (1 << 100_000) - 1
        assert next(bits(dense)) == 0
        assert list(zip(range(3), bits(dense << 5))) == [(0, 5), (1, 6), (2, 7)]
