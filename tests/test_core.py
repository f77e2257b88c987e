import json
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zarank.core import (
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    SchemaError,
    SubsetSampler,
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


def flipped(g):
    """The transposed graph, built from the column view."""
    return BipartiteGraph(g.n_right, g.n_left, g.cols)


class TestTranspose:
    def test_empty(self):
        g = BipartiteGraph.empty(3, 2)
        t = flipped(g)
        assert (t.n_left, t.n_right, t.edge_count) == (2, 3, 0)

    def test_single_edge(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 1)])
        assert flipped(g).has_edge(1, 0)
        assert flipped(g).edge_count == 1

    def test_involution_random(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, 8, 8, 0.4)
            assert flipped(flipped(g)) == g

    def test_masks_match_has_bit_reference(self):
        def reference(rows, n_cols):
            return [
                sum(1 << r for r, row in enumerate(rows) if row >> c & 1)
                for c in range(n_cols)
            ]

        rng = random.Random(17)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 9), (9, 1), (1, 1), (70, 3), (3, 70)]
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
            assert cols == reference(rows, n_cols), (rows, n_cols)
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
        assert flipped(flipped(g)) == g

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

    def test_layer_views_cached_and_immutable(self):
        g = LayeredGraph.from_edge_lists(3, 2, [(0, 1), (2, 1), (1, 0)], [(0, 0), (1, 2)])
        masks = g.middle_in
        assert masks == (0b010, 0b101)
        assert g.middle_in is masks
        assert g.into_w == (0b01, 0, 0b10) and g.into_w is g.into_w
        assert g.in_degrees() == [1, 2]
        fresh = LayeredGraph(g.n, g.m, g.adj_vm, g.adj_mw)
        assert "middle_in" not in vars(fresh) and "into_w" not in vars(fresh)
        assert fresh == g and hash(fresh) == hash(g)
        # balance_degrees fills its result's middle_in from the rows it built.
        rng = random.Random(43)
        for _ in range(30):
            n, m = rng.randint(1, 9), rng.randint(0, 9)
            vm = tuple(rng.getrandbits(m) if m else 0 for _ in range(n))
            mw = tuple(rng.getrandbits(n) for _ in range(m))
            g = LayeredGraph(n, m, vm, mw)
            if g.vm_edge_count == 0 or g.mw_edge_count == 0:
                continue
            for a, b in ((1, 1), (g.vm_edge_count, g.mw_edge_count)):
                try:
                    balanced = balance_degrees(g, a, b)
                except ValueError:
                    continue
                assert "middle_in" in vars(balanced)
                assert list(balanced.middle_in) == transpose_masks(balanced.adj_vm, m)


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
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_edge_constructors_accept_any_iterable(self):
        g = BipartiteGraph.from_edges(3, 2, ((v, v % 2) for v in range(3)))
        assert g.adj == (0b01, 0b10, 0b01)
        assert BipartiteGraph.from_edges(3, 2, [[2, 1]]) == BipartiteGraph.from_edges(3, 2, {(2, 1)})
        assert BipartiteGraph.from_edges(3, 2, []) == BipartiteGraph.empty(3, 2)
        g = LayeredGraph.from_edge_lists(2, 2, zip([0, 1], [1, 1]), iter([[1, 0], (1, 1)]))
        assert g.adj_vm == (0b10, 0b10) and g.adj_mw == (0, 0b11)

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
    """The loaders validate at C level and word errors on a slow path; these
    texts pin the wording, one case per malformed shape."""

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
        ],
    )
    def test_exact_message(self, load, doc, message):
        with pytest.raises(SchemaError) as info:
            load(doc)
        assert str(info.value) == message


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


class TestBits:
    @given(st.integers(0, (1 << 40) - 1))
    def test_bits_round_trip(self, mask):
        assert mask_of(bits(mask)) == mask
        assert len(list(bits(mask))) == mask.bit_count()
