"""Bitset-backed data model: biclique families, bipartite and layered graphs.

Vertices are dense integer indices 0..n-1 per side; sets of vertices are
arbitrary-precision integer bitmasks, which keeps unions, intersections and
popcounts cheap at the scales this library targets. All container types are
immutable after construction; randomized operations draw from an explicit
seeded source so that every run is reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BicliqueFamily",
    "BipartiteGraph",
    "LayeredGraph",
    "RandomSource",
    "SubsetSampler",
    "SchemaError",
    "mask_of",
    "bits",
    "union_of",
    "transpose_masks",
    "family_to_json",
    "family_from_json",
    "graph_to_json",
    "graph_from_json",
    "layered_to_json",
    "layered_from_json",
    "jsonable",
    "canonical_dumps",
    "save_json",
    "load_json",
]


class SchemaError(ValueError):
    """A document does not satisfy the on-disk JSON schema."""


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BicliqueFamily:
    """An ordered list of bicliques L_i x R_i over two n-vertex sides, with a
    target k.

    ``left[i]`` and ``right[i]`` are the side masks of biclique i over
    0..n-1. Its edge set is left x right and is never materialized edge by
    edge. Empty bicliques are legal.
    """

    n: int
    k: int
    left: tuple[int, ...] = ()
    right: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(self.left) != len(self.right):
            raise ValueError(f"{len(self.left)} left sides but {len(self.right)} right sides")
        for side, masks in (("left", self.left), ("right", self.right)):
            for idx, mask in enumerate(masks):
                if mask < 0 or mask >> self.n:
                    raise ValueError(f"{side}[{idx}] has members outside [0, {self.n})")

    @classmethod
    def from_index_lists(
        cls, n: int, k: int, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]
    ) -> "BicliqueFamily":
        left, right = [], []
        for left_indices, right_indices in pairs:
            left.append(mask_of(left_indices))
            right.append(mask_of(right_indices))
        return cls(n, k, tuple(left), tuple(right))

    @property
    def size(self) -> int:
        return len(self.left)

    def side_cardinalities(self) -> list[tuple[int, int]]:
        return [(lm.bit_count(), rm.bit_count()) for lm, rm in zip(self.left, self.right)]


@dataclass(frozen=True)
class BipartiteGraph:
    """Dense bipartite graph: one right-neighbor bitmask per left vertex.

    ``cols`` is the column view, one left-neighbor bitmask per right vertex.
    It is computed once per graph, or filled by whoever built the rows, and
    takes no part in ``==`` or ``hash``.
    """

    n_left: int
    n_right: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n_left:
            raise ValueError(f"adjacency has {len(self.adj)} rows, expected {self.n_left}")
        for v, row in enumerate(self.adj):
            if row < 0 or row >> self.n_right:
                raise ValueError(f"adjacency row {v} has neighbors outside [0, {self.n_right})")

    @classmethod
    def empty(cls, n_left: int, n_right: int) -> "BipartiteGraph":
        return cls(n_left, n_right, (0,) * n_left)

    @classmethod
    def from_edges(cls, n_left: int, n_right: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        return cls(n_left, n_right, _checked_rows(edges, n_left, n_right, "edge"))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj)

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.adj[v] >> w & 1)

    def average_degree(self) -> float:
        if self.n_left == 0:
            return 0.0
        return self.edge_count / self.n_left

    @cached_property
    def cols(self) -> tuple[int, ...]:
        return tuple(transpose_masks(self.adj, self.n_right))


def transpose_masks(rows: Sequence[int], n_cols: int) -> list[int]:
    """Column masks of a bit matrix: bit r of column c is bit c of ``rows[r]``.

    Every row must lie in [0, 2**n_cols). Each row becomes a fixed-width,
    least-significant-first bit string, ``zip`` turns the rows into columns
    and ``int(..., 2)`` parses each column back, so the work is done at C
    level rather than once per set bit.
    """
    if not rows or n_cols == 0:
        return [0] * n_cols
    strings = [format(row, "b").zfill(n_cols)[::-1] for row in rows]
    return [int("".join(col)[::-1], 2) for col in zip(*strings)]


def _union_rows(left: Sequence[int], right: Sequence[int], n: int) -> tuple[int, ...]:
    """Per vertex v of the left sides, the union of the right sides of the
    bicliques with v on the left."""
    rows = [0] * n
    for left_mask, right_mask in zip(left, right):
        if right_mask:
            for v in bits(left_mask):
                rows[v] |= right_mask
    return tuple(rows)


def union_of(family: BicliqueFamily) -> BipartiteGraph:
    """Union graph of a family: edge (v, w) present iff some biclique has v on
    the left and w on the right. Idempotent and order-independent."""
    g = BipartiteGraph(family.n, family.n, _union_rows(family.left, family.right, family.n))
    g.__dict__["cols"] = _union_rows(family.right, family.left, family.n)  # fills the cached column view
    return g


@dataclass(frozen=True)
class LayeredGraph:
    """Tripartite V-M-W graph; all edges go V->M or M->W. |V| = |W| = n.

    ``middle_in`` (per middle vertex, its V in-neighbours) and ``into_w`` (per
    W vertex, the middles reaching it) are the column views of ``adj_vm`` and
    ``adj_mw``. Like ``BipartiteGraph.cols`` each is computed once per graph,
    or filled by whoever built the rows, and takes no part in ``==`` or
    ``hash``.
    """

    n: int
    m: int
    adj_vm: tuple[int, ...]  # per V vertex, bitmask over M
    adj_mw: tuple[int, ...]  # per M vertex, bitmask over W

    def __post_init__(self) -> None:
        if len(self.adj_vm) != self.n:
            raise ValueError(f"adj_vm has {len(self.adj_vm)} rows, expected {self.n}")
        if len(self.adj_mw) != self.m:
            raise ValueError(f"adj_mw has {len(self.adj_mw)} rows, expected {self.m}")
        for v, row in enumerate(self.adj_vm):
            if row < 0 or row >> self.m:
                raise ValueError(f"adj_vm row {v} has neighbors outside [0, {self.m})")
        for u, row in enumerate(self.adj_mw):
            if row < 0 or row >> self.n:
                raise ValueError(f"adj_mw row {u} has neighbors outside [0, {self.n})")

    @classmethod
    def from_edge_lists(
        cls,
        n: int,
        m: int,
        edges_vm: Iterable[tuple[int, int]],
        edges_mw: Iterable[tuple[int, int]],
    ) -> "LayeredGraph":
        return cls(
            n,
            m,
            _checked_rows(edges_vm, n, m, "V->M edge"),
            _checked_rows(edges_mw, m, n, "M->W edge"),
        )

    @cached_property
    def middle_in(self) -> tuple[int, ...]:
        return tuple(transpose_masks(self.adj_vm, self.m))

    @cached_property
    def into_w(self) -> tuple[int, ...]:
        return tuple(transpose_masks(self.adj_mw, self.n))

    def in_degrees(self) -> list[int]:
        return [mask.bit_count() for mask in self.middle_in]

    def out_degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj_mw]

    @property
    def vm_edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_vm)

    @property
    def mw_edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_mw)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

_RNG_DOMAIN = "zarank.rng.v1"


def _digest_seed(*parts: int | str) -> int:
    payload = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream id; equal (seed, stream_id) gives identical draws.

    Parallel workers should each own a distinct ``stream_id``; sub-tasks of a
    single worker derive further independent sources with ``derive``.
    """

    seed: int
    stream_id: int = 0

    def rng(self) -> random.Random:
        return random.Random(_digest_seed(_RNG_DOMAIN, self.seed, self.stream_id))

    def derive(self, *labels: int) -> "RandomSource":
        return RandomSource(_digest_seed(_RNG_DOMAIN, self.seed, self.stream_id, *labels), 0)


class SubsetSampler:
    """Uniform m-subsets of [0, n) by partial Fisher-Yates.

    The index array persists across draws; each draw does m swaps and then
    undoes them, so a draw costs O(m) instead of O(n). Starting from any
    permutation the first m entries after the swaps are a uniform ordered
    sample, hence a uniform subset.
    """

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self._rng = rng
        self._arr = list(range(n))

    def draw_list(self, m: int) -> list[int]:
        if not 0 <= m <= self.n:
            raise ValueError(f"subset size {m} outside [0, {self.n}]")
        arr = self._arr
        randrange = self._rng.randrange
        swaps = []
        for i in range(m):
            j = randrange(i, self.n)
            arr[i], arr[j] = arr[j], arr[i]
            swaps.append(j)
        out = arr[:m]
        for i in range(m - 1, -1, -1):
            j = swaps[i]
            arr[i], arr[j] = arr[j], arr[i]
        return out


# ---------------------------------------------------------------------------
# JSON schemas
# ---------------------------------------------------------------------------


def _require_int(doc: dict, key: str, where: str) -> int:
    if key not in doc:
        raise SchemaError(f"{where}: missing required key '{key}'")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _all_indices(values: Sequence[object], n: int) -> bool:
    """True iff every value is a plain int in [0, n); checked at C level."""
    return set(map(type, values)) == {int} and 0 <= min(values) and max(values) < n


def _index_list(raw: object, n: int, where: str) -> list[int]:
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of vertex indices")
    if raw and not _all_indices(raw, n):
        # The slow path only words the first error.
        for pos, value in enumerate(raw):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"{where}[{pos}]: expected an integer, got {value!r}")
            if not 0 <= value < n:
                raise SchemaError(f"{where}[{pos}]: vertex index {value} out of range for n={n}")
    return raw


def _all_pairs(pairs: Sequence[Sequence[object]], n_from: int, n_to: int) -> bool:
    """True iff every pair is two plain ints in [0, n_from) x [0, n_to);
    checked at C level."""
    return not pairs or (
        set(map(len, pairs)) == {2} and all(map(_all_indices, zip(*pairs), (n_from, n_to)))
    )


def _rows(pairs: Iterable[Sequence[int]], n_rows: int) -> tuple[int, ...]:
    """One target mask per source vertex of an already checked edge list."""
    rows = [0] * n_rows
    for v, w in pairs:
        rows[v] |= 1 << w
    return tuple(rows)


def _checked_rows(edges: Iterable[Sequence[int]], n_from: int, n_to: int, what: str) -> tuple[int, ...]:
    """``_rows`` of an edge list from a caller, checked in the same pass: the
    first edge that is not two plain ints in [0, n_from) x [0, n_to) raises
    ``ValueError``."""
    rows = [0] * n_from
    for edge in edges:
        try:
            v, w = edge
        except (TypeError, ValueError):
            v = None
        if type(v) is int is type(w) and 0 <= v < n_from and 0 <= w < n_to:
            rows[v] |= 1 << w
        else:
            raise ValueError(f"{what} {tuple(edge)} outside {n_from}x{n_to}")
    return tuple(rows)


def _edge_list(raw: object, n_from: int, n_to: int, where: str) -> list[list[int]]:
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of [from, to] pairs")
    if not (set(map(type, raw)) <= {list} and _all_pairs(raw, n_from, n_to)):
        # The slow path only words the first error.
        for pos, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{where}[{pos}]: expected a [from, to] pair")
            for name, value, bound in (("from", pair[0], n_from), ("to", pair[1], n_to)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"{where}[{pos}].{name}: expected an integer, got {value!r}")
                if not 0 <= value < bound:
                    raise SchemaError(f"{where}[{pos}].{name}: index {value} out of range for size {bound}")
    return raw


def family_to_json(family: BicliqueFamily) -> dict:
    return {
        "n": family.n,
        "k": family.k,
        "bicliques": [
            {"left": list(bits(left)), "right": list(bits(right))}
            for left, right in zip(family.left, family.right)
        ],
    }


def family_from_json(doc: object) -> BicliqueFamily:
    if not isinstance(doc, dict):
        raise SchemaError("family: expected a JSON object")
    n = _require_int(doc, "n", "family")
    k = _require_int(doc, "k", "family")
    if not 1 <= k <= n:
        raise SchemaError(f"family.k: must satisfy 1 <= k <= n, got k={k}, n={n}")
    raw = doc.get("bicliques")
    if not isinstance(raw, list):
        raise SchemaError("family.bicliques: expected a list")
    pairs = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemaError(f"family.bicliques[{idx}]: expected an object")
        left = _index_list(item.get("left"), n, f"family.bicliques[{idx}].left")
        right = _index_list(item.get("right"), n, f"family.bicliques[{idx}].right")
        pairs.append((left, right))
    return BicliqueFamily.from_index_lists(n, k, pairs)


def graph_to_json(g: BipartiteGraph) -> dict:
    edges = [[v, w] for v in range(g.n_left) for w in bits(g.adj[v])]
    return {"n_left": g.n_left, "n_right": g.n_right, "edges": edges}


def graph_from_json(doc: object) -> BipartiteGraph:
    if not isinstance(doc, dict):
        raise SchemaError("graph: expected a JSON object")
    n_left = _require_int(doc, "n_left", "graph")
    n_right = _require_int(doc, "n_right", "graph")
    if n_left < 0 or n_right < 0:
        raise SchemaError("graph: side sizes must be >= 0")
    edges = _edge_list(doc.get("edges"), n_left, n_right, "graph.edges")
    return BipartiteGraph(n_left, n_right, _rows(edges, n_left))


def layered_to_json(g: LayeredGraph) -> dict:
    edges_vm = [[v, u] for v in range(g.n) for u in bits(g.adj_vm[v])]
    edges_mw = [[u, w] for u in range(g.m) for w in bits(g.adj_mw[u])]
    return {"n": g.n, "m": g.m, "edges_vm": edges_vm, "edges_mw": edges_mw}


def layered_from_json(doc: object) -> LayeredGraph:
    if not isinstance(doc, dict):
        raise SchemaError("layered: expected a JSON object")
    n = _require_int(doc, "n", "layered")
    m = _require_int(doc, "m", "layered")
    if n < 0 or m < 0:
        raise SchemaError("layered: layer sizes must be >= 0")
    edges_vm = _edge_list(doc.get("edges_vm"), n, m, "layered.edges_vm")
    edges_mw = _edge_list(doc.get("edges_mw"), m, n, "layered.edges_mw")
    return LayeredGraph(n, m, _rows(edges_vm, n), _rows(edges_mw, m))


_LEAVES = (int, float, str, type(None))  # JSON scalars; bool is an int


def jsonable(obj: object) -> object:
    """The JSON document of a report: a dataclass or a NamedTuple becomes
    {field name: value}, any other tuple or list a list and a dict one with
    str keys, recursively; any other value is returned as it is. Unlike
    ``dataclasses.asdict`` it copies nothing it returns unchanged and turns
    tuples into lists, so the document equals what ``json.load`` reads back.
    Scalars are passed through without a call, which keeps long float and
    index tuples cheap."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(key): value if isinstance(value, _LEAVES) else jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [value if isinstance(value, _LEAVES) else jsonable(value) for value in obj]
    return obj


def canonical_dumps(obj: object) -> str:
    """Stable JSON encoding: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def save_json(path, obj: object) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(obj))


def load_json(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
