"""Bitset-backed data model: biclique families, bipartite and layered graphs.

Vertices are dense integer indices 0..n-1 per side; sets of vertices are
arbitrary-precision integer bitmasks, which keeps unions, intersections and
popcounts cheap at the scales this library targets. All container types are
immutable after construction; randomized operations draw from an explicit
seeded source so that every run is reproducible bit for bit.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import suppress
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

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


def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """Per byte value, the offsets of its set bits in ascending order. Each
    bit doubles the table: the values with that bit set repeat the ones
    below it with the bit appended. About 25 us, at import."""
    table: list[tuple[int, ...]] = [()]
    for bit in range(8):
        table += [offsets + (bit,) for offsets in table]
    return tuple(table)


_BYTE_BITS = _byte_bits()
_DENSITY_WINDOW = 4096


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    A lazy generator: a caller that stops early pays only for what it took.
    A dense mask is split into bytes by ``to_bytes`` and read through a
    table of each byte value's set-bit offsets, one step per byte and one
    per bit. A sparse mask keeps the lowest-bit loop, one big-int step per
    set bit, so a few bits of a long mask never pay for its empty bytes.
    Dense means more than one set bit in 32 among the mask's top
    ``_DENSITY_WINDOW`` bits, or all of them if it is shorter: on a long
    mask a full popcount would cost about one lowest-bit step, and more
    than 128 set bits in the window already make the byte path the faster.
    """
    length = mask.bit_length()
    window = min(length, _DENSITY_WINDOW)
    if (mask >> (length - window)).bit_count() << 5 > window:
        base = 0
        for byte in mask.to_bytes((length + 7) >> 3, "little"):
            if byte:
                for offset in _BYTE_BITS[byte]:
                    yield base + offset
            base += 8
    else:
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
        masks = [(mask_of(left), mask_of(right)) for left, right in pairs]
        return cls(n, k, tuple(left for left, _ in masks), tuple(right for _, right in masks))

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
        return cls(n_left, n_right, _dense(_edge_rows(edges, n_left, n_right, "edge"), n_left))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj)

    def has_edge(self, v: int, w: int) -> bool:
        return bool(self.adj[v] >> w & 1)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        return tuple(transpose_masks(self.adj, self.n_right))

    def transposed(self) -> "BipartiteGraph":
        """The graph with its sides swapped: its rows are this graph's column
        view, and its column view is filled from this graph's rows."""
        flipped = BipartiteGraph(self.n_right, self.n_left, self.cols)
        flipped.__dict__["cols"] = self.adj  # fills the cached column view
        return flipped


def transpose_masks(rows: Sequence[int], n_cols: int) -> list[int]:
    """Column masks of a bit matrix: bit r of column c is bit c of ``rows[r]``.

    Every row must lie in [0, 2**n_cols). The rows, last row first, become
    one string of fixed-width binary digits, in which bit c of row r sits at
    ``(len(rows) - 1 - r) * n_cols + n_cols - 1 - c``. Column c is then the
    strided slice ``digits[n_cols - 1 - c :: n_cols]``, most significant row
    first, and ``int(..., 2)`` parses it, so the work is done at C level
    rather than once per set bit.
    """
    if not rows or n_cols == 0:
        return [0] * n_cols
    width = f"0{n_cols}b"
    digits = "".join([format(row, width) for row in reversed(rows)])
    return [int(digits[start::n_cols], 2) for start in range(n_cols - 1, -1, -1)]


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
    """Tripartite V-M-W graph as its two bipartite layers: ``vm``, n x m,
    holds the V->M edges and ``mw``, m x n, the M->W edges. |V| = |W| = n.

    ``vm.cols`` gives per middle vertex its V in-neighbours and ``mw.cols``
    per W vertex the middles reaching it.
    """

    vm: BipartiteGraph
    mw: BipartiteGraph

    def __post_init__(self) -> None:
        if (self.mw.n_left, self.mw.n_right) != (self.vm.n_right, self.vm.n_left):
            raise ValueError(
                f"layers do not meet: V->M is {self.vm.n_left}x{self.vm.n_right}, "
                f"M->W is {self.mw.n_left}x{self.mw.n_right}"
            )

    @property
    def n(self) -> int:
        return self.vm.n_left

    @property
    def m(self) -> int:
        return self.vm.n_right

    @classmethod
    def from_edge_lists(
        cls,
        n: int,
        m: int,
        edges_vm: Iterable[tuple[int, int]],
        edges_mw: Iterable[tuple[int, int]],
    ) -> "LayeredGraph":
        rows_vm = _edge_rows(edges_vm, n, m, "V->M edge")
        rows_mw = _edge_rows(edges_mw, m, n, "M->W edge")
        return cls(BipartiteGraph(n, m, _dense(rows_vm, n)), BipartiteGraph(m, n, _dense(rows_mw, m)))


# ---------------------------------------------------------------------------
# k-subset search
# ---------------------------------------------------------------------------


DEFAULT_NODE_BUDGET = 10_000_000  # every search's node budget unless one is given


class _Budget:
    """Counts search nodes: ``tick`` fails once they pass ``limit``."""

    __slots__ = ("nodes", "limit")

    def __init__(self, limit: float):
        self.nodes = 0
        self.limit = limit

    def tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def _live(rows: Sequence[int], threshold: int) -> list[int]:
    """The positions whose row alone keeps ``threshold`` bits: the root's
    live candidates."""
    return [pos for pos in range(len(rows)) if rows[pos].bit_count() >= threshold]


def _search(
    rows: Sequence[int], domain: int, k: int, threshold: int, budget: _Budget, live: list[int], first: int, stop: int
) -> Iterator[Optional[tuple[int, list[int]]] | str]:
    """Yields the first k-subset of positions of ``rows``, in
    ``itertools.combinations`` order over ``live``, whose common mask (the
    AND of ``domain`` and its rows) keeps ``threshold`` or more bits, among
    the subsets whose first pick is one of ``live[first]`` up to
    ``live[stop - 1]``.

    ``live`` is the root's list from ``_live``, in the order the positions
    are tried. The witness search passes non-neighbour masks with threshold
    k; the Hall search of ``superconc`` passes, for a middle mask N, the rows
    ``N & ~mw.cols[w]`` with threshold |N| - k + 1, which a T keeps exactly
    when |N & N(T)| < k. Each node carries its live candidates: the later
    positions that keep the common mask at ``threshold`` bits or more.
    Common masks only shrink, so a node with fewer live candidates than
    picks still needed has no completion; a frame's stop index is the first
    candidate with too few after it. The filter that finds a node's live
    candidates gives up as soon as more have failed than the node can spare,
    since the node is then pruned whatever the rest give. The search runs on
    an explicit stack, so its depth is bounded by k only.

    A generator: it yields (common mask, chosen positions), or None when no
    such subset exists, and stops. When a tick fails it yields "budget"
    instead, holding its stack; a caller that raises ``budget.limit`` and
    calls ``next`` again resumes it at the node it had already counted.
    """
    chosen: list[int] = []
    # One frame per depth: [common mask, live candidates, next index, stop index].
    stack: list[list] = [[domain, live, first, stop]]
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
        shrunk = common & rows[pos]
        if not budget.tick():
            yield "budget"
        need = k - len(chosen)  # picks still needed, this one included
        if need == 1:
            yield shrunk, chosen + [pos]
            return
        rest: list[int] = []
        spare = len(live) - i - need  # the later candidates that may fail before this node is pruned
        for p in live[i + 1 :]:
            if (shrunk & rows[p]).bit_count() >= threshold:
                rest.append(p)
            elif spare:
                spare -= 1
            else:
                break
        else:
            chosen.append(pos)
            stack.append([shrunk, rest, 0, len(rest) - need + 2])
    yield None


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

_RNG_DOMAIN = "zarank.rng.v1"


def _digest_seed(*parts: int | str) -> int:
    import hashlib  # on use: commands that draw no random numbers never need it

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

    Swap i picks ``i + r`` with r uniform below ``width = n - i``, drawn as
    ``random.Random.randrange(i, n)`` draws it on CPython 3.10-3.13:
    ``getrandbits(width.bit_length())``, drawn again while it is at least
    ``width``. The loop is inlined, which saves the method calls, and it
    consumes exactly the stream ``randrange`` would, so every family and
    report a seed gives stays the same; tests pin the two streams equal.
    """

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self._rng = rng
        self._arr = list(range(n))

    def draw_list(self, m: int) -> list[int]:
        if not 0 <= m <= self.n:
            raise ValueError(f"subset size {m} outside [0, {self.n}]")
        n, arr = self.n, self._arr
        getrandbits = self._rng.getrandbits
        swaps = []
        for i in range(m):
            width = n - i
            k = width.bit_length()
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            j = i + r
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


def _list_size(value: int, where: str) -> int:
    """``value``, refused above ``sys.maxsize``: no list holds more entries,
    so a larger vertex count or k could only fail later, as an internal
    error."""
    if value > sys.maxsize:
        raise SchemaError(f"{where}: {value} is more than a list can hold (at most {sys.maxsize})")
    return value


def _require_int(doc: dict, key: str, where: str) -> int:
    if key not in doc:
        raise SchemaError(f"{where}: missing required key '{key}'")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return _list_size(value, f"{where}.{key}")


def _edge_rows(edges: Iterable[Sequence[int]], n_from: int, n_to: int, what: str) -> dict[int, int]:
    """The target mask of each source vertex of an edge list, each edge
    checked in the loop that ORs it into its row: the first one that is not
    two plain ints in [0, n_from) x [0, n_to) raises ``ValueError``. Only
    vertices with an edge get a row, so that a declared size allocates
    nothing until every edge has passed; ``_dense`` lists the rows."""
    rows: dict[int, int] = {}
    for edge in edges:
        try:
            v, w = edge
        except (TypeError, ValueError):
            v = None
        if not (type(v) is int is type(w) and 0 <= v < n_from and 0 <= w < n_to):
            raise ValueError(f"{what} {tuple(edge)} outside {n_from}x{n_to}")
        rows[v] = rows.get(v, 0) | 1 << w
    return rows


def _dense(rows: dict[int, int], n_rows: int) -> tuple[int, ...]:
    dense = [0] * n_rows  # one allocation, which fails at once if memory cannot hold it
    for v, row in rows.items():
        dense[v] = row
    return tuple(dense)


def _json_rows(raw: object, n_from: int, n_to: int, where: str) -> dict[int, int]:
    """``_edge_rows`` of a JSON list of [from, to] pairs, each error worded
    with its position."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of [from, to] pairs")
    with suppress(TypeError, ValueError):  # at a bad pair, the slow path below words it
        return _edge_rows(raw, n_from, n_to, where)
    for pos, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{where}[{pos}]: expected a [from, to] pair")
        for name, value, bound in (("from", pair[0], n_from), ("to", pair[1], n_to)):
            if type(value) is not int:
                raise SchemaError(f"{where}[{pos}].{name}: expected an integer, got {value!r}")
            if not 0 <= value < bound:
                raise SchemaError(f"{where}[{pos}].{name}: index {value} out of range for size {bound}")


def _json_mask(raw: object, n: int, where: str) -> int:
    """The mask of a JSON list of vertex indices, each index checked in the
    loop that ORs it in; the first bad one is worded with its position."""
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of vertex indices")
    mask = 0
    for i in raw:
        if type(i) is not int or not 0 <= i < n:
            break
        mask |= 1 << i
    else:
        return mask
    # At a bad index, the slow path words it.
    for pos, value in enumerate(raw):
        if type(value) is not int:
            raise SchemaError(f"{where}[{pos}]: expected an integer, got {value!r}")
        if not 0 <= value < n:
            raise SchemaError(f"{where}[{pos}]: vertex index {value} out of range for n={n}")


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
    left, right = [], []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SchemaError(f"family.bicliques[{idx}]: expected an object")
        left.append(_json_mask(item.get("left"), n, f"family.bicliques[{idx}].left"))
        right.append(_json_mask(item.get("right"), n, f"family.bicliques[{idx}].right"))
    return BicliqueFamily(n, k, tuple(left), tuple(right))


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
    rows = _json_rows(doc.get("edges"), n_left, n_right, "graph.edges")
    return BipartiteGraph(n_left, n_right, _dense(rows, n_left))


def layered_to_json(g: LayeredGraph) -> dict:
    edges_vm = [[v, u] for v in range(g.n) for u in bits(g.vm.adj[v])]
    edges_mw = [[u, w] for u in range(g.m) for w in bits(g.mw.adj[u])]
    return {"n": g.n, "m": g.m, "edges_vm": edges_vm, "edges_mw": edges_mw}


def layered_from_json(doc: object) -> LayeredGraph:
    if not isinstance(doc, dict):
        raise SchemaError("layered: expected a JSON object")
    n = _require_int(doc, "n", "layered")
    m = _require_int(doc, "m", "layered")
    if n < 0 or m < 0:
        raise SchemaError("layered: layer sizes must be >= 0")
    rows_vm = _json_rows(doc.get("edges_vm"), n, m, "layered.edges_vm")
    rows_mw = _json_rows(doc.get("edges_mw"), m, n, "layered.edges_mw")
    return LayeredGraph(BipartiteGraph(n, m, _dense(rows_vm, n)), BipartiteGraph(m, n, _dense(rows_mw, m)))


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
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc
