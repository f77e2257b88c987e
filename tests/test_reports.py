"""Pinned report contents: every report type serialised by the shared field
encoder writes the same bytes as its former hand-written ``to_json``.

Each SHA-256 below is of ``canonical_dumps(report.to_json())`` for one small
fixed instance, recorded from the hand-written encoders.
"""

import hashlib

import pytest

from zarank.attack import AttackConfig, run_attack_trials, survivor_statistics
from zarank.construct import certify_union_bound
from zarank.core import BicliqueFamily, BipartiteGraph, LayeredGraph, RandomSource, canonical_dumps, union_of
from zarank.superconc import (
    edge_lower_bound_audit,
    normalize_for_tradeoff,
    tradeoff_audit,
    verify_superconcentrator,
)
from zarank.witness import has_kxk_independent_set

# Vertices 0..5 lie only in the attacked biclique 0, so the kept halves are
# 6..11 and survivor frequencies are keyed "10", "11", "6", ... in sorted order.
FAMILY = BicliqueFamily.from_index_lists(
    12,
    2,
    [
        (range(6), range(6)),
        ([6, 7, 8], [6, 7, 8]),
        ([0, 1, 2], range(3, 9)),
    ],
)
ATTACK = AttackConfig(
    mode="asymmetric", rng=RandomSource(5, 1), trials=4, marked=frozenset({1, 2}), truncation="exact"
)


def _thin() -> LayeredGraph:
    return LayeredGraph.from_edge_lists(
        3, 2, [(v, u) for v in range(3) for u in range(2)], [(u, w) for u in range(2) for w in range(3)]
    )


def _tradeoff_graph() -> LayeredGraph:
    n = 16
    return LayeredGraph.from_edge_lists(
        n,
        8,
        [((2 * u + j) % n, u) for u in range(8) for j in range(2)],
        [(u, (4 * u + j) % n) for u in range(8) for j in range(4)],
    )


def _complete_layered(n: int) -> LayeredGraph:
    full = (1 << n) - 1
    return LayeredGraph(n, n, (full,) * n, (full,) * n)


REPORTS = {
    "witness_found": lambda: has_kxk_independent_set(union_of(FAMILY), 2),
    "witness_absent": lambda: has_kxk_independent_set(BipartiteGraph(3, 3, (7, 7, 7)), 1),
    "certificate_exact": lambda: certify_union_bound(12, 3, [(4, 4)] * 10 + [(2, 7)], "exact"),
    "certificate_relaxed": lambda: certify_union_bound(12, 3, [(4, 4)] * 10 + [(2, 7)], "relaxed"),
    "deletion_trace": lambda: run_attack_trials(FAMILY, ATTACK)[0],
    "survivor_statistics": lambda: survivor_statistics(run_attack_trials(FAMILY, ATTACK)),
    "sc_verdict_counterexample": lambda: verify_superconcentrator(_thin(), [3]),
    "sc_verdict_sampled": lambda: verify_superconcentrator(
        _complete_layered(6), [2, 3], mode="sampled", samples=4, rng=RandomSource(9, 2)
    ),
    "edge_audit": lambda: edge_lower_bound_audit(_complete_layered(16), 0.01),
    "tradeoff": lambda: tradeoff_audit(normalize_for_tradeoff(_tradeoff_graph())[0], 0.01),
}

PINNED = {
    "witness_found": "914f33bcc4b5c82fee737eeb96982046c808c6e53b0383778aac2718a98c4d7e",
    "witness_absent": "ba9613d7d9f07b9fe5edcb98f53217fed61e8c542cd3527ac4f242917fabf2a3",
    "certificate_exact": "5e71704e8b19ef86d8f5f5f0f16a616e2a97b289db98836519d524bc46b94bc1",
    "certificate_relaxed": "83aae5799a49593074496f0b0b6e8e3db4a71bf2c2ef3d58b0d2f7e95809a7dc",
    "deletion_trace": "e00258010c943e608e10201d87861f5dff5ae99e1a50c55ef5366b5dd0123f9a",
    "survivor_statistics": "a849c866943f81444aeefa7b0f1652d82dc615d0b4c6714796987a3c7e6c7f42",
    "sc_verdict_counterexample": "0c0e58fc0aae6b4373237fc6f259428933b4403513d29ea8b3002a498b2d6ed5",
    "sc_verdict_sampled": "642daeb12eca3aa3ce8ce8745286671353001f530d4174e9a0c77f7fd8952fd0",
    "edge_audit": "32e35145e30e4927b4a258d5bc77ed5b2856ca1dbac288efcc605e78cabaea7a",
    "tradeoff": "d59099db476b7cec60e4116835049a41c4f45cafc8678e1144b2fac959171896",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_pinned(name):
    encoded = canonical_dumps(REPORTS[name]().to_json())
    assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == PINNED[name]


def test_survivor_frequencies_keyed_by_string_ids():
    doc = survivor_statistics(run_attack_trials(FAMILY, ATTACK)).to_json()
    for side in ("left", "right"):
        freq = doc[f"survival_freq_{side}"]
        assert list(freq) == [str(v) for v in range(6, 12)]
        assert all(isinstance(f, float) for f in freq.values())
