"""Pinned report contents: every report's JSON is its fields, written by
``core.jsonable``, and keeps the same bytes.

Each SHA-256 below is of ``canonical_dumps(jsonable(report))`` for one small
fixed instance. The hashes were recorded while each report type still had an
encoder of its own, so they hold the JSON those encoders wrote. The
``deletion_traces_*`` pins hold every trial of one attack; they were recorded
while each side of the attack plan still had code of its own.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from zarank.attack import AttackConfig, run_attack_trials, survivor_statistics
from zarank.bounds import bound_report
from zarank.construct import certify_union_bound
from zarank.core import (
    BicliqueFamily,
    BipartiteGraph,
    LayeredGraph,
    RandomSource,
    canonical_dumps,
    jsonable,
    union_of,
)
from zarank.superconc import (
    edge_lower_bound_audit,
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
    return LayeredGraph(BipartiteGraph(n, n, (full,) * n), BipartiteGraph(n, n, (full,) * n))


# Every side pair has equal sizes, so symmetric_lhs is a number.
SYMMETRIC = BicliqueFamily.from_index_lists(
    16, 3, [(range(8), range(8, 16)), ([8, 9, 10], [0, 1, 2]), ([], []), (range(12), range(4, 16))]
)
# The default marked set keeps only biclique 1, so asymmetric mode attacks
# 0 and 2, whose unequal sides give p_0 = 7/11 and p_2 = 6/11.
UNEVEN = BicliqueFamily.from_index_lists(
    16, 3, [(range(14), range(8, 16)), ([8, 9, 10], [0, 1, 2]), (range(12), range(6, 16))]
)


REPORTS = {
    "bounds_symmetric": lambda: bound_report(SYMMETRIC),
    "bounds_asymmetric": lambda: bound_report(FAMILY),
    "bounds_k1": lambda: bound_report(BicliqueFamily.from_index_lists(5, 1, [(range(5), [0, 1]), ([], [3])])),
    "witness_found": lambda: has_kxk_independent_set(union_of(FAMILY), 2),
    "witness_absent": lambda: has_kxk_independent_set(BipartiteGraph(3, 3, (7, 7, 7)), 1),
    "certificate_exact": lambda: certify_union_bound(12, 3, [(4, 4)] * 10 + [(2, 7)], "exact"),
    "certificate_relaxed": lambda: certify_union_bound(12, 3, [(4, 4)] * 10 + [(2, 7)], "relaxed"),
    "deletion_trace": lambda: run_attack_trials(FAMILY, ATTACK)[0],
    "survivor_statistics": lambda: survivor_statistics(run_attack_trials(FAMILY, ATTACK)),
    "deletion_traces_symmetric_exact": lambda: run_attack_trials(
        SYMMETRIC, AttackConfig(mode="symmetric", rng=RandomSource(5, 1), trials=4)
    ),
    "deletion_traces_symmetric_none": lambda: run_attack_trials(
        SYMMETRIC, AttackConfig(mode="symmetric", rng=RandomSource(5, 1), trials=4, truncation="none")
    ),
    "deletion_traces_asymmetric_fixed_d": lambda: run_attack_trials(
        UNEVEN, AttackConfig(mode="asymmetric", rng=RandomSource(5, 1), trials=4, fixed_d=1.5)
    ),
    "sc_verdict_counterexample": lambda: verify_superconcentrator(_thin(), [3]),
    "sc_verdict_certified": lambda: verify_superconcentrator(_complete_layered(5)),
    "sc_verdict_sampled": lambda: verify_superconcentrator(
        _complete_layered(6), [2, 3], mode="sampled", samples=4, rng=RandomSource(9, 2)
    ),
    "edge_audit": lambda: edge_lower_bound_audit(_complete_layered(16), 0.01),
    "tradeoff": lambda: tradeoff_audit(_tradeoff_graph(), 0.01)[0],
}

PINNED = {
    "bounds_symmetric": "6b18947423bc927ba64cd6402c2482929be5abbe88ca3f50df175f2540a5d58e",
    "bounds_asymmetric": "43686af79d894cb74c1f258a76df6515da0eb62bd114e1ba4a1e65228c55942a",
    "bounds_k1": "d79dea1ec615c1dafaa3b9aa956e6694a03fb2fe422e17e6e3ea3e2552cda6c9",
    "witness_found": "914f33bcc4b5c82fee737eeb96982046c808c6e53b0383778aac2718a98c4d7e",
    "witness_absent": "ba9613d7d9f07b9fe5edcb98f53217fed61e8c542cd3527ac4f242917fabf2a3",
    "certificate_exact": "5e71704e8b19ef86d8f5f5f0f16a616e2a97b289db98836519d524bc46b94bc1",
    "certificate_relaxed": "83aae5799a49593074496f0b0b6e8e3db4a71bf2c2ef3d58b0d2f7e95809a7dc",
    "deletion_trace": "e00258010c943e608e10201d87861f5dff5ae99e1a50c55ef5366b5dd0123f9a",
    "survivor_statistics": "a849c866943f81444aeefa7b0f1652d82dc615d0b4c6714796987a3c7e6c7f42",
    "deletion_traces_symmetric_exact": "cb0038bf2765ff3dc288d65a65cbe1a5a743c7e0db361f1b0dbbebd0cff0d030",
    "deletion_traces_symmetric_none": "a34483ec85b3e1a02da24fd3478d22f584007fe6f6b18166efeb68f532f2a15d",
    "deletion_traces_asymmetric_fixed_d": "b44a715eb56e4e87de76235fc80c4420adac4267ce8269dcf27ee2f38ffcf225",
    "sc_verdict_counterexample": "0c0e58fc0aae6b4373237fc6f259428933b4403513d29ea8b3002a498b2d6ed5",
    "sc_verdict_certified": "7bfb2ff8a5239c49c15a7eb658edc406c4e8db98d22791b36c11d26c986ed245",
    "sc_verdict_sampled": "642daeb12eca3aa3ce8ce8745286671353001f530d4174e9a0c77f7fd8952fd0",
    "edge_audit": "32e35145e30e4927b4a258d5bc77ed5b2856ca1dbac288efcc605e78cabaea7a",
    "tradeoff": "d59099db476b7cec60e4116835049a41c4f45cafc8678e1144b2fac959171896",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_pinned(name):
    encoded = canonical_dumps(jsonable(REPORTS[name]()))
    assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == PINNED[name]


def test_survivor_frequencies_keyed_by_string_ids():
    doc = jsonable(survivor_statistics(run_attack_trials(FAMILY, ATTACK)))
    for side in ("left", "right"):
        freq = doc[f"survival_freq_{side}"]
        assert list(freq) == [str(v) for v in range(6, 12)]
        assert all(isinstance(f, float) for f in freq.values())


def test_readme_library_example_runs(capsys):
    # The example is the README's one whole walk through the library API; run
    # it as written, so that it cannot drift from that API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    sides, bounds, found = capsys.readouterr().out.splitlines()
    assert sides == "8 8" and found == "False"
    doc = ast.literal_eval(bounds)
    assert set(doc["kst"]) == {"lhs", "rhs", "satisfied", "degree_bound", "edge_bound"}
    assert doc["kst"]["satisfied"] is True and doc["hansel"]["satisfied"] is True
