import io
import random
import time
from contextlib import redirect_stdout
from itertools import combinations

import pytest

import gate
import gen
import spans
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = gen.generate(workload, 3, tmp_path / "a")
    second = gen.generate(workload, 3, tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        with open(first[name], "rb") as fa, open(second[name], "rb") as fb:
            assert fa.read() == fb.read(), name


def test_seed_changes_random_inputs(tmp_path):
    one = gen.generate("large-shallow", 1, tmp_path / "a")
    two = gen.generate("large-shallow", 2, tmp_path / "b")
    for name in ("family1000", "family2000", "layered64", "layered2048", "sweep"):
        with open(one[name], "rb") as fa, open(two[name], "rb") as fb:
            assert fa.read() != fb.read(), name


def _flow_superconcentrator(n, m, adj_vm, adj_mw):
    brute = gate.oracles().brute_max_two_paths
    return all(
        brute(adj_vm, adj_mw, s, t) >= k
        for k in range(1, n + 1)
        for s in combinations(range(n), k)
        for t in combinations(range(n), k)
    )


def test_hall_criterion_matches_flow_oracle():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        p = rng.uniform(0.3, 0.95)
        adj_vm = gen.random_masks(rng, n, m, p)
        adj_mw = gen.random_masks(rng, m, n, p)
        expected = _flow_superconcentrator(n, m, adj_vm, adj_mw)
        assert gate.is_superconcentrator(n, m, adj_vm, adj_mw) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_planted_core_is_a_superconcentrator():
    rng = random.Random(2)
    m, adj_vm, adj_mw = gen.planted_superconcentrator(rng, 6, 2, 0.1)
    assert gate.has_planted_core(6, m, adj_vm, adj_mw)
    assert gate.is_superconcentrator(6, m, adj_vm, adj_mw)
    adj_mw = [row if u else 0 for u, row in enumerate(adj_mw)]  # unmatch one W vertex
    assert not gate.has_planted_core(6, m, adj_vm, adj_mw)


def test_witness_check_rejects_an_edge():
    family = {"n": 4, "k": 2, "bicliques": [{"left": [0], "right": [1]}]}
    rows = gate.union_rows(family)
    assert gate.witness_error(rows, 4, 2, [0, 2], [2, 3]) is None
    assert "edge" in gate.witness_error(rows, 4, 2, [0, 2], [1, 3])
    assert "sizes" in gate.witness_error(rows, 4, 2, [0], [1, 3])


def test_relabelling_keeps_absence_proof_work():
    from zarank.core import family_from_json, union_of
    from zarank.witness import has_kxk_independent_set

    doc = gen.random_family(random.Random(1), 80, 8, [(10, 10)] * 90)
    moved = gen.relabel_family(doc, random.Random(9))
    a = has_kxk_independent_set(union_of(family_from_json(doc)), 8)
    b = has_kxk_independent_set(union_of(family_from_json(moved)), 8)
    assert a.found is b.found is False
    assert a.nodes_explored == b.nodes_explored > 1000


def _run_traced(tmp_path):
    import zarank.cli as cli

    files = gen.generate("sc-exhaustive", 1, tmp_path / "in")
    family = gen.random_family(random.Random(4), 30, 3, [(6, 6)] * 20)
    fam_path = gen.write_json(tmp_path / "family.json", family)
    sizes = gen.write_json(tmp_path / "sizes.json", [[6, 6]] * 20)
    argvs = [
        ["construct", "--n", "30", "--k", "3", "--sizes", sizes, "--seed", "1", "--budget", "100000"],
        ["verify", "--family", fam_path, "--budget", "100000"],
        ["bounds", "--family", fam_path],
        ["attack", "--family", fam_path, "--mode", "asym", "--trials", "3", "--seed", "1"],
        ["sc-verify", "--layered", files["complete9m8"], "--k-range", "1..3"],
    ]
    tracer = spans.Tracer()
    wall = 0.0
    with tracer, redirect_stdout(io.StringIO()):
        for argv in argvs:
            start = time.perf_counter()
            cli.main(argv)
            wall += time.perf_counter() - start
    return tracer, wall


def test_self_times_sum_to_traced_wall_time(tmp_path):
    tracer, wall = _run_traced(tmp_path)
    by_name, roots = spans.summarize(tracer.spans)
    selfs = spans.module_self(by_name)
    assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert 0.0 < roots <= wall
    assert by_name["cli.main"][0] == 5
    metrics = spans.layer_metrics(tracer.spans, tracer.counters, wall)
    assert 0.0 <= metrics["trace.unattributed_frac"] < 0.05
    assert metrics["witness.calls"] >= 2 and metrics["witness.nodes"] > 0
    assert metrics["superconc.pairs"] == metrics["superconc.flows"] == 9**2 + 36**2 + 84**2
    assert metrics["attack.trials"] == 3


def test_tracer_wraps_every_binding_and_restores_them():
    import zarank
    import zarank.attack
    import zarank.cli
    import zarank.construct
    import zarank.core
    import zarank.superconc
    import zarank.witness

    originals = (zarank.core.union_of, zarank.core.transpose_masks, zarank.core.SubsetSampler.draw_list)
    tracer = spans.Tracer()
    with tracer:
        wrapped = zarank.core.union_of
        assert wrapped is not originals[0]
        for module in (zarank, zarank.cli, zarank.construct, zarank.attack):
            assert module.union_of is wrapped
        assert zarank.witness.transpose_masks is zarank.superconc.transpose_masks is zarank.core.transpose_masks
        assert zarank.core.transpose_masks is not originals[1]
        assert zarank.cli.load_json is zarank.core.load_json
        assert zarank.core.bits.__name__ == "bits"  # generator functions stay unwrapped
    assert zarank.core.union_of is zarank.cli.union_of is originals[0]
    assert zarank.witness.transpose_masks is originals[1]
    assert zarank.core.SubsetSampler.draw_list is originals[2]
