"""The benchmark's workloads: the CLI command list of one pass, and the
expected outcome of every command.

Each command is checked after it returns, outside the timed region. The
expected exit code and verdict come from facts the benchmark establishes on
its own (see ``gate``); work counts such as search nodes are never checked,
because faster algorithms change them legitimately.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gate
import gen

WORKLOADS = ("construct-deep", "large-shallow", "sc-exhaustive")

# Every budget is passed explicitly, so the environment cannot change a run.
WITNESS_BUDGET = "10000000"
PAIR_BUDGET = "2000000"
SAMPLES_PER_K = 5
ATTACK_TRIALS = 50
FAILING_ATTEMPTS = 8

Check = Callable[[], Optional[str]]


@dataclass
class Op:
    """One CLI invocation of a pass."""

    command: str  # the subcommand, for the per-subcommand sums
    argv: list[str]
    expect_rc: int
    check: Check
    prepare: Optional[Callable[[], None]] = None  # untimed, runs before argv
    outputs: tuple[str, ...] = ()  # must be byte-identical on every pass


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _family_shape_error(doc: dict, n: int, k: int, sizes: list[tuple[int, int]]) -> Optional[str]:
    if (doc["n"], doc["k"]) != (n, k):
        return f"family has (n, k) = ({doc['n']}, {doc['k']}), expected ({n}, {k})"
    got = [(len(set(b["left"])), len(set(b["right"]))) for b in doc["bicliques"]]
    if got != [tuple(s) for s in sizes]:
        return "family biclique sizes differ from the requested sizes"
    for b in doc["bicliques"]:
        if not all(0 <= v < n for v in b["left"] + b["right"]):
            return "family vertex out of range"
    return None


def _construct_verified(cert: Path, fam: Path, n: int, k: int, sizes) -> Check:
    def check():
        doc = _load(cert)
        if doc["verified"] is not True or doc["witness"] is not None:
            return f"construct did not verify a family (attempts={doc['attempts']})"
        if doc["certificate"]["certified"] is not True:
            return "certificate should hold for this instance"
        return _family_shape_error(_load(fam), n, k, sizes)

    return check


def _construct_refuted(cert: Path, fam: Path, n: int, k: int, sizes) -> Check:
    def check():
        doc = _load(cert)
        if doc["verified"] is not False or doc["attempts"] != FAILING_ATTEMPTS:
            return "construct should fail after every attempt"
        witness = doc["witness"]
        if not witness or witness["found"] is not True:
            return f"last attempt has no witness: {witness}"
        family = _load(fam)
        shape = _family_shape_error(family, n, k, sizes)
        if shape:
            return shape
        return gate.witness_error(gate.union_rows(family), n, k, witness["S"], witness["T"])

    return check


def _verify_absent(report: Path) -> Check:
    def check():
        witness = _load(report)["witness"]
        if witness["found"] is None:
            return f"node budget ran out after {witness['nodes_explored']} nodes"
        if witness["found"] is not False or witness["complete"] is not True:
            return "verify reported a witness on a certified family"
        return None

    return check


def _verify_found(report: Path, rows: list[int], n: int, k: int) -> Check:
    def check():
        doc = _load(report)
        witness = doc["witness"]
        if witness["found"] is not True:
            return f"verify missed an existing witness (found={witness['found']})"
        if doc["k"] != k:
            return f"verify searched k={doc['k']}, expected {k}"
        return gate.witness_error(rows, n, k, witness["S"], witness["T"])

    return check


def _attack_found(report: Path, rows: list[int], n: int, k: int) -> Check:
    def check():
        doc = _load(report)
        if doc["summary"]["trials"] != ATTACK_TRIALS:
            return f"attack ran {doc['summary']['trials']} trials, expected {ATTACK_TRIALS}"
        trace = doc["trace"]
        if not trace["found"] or not trace["witness"]:
            return "attack reported no witness"
        s, t = trace["witness"]
        return gate.witness_error(rows, n, k, s, t)

    return check


def _bounds_shape(report: Path, n: int, k: int, r: int) -> Check:
    def check():
        doc = _load(report)["bounds"]
        if (doc["n"], doc["k"], doc["r"]) != (n, k, r):
            return f"bounds report has (n, k, r) = ({doc['n']}, {doc['k']}, {doc['r']})"
        return None

    return check


def _sc_verdict(report: Path, expect_sc: bool, exhaustive: bool, adj_vm, adj_mw) -> Check:
    cache: dict = {}  # the oracle is slow; the counterexample repeats every pass

    def check():
        verdict = _load(report)["verdict"]
        if verdict["is_superconcentrator"] is not expect_sc:
            return f"is_superconcentrator={verdict['is_superconcentrator']}, expected {expect_sc}"
        if expect_sc:
            if verdict["counterexample"] is not None:
                return "counterexample reported for a superconcentrator"
            if verdict["certified"] is not exhaustive:
                return f"certified={verdict['certified']} in {verdict['mode']} mode"
            return None
        ce = verdict["counterexample"]
        key = (ce["k"], tuple(ce["S"]), tuple(ce["T"]), ce["max_flow"])
        if key not in cache:
            cache[key] = gate.counterexample_error(adj_vm, adj_mw, *key)
        return cache[key]

    return check


def _audit_edges(report: Path, theorem: int, evm: int, emw: int) -> Check:
    def check():
        doc = _load(report)
        if theorem == 7:
            if doc["report"]["total_edges"] != evm + emw:
                return f"theorem 7 audit counts {doc['report']['total_edges']} edges, file has {evm + emw}"
        elif doc["flipped"] is not (evm > emw):
            return f"theorem 8 audit flipped={doc['flipped']} with {evm} V-M and {emw} M-W edges"
        return None

    return check


def _sweep_rows(csv_path: Path, seeds: list[int]) -> Check:
    def check():
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(row["seed"]) for row in rows] != seeds:
            return "sweep rows do not match the grid seeds"
        if any(row["verified"] != "true" for row in rows):
            return "sweep point failed to verify a strongly certified instance"
        return None

    return check


def _relabel(src: Path, dst: Path, workload: str, seed: int, label: str) -> Callable[[], None]:
    def prepare():
        gen.write_json(dst, gen.relabel_family(_load(src), gen.rng_for(workload, seed, label)))

    return prepare


def build_ops(workload: str, seed: int, files: dict[str, str], out: Path) -> list[Op]:
    """The command list of one pass over ``workload``; outputs go to ``out``."""
    s = str(seed)
    ops: list[Op] = []
    if workload == "construct-deep":
        for n, k, r in gen.DEEP_INSTANCES:
            sizes = [(n // k, n // k)] * r
            fam, cert = out / f"family{n}.json", out / f"cert{n}.json"
            relabelled, ver, bnd = out / f"family{n}r.json", out / f"verify{n}.json", out / f"bounds{n}.json"
            # `construct` draws its family from its own --seed, and the cost
            # of proving absence varies 2.5x between seeds (280k-701k nodes at
            # n=200), so it keeps the roadmap's seed 1. The workload seed
            # relabels the vertices that `verify` and `bounds` see, which
            # keeps every verdict and node count but changes vertex order.
            ops.append(Op(
                "construct",
                ["construct", "--n", str(n), "--k", str(k), "--sizes", files[f"sizes{n}"],
                 "--seed", "1", "--mode", "exact", "--max-attempts", "4",
                 "--budget", WITNESS_BUDGET, "--out-family", str(fam), "--out-cert", str(cert), "--force"],
                0, _construct_verified(cert, fam, n, k, sizes), outputs=(str(fam), str(cert)),
            ))
            ops.append(Op(
                "verify",
                ["verify", "--family", str(relabelled), "--budget", WITNESS_BUDGET,
                 "--json-out", str(ver), "--force"],
                0, _verify_absent(ver), _relabel(fam, relabelled, workload, seed, f"relabel{n}"),
                outputs=(str(ver),),
            ))
            ops.append(Op(
                "bounds", ["bounds", "--family", str(relabelled), "--json-out", str(bnd), "--force"],
                0, _bounds_shape(bnd, n, k, r), outputs=(str(bnd),),
            ))
    elif workload == "large-shallow":
        family = _load(files["family1000"])
        rows = gate.union_rows(family)
        n, k = gen.SHALLOW_N, gen.SHALLOW_K
        ver, att = out / "verify.json", out / "attack.json"
        fam, cert = out / "failed_family.json", out / "failed_cert.json"
        bnd, sampled = out / "bounds.json", out / "sampled.json"
        t7, t8 = out / "audit7.json", out / "audit8.json"
        ops.append(Op(
            "verify",
            ["verify", "--family", files["family1000"], "--budget", WITNESS_BUDGET,
             "--json-out", str(ver), "--force"],
            1, _verify_found(ver, rows, n, k), outputs=(str(ver),),
        ))
        ops.append(Op(
            "attack",
            ["attack", "--family", files["family1000"], "--mode", "asym", "--trials", str(ATTACK_TRIALS),
             "--seed", s, "--budget", WITNESS_BUDGET, "--json-out", str(att), "--force"],
            1, _attack_found(att, rows, n, k), outputs=(str(att),),
        ))
        ops.append(Op(
            "construct",
            ["construct", "--n", str(n), "--k", str(k), "--sizes", files["sizes1000"], "--seed", s,
             "--mode", "exact", "--max-attempts", str(FAILING_ATTEMPTS), "--budget", WITNESS_BUDGET,
             "--out-family", str(fam), "--out-cert", str(cert), "--force"],
            1, _construct_refuted(cert, fam, n, k, gen.SHALLOW_SIZES), outputs=(str(fam), str(cert)),
        ))
        ops.append(Op(
            "bounds", ["bounds", "--family", files["family2000"], "--json-out", str(bnd), "--force"],
            0, _bounds_shape(bnd, gen.BOUNDS_N, gen.BOUNDS_K, gen.BOUNDS_R), outputs=(str(bnd),),
        ))
        n64, m64, vm, mw = gate.layered_masks(_load(files["layered64"]))
        if not gate.has_planted_core(n64, m64, vm, mw):
            raise RuntimeError("generated sampled-mode graph lacks its planted certificate")
        ops.append(Op(
            "sc-verify",
            ["sc-verify", "--layered", files["layered64"], "--mode", "sampled",
             "--samples", str(SAMPLES_PER_K), "--seed", s, "--pair-budget", PAIR_BUDGET,
             "--json-out", str(sampled), "--force"],
            0, _sc_verdict(sampled, True, False, vm, mw), outputs=(str(sampled),),
        ))
        audit = _load(files["layered2048"])
        evm, emw = len(audit["edges_vm"]), len(audit["edges_mw"])
        for theorem, report in ((7, t7), (8, t8)):
            ops.append(Op(
                "sc-analyze",
                ["sc-analyze", "--layered", files["layered2048"], "--theorem", str(theorem),
                 "--json-out", str(report), "--force"],
                0, _audit_edges(report, theorem, evm, emw), outputs=(str(report),),
            ))
        spec = _load(files["sweep"])
        sweep_csv = Path(files["sweep"]).parent / spec["output_csv"]
        ops.append(Op(
            "sweep", ["sweep", "--spec", files["sweep"], "--jobs", "1", "--force"],
            0, _sweep_rows(sweep_csv, spec["grid"]["seed"]), outputs=(str(sweep_csv),),
        ))
    elif workload == "sc-exhaustive":
        for name in ("complete9", "complete9m8", "dense9"):
            n, m, vm, mw = gate.layered_masks(_load(files[name]))
            expect_sc = gate.is_superconcentrator(n, m, vm, mw)
            report = out / f"{name}_verdict.json"
            ops.append(Op(
                "sc-verify",
                ["sc-verify", "--layered", files[name], "--k-range", "all", "--pair-budget", PAIR_BUDGET,
                 "--json-out", str(report), "--force"],
                0 if expect_sc else 1, _sc_verdict(report, expect_sc, True, vm, mw),
                outputs=(str(report),),
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
