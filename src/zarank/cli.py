"""Unified command-line entry point.

Subcommands: bounds, construct, verify, attack, sc-verify, sc-analyze, sweep.
Every randomized subcommand takes an explicit --seed; reruns with identical
inputs, seed and version produce byte-identical reports. Exit codes: 0 for a
clean run, a search whose node budget ran out among them, 1 when the run
found a refutation (a witness, a counterexample, or a failed construction),
2 for usage or validation errors, 3 for an internal
error (any other exception, such as ``MemoryError`` or a witness that failed
re-verification).

Every command but ``sweep`` is sweepable, and all of them share one layer.
Each has a ``run_<command>`` that takes checked parameters and returns
``(report_doc, refuted)``, and an entry in ``COMMANDS`` that states every
parameter once. The CLI flags, the keys a sweep spec accepts and the
parameter checks all come from that entry, and a sweep's CSV row is a
projection of the same report the command writes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .bounds import Constants, bound_report  # Constants gives the theorem flags' defaults
from .core import (
    DEFAULT_NODE_BUDGET,
    RandomSource,
    SchemaError,
    _list_size,
    family_from_json,
    family_to_json,
    graph_from_json,
    jsonable,
    layered_from_json,
    load_json,
    save_json,
    union_of,
)

__all__ = [
    "main",
    "run_attack",
    "run_bounds",
    "run_construct",
    "run_sc_analyze",
    "run_sc_verify",
    "run_verify",
]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _at_least_one(value: int, where: str) -> int:
    if value < 1:
        raise SchemaError(f"{where}: expected an integer >= 1, got {value!r}")
    return value


def _refuse_overwrite(path, force: bool) -> None:
    if not force and Path(path).exists():
        raise SchemaError(f"refusing to overwrite {path} (use --force)")


def _claim_outputs(outputs: dict, inputs, force: bool) -> None:
    """Refuse, before a run that may take long, any output in ``outputs``
    (label to path) that would be lost or would destroy data: an empty path,
    two outputs that name one file, an existing output that is one of the
    run's ``(label, path)`` ``inputs``, and an existing output without
    ``force``. Only an existing file can be an input, so a fresh output
    costs one ``stat``."""
    for label, path in outputs.items():
        if not path:
            raise SchemaError(f"{label}: expected a file path, got {path!r}")
    if len(outputs) == 2:  # construct's family and certificate
        (first, a), (second, b) = outputs.items()
        if Path(a).resolve() == Path(b).resolve():
            raise SchemaError(f"{first} and {second} name one file: {a}")
    for label, path in outputs.items():
        if os.path.exists(path):
            for source_label, source in inputs:
                if os.path.exists(source) and os.path.samefile(path, source):
                    raise SchemaError(f"{label} and {source_label} name one file: {path}")
            _refuse_overwrite(path, force)


def _output_path(path, force: bool) -> Path:
    """``path`` as a Path whose directory exists; refused if the file exists
    and ``force`` is not set."""
    _refuse_overwrite(path, force)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def _load_family(path: str):
    return family_from_json(load_json(path))


def _parse_sizes_doc(doc: object, where: str) -> list[tuple[int, int]]:
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected a list of [m, n] pairs")
    sizes = []
    for idx, pair in enumerate(doc):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"{where}[{idx}]: expected a [m, n] pair")
        m, n2 = pair
        for name, value in (("m", m), ("n", n2)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise SchemaError(f"{where}[{idx}].{name}: expected a non-negative integer")
        sizes.append((m, n2))
    return sizes


def _parse_marked(raw: str, where: str) -> frozenset[int]:
    if raw.strip() == "":
        return frozenset()
    try:
        return frozenset(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise SchemaError(f"{where}: expected comma-separated integers, got {raw!r}") from exc


def _parse_k_range(raw: str, n: int) -> list[int] | str:
    if raw == "all":
        return "all"
    lo, dots, hi = raw.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError as exc:
        raise SchemaError(f"--k-range: expected 'k', 'a..b' or 'all', got {raw!r}") from exc
    if not 1 <= lo <= hi <= n:
        raise SchemaError(f"--k-range {raw!r} outside [1, {n}]")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

# Accepted Python types and their description, per parameter kind. A Path is
# a file, relative to the spec in a sweep; a list is read from a JSON file on
# the command line and given inline in a sweep.
_KINDS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    Path: (str, "a file path"),
    list: (list, "a list"),
}


@dataclass(frozen=True)
class Param:
    """One parameter of a sweepable command: the flag ``--name`` (underscores
    as dashes) on the command line and the key ``name`` in a sweep spec."""

    name: str
    kind: type = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: Optional[str] = None
    parse: Optional[Callable[[object, str], object]] = None  # (value, where) -> value
    switch: Optional[tuple[str, object]] = None  # CLI (flag, value) in place of --name VALUE
    exclusive: Optional[str] = None  # exactly one of this parameter and that one is given

    def check(self, value: object, where: str) -> object:
        if value is None and self.default is None and not self.required:
            return None
        types, described = _KINDS[self.kind]
        if isinstance(value, bool) or not isinstance(value, types):
            raise SchemaError(f"{where}: expected {described}, got {value!r}")
        if self.choices and value not in self.choices:
            raise SchemaError(f"{where}: expected one of {list(self.choices)}, got {value!r}")
        if self.kind is float:
            try:
                number = float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise SchemaError(f"{where}: expected a finite number, got {value!r}")
            value = number
        return self.parse(value, where) if self.parse else value


def _check_params(params: tuple[Param, ...], given: dict, where: Callable[[str], str]) -> dict:
    """Every parameter's value: checked when given, its default otherwise."""
    checked = {}
    for p in params:
        if p.name in given:
            checked[p.name] = p.check(given[p.name], where(p.name))
        elif p.required:
            raise SchemaError(f"{where(p.name)}: missing required parameter")
        else:
            checked[p.name] = p.default
        if p.exclusive and (given.get(p.name) is None) == (given.get(p.exclusive) is None):
            raise SchemaError(
                f"{where(p.name)}: give exactly one of {where(p.name)} or {where(p.exclusive)}"
            )
    return checked


# ---------------------------------------------------------------------------
# Commands: run_<command>(params) -> (report_doc, refuted)
#
# Each imports the modules it calls when it runs. Every CLI call is a fresh
# interpreter, and importing every command's modules took longer than the
# whole of a small command.
# ---------------------------------------------------------------------------


def run_construct(p: dict) -> tuple[dict, bool]:
    """The certificate doc; its ``family`` key holds the last family drawn."""
    from .construct import certify_union_bound, construct_until_verified

    cert = certify_union_bound(p["n"], p["k"], p["sizes"], p["mode"])
    outcome = construct_until_verified(
        p["n"], p["k"], p["sizes"], RandomSource(p["seed"], p["stream"]),
        p["max_attempts"], p["budget"],
    )
    verified = outcome.verification.found is False
    doc = {
        "version": __version__,
        "seed": p["seed"],
        "stream": p["stream"],
        "certificate": jsonable(cert),
        "verified": verified,
        "attempts": outcome.attempts,
        "witness": None if verified else jsonable(outcome.verification),
        "family": family_to_json(outcome.family),
    }
    return doc, not verified


def run_verify(p: dict) -> tuple[dict, bool]:
    from .witness import has_kxk_independent_set

    if p["family"] is not None:
        family = _load_family(p["family"])
        graph, k = union_of(family), family.k if p["k"] is None else p["k"]
    else:
        if p["k"] is None:
            raise SchemaError("k is required with a graph")
        graph, k = graph_from_json(load_json(p["graph"])), p["k"]
    result = has_kxk_independent_set(graph, k, p["budget"])
    return {"version": __version__, "k": k, "witness": jsonable(result)}, bool(result.found)


def run_attack(p: dict) -> tuple[dict, bool]:
    from .attack import AttackConfig, run_attack_trials, survivor_statistics

    config = AttackConfig(
        mode={"sym": "symmetric", "asym": "asymmetric"}.get(p["mode"], p["mode"]),
        rng=RandomSource(p["seed"], p["stream"]),
        trials=p["trials"],
        marked=p["marked"],
        truncation=p["truncation"],
        fixed_d=p["fixed_d"],
        node_budget=p["budget"],
    )
    traces = run_attack_trials(_load_family(p["family"]), config)
    hits = [t for t in traces if t.found]
    if config.truncation == "exact":
        summary = jsonable(survivor_statistics(traces))
    else:
        summary = {"trials": len(traces), "found_count": len(hits)}
    doc = {
        "version": __version__,
        "seed": p["seed"],
        "stream": p["stream"],
        "trace": jsonable(hits[0] if hits else traces[-1]),
        "summary": summary,
    }
    return doc, bool(hits)


def run_bounds(p: dict) -> tuple[dict, bool]:
    constants = Constants(A=p["A"], B=p["B"], C=p["C"], D=p["D"])
    report = bound_report(_load_family(p["family"]), constants=constants)
    return {"version": __version__, "bounds": jsonable(report)}, False


def run_sc_verify(p: dict) -> tuple[dict, bool]:
    from .superconc import verify_superconcentrator

    g = layered_from_json(load_json(p["layered"]))
    ks = _parse_k_range(p["k_range"], g.n)
    rng = None
    if p["mode"] == "sampled":
        if p["seed"] is None:
            raise SchemaError("a seed is required in sampled mode")
        rng = RandomSource(p["seed"], p["stream"])
    verdict = verify_superconcentrator(
        g, ks, mode=p["mode"], samples=p["samples"], rng=rng, node_budget=p["pair_budget"]
    )
    return {"version": __version__, "verdict": jsonable(verdict)}, verdict.is_superconcentrator is False


def run_sc_analyze(p: dict) -> tuple[dict, bool]:
    from .superconc import edge_lower_bound_audit, tradeoff_audit

    constants = Constants(B=p["B"], D=p["D"])
    g = layered_from_json(load_json(p["layered"]))
    if p["theorem"] == 7:
        report = edge_lower_bound_audit(g, constants.B)
        return {"version": __version__, "theorem": 7, "report": jsonable(report)}, False
    report, flipped = tradeoff_audit(g, constants.D)
    return {"version": __version__, "theorem": 8, "flipped": flipped, "report": jsonable(report)}, False


# ---------------------------------------------------------------------------
# What each command prints
# ---------------------------------------------------------------------------


def _show_construct(doc: dict) -> None:
    cert = doc["certificate"]
    print(
        f"certificate ({cert['mode']}): log2 failure bound = {cert['log2_failure_bound']:.4f} "
        f"certified={cert['certified']}"
    )
    if doc["verified"]:
        print(f"verified family after {doc['attempts']} attempt(s)")
        return
    witness = doc["witness"]
    if witness["found"]:
        detail = f"last attempt has witness S={witness['S']}, T={witness['T']}"
    else:
        detail = "last attempt could not be verified within the node budget"
    print(f"FAILED: no verified family after {doc['attempts']} attempts; {detail}")


def _show_verify(doc: dict) -> None:
    witness = doc["witness"]
    if witness["found"]:
        print(f"witness found: S={witness['S']} T={witness['T']}")
    elif witness["found"] is False:
        print(f"no {doc['k']}x{doc['k']} independent set (complete search, {witness['nodes_explored']} nodes)")
    else:
        print(f"inconclusive: node budget exhausted after {witness['nodes_explored']} nodes")


def _show_attack(doc: dict) -> None:
    trace = doc["trace"]
    if trace["found"]:
        s, t = trace["witness"]
        print(f"witness found in trial {trace['trial']}: S={s} T={t}")
    else:
        print(f"no witness in {doc['summary']['trials']} trial(s)")


def _show_bounds(doc: dict) -> None:
    b = doc["bounds"]
    kst, hansel = b["kst"], b["hansel"]
    print(f"family: n={b['n']} k={b['k']} r={b['r']} regime={b['in_theorem_regime']}")
    print(f"counting:  lhs={kst['lhs']:.6g} rhs={kst['rhs']:.6g} satisfied={kst['satisfied']}")
    print(f"           degree>={kst['degree_bound']:.6g} edges>={kst['edge_bound']:.6g}")
    print(f"vertexsum: lhs={hansel['lhs']:.6g} rhs={hansel['rhs']:.6g} satisfied={hansel['satisfied']}")
    if b["symmetric_lhs"] is not None:
        print(f"symmetric: lhs={b['symmetric_lhs']:.6g}")
    else:
        print("symmetric: n/a (asymmetric family)")
    print(f"entropy:   min={b['asymmetric_min']:.6g} argmin_X={b['asymmetric_argmin_x']}")
    print(f"unit k*log2(n)={b['rhs_unit']:.6g}")


def _show_sc_verify(doc: dict) -> None:
    verdict = doc["verdict"]
    ce = verdict["counterexample"]
    if ce:
        print(f"counterexample at k={ce['k']}: S={ce['S']} T={ce['T']} max_flow={ce['max_flow']}")
    elif verdict["certified"]:
        print(f"superconcentrator verified exhaustively ({verdict['pairs_checked']} pairs)")
    elif verdict["is_superconcentrator"] is None:
        print(f"inconclusive: node budget exhausted after {verdict['pairs_checked']} pairs decided")
    else:
        print(f"no counterexample in {verdict['pairs_checked']} sampled pairs (not a certificate)")


def _show_sc_analyze(doc: dict) -> None:
    r = doc["report"]
    if doc["theorem"] == 7:
        print(
            f"ladder {r['ladder']} (need >= {r['ladder_min_required']}), "
            f"bands disjoint={r['bands_disjoint']}, "
            f"total edges {r['total_edges']} vs target {r['total_edge_target']:.4g}"
        )
    else:
        print(
            f"a={r['a']:.4g} b={r['b']:.4g} L={r['ladder_length']} k0={r['k0']} "
            f"pigeonhole_exact={r['pigeonhole_exact']} "
            f"lhs={r['tradeoff_lhs']:.4g} vs {r['constant']}*(log2 n)^2={r['constant'] * r['rhs_scale']:.4g}"
        )


@dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[dict], tuple[dict, bool]]
    show: Callable[[dict], None]
    params: tuple[Param, ...]
    # Sweep CSV columns after index, command and version: "name" or
    # "name=path", a dotted path into the report, else into the parameters;
    # "#path" counts a list.
    columns: tuple[str, ...]
    # The submodules ``run`` imports, which a parallel sweep loads before it
    # forks its workers.
    modules: tuple[str, ...] = ()


_FAMILY = Param("family", Path, required=True)
_WITNESS_BUDGET = Param("budget", int, DEFAULT_NODE_BUDGET, help="witness search node budget", parse=_at_least_one)
_STREAM = Param("stream", int, 0)

COMMANDS = {
    "bounds": Command(
        "evaluate every closed-form condition on a family",
        run_bounds,
        _show_bounds,
        (_FAMILY, *(Param(name, float, getattr(Constants, name)) for name in "ABCD")),
        (
            "family", "seed", "n=bounds.n", "k=bounds.k", "r=bounds.r",
            "kst_lhs=bounds.kst.lhs", "kst_rhs=bounds.kst.rhs", "kst_satisfied=bounds.kst.satisfied",
            "hansel_lhs=bounds.hansel.lhs", "hansel_rhs=bounds.hansel.rhs",
            "hansel_satisfied=bounds.hansel.satisfied", "symmetric_lhs=bounds.symmetric_lhs",
            "asymmetric_min=bounds.asymmetric_min", "rhs_unit=bounds.rhs_unit",
        ),
    ),
    "construct": Command(
        "draw random families until one verifies",
        run_construct,
        _show_construct,
        (
            Param("n", int, required=True, parse=_list_size),
            Param("k", int, required=True),
            Param("sizes", list, required=True, help="JSON file: list of [m, n] pairs", parse=_parse_sizes_doc),
            Param("seed", int, required=True),
            _STREAM,
            Param("mode", str, "exact", choices=("exact", "relaxed")),
            Param("max_attempts", int, 16, parse=_at_least_one),
            _WITNESS_BUDGET,
        ),
        (
            "n", "k", "sizes", "mode", "max_attempts", "seed",
            "certified=certificate.certified", "log2_failure_bound=certificate.log2_failure_bound",
            "attempts", "verified",
        ),
        ("construct", "witness"),
    ),
    "verify": Command(
        "search for a k x k independent set",
        run_verify,
        _show_verify,
        (Param("family", Path, exclusive="graph"), Param("graph", Path), Param("k", int), _WITNESS_BUDGET),
        (
            "family", "k", "seed", "found=witness.found", "complete=witness.complete",
            "nodes_explored=witness.nodes_explored",
        ),
        ("witness",),
    ),
    "attack": Command(
        "random-deletion refuter",
        run_attack,
        _show_attack,
        (
            _FAMILY,
            Param("mode", str, required=True, choices=("sym", "asym", "symmetric", "asymmetric")),
            Param("marked", str, help="comma-separated kept indices (asymmetric)", parse=_parse_marked),
            Param("trials", int, 1, parse=_at_least_one),
            Param("seed", int, required=True),
            _STREAM,
            Param("truncation", str, "exact", choices=("exact", "none"), switch=("--no-truncation", "none")),
            Param("fixed_d", float),
            _WITNESS_BUDGET,
        ),
        (
            "family", "mode", "trials", "truncation", "seed", "found=trace.found",
            "trial=trace.trial", "d_left=trace.d_left", "d_right=trace.d_right",
            "x_surv=#trace.x_surv", "y_surv=#trace.y_surv",
            "attacked_pairs_surviving=trace.attacked_edge_pairs_surviving",
        ),
        ("attack", "witness"),
    ),
    "sc-verify": Command(
        "verify a depth-two superconcentrator",
        run_sc_verify,
        _show_sc_verify,
        (
            Param("layered", Path, required=True),
            Param("k_range", str, "all", help="'all', a single k, or 'a..b'"),
            Param("mode", str, "exhaustive", choices=("exhaustive", "sampled")),
            Param("samples", int, 100),
            Param("seed", int),
            _STREAM,
            Param(
                "pair_budget", int, DEFAULT_NODE_BUDGET, help="node budget of the exhaustive search", parse=_at_least_one
            ),
        ),
        (
            "layered", "k_range", "mode", "samples", "seed",
            "is_superconcentrator=verdict.is_superconcentrator",
            "pairs_checked=verdict.pairs_checked", "counterexample_k=verdict.counterexample.k",
        ),
        ("superconc",),
    ),
    "sc-analyze": Command(
        "degree-decomposition audits",
        run_sc_analyze,
        _show_sc_analyze,
        (
            Param("layered", Path, required=True),
            Param("theorem", int, required=True, choices=(7, 8)),
            *(Param(name, float, getattr(Constants, name)) for name in "BD"),
        ),
        (
            "layered", "theorem", "B", "D", "seed", "n=report.n", "m=report.m",
            "constant=report.constant", "rungs=#report.ladder",
        ),
        ("superconc",),
    ),
}


def _cmd_run(args: argparse.Namespace) -> int:
    """Any command of ``COMMANDS``: check, run, print, write the report."""
    command = COMMANDS[args.command]

    def flag(name: str) -> str:
        return "--" + name.replace("_", "-")

    given = {p.name: getattr(args, p.name) for p in command.params if hasattr(args, p.name)}
    inputs = [(flag(p.name), given[p.name]) for p in command.params if p.kind in (Path, list) and p.name in given]
    outputs = {flag(name): getattr(args, name) for name in ("out_family", "out_cert", "json_out")
               if getattr(args, name, None) is not None}
    if "sizes" in given:
        given["sizes"] = load_json(given["sizes"])  # a JSON file on the command line
    params = _check_params(command.params, given, flag)
    _claim_outputs(outputs, inputs, args.force)
    doc, refuted = command.run(params)
    family = doc.pop("family", None)
    command.show(doc)
    for label, path in outputs.items():  # the family first
        save_json(_output_path(path, args.force), family if label == "--out-family" else doc)
    return EXIT_REFUTED if refuted else EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _spec_get(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise SchemaError(f"{where}.{key}: missing required key")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _sweep_points(name: str, grid: dict, params: dict) -> list[dict]:
    """Every point of ``grid``, completed with the fixed ``params`` and
    checked against the command's parameters. Every grid names its seeds; a
    command that takes no seed gets one as a replicate label. Later axes vary
    faster, the seed fastest."""
    entries = COMMANDS[name].params
    if "seed" not in [p.name for p in entries]:
        entries += (Param("seed", int, required=True),)
    axes = [p.name for p in entries if p.name != "seed"] + ["seed"]
    for part, keys in (("grid", grid), ("params", params)):
        for key in keys:
            if key not in axes:
                raise SchemaError(f"spec.{part}.{key}: not a parameter of '{name}' (allowed: {axes})")
    if "seed" not in grid:
        raise SchemaError("spec.grid.seed: every sweep grid must name its seeds")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise SchemaError(f"spec.grid.{key}: expected a non-empty list of values")
        if key in params:
            raise SchemaError(f"spec.params.{key}: also present in the grid")
    points = [dict(params)]
    for axis in axes:
        if axis in grid:
            points = [dict(p, **{axis: value}) for p in points for value in grid[axis]]

    def where(key: str) -> str:
        return f"spec.params.{key}" if key in params else f"spec.grid.{key}"

    return [_check_params(entries, point, where) for point in points]


def _column(source: dict, column: str) -> str:
    header, _, path = column.partition("=")
    count = path.startswith("#")
    value = source
    for key in (path.lstrip("#") or header).split("."):
        value = value[key] if value is not None else None
    if count:
        value = len(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _sweep_point(task: tuple) -> tuple[list, bool]:
    index, name, point, params = task
    command = COMMANDS[name]
    doc, refuted = command.run(params)
    source = {**point, **doc}
    return [str(index), name] + [_column(source, c) for c in ("version",) + command.columns], refuted


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SchemaError(f"--jobs: expected an integer >= 1, got {args.jobs}")
    spec_path = Path(args.spec)
    doc = load_json(spec_path)
    if not isinstance(doc, dict):
        raise SchemaError("spec: expected a JSON object")
    name = _spec_get(doc, "command", str, "spec")
    if name not in COMMANDS:
        raise SchemaError(f"spec.command: {name!r} not supported (choose from {sorted(COMMANDS)})")
    grid = _spec_get(doc, "grid", dict, "spec")
    output_csv = _spec_get(doc, "output_csv", str, "spec")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("spec.params: expected an object")
    command = COMMANDS[name]
    base_dir = spec_path.resolve().parent
    paths = [p.name for p in command.params if p.kind is Path]
    tasks = []
    inputs = [("--spec", args.spec)]
    for index, point in enumerate(_sweep_points(name, grid, params)):
        resolved = {k: str(base_dir / point[k]) for k in paths if point[k] is not None}
        inputs += [(f"spec.{'grid' if k in grid else 'params'}.{k}", path) for k, path in resolved.items()]
        tasks.append((index, name, point, {**point, **resolved}))
    output = output_csv and base_dir / output_csv  # an empty name stays empty, not the spec's directory
    _claim_outputs({"spec.output_csv": output}, dict.fromkeys(inputs), args.force)
    from .forks import OrderedForks

    for module in command.modules:  # once here, not in every forked worker
        importlib.import_module(f".{module}", __package__)
    with OrderedForks(lambda i: _sweep_point(tasks[i]), len(tasks), args.jobs) as pool:
        results = list(pool)

    out_path = _output_path(output, args.force)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "command", "version"] + [c.partition("=")[0] for c in command.columns])
        writer.writerows(row for row, _ in results)
    print(f"wrote {len(results)} rows to {out_path}")
    return EXIT_REFUTED if any(flag for _, flag in results) else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_NAMES = (*COMMANDS, "sweep")


@functools.cache
def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only the one named ``only``.

    ``main`` asks for the one subcommand its argv names, since building all
    seven costs several times what parsing takes. Each parser is built once
    per process and then reused, since even one subcommand costs about five
    times its parse, and an in-process caller (the tests, ``bench/``) calls
    ``main`` many times. Reuse is safe: ``parse_args`` returns a fresh
    namespace, every default is immutable, ``_cmd_run`` looks its command up
    when it runs, and help text wraps to ``COLUMNS`` when it is printed.
    Either parser prints the same text for an argv that starts with ``only``:
    the one-command parser's metavar lists every command, for the usage line
    of an error that the top-level parser reports, such as an unrecognized
    argument.
    """
    parser = argparse.ArgumentParser(prog="zarank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zarank {__version__}")
    metavar = None if only is None else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for name, command in COMMANDS.items():
        if only not in (None, name):
            continue
        p = sub.add_parser(name, help=command.help)
        for param in command.params:
            # Unset flags stay off the namespace, so the entry's default applies.
            if param.switch:
                flag, value = param.switch
                p.add_argument(flag, dest=param.name, action="store_const", const=value, default=argparse.SUPPRESS)
                continue
            p.add_argument(
                "--" + param.name.replace("_", "-"),
                type=param.kind if param.kind in (int, float) else str,
                choices=param.choices or None,
                required=param.required,
                help=param.help,
                default=argparse.SUPPRESS,
            )
        if name == "construct":
            p.add_argument("--out-family")
            p.add_argument("--out-cert")
        else:
            p.add_argument("--json-out")
        p.add_argument("--force", action="store_true")
        p.set_defaults(handler=_cmd_run)

    if only in (None, "sweep"):
        p = sub.add_parser("sweep", help="run a parameter grid and emit a CSV")
        p.add_argument("--spec", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--force", action="store_true")
        p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in _NAMES else None
    args = _build_parser(only).parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never exit 1, which reads as "refuted"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
