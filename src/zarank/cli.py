"""Unified command-line entry point.

Subcommands: bounds, construct, verify, attack, sc-verify, sc-analyze, sweep.
Every randomized subcommand takes an explicit --seed; reruns with identical
inputs, seed and version produce byte-identical reports. Exit codes: 0 for a
clean run, 1 when the run found a refutation (a witness, a counterexample, or
a failed construction), 2 for usage or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .attack import AttackConfig, run_attack_trials, survivor_statistics
from .bounds import Constants, bound_report
from .construct import ConstructionError, certify_union_bound, construct_until_verified
from .core import (
    RandomSource,
    SchemaError,
    canonical_dumps,
    family_from_json,
    family_to_json,
    graph_from_json,
    layered_from_json,
    load_json,
    union_of,
)
from .superconc import (
    edge_lower_bound_audit,
    normalize_for_tradeoff,
    tradeoff_audit,
    verify_superconcentrator,
)
from .witness import WitnessConfig, has_kxk_independent_set

__all__ = ["main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"environment variable {name}={raw!r} is not an integer") from exc


def _write_json(path: str, doc: object, force: bool) -> None:
    target = Path(path)
    if target.exists() and not force:
        raise SchemaError(f"refusing to overwrite {path} (use --force)")
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(doc))


def _load_family(path: str):
    return family_from_json(load_json(path))


def _load_graph(path: str):
    return graph_from_json(load_json(path))


def _load_layered(path: str):
    return layered_from_json(load_json(path))


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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    constants = Constants(A=args.A, B=args.B, C=args.C, D=args.D)
    report = bound_report(family, constants=constants)
    print(f"family: n={report.n} k={report.k} r={report.r} regime={report.in_theorem_regime}")
    print(f"counting:  lhs={report.kst_lhs:.6g} rhs={report.kst_rhs:.6g} satisfied={report.kst_satisfied}")
    print(f"           degree>={report.kst_degree_bound:.6g} edges>={report.kst_edge_bound:.6g}")
    print(f"vertexsum: lhs={report.hansel_lhs:.6g} rhs={report.hansel_rhs:.6g} satisfied={report.hansel_satisfied}")
    if report.symmetric_lhs is not None:
        print(f"symmetric: lhs={report.symmetric_lhs:.6g}")
    else:
        print("symmetric: n/a (asymmetric family)")
    print(f"entropy:   min={report.asymmetric_min:.6g} argmin_X={list(report.asymmetric_argmin_x)}")
    print(f"unit k*log2(n)={report.rhs_unit:.6g}")
    if args.json_out:
        _write_json(args.json_out, {"version": __version__, "bounds": report.to_json()}, args.force)
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    sizes = _parse_sizes_doc(load_json(args.sizes), "sizes")
    cert = certify_union_bound(args.n, args.k, sizes, args.mode)
    rng = RandomSource(args.seed, args.stream)
    budget = args.budget if args.budget else _env_int("ZARANK_WITNESS_BUDGET", 10_000_000)
    config = WitnessConfig(node_budget=budget)
    print(
        f"certificate ({cert.mode}): log2 failure bound = {cert.log2_failure_bound:.4f} "
        f"certified={cert.certified}"
    )
    doc = {
        "version": __version__,
        "seed": args.seed,
        "stream": args.stream,
        "certificate": cert.to_json(),
    }
    try:
        result = construct_until_verified(
            args.n, args.k, sizes, rng, args.max_attempts, config
        )
    except ConstructionError as exc:
        doc["verified"] = False
        doc["attempts"] = exc.attempts
        doc["witness"] = exc.verification.to_json() if exc.verification else None
        if args.out_family:
            _write_json(args.out_family, family_to_json(exc.family), args.force)
        if args.out_cert:
            _write_json(args.out_cert, doc, args.force)
        print(f"FAILED: {exc}")
        return EXIT_REFUTED
    doc["verified"] = True
    doc["attempts"] = result.attempts
    doc["witness"] = None
    if args.out_family:
        _write_json(args.out_family, family_to_json(result.family), args.force)
    if args.out_cert:
        _write_json(args.out_cert, doc, args.force)
    print(f"verified family after {result.attempts} attempt(s)")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.family is None) == (args.graph is None):
        raise SchemaError("give exactly one of --family or --graph")
    if args.family:
        family = _load_family(args.family)
        graph = union_of(family)
        k = args.k if args.k is not None else family.k
    else:
        graph = _load_graph(args.graph)
        if args.k is None:
            raise SchemaError("--k is required with --graph")
        k = args.k
    budget = args.budget if args.budget else _env_int("ZARANK_WITNESS_BUDGET", 10_000_000)
    result = has_kxk_independent_set(graph, k, WitnessConfig(mode=args.mode, node_budget=budget))
    doc = {"version": __version__, "k": k, "witness": result.to_json()}
    if result.found:
        print(f"witness found: S={result.S.indices()} T={result.T.indices()}")
    elif result.found is False:
        print(f"no {k}x{k} independent set (complete search, {result.nodes_explored} nodes)")
    else:
        print(f"inconclusive: node budget exhausted after {result.nodes_explored} nodes")
    if args.json_out:
        _write_json(args.json_out, doc, args.force)
    return EXIT_REFUTED if result.found else EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    family = _load_family(args.family)
    mode = {"sym": "symmetric", "asym": "asymmetric"}.get(args.mode, args.mode)
    marked = None
    if args.marked is not None:
        if args.marked.strip() == "":
            marked = frozenset()
        else:
            try:
                marked = frozenset(int(tok) for tok in args.marked.split(","))
            except ValueError as exc:
                raise SchemaError(f"--marked: expected comma-separated integers, got {args.marked!r}") from exc
    budget = args.budget if args.budget else _env_int("ZARANK_WITNESS_BUDGET", 10_000_000)
    config = AttackConfig(
        mode=mode,
        rng=RandomSource(args.seed, args.stream),
        trials=args.trials,
        marked=marked,
        truncation="none" if args.no_truncation else "exact",
        fixed_d=args.fixed_d,
        witness_config=WitnessConfig(node_budget=budget),
    )
    traces = run_attack_trials(family, config)
    hits = [t for t in traces if t.found]
    shown = hits[0] if hits else traces[-1]
    if config.truncation == "exact":
        summary = survivor_statistics(traces).to_json()
    else:
        summary = {"trials": len(traces), "found_count": len(hits)}
    doc = {
        "version": __version__,
        "seed": args.seed,
        "stream": args.stream,
        "trace": shown.to_json(),
        "summary": summary,
    }
    if hits:
        s, t = shown.witness
        print(f"witness found in trial {shown.trial}: S={list(s)} T={list(t)}")
    else:
        print(f"no witness in {len(traces)} trial(s)")
    if args.json_out:
        _write_json(args.json_out, doc, args.force)
    return EXIT_REFUTED if hits else EXIT_OK


def _parse_k_range(raw: str, n: int) -> list[int] | str:
    if raw == "all":
        return "all"
    if ".." in raw:
        lo_s, hi_s = raw.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise SchemaError(f"--k-range: expected 'a..b' or 'all', got {raw!r}") from exc
        if not 1 <= lo <= hi <= n:
            raise SchemaError(f"--k-range {raw!r} outside [1, {n}]")
        return list(range(lo, hi + 1))
    try:
        k = int(raw)
    except ValueError as exc:
        raise SchemaError(f"--k-range: expected 'a..b' or 'all', got {raw!r}") from exc
    return [k]


def _cmd_sc_verify(args: argparse.Namespace) -> int:
    g = _load_layered(args.layered)
    ks = _parse_k_range(args.k_range, g.n)
    rng = None
    if args.mode == "sampled":
        if args.seed is None:
            raise SchemaError("--seed is required in sampled mode")
        rng = RandomSource(args.seed, args.stream)
    budget = args.pair_budget if args.pair_budget else _env_int("ZARANK_PAIR_BUDGET", 2_000_000)
    verdict = verify_superconcentrator(
        g, ks, mode=args.mode, samples=args.samples, rng=rng, pair_budget=budget
    )
    doc = {"version": __version__, "verdict": verdict.to_json()}
    if verdict.counterexample:
        k, s, t, flow = verdict.counterexample
        print(f"counterexample at k={k}: S={list(s)} T={list(t)} max_flow={flow}")
    elif verdict.certified:
        print(f"superconcentrator verified exhaustively ({verdict.pairs_checked} pairs)")
    else:
        print(f"no counterexample in {verdict.pairs_checked} sampled pairs (not a certificate)")
    if args.json_out:
        _write_json(args.json_out, doc, args.force)
    return EXIT_OK if verdict.is_superconcentrator else EXIT_REFUTED


def _cmd_sc_analyze(args: argparse.Namespace) -> int:
    g = _load_layered(args.layered)
    if args.theorem == "7":
        report = edge_lower_bound_audit(g, args.B)
        doc = {"version": __version__, "theorem": 7, "report": report.to_json()}
        print(
            f"ladder {list(report.ladder)} (need >= {report.ladder_min_required}), "
            f"bands disjoint={report.bands_disjoint}, "
            f"total edges {report.total_edges} vs target {report.total_edge_target:.4g}"
        )
    else:
        normalized, flipped = normalize_for_tradeoff(g)
        report = tradeoff_audit(normalized, args.D)
        doc = {
            "version": __version__,
            "theorem": 8,
            "flipped": flipped,
            "report": report.to_json(),
        }
        print(
            f"a={report.a:.4g} b={report.b:.4g} L={report.ladder_length} k0={report.k0} "
            f"pigeonhole_exact={report.pigeonhole_exact} "
            f"lhs={report.tradeoff_lhs:.4g} vs {report.constant}*(log2 n)^2={report.constant * report.rhs_scale:.4g}"
        )
    if args.json_out:
        _write_json(args.json_out, doc, args.force)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_SWEEP_AXES = {
    "construct": ["n", "k", "sizes", "mode", "max_attempts", "seed"],
    "attack": ["family", "mode", "trials", "truncation", "seed"],
    "bounds": ["family", "seed"],
    "verify": ["family", "k", "seed"],
    "sc-verify": ["layered", "k_range", "mode", "samples", "seed"],
}

# Axes each command reads without a default; a spec must give each one in
# its grid or its params.
_SWEEP_REQUIRED = {
    "construct": ["n", "k", "sizes"],
    "attack": ["family", "mode"],
    "bounds": ["family"],
    "verify": ["family"],
    "sc-verify": ["layered"],
}

_SWEEP_COLUMNS = {
    "construct": [
        "index", "command", "version", "n", "k", "sizes", "mode", "max_attempts",
        "seed", "certified", "log2_failure_bound", "attempts", "verified",
    ],
    "attack": [
        "index", "command", "version", "family", "mode", "trials", "truncation",
        "seed", "found", "trial", "d_left", "d_right", "x_surv", "y_surv",
        "attacked_pairs_surviving",
    ],
    "bounds": [
        "index", "command", "version", "family", "seed", "n", "k", "r",
        "kst_lhs", "kst_rhs", "kst_satisfied", "hansel_lhs", "hansel_rhs",
        "hansel_satisfied", "symmetric_lhs", "asymmetric_min", "rhs_unit",
    ],
    "verify": [
        "index", "command", "version", "family", "k", "seed", "found",
        "complete", "nodes_explored",
    ],
    "sc-verify": [
        "index", "command", "version", "layered", "k_range", "mode", "samples",
        "seed", "is_superconcentrator", "pairs_checked", "counterexample_k",
    ],
}


def _spec_get(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise SchemaError(f"{where}.{key}: missing required key")
    value = doc[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    if kind in (str, dict, list) and not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _expand_grid(command: str, grid: dict, params: dict) -> list[dict]:
    """Every point of ``grid``, each completed with the fixed ``params``."""
    axes = _SWEEP_AXES[command]
    for key in grid:
        if key not in axes:
            raise SchemaError(f"spec.grid.{key}: not a grid axis for '{command}' (allowed: {axes})")
    if "seed" not in grid:
        raise SchemaError("spec.grid.seed: every sweep grid must name its seeds")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise SchemaError(f"spec.grid.{key}: expected a non-empty list of values")
        if key in params:
            raise SchemaError(f"spec.params.{key}: also present in the grid")
    for key in _SWEEP_REQUIRED[command]:
        if key not in grid and key not in params:
            raise SchemaError(f"spec.grid.{key}: '{command}' needs this axis in the grid or the params")
    points = [dict(params)]
    for axis in axes:
        if axis not in grid:
            continue
        points = [dict(p, **{axis: value}) for p in points for value in grid[axis]]
    return points


def _sweep_point(task: tuple) -> tuple[dict, bool]:
    index, command, point, base_dir = task
    row = {"index": index, "command": command, "version": __version__}
    refuted = False

    def resolve(path: str) -> str:
        p = Path(path)
        return str(p if p.is_absolute() else Path(base_dir) / p)

    if command == "construct":
        sizes = [(int(m), int(n2)) for m, n2 in point["sizes"]]
        cert = certify_union_bound(point["n"], point["k"], sizes, point.get("mode", "exact"))
        row.update(
            n=point["n"], k=point["k"], sizes=json.dumps(point["sizes"], separators=(",", ":")),
            mode=point.get("mode", "exact"), max_attempts=point.get("max_attempts", 16),
            seed=point["seed"], certified=cert.certified,
            log2_failure_bound=cert.log2_failure_bound,
        )
        try:
            result = construct_until_verified(
                point["n"], point["k"], sizes, RandomSource(point["seed"]),
                point.get("max_attempts", 16),
            )
            row.update(attempts=result.attempts, verified=True)
        except ConstructionError as exc:
            row.update(attempts=exc.attempts, verified=False)
            refuted = True
    elif command == "attack":
        family = _load_family(resolve(point["family"]))
        mode = {"sym": "symmetric", "asym": "asymmetric"}.get(point["mode"], point["mode"])
        config = AttackConfig(
            mode=mode,
            rng=RandomSource(point["seed"]),
            trials=point.get("trials", 1),
            truncation=point.get("truncation", "exact"),
        )
        traces = run_attack_trials(family, config)
        hits = [t for t in traces if t.found]
        shown = hits[0] if hits else traces[-1]
        row.update(
            family=point["family"], mode=point["mode"], trials=point.get("trials", 1),
            truncation=point.get("truncation", "exact"), seed=point["seed"],
            found=bool(hits), trial=shown.trial, d_left=shown.d_left,
            d_right=shown.d_right, x_surv=shown.x_surv_mask.bit_count(),
            y_surv=shown.y_surv_mask.bit_count(),
            attacked_pairs_surviving=shown.attacked_edge_pairs_surviving,
        )
        refuted = bool(hits)
    elif command == "bounds":
        family = _load_family(resolve(point["family"]))
        report = bound_report(family)
        row.update(
            family=point["family"], seed=point["seed"], n=report.n, k=report.k,
            r=report.r, kst_lhs=report.kst_lhs, kst_rhs=report.kst_rhs,
            kst_satisfied=report.kst_satisfied, hansel_lhs=report.hansel_lhs,
            hansel_rhs=report.hansel_rhs, hansel_satisfied=report.hansel_satisfied,
            symmetric_lhs=report.symmetric_lhs, asymmetric_min=report.asymmetric_min,
            rhs_unit=report.rhs_unit,
        )
    elif command == "verify":
        family = _load_family(resolve(point["family"]))
        k = point.get("k", family.k)
        result = has_kxk_independent_set(union_of(family), k)
        row.update(
            family=point["family"], k=k, seed=point["seed"], found=result.found,
            complete=result.complete, nodes_explored=result.nodes_explored,
        )
        refuted = bool(result.found)
    elif command == "sc-verify":
        g = _load_layered(resolve(point["layered"]))
        mode = point.get("mode", "exhaustive")
        rng = RandomSource(point["seed"]) if mode == "sampled" else None
        ks = _parse_k_range(str(point.get("k_range", "all")), g.n)
        verdict = verify_superconcentrator(
            g, ks, mode=mode, samples=point.get("samples", 100), rng=rng
        )
        row.update(
            layered=point["layered"], k_range=str(point.get("k_range", "all")),
            mode=mode, samples=point.get("samples", 100), seed=point["seed"],
            is_superconcentrator=verdict.is_superconcentrator,
            pairs_checked=verdict.pairs_checked,
            counterexample_k=verdict.counterexample[0] if verdict.counterexample else None,
        )
        refuted = not verdict.is_superconcentrator
    else:
        raise SchemaError(f"command: sweep does not support {command!r}")
    return row, refuted


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    doc = load_json(spec_path)
    if not isinstance(doc, dict):
        raise SchemaError("spec: expected a JSON object")
    command = _spec_get(doc, "command", str, "spec")
    if command not in _SWEEP_AXES:
        raise SchemaError(
            f"spec.command: {command!r} not supported (choose from {sorted(_SWEEP_AXES)})"
        )
    grid = _spec_get(doc, "grid", dict, "spec")
    output_csv = _spec_get(doc, "output_csv", str, "spec")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("spec.params: expected an object")
    points = _expand_grid(command, grid, params)

    base_dir = str(spec_path.resolve().parent)
    tasks = [(i, command, point, base_dir) for i, point in enumerate(points)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(task) for task in tasks]

    out_path = Path(output_csv)
    if not out_path.is_absolute():
        out_path = Path(base_dir) / out_path
    if out_path.exists() and not args.force:
        raise SchemaError(f"refusing to overwrite {out_path} (use --force)")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    columns = _SWEEP_COLUMNS[command]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row, _ in results:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
    refuted = any(flag for _, flag in results)
    print(f"wrote {len(results)} rows to {out_path}")
    return EXIT_REFUTED if refuted else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zarank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zarank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate every closed-form condition on a family")
    p.add_argument("--family", required=True)
    p.add_argument("--json-out")
    p.add_argument("--force", action="store_true")
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--B", type=float, default=0.01)
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--D", type=float, default=0.01)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("construct", help="draw random families until one verifies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sizes", required=True, help="JSON file: list of [m, n] pairs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "relaxed"], default="exact")
    p.add_argument("--max-attempts", type=int, default=16)
    p.add_argument("--budget", type=int, default=0, help="witness search node budget")
    p.add_argument("--out-family")
    p.add_argument("--out-cert")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="search for a k x k independent set")
    p.add_argument("--family")
    p.add_argument("--graph")
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["branch_bound", "exhaustive"], default="branch_bound")
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--json-out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("attack", help="random-deletion refuter")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=["sym", "asym", "symmetric", "asymmetric"], required=True)
    p.add_argument("--marked", help="comma-separated kept indices (asymmetric)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--no-truncation", action="store_true")
    p.add_argument("--fixed-d", type=float, default=None)
    p.add_argument("--budget", type=int, default=0)
    p.add_argument("--json-out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("sc-verify", help="verify a depth-two superconcentrator")
    p.add_argument("--layered", required=True)
    p.add_argument("--k-range", default="all", help="'all', a single k, or 'a..b'")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--pair-budget", type=int, default=0)
    p.add_argument("--json-out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_sc_verify)

    p = sub.add_parser("sc-analyze", help="degree-decomposition audits")
    p.add_argument("--layered", required=True)
    p.add_argument("--theorem", choices=["7", "8"], required=True)
    p.add_argument("--B", type=float, default=0.01)
    p.add_argument("--D", type=float, default=0.01)
    p.add_argument("--json-out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_sc_analyze)

    p = sub.add_parser("sweep", help="run a parameter grid and emit a CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--force", action="store_true")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
