"""Span tracer for the traced pass, kept entirely in the benchmark.

``Tracer.install`` replaces every public function of the ``zarank`` modules
with a timing wrapper, in every module namespace that binds it: patching
``zarank.core.union_of`` alone would miss the copies bound by
``from .core import union_of`` in ``construct``, ``attack``, ``bounds`` and
``cli``. ``SubsetSampler.draw_list`` is wrapped on its class. Generator
functions (``bits``) are left alone, since a wrapper would time only the
creation of the generator.

Each call records a span ``[name, parent index, start, end]`` in memory.
A span's self time is its duration minus its children's, so the self times
of all spans add up to the duration of the root spans (the ``cli.main``
calls). Work counters are read from return values as calls finish.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "core", "construct", "witness", "attack", "bounds", "superconc")
METHODS = (("core", "SubsetSampler", "draw_list"),)


def _witness(counters, result, exc):
    if result is not None:
        counters["witness.nodes"] += result.nodes_explored
        counters["witness.calls"] += 1
        counters[{True: "witness.found", False: "witness.absent", None: "witness.budget_out"}[result.found]] += 1
        counters.setdefault("witness.nodes_per_search", []).append(result.nodes_explored)


def _verify_sc(counters, result, exc):
    if result is not None:
        counters["superconc.pairs"] += result.pairs_checked
        counters["superconc.counterexamples"] += result.counterexample is not None
        counters.setdefault("superconc.pairs_per_verify", []).append(result.pairs_checked)


def _construct(counters, result, exc):
    attempts = getattr(result if result is not None else exc, "attempts", 0)
    counters["construct.attempts"] += attempts


def _attack(counters, result, exc):
    if result is not None:
        counters["attack.trials"] += len(result)
        counters["attack.hits"] += sum(1 for t in result if t.found)


HOOKS = {
    "witness.has_kxk_independent_set": _witness,
    "superconc.verify_superconcentrator": _verify_sc,
    "construct.construct_until_verified": _construct,
    "attack.run_attack_trials": _attack,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, fn, name: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if hook is not None:
                    hook(counters, result, exc)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        namespaces = [importlib.import_module("zarank")]
        namespaces += [importlib.import_module(f"zarank.{mod}") for mod in MODULES]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("zarank.")
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.removeprefix('zarank.')}.{obj.__qualname__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        for mod, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"zarank.{mod}"), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{mod}.{cls_name}.{attr}"))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def summarize(spans: list[list]) -> tuple[dict[str, list], float]:
    """Per span name: [calls, inclusive seconds, self seconds]; plus the
    summed duration of the root spans."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, list] = {}
    roots = 0.0
    for index, (name, parent, start, end) in enumerate(spans):
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[index]
        if parent < 0:
            roots += end - start
    return by_name, roots


def module_self(by_name: dict[str, list]) -> dict[str, float]:
    totals = {mod: 0.0 for mod in MODULES}
    for name, (_, _, self_s) in by_name.items():
        totals[name.split(".", 1)[0]] += self_s
    return totals


def layer_metrics(spans: list[list], counters: dict, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took ``wall_s``."""
    by_name, _ = summarize(spans)

    def calls(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[0] for name in names)

    def inclusive(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[2] for name in names)

    selfs = module_self(by_name)
    metrics = {f"{mod}.self_s": selfs[mod] for mod in MODULES}
    nodes = counters["witness.nodes"]
    flows = calls("superconc.max_disjoint_paths")
    flow_s = inclusive("superconc.max_disjoint_paths")
    trials = counters["attack.trials"]
    loaders = ("core.load_json", "core.family_from_json", "core.graph_from_json", "core.layered_from_json")
    metrics.update({
        "witness.nodes": nodes,
        "witness.nodes_per_s": nodes / selfs["witness"] if selfs["witness"] else 0.0,
        "witness.calls": counters["witness.calls"],
        "witness.found": counters["witness.found"],
        "witness.absent": counters["witness.absent"],
        "witness.budget_out": counters["witness.budget_out"],
        "core.transpose_s": inclusive("core.transpose_masks"),
        "core.transpose_calls": calls("core.transpose_masks"),
        "superconc.flow_s": flow_s,
        "superconc.flows": flows,
        "superconc.flow_us_per_pair": 1e6 * flow_s / flows if flows else 0.0,
        "superconc.verify_self_s": own("superconc.verify_superconcentrator"),
        "superconc.pairs": counters["superconc.pairs"],
        "superconc.counterexamples": counters["superconc.counterexamples"],
        "superconc.balance_s": inclusive("superconc.balance_degrees"),
        "superconc.audit_self_s": own("superconc.edge_lower_bound_audit", "superconc.tradeoff_audit"),
        "attack.trials": trials,
        "attack.hits": counters["attack.hits"],
        "attack.hit_ratio": counters["attack.hits"] / trials if trials else 0.0,
        "attack.stats_s": inclusive("attack.survivor_statistics"),
        "construct.attempts": counters["construct.attempts"],
        "construct.random_family_s": inclusive("construct.random_family"),
        "construct.certify_s": inclusive("construct.certify_union_bound"),
        "core.sampler_draws": calls("core.SubsetSampler.draw_list"),
        "core.sampler_s": inclusive("core.SubsetSampler.draw_list"),
        "core.union_of_s": inclusive("core.union_of"),
        "core.union_of_calls": calls("core.union_of"),
        "core.load_s": inclusive(*loaders),
        "core.load_calls": calls("core.load_json"),
        "core.dumps_s": inclusive("core.canonical_dumps"),
        "bounds.report_s": inclusive("bounds.bound_report"),
        "trace.unattributed_frac": 1.0 - sum(selfs.values()) / wall_s if wall_s else 0.0,
    })
    return metrics
