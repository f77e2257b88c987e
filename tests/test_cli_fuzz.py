"""Exit-code fuzzing: malformed family and layered documents and odd flag
values reach every loading command, and malformed sweep specs reach
``sweep``; each must exit 0, 1 or 2 and never print a traceback.

Sizes and indices stay in [-1, 12] and budgets stay small, because a loader
allocates O(n) and an exhaustive check grows with C(n, k)^2.
"""

import contextlib
import io
import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zarank.cli import main
from zarank.core import save_json

_INT = st.integers(-1, 12)
_ODD = st.sampled_from([None, "3", 2.5, True, [], {}])


def _below(size: int) -> st.SearchStrategy:
    """Mostly an index in [0, size), sometimes any integer in [-1, 12]."""
    inside = st.integers(0, size - 1) if size > 0 else _INT
    return st.one_of(inside, inside, inside, _INT)


def _at(spot: str | None, name: str, good: st.SearchStrategy) -> st.SearchStrategy:
    """Odd values in place of ``good`` if ``name`` is the chosen spot."""
    return _ODD if name == spot else good


@st.composite
def _family(draw, spots: st.SearchStrategy) -> dict:
    """A family document; an odd value replaces the part named by the drawn
    spot, and then every list is non-empty so that the loader reaches it."""
    spot = draw(spots)
    some = 0 if spot is None else 1
    n = draw(_INT)
    side = _at(spot, "side", st.lists(_at(spot, "index", _below(n)), min_size=some, max_size=5))
    biclique = _at(spot, "biclique", st.fixed_dictionaries({"left": side, "right": side}))
    return {
        "n": draw(_at(spot, "n", st.just(n))),
        "k": draw(_at(spot, "k", st.one_of(st.integers(1, max(n, 1)), _INT))),
        "bicliques": draw(_at(spot, "bicliques", st.lists(biclique, min_size=some, max_size=4))),
    }


@st.composite
def _layered(draw, spots: st.SearchStrategy) -> dict:
    """A layered document, with odd values placed as in ``_family``."""
    spot = draw(spots)
    some = 0 if spot is None else 1
    n, m = draw(_INT), draw(_INT)

    def edges(rows: int, cols: int) -> st.SearchStrategy:
        pair = st.tuples(_at(spot, "end", _below(rows)), _below(cols)).map(list)
        return _at(spot, "edges", st.lists(_at(spot, "pair", pair), min_size=some, max_size=8))

    return {
        "n": draw(_at(spot, "n", st.just(n))),
        "m": draw(_at(spot, "m", st.just(m))),
        "edges_vm": draw(edges(n, m)),
        "edges_mw": draw(edges(m, n)),
    }


def _drop_a_key(doc: dict) -> st.SearchStrategy:
    return st.sampled_from(sorted(doc)).map(lambda key: {k: v for k, v in doc.items() if k != key})


def _document(build, spots: list[str]) -> st.SearchStrategy:
    """A well-typed document, one with odd values at one spot, one with a key
    missing, or not an object at all."""
    well_typed = build(st.none())
    odd = build(st.sampled_from(spots))
    return st.one_of(well_typed, well_typed, odd, odd, well_typed.flatmap(_drop_a_key), _ODD)


_FAMILY = _document(_family, ["n", "k", "bicliques", "biclique", "side", "index"])
_LAYERED = _document(_layered, ["n", "m", "edges", "pair", "end"])


def _flag(flag: str, good: list, bad: list | tuple = ()) -> st.SearchStrategy:
    """No flag, a good value, or any value."""
    values = st.one_of(st.sampled_from(good), st.sampled_from([*good, *bad]))
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_CONSTANT = ([0.01, 0.5, 3], [-1, 0, "nan"])
_BUDGET = ([1, 50, 1000], [-1, 0])
_ARGS = {
    "verify": st.tuples(_flag("--k", [1, 2, 3], [-1, 0, 12]), _flag("--budget", *_BUDGET)),
    "bounds": st.tuples(*(_flag(f"--{name}", *_CONSTANT) for name in "ABCD")),
    "attack": st.tuples(
        st.sampled_from(["sym", "asym"]).map(lambda mode: ["--mode", mode, "--seed", "1"]),
        _flag("--trials", [1, 2, 3], [-1, 0]),
        _flag("--marked", ["", "0", "0,1"], ["-1", "7,30", "x"]),
        _flag("--fixed-d", [0, 1.5, 40], [-1, 2000]),
        _flag("--budget", *_BUDGET),
        st.sampled_from([[], ["--no-truncation"]]),
    ),
    "sc-verify": st.tuples(
        _flag("--k-range", ["all", "1", "2..3"], ["0", "3..1", "x", "13"]),
        st.sampled_from([1, 50, 3000, 0, -1]).map(lambda budget: ["--pair-budget", str(budget)]),
        st.sampled_from([[], ["--mode", "sampled", "--seed", "1"]]),
        _flag("--samples", [1, 4], [-1, 0]),
    ),
    "sc-analyze": st.tuples(
        st.sampled_from([7, 8]).map(lambda t: ["--theorem", str(t)]),
        _flag("--B", *_CONSTANT),
        _flag("--D", *_CONSTANT),
    ),
}
_INPUT = {
    "verify": ("--family", _FAMILY),
    "bounds": ("--family", _FAMILY),
    "attack": ("--family", _FAMILY),
    "sc-verify": ("--layered", _LAYERED),
    "sc-analyze": ("--layered", _LAYERED),
}
_CASES = st.sampled_from(sorted(_ARGS)).flatmap(
    lambda command: st.tuples(st.just(command), _INPUT[command][1], _ARGS[command])
)


# Sweep axes per command: parameter -> (good values, bad values). The
# parameters in _ALWAYS are set in every spec, which keeps exhaustive
# sc-verify within a small pair budget.
_AXES = {
    "verify": {"k": ([1, 2, 3], [-1, 0, 12, "2"]), "budget": ([1, 50, 1000], [-1, 0, 2.5])},
    "bounds": {name: ([0.01, 0.5, 3], [-1, 0, "nan", None]) for name in "ABCD"},
    "attack": {
        "mode": (["sym", "asym"], ["x", 1]),
        "trials": ([1, 2, 3], [-1, 0, True]),
        "marked": (["", "0", "0,1"], ["x", 7]),
        "truncation": (["exact", "none"], ["x"]),
        "budget": ([1, 50, 1000], [-1, 0, "9"]),
    },
    "sc-verify": {
        "pair_budget": ([1, 50, 3000], [-1, 0]),
        "mode": (["exhaustive", "sampled"], ["x"]),
        "samples": ([1, 4], [-1, 0]),
        "k_range": (["all", "1", "2..3"], ["0", "x", 3]),
    },
    "sc-analyze": {"theorem": ([7, 8], [6, "7"]), "B": ([0.01, 3], [-1, 0]), "D": ([0.01, 3], [-1, 0])},
}
_ALWAYS = {"mode", "pair_budget", "theorem"}
_BREAKS = [None, None, None, "grid scalar", "grid empty", "grid object", "params list", "no seed",
           "unknown key", "command", "output_csv"]


@st.composite
def _sweep_case(draw) -> tuple[dict, dict]:
    """An input document and a sweep spec over it: well typed, with bad
    values on its axes, or broken at one drawn place."""
    command = draw(st.sampled_from(sorted(_AXES)))
    flag, documents = _INPUT[command]
    build = _family if flag == "--family" else _layered
    documents = st.one_of(build(st.none()), build(st.none()), documents)
    grid, params = {"seed": [1]}, {flag[2:]: "input.json"}
    for name, (good, bad) in _AXES[command].items():
        if name not in _ALWAYS and draw(st.booleans()):
            continue
        pick = st.one_of(st.sampled_from(good), st.sampled_from(good), st.sampled_from([*good, *bad]))
        values = draw(st.lists(pick, min_size=1, max_size=2))
        if draw(st.booleans()):
            grid[name] = values
        else:
            params[name] = values[0]
    spec = {"command": command, "grid": grid, "params": params, "output_csv": "out.csv"}
    broken = draw(st.sampled_from(_BREAKS))
    if broken == "grid scalar":
        grid["seed"] = 1
    elif broken == "grid empty":
        grid["seed"] = []
    elif broken == "grid object":
        spec["grid"] = [grid]
    elif broken == "params list":
        spec["params"] = list(params)
    elif broken == "no seed":
        del grid["seed"]
    elif broken == "unknown key":
        grid["colour"] = ["red"]
    elif broken == "command":
        spec["command"] = draw(st.sampled_from(["sweep", "nope", 3, None]))
    elif broken == "output_csv":
        spec["output_csv"] = draw(_ODD)
    return draw(documents), spec


def _exit_code(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            rc = exc.code
    return rc, err.getvalue()


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_CASES)
def test_malformed_input_exits_cleanly(tmp_path, case):
    command, doc, extra = case
    path = tmp_path / "input.json"
    save_json(path, doc)
    argv = [command, _INPUT[command][0], str(path), *itertools.chain.from_iterable(extra)]
    rc, err = _exit_code(argv)
    assert rc in (0, 1, 2), (argv, doc, err)
    assert "Traceback" not in err, (argv, doc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_sweep_case())
def test_malformed_sweep_spec_exits_cleanly(tmp_path, case):
    doc, spec = case
    save_json(tmp_path / "input.json", doc)
    save_json(tmp_path / "spec.json", spec)
    rc, err = _exit_code(["sweep", "--spec", str(tmp_path / "spec.json"), "--force"])
    assert rc in (0, 1, 2), (spec, doc, err)
    assert "Traceback" not in err, (spec, doc)
