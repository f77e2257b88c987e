import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zarank.forks
import zarank.superconc
import zarank.witness
from zarank import cli
from zarank.cli import main
from zarank.core import canonical_dumps, family_from_json, load_json, save_json, union_of
from zarank.witness import has_kxk_independent_set


def write_json(path, doc):
    save_json(path, doc)
    return str(path)


@pytest.fixture
def sizes_file(tmp_path):
    return write_json(tmp_path / "sizes.json", [[8, 8]] * 70)


@pytest.fixture
def sparse_family_file(tmp_path):
    doc = {"n": 8, "k": 2, "bicliques": [{"left": [0], "right": [0]}]}
    return write_json(tmp_path / "sparse.json", doc)


@pytest.fixture
def layered_file(tmp_path):
    n = 4
    doc = {
        "n": n,
        "m": n,
        "edges_vm": [[v, u] for v in range(n) for u in range(n)],
        "edges_mw": [[u, w] for u in range(n) for w in range(n)],
    }
    return write_json(tmp_path / "layered.json", doc)


class TestConstructCommand:
    def test_writes_family_and_certificate(self, tmp_path, sizes_file, capsys):
        fam_out = tmp_path / "fam.json"
        cert_out = tmp_path / "cert.json"
        rc = main([
            "construct", "--n", "60", "--k", "8", "--sizes", sizes_file,
            "--seed", "1", "--out-family", str(fam_out), "--out-cert", str(cert_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "certified=True" in out
        family = family_from_json(load_json(fam_out))
        assert family.n == 60 and family.size == 70
        assert has_kxk_independent_set(union_of(family), 8).found is False
        cert = load_json(cert_out)
        assert cert["version"] and cert["verified"] is True
        assert cert["certificate"]["certified"] is True

    def test_refuses_overwrite_without_force(self, tmp_path, sizes_file):
        fam_out = tmp_path / "fam.json"
        args = [
            "construct", "--n", "60", "--k", "8", "--sizes", sizes_file,
            "--seed", "1", "--out-family", str(fam_out),
        ]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    def test_failed_construction_exits_one(self, tmp_path):
        sizes = write_json(tmp_path / "none.json", [])
        rc = main([
            "construct", "--n", "6", "--k", "2", "--sizes", sizes,
            "--seed", "1", "--max-attempts", "2",
        ])
        assert rc == 1


class TestVerifyCommand:
    def test_witness_found_exits_one(self, sparse_family_file, capsys):
        rc = main(["verify", "--family", sparse_family_file])
        assert rc == 1
        assert "witness found" in capsys.readouterr().out

    def test_budget_flag_makes_the_search_inconclusive(self, sparse_family_file, capsys):
        rc = main(["verify", "--family", sparse_family_file, "--budget", "1"])
        assert rc == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_requires_exactly_one_input(self, sparse_family_file, capsys):
        assert main(["verify", "--k", "2"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_malformed_family_names_field(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"n": 4, "k": 2, "bicliques": [{"left": [9], "right": []}]})
        rc = main(["verify", "--family", bad])
        assert rc == 2
        assert "bicliques[0].left[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["verify --family", "sc-verify --layered"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, flag):
        # Written as text: save_json would itself recurse on this document.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main([*flag.split(), str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_deep_witness_writes_report(self, tmp_path, capsys):
        # k = 1100 picks 1100 branch vertices; the search must not recurse per pick.
        empty = write_json(tmp_path / "empty.json", {"n": 1200, "k": 1100, "bicliques": []})
        out = tmp_path / "witness.json"
        rc = main(["verify", "--family", empty, "--json-out", str(out)])
        assert rc == 1
        assert "witness found" in capsys.readouterr().out
        witness = load_json(out)["witness"]
        assert witness["found"] is True and witness["complete"] is True
        assert len(set(witness["S"])) == len(set(witness["T"])) == 1100

    def test_internal_error_exits_three(self, tmp_path, sparse_family_file, capsys, monkeypatch):
        # An unexpected exception must not exit 1, which reads as "refuted".
        def run_verify(params):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "verify", dataclasses.replace(cli.COMMANDS["verify"], run=run_verify))
        out = tmp_path / "witness.json"
        assert main(["verify", "--family", sparse_family_file, "--json-out", str(out)]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError('boom')\n"
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_absent_verdict_failing_the_counting_check_exits_three(
        self, tmp_path, sparse_family_file, capsys, monkeypatch
    ):
        # A search that claims absence on a union with a witness is caught by
        # the counting check, in verify and in a construct that verified.
        def claims_absence(*args):
            yield None

        monkeypatch.setattr(zarank.witness, "_search", claims_absence)
        out = tmp_path / "witness.json"
        assert main(["verify", "--family", sparse_family_file, "--json-out", str(out)]) == 3
        assert "fails the k=2 counting check" in capsys.readouterr().err and not out.exists()
        sizes = write_json(tmp_path / "sizes.json", [[1, 1]] * 3)
        cert = tmp_path / "cert.json"
        args = ["construct", "--n", "8", "--k", "2", "--sizes", sizes, "--seed", "1", "--out-cert", str(cert)]
        assert main(args) == 3
        assert "fails the k=2 counting check" in capsys.readouterr().err and not cert.exists()

    def test_lost_proof_worker_exits_three(self, tmp_path, sparse_family_file, capsys, monkeypatch):
        # A proof worker that dies without a result never reads as "absent".
        monkeypatch.setattr(zarank.witness, "_PROBE_NODES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(zarank.forks, "_work", lambda *args: os._exit(1))
        out = tmp_path / "witness.json"
        assert main(["verify", "--family", sparse_family_file, "--json-out", str(out)]) == 3
        assert "worker exited without a result" in capsys.readouterr().err
        assert not out.exists() and multiprocessing.active_children() == []

    def test_proof_worker_lost_while_probing_exits_three(self, tmp_path, capsys, monkeypatch):
        # The workers start 5 nodes into a 20-node probe and die at once;
        # an 8-edge matching has no 5 x 5 independent set, and the probe does
        # not settle that within its cap (it takes 35 nodes).
        matching = {"n": 8, "k": 5, "bicliques": [{"left": [i], "right": [i]} for i in range(8)]}
        family = write_json(tmp_path / "matching.json", matching)
        monkeypatch.setattr(zarank.witness, "_PROBE_NODES", 20)
        monkeypatch.setattr(zarank.witness, "_PROBE_SLICE", 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(zarank.forks, "_work", lambda *args: os._exit(1))
        out = tmp_path / "witness.json"
        assert main(["verify", "--family", family, "--json-out", str(out)]) == 3
        assert "worker exited without a result" in capsys.readouterr().err
        assert not out.exists() and multiprocessing.active_children() == []


HUGE = 10**30  # more than any list can hold; refused before anything is allocated


class TestMalformedLists:
    @pytest.mark.parametrize("pair", [5, None, {"from": 0, "to": 0}, "00"])
    @pytest.mark.parametrize("command", ["sc-verify", "verify --graph"])
    def test_entry_that_is_no_pair_exits_two(self, tmp_path, capsys, command, pair):
        if command == "sc-verify":
            path = write_json(tmp_path / "layered.json", {"n": 2, "m": 2, "edges_vm": [[0, 0], pair], "edges_mw": []})
            argv, where = ["sc-verify", "--layered", path], "layered.edges_vm[1]"
        else:
            path = write_json(tmp_path / "graph.json", {"n_left": 2, "n_right": 2, "edges": [[0, 0], pair]})
            argv, where = ["verify", "--graph", path, "--k", "1"], "graph.edges[1]"
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {where}: expected a [from, to] pair\n"

    @pytest.mark.parametrize(
        "argv, doc, key",
        [
            (["verify", "--family"], {"n": HUGE, "k": 1, "bicliques": []}, "family.n"),
            (["bounds", "--family"], {"n": HUGE, "k": 1, "bicliques": []}, "family.n"),
            (["attack", "--mode", "sym", "--seed", "1", "--family"], {"n": HUGE, "k": 1, "bicliques": []}, "family.n"),
            (["sc-verify", "--layered"], {"n": 1, "m": HUGE, "edges_vm": [], "edges_mw": []}, "layered.m"),
            (["sc-analyze", "--theorem", "7", "--layered"], {"n": HUGE, "m": 1, "edges_vm": [], "edges_mw": []}, "layered.n"),
            (["verify", "--k", "1", "--graph"], {"n_left": 1, "n_right": HUGE, "edges": []}, "graph.n_right"),
            (["construct", "--k", "1", "--seed", "1", "--n", str(HUGE), "--sizes"], [], "--n"),
        ],
    )
    def test_size_no_list_can_hold_exits_two(self, tmp_path, capsys, argv, doc, key):
        assert main(argv + [write_json(tmp_path / "input.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {key}: {HUGE} is more than a list can hold (at most {sys.maxsize})\n"


class TestBudgets:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("verify", "--budget", "0"),
            ("attack", "--budget", "-3"),
            ("sc-verify", "--pair-budget", "0"),
            ("sc-verify", "--pair-budget", "-1"),
        ],
    )
    def test_budget_below_one_rejected(self, tmp_path, sparse_family_file, capsys, command, flag, value):
        # Not "use the default", and not accepted where no pair is budgeted.
        layered = write_json(tmp_path / "layered.json", {"n": 2, "m": 1, "edges_vm": [[0, 0]], "edges_mw": [[0, 1]]})
        argv = {
            "verify": ["verify", "--family", sparse_family_file],
            "attack": ["attack", "--family", sparse_family_file, "--mode", "sym", "--seed", "1"],
            "sc-verify": ["sc-verify", "--layered", layered, "--mode", "sampled", "--seed", "1"],
        }[command]
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: expected an integer >= 1, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "sc-verify"])
    def test_environment_budget_is_ignored(self, tmp_path, sparse_family_file, layered_file, monkeypatch, command):
        # A budget comes from the flag or the default, never from the environment.
        argv = [command, "--layered" if command == "sc-verify" else "--family"]
        argv.append(layered_file if command == "sc-verify" else sparse_family_file)
        reports = []
        for raw in (None, "1"):
            if raw is not None:
                monkeypatch.setenv("ZARANK_WITNESS_BUDGET", raw)
            out = tmp_path / f"report-{raw}.json"
            assert main(argv + ["--json-out", str(out)]) == (1 if command == "verify" else 0)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestAttackCommand:
    def test_attack_writes_trace_and_summary(self, tmp_path, sparse_family_file, capsys):
        out = tmp_path / "attack.json"
        rc = main([
            "attack", "--family", sparse_family_file, "--mode", "sym",
            "--trials", "4", "--seed", "5", "--json-out", str(out),
        ])
        assert rc == 1  # the sparse family is trivially refuted
        doc = load_json(out)
        assert doc["trace"]["found"] is True
        assert doc["summary"]["trials"] >= 1
        assert "witness found" in capsys.readouterr().out

    def test_no_witness_on_a_verified_family(self, tmp_path, capsys):
        # The union of one complete biclique is complete: no trial has a witness to find.
        full = list(range(8))
        family = write_json(tmp_path / "full.json", {"n": 8, "k": 2, "bicliques": [{"left": full, "right": full}]})
        out = tmp_path / "attack.json"
        rc = main([
            "attack", "--family", family, "--mode", "sym",
            "--trials", "2", "--seed", "1", "--json-out", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().out == "no witness in 2 trial(s)\n"
        doc = load_json(out)
        assert doc["trace"]["found"] is False and doc["summary"]["trials"] == 2

    @pytest.mark.parametrize("trials, found_count, trace_trial", [(4, 2, 3), (2, 0, 2)])
    def test_no_truncation_summary_counts_trials_and_hits(self, tmp_path, capsys, trials, found_count, trace_trial):
        # Symmetric mode attacks all three bicliques; with seed 6, trials 1
        # and 2 find no witness and trials 3 and 4 do. The trace is the first
        # hit, or the last trial when none hits.
        bicliques = [([0, 5], [2, 4, 5, 6]), ([0, 3, 4, 6], [2, 3]), ([0, 2, 5, 6], [2, 3, 4, 5])]
        doc = {"n": 7, "k": 2, "bicliques": [{"left": left, "right": right} for left, right in bicliques]}
        family, out = write_json(tmp_path / "family.json", doc), tmp_path / "attack.json"
        rc = main([
            "attack", "--family", family, "--mode", "sym", "--trials", str(trials), "--seed", "6",
            "--no-truncation", "--json-out", str(out),
        ])
        assert rc == (1 if found_count else 0)
        report = load_json(out)
        assert report["summary"] == {"trials": trials, "found_count": found_count}
        trace = report["trace"]
        assert (trace["trial"], trace["found"], trace["truncation"]) == (trace_trial, found_count > 0, "none")

    def test_byte_identical_reruns(self, tmp_path, sparse_family_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            main([
                "attack", "--family", sparse_family_file, "--mode", "sym",
                "--trials", "4", "--seed", "5", "--json-out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_marked_list(self, sparse_family_file, capsys):
        rc = main([
            "attack", "--family", sparse_family_file, "--mode", "asym",
            "--marked", "zero", "--seed", "1",
        ])
        assert rc == 2
        assert "--marked" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sym", "symmetric"])
    def test_marked_rejected_in_symmetric_mode(self, tmp_path, sparse_family_file, capsys, mode):
        out = tmp_path / "attack.json"
        rc = main([
            "attack", "--family", sparse_family_file, "--mode", mode,
            "--marked", "0", "--seed", "1", "--json-out", str(out),
        ])
        assert rc == 2
        assert "asymmetric mode only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fixed_d", [None, "1100"])
    def test_underflowing_d_exits_two(self, tmp_path, sparse_family_file, capsys, fixed_d):
        # Either d is given, or it is the median exponent of a family whose
        # every vertex lies in 1100 attacked bicliques; 2^-1100 underflows.
        if fixed_d is None:
            full = {"left": [0, 1, 2, 3], "right": [0, 1, 2, 3]}
            family = write_json(tmp_path / "deep.json", {"n": 4, "k": 2, "bicliques": [full] * 1100})
            extra = []
        else:
            family, extra = sparse_family_file, ["--fixed-d", fixed_d]
        out = tmp_path / "attack.json"
        rc = main(["attack", "--family", family, "--mode", "sym", "--seed", "1", "--json-out", str(out), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: d = 1100.0 ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["attack", "--mode", "sym", "--seed", "1", "--fixed-d", "nan"], "--fixed-d"),
            (["bounds", "--A", "nan"], "--A"),
            (["bounds", "--A", "inf"], "--A"),
        ],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, sparse_family_file, capsys, argv, flag):
        out = tmp_path / "report.json"
        assert main([*argv, "--family", sparse_family_file, "--json-out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestBoundsCommand:
    def test_prints_table_and_writes_json(self, tmp_path, sparse_family_file, capsys):
        out = tmp_path / "bounds.json"
        rc = main(["bounds", "--family", sparse_family_file, "--json-out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "counting:" in text and "entropy:" in text
        doc = load_json(out)
        assert doc["bounds"]["n"] == 8

    @pytest.mark.parametrize("flag, value", [("--A", "0"), ("--B", "-1")])
    def test_non_positive_constant_rejected(self, tmp_path, sparse_family_file, capsys, flag, value):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--family", sparse_family_file, flag, value, "--json-out", str(out)]) == 2
        assert f"constant {flag[2:]} must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestExistingOutput:
    """An existing output file is refused, and exits 2, before the command
    runs: nothing is searched, printed or written."""

    @pytest.fixture
    def ran(self, monkeypatch):
        """The parameters of every command run."""
        ran = []
        for name, command in cli.COMMANDS.items():
            monkeypatch.setitem(cli.COMMANDS, name, dataclasses.replace(command, run=ran.append))
        return ran

    @pytest.mark.parametrize("argv", [
        ["construct", "--n", "60", "--k", "8", "--sizes", "{sizes}", "--seed", "1",
         "--out-cert", "{old}", "--out-family", "{new}"],
        ["construct", "--n", "60", "--k", "8", "--sizes", "{sizes}", "--seed", "1",
         "--out-family", "{old}", "--out-cert", "{new}"],
        ["verify", "--family", "{family}", "--json-out", "{old}"],
        ["bounds", "--family", "{family}", "--json-out", "{old}"],
        ["attack", "--family", "{family}", "--mode", "sym", "--seed", "1", "--json-out", "{old}"],
        ["sc-verify", "--layered", "{layered}", "--json-out", "{old}"],
        ["sc-analyze", "--layered", "{layered}", "--theorem", "8", "--json-out", "{old}"],
    ], ids=["construct-cert", "construct-family", "verify", "bounds", "attack", "sc-verify", "sc-analyze"])
    def test_command_not_run(self, tmp_path, sizes_file, sparse_family_file, layered_file, capsys, ran, argv):
        old = tmp_path / "old.json"
        old.write_text("kept", encoding="utf-8")
        files = {
            "sizes": sizes_file, "family": sparse_family_file, "layered": layered_file,
            "old": old, "new": tmp_path / "new.json",
        }
        assert main([arg.format(**files) for arg in argv]) == 2
        assert ran == [] and old.read_text(encoding="utf-8") == "kept" and not files["new"].exists()
        assert capsys.readouterr() == ("", f"error: refusing to overwrite {old} (use --force)\n")

    @pytest.mark.parametrize("force", [False, True], ids=["new-file", "force-existing-file"])
    def test_construct_family_and_certificate_on_one_file(self, tmp_path, sizes_file, capsys, ran, force):
        # One file for both outputs is refused up front, --force or not: the
        # certificate would overwrite the family, or be refused after it.
        out = tmp_path / "x.json"
        argv = [
            "construct", "--n", "12", "--k", "4", "--sizes", sizes_file, "--seed", "1",
            "--out-family", str(out), "--out-cert", str(tmp_path / "." / "x.json"),
        ]
        if force:
            out.write_text("kept", encoding="utf-8")
            argv.append("--force")
        assert main(argv) == 2
        assert ran == [] and (out.read_text(encoding="utf-8") == "kept" if force else not out.exists())
        assert capsys.readouterr() == ("", f"error: --out-family and --out-cert name one file: {out}\n")

    def test_sweep_runs_no_point(self, tmp_path, sparse_family_file, capsys, ran):
        spec = {"command": "bounds", "grid": {"family": [sparse_family_file], "seed": [0, 1]}, "output_csv": "out.csv"}
        path = write_json(tmp_path / "spec.json", spec)
        (tmp_path / "out.csv").write_text("kept", encoding="utf-8")
        assert main(["sweep", "--spec", path]) == 2
        assert ran == [] and (tmp_path / "out.csv").read_text(encoding="utf-8") == "kept"
        assert capsys.readouterr() == ("", f"error: refusing to overwrite {tmp_path / 'out.csv'} (use --force)\n")


# Each argv and the modules it loads beyond ``zarank.cli``, ``.core`` and
# ``.bounds``; ``{family}``, ``{layered}`` and ``{sizes}`` stand for input files.
LOADS = [
    (["--version"], ()),
    (["--help"], ()),
    (["bounds", "--family", "{family}"], ()),
    (["verify", "--family", "{family}"], ("zarank.forks", "zarank.witness")),
    (["sc-verify", "--layered", "{layered}"], ("zarank.superconc",)),
    (["sc-analyze", "--layered", "{layered}", "--theorem", "7"], ("zarank.superconc", "fractions")),
    (["attack", "--family", "{family}", "--mode", "sym", "--seed", "1"],
     ("zarank.attack", "zarank.forks", "zarank.witness", "hashlib")),
    (["construct", "--n", "6", "--k", "2", "--sizes", "{sizes}", "--seed", "1"],
     ("zarank.construct", "zarank.forks", "zarank.witness", "fractions", "hashlib")),
]

# Run main on sys.argv, then print the zarank modules it loaded, and the
# single-use stdlib and process pool modules it loaded that the interpreter
# had not loaded at start-up.
_LOADED = """
import json, sys
before = set(sys.modules)
from zarank.cli import main
try:
    code = main()
except SystemExit as exc:
    code = exc.code
watched = ("fractions", "hashlib", "concurrent.futures.process", "multiprocessing")
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "zarank" or m in watched)))
sys.exit(code)
"""

# Run main on sys.argv on two CPUs, printing the zarank submodules loaded
# when the pool forks its workers.
_POOL_LOADED = """
import json, os, sys
from zarank.cli import main
from zarank.forks import OrderedForks

fork = OrderedForks._fork

def loaded_fork(pool, workers):
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("zarank."))))
    fork(pool, workers)

os.sched_getaffinity = lambda pid: {0, 1}
OrderedForks._fork = loaded_fork
sys.exit(main())
"""

# One sweep's fixed parameters per command.
SWEEPS = {
    "bounds": {"family": "{family}"},
    "verify": {"family": "{family}"},
    "sc-verify": {"layered": "{layered}"},
    "sc-analyze": {"layered": "{layered}", "theorem": 7},
    "attack": {"family": "{family}", "mode": "sym"},
    "construct": {"n": 6, "k": 2, "sizes": [], "max_attempts": 1},
}


class TestEntryPoint:
    """``python -m zarank.cli`` in a fresh interpreter, where ``main`` reads
    its argv from ``sys.argv``."""

    @staticmethod
    def run_module(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=False
        )

    @pytest.mark.parametrize("argv, modules", LOADS, ids=[argv[0] for argv, _ in LOADS])
    def test_command_loads_only_its_modules(self, tmp_path, layered_file, sparse_family_file, argv, modules):
        # Nor multiprocessing, which only a pool that forks needs, nor hashlib or fractions unused.
        files = {"family": sparse_family_file, "layered": layered_file, "sizes": write_json(tmp_path / "none.json", [])}
        done = self.run_module("-c", _LOADED, *(arg.format(**files) for arg in argv))
        assert done.returncode in (0, 1) and done.stderr == ""
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert loaded == sorted(["zarank", "zarank.bounds", "zarank.cli", "zarank.core", *modules])

    @pytest.mark.parametrize("command, params", SWEEPS.items(), ids=list(SWEEPS))
    def test_parallel_sweep_loads_modules_before_forking(
        self, tmp_path, layered_file, sparse_family_file, command, params
    ):
        files = {"family": sparse_family_file, "layered": layered_file}
        params = {key: value.format(**files) if isinstance(value, str) else value for key, value in params.items()}
        spec = {"command": command, "grid": {"seed": [0, 1]}, "params": params, "output_csv": "out.csv"}
        argv = ["sweep", "--spec", write_json(tmp_path / "spec.json", spec), "--jobs", "2"]
        done = self.run_module("-c", _POOL_LOADED, *argv)
        assert done.returncode in (0, 1) and done.stderr == ""
        (modules,) = [modules for argv, modules in LOADS if argv[0] == command]
        expected = ["zarank.bounds", "zarank.cli", "zarank.core", "zarank.forks"]
        expected += [m for m in modules if m.startswith("zarank.") and m not in expected]
        assert json.loads(done.stdout.splitlines()[0]) == sorted(expected)

    def test_broken_command_module_exits_three(self, sparse_family_file, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "zarank.witness", None)  # its import now fails
        assert main(["verify", "--family", sparse_family_file]) == 3
        assert capsys.readouterr().err.startswith("internal error: ModuleNotFoundError(")

    @pytest.mark.parametrize("command, expected", [("sc-verify", 0), ("verify", 1)])
    def test_module_run_matches_in_process(self, tmp_path, layered_file, sparse_family_file, capsys, command, expected):
        flag, path = ("--layered", layered_file) if command == "sc-verify" else ("--family", sparse_family_file)
        rc = main([command, flag, path, "--json-out", str(tmp_path / "in_process.json")])
        out = capsys.readouterr().out
        done = self.run_module("-m", "zarank.cli", command, flag, path, "--json-out", str(tmp_path / "module.json"))
        assert (done.returncode, done.stdout, done.stderr) == (rc, out, "") and rc == expected
        assert (tmp_path / "module.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()


class TestScCommands:
    def test_sc_verify_exhaustive(self, layered_file, capsys):
        rc = main(["sc-verify", "--layered", layered_file])
        assert rc == 0
        assert "verified exhaustively" in capsys.readouterr().out

    @pytest.mark.parametrize("k_range, decided", [("all", 16), ("3..4", 0)])
    def test_sc_verify_budget_out_exits_zero(self, tmp_path, layered_file, capsys, k_range, decided):
        # K(4, 4, 4): size 1 takes 4 S-prefix steps, and size 2 runs out,
        # whether k = 2 is listed or not.
        out = tmp_path / "sc.json"
        argv = ["sc-verify", "--layered", layered_file, "--k-range", k_range, "--pair-budget", "5"]
        assert main(argv + ["--json-out", str(out)]) == 0
        assert capsys.readouterr().out == f"inconclusive: node budget exhausted after {decided} pairs decided\n"
        verdict = load_json(out)["verdict"]
        assert (verdict["is_superconcentrator"], verdict["certified"]) == (None, False)
        assert verdict["pairs_checked"] == decided
        assert '"is_superconcentrator": null' in out.read_text(encoding="utf-8")

    def test_sc_verify_pair_budget_flag(self, layered_file, capsys):
        assert main(["sc-verify", "--layered", layered_file, "--pair-budget", "5"]) == 0
        assert "inconclusive" in capsys.readouterr().out
        assert main(["sc-verify", "--layered", layered_file, "--pair-budget", "10"]) == 0
        assert "verified exhaustively" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_sc_verify_counterexample_without_a_deficit_exits_three(
        self, tmp_path, layered_file, capsys, monkeypatch, mode
    ):
        # Each mode's scan names a k = 1 pair that the verdict builder's own
        # flow finds full: the Hall search by a stub, the sampled scan by a
        # flow that reads 0 the first time only.
        if mode == "exhaustive":
            monkeypatch.setattr(zarank.superconc, "_first_kset", lambda rows, k, cols, budget: ((0,), (0,)))
        else:
            real, calls = zarank.superconc.max_disjoint_paths, []

            def first_flow_short(*args):
                calls.append(args)
                return 0 if len(calls) == 1 else real(*args)

            monkeypatch.setattr(zarank.superconc, "max_disjoint_paths", first_flow_short)
        out = tmp_path / "sc.json"
        argv = ["sc-verify", "--layered", layered_file, "--mode", mode, "--k-range", "1", "--samples", "1"]
        assert main([*argv, "--seed", "1", "--json-out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1
        assert "counterexample without a flow deficit" in captured.err
        assert captured.out == "" and not out.exists()

    def test_sc_verify_sampled_requires_seed(self, layered_file, capsys):
        assert main(["sc-verify", "--layered", layered_file, "--mode", "sampled"]) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sc_verify_sampled_requires_samples(self, layered_file, capsys, samples):
        argv = ["sc-verify", "--layered", layered_file, "--mode", "sampled", "--samples", samples, "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "samples >= 1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--B", "--D"])
    def test_sc_analyze_non_finite_constant_rejected(self, layered_file, tmp_path, capsys, flag):
        out = tmp_path / "audit.json"
        argv = ["sc-analyze", "--layered", layered_file, "--theorem", "7", flag, "nan", "--json-out", str(out)]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sc_analyze_non_positive_constant_rejected(self, layered_file, tmp_path, capsys):
        out = tmp_path / "audit.json"
        argv = ["sc-analyze", "--layered", layered_file, "--theorem", "8", "--D", "0", "--json-out", str(out)]
        assert main(argv) == 2
        assert "constant D must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_sc_verify_counterexample(self, tmp_path, capsys):
        doc = {
            "n": 3,
            "m": 2,
            "edges_vm": [[v, u] for v in range(3) for u in range(2)],
            "edges_mw": [[u, w] for u in range(2) for w in range(3)],
        }
        path = write_json(tmp_path / "thin.json", doc)
        rc = main(["sc-verify", "--layered", path, "--k-range", "3"])
        assert rc == 1
        assert "counterexample at k=3" in capsys.readouterr().out

    def test_sc_analyze_theorem7(self, layered_file, tmp_path):
        out = tmp_path / "audit.json"
        rc = main([
            "sc-analyze", "--layered", layered_file, "--theorem", "7",
            "--json-out", str(out),
        ])
        assert rc == 0
        doc = load_json(out)
        assert doc["theorem"] == 7 and doc["report"]["ladder"]

    def test_sc_analyze_theorem8(self, tmp_path):
        n = 16
        doc = {
            "n": n,
            "m": 8,
            "edges_vm": [[(2 * u + j) % n, u] for u in range(8) for j in range(2)],
            "edges_mw": [[u, (4 * u + j) % n] for u in range(8) for j in range(4)],
        }
        path = write_json(tmp_path / "t8.json", doc)
        out = tmp_path / "t8_report.json"
        rc = main(["sc-analyze", "--layered", path, "--theorem", "8", "--json-out", str(out)])
        assert rc == 0
        report = load_json(out)["report"]
        assert report["a"] <= report["b"]
        assert report["pigeonhole_exact"] is True

    def test_sc_analyze_theorem8_balances_a_skewed_input(self, tmp_path, capsys):
        # Padding middle 3's degrees (1, 8) toward the 5:10 ratio moves the
        # averages to 9:14, off which several middles then sit; the audit
        # runs on the padded graph instead of refusing it.
        degrees = [(1, 1), (0, 1), (2, 0), (1, 8), (0, 0), (1, 0)]
        doc = {
            "n": 8,
            "m": len(degrees),
            "edges_vm": [[v, u] for u, (dv, _) in enumerate(degrees) for v in range(dv)],
            "edges_mw": [[u, w] for u, (_, dw) in enumerate(degrees) for w in range(dw)],
        }
        path = write_json(tmp_path / "skewed.json", doc)
        out = tmp_path / "skewed_report.json"
        assert main(["sc-analyze", "--layered", path, "--theorem", "8", "--json-out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        doc = load_json(out)
        assert doc["flipped"] is False
        assert (doc["report"]["a"], doc["report"]["b"]) == (9 / 8, 14 / 8)


class TestSweep:
    def test_twenty_seed_construct_sweep(self, tmp_path):
        sizes = [[8, 8]] * 70
        spec = {
            "command": "construct",
            "grid": {"n": [60], "k": [8], "sizes": [sizes], "seed": list(range(1, 21))},
            "params": {"mode": "exact", "max_attempts": 3},
            "output_csv": "runs.csv",
        }
        spec_path = write_json(tmp_path / "spec.json", spec)
        rc = main(["sweep", "--spec", spec_path])
        assert rc == 0
        with open(tmp_path / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert len(data) == 20
        assert all(len(row) == len(header) for row in data)
        seed_col = header.index("seed")
        assert [row[seed_col] for row in data] == [str(s) for s in range(1, 21)]
        verified_col = header.index("verified")
        assert all(row[verified_col] == "true" for row in data)

    def test_jobs_parallel_matches_serial(self, tmp_path, sparse_family_file):
        spec = {
            "command": "verify",
            "grid": {"family": [sparse_family_file], "k": [1, 2], "seed": [0]},
            "output_csv": "serial.csv",
        }
        p1 = write_json(tmp_path / "spec1.json", spec)
        assert main(["sweep", "--spec", p1]) == 1  # witnesses exist
        spec2 = dict(spec, output_csv="parallel.csv")
        p2 = write_json(tmp_path / "spec2.json", spec2)
        assert main(["sweep", "--spec", p2, "--jobs", "2"]) == 1
        serial = (tmp_path / "serial.csv").read_bytes()
        parallel = (tmp_path / "parallel.csv").read_bytes()
        assert serial == parallel

    @pytest.mark.parametrize(
        "bad, error",
        [
            (None, "[Errno 2] No such file or directory: '{path}'"),
            ({"n": 8, "k": 2}, "family.bicliques: expected a list"),
        ],
        ids=["missing", "malformed"],
    )
    def test_failed_point_exits_two_in_parallel(self, tmp_path, sparse_family_file, capsys, monkeypatch, bad, error):
        # The middle point fails (OSError, SchemaError): the parallel run
        # exits as the serial one does, writes no CSV and leaves no child.
        bad_path = tmp_path / "bad.json"
        if bad is not None:
            write_json(bad_path, bad)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        families = [sparse_family_file, str(bad_path), sparse_family_file]
        spec = {"command": "verify", "grid": {"family": families, "seed": [0]}, "output_csv": "out.csv"}
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 2
        serial = capsys.readouterr().err
        assert serial == f"error: {error.format(path=bad_path)}\n"
        assert main(["sweep", "--spec", path, "--jobs", "2"]) == 2
        assert capsys.readouterr().err == serial
        assert not (tmp_path / "out.csv").exists() and multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, sparse_family_file, capsys, jobs):
        spec = {"command": "verify", "grid": {"family": [sparse_family_file], "seed": [0]}, "output_csv": "out.csv"}
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path, "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: --jobs: expected an integer >= 1, got {jobs}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_jobs_capped_at_grid_points(self, tmp_path, sparse_family_file, monkeypatch):
        started = []
        fork = zarank.forks.OrderedForks._fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(zarank.forks.OrderedForks, "_fork", lambda pool, n: started.append(n) or fork(pool, n))
        spec = {"command": "verify", "grid": {"family": [sparse_family_file], "k": [1, 2], "seed": [0]}}
        two = write_json(tmp_path / "two.json", dict(spec, output_csv="two.csv"))
        assert main(["sweep", "--spec", two, "--jobs", "64"]) == 1
        assert started == [1]  # the caller runs points too
        one = write_json(tmp_path / "one.json", dict(spec, grid=dict(spec["grid"], k=[2]), output_csv="one.csv"))
        assert main(["sweep", "--spec", one, "--jobs", "8"]) == 1
        assert started == [1]  # one grid point runs in process

    def test_missing_seed_axis_rejected(self, tmp_path, capsys):
        spec = {
            "command": "bounds",
            "grid": {"family": ["x.json"]},
            "output_csv": "out.csv",
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, grid, missing",
        [
            ("construct", {"n": [60], "k": [8]}, "sizes"),
            ("construct", {"k": [8], "sizes": [[[8, 8]]]}, "n"),
            ("attack", {"family": ["x.json"]}, "mode"),
            ("attack", {"mode": ["sym"]}, "family"),
            ("bounds", {}, "family"),
            ("verify", {"k": [2]}, "family"),
            ("sc-verify", {"mode": ["exhaustive"]}, "layered"),
        ],
    )
    def test_missing_required_axis_rejected(self, tmp_path, capsys, command, grid, missing):
        spec = {"command": command, "grid": dict(grid, seed=[0]), "output_csv": "out.csv"}
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 2
        assert f"spec.grid.{missing}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "command, grid, params, field",
        [
            ("construct", {"n": [60], "k": [8]}, {"sizes": [5]}, "spec.params.sizes"),
            ("construct", {"k": [8], "sizes": [[[8, 8]]]}, {"n": "10"}, "spec.params.n"),
            ("construct", {"n": [60], "k": [8]}, {"sizes": [[8, True]]}, "spec.params.sizes[0].n"),
            ("bounds", {}, {"family": 5}, "spec.params.family"),
            ("verify", {"k": [2]}, {"family": 5}, "spec.params.family"),
            ("attack", {"family": ["x.json"], "mode": ["sym"], "seed": ["x"]}, {}, "spec.grid.seed"),
            ("bounds", {"family": ["x.json"], "seed": [1.5]}, {}, "spec.grid.seed"),
            ("attack", {"family": ["x.json"]}, {"mode": "both"}, "spec.params.mode"),
            ("construct", {"n": [60], "k": [8], "sizes": [[[8, 8]]]}, {"max_atempts": 3}, "spec.params.max_atempts"),
            ("verify", {"family": ["x.json"]}, {"mode": "exhaustive"}, "spec.params.mode"),
            ("bounds", {"family": ["x.json"], "A": [float("nan")]}, {}, "spec.grid.A"),
            ("bounds", {"family": ["x.json"]}, {"B": 10**400}, "spec.params.B"),  # beyond float range
            ("attack", {"family": ["x.json"], "mode": ["sym"]}, {"fixed_d": float("inf")}, "spec.params.fixed_d"),
            ("verify", {"family": ["x.json"]}, {"budget": 0}, "spec.params.budget"),
            ("sc-verify", {"layered": ["x.json"], "pair_budget": [5, -1]}, {}, "spec.grid.pair_budget"),
            ("verify", {"family": ["x.json"]}, {"budget": None}, "spec.params.budget"),
        ],
    )
    def test_malformed_spec_rejected(self, tmp_path, capsys, command, grid, params, field):
        spec = {
            "command": command,
            "grid": {"seed": [0], **grid},
            "params": params,
            "output_csv": "out.csv",
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_positive_constant_rejected(self, tmp_path, sparse_family_file, capsys):
        grid = {"family": [sparse_family_file], "seed": [1], "C": [1.0, 0]}
        path = write_json(tmp_path / "spec.json", {"command": "bounds", "grid": grid, "output_csv": "out.csv"})
        assert main(["sweep", "--spec", path]) == 2
        assert "constant C must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_marked_rejected_in_symmetric_sweep_point(self, tmp_path, sparse_family_file, capsys):
        grid = {"family": [sparse_family_file], "seed": [1], "mode": ["asym", "sym"]}
        spec = {"command": "attack", "grid": grid, "params": {"marked": "0"}, "output_csv": "out.csv"}
        assert main(["sweep", "--spec", write_json(tmp_path / "spec.json", spec)]) == 2
        assert "asymmetric mode only" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_witness_budget_from_the_spec(self, tmp_path, sparse_family_file):
        grid = {"family": [sparse_family_file], "seed": [0]}
        spec = {"command": "verify", "grid": grid, "params": {"budget": 1}, "output_csv": "out.csv"}
        assert main(["sweep", "--spec", write_json(tmp_path / "spec.json", spec)]) == 0
        with open(tmp_path / "out.csv", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["found"], row["complete"], row["nodes_explored"]) == ("", "false", "2")

    def test_sc_verify_budget_out_is_an_empty_cell(self, tmp_path, layered_file):
        grid = {"layered": [layered_file], "seed": [0], "pair_budget": [5, 10]}
        spec = {"command": "sc-verify", "grid": grid, "output_csv": "out.csv"}
        assert main(["sweep", "--spec", write_json(tmp_path / "spec.json", spec)]) == 0
        with open(tmp_path / "out.csv", encoding="utf-8") as fh:
            rows = [(row["is_superconcentrator"], row["pairs_checked"]) for row in csv.DictReader(fh)]
        assert rows == [("", "16"), ("true", "69")]

    def test_required_axis_may_come_from_params(self, tmp_path, sparse_family_file):
        spec = {
            "command": "bounds",
            "grid": {"seed": [0, 1]},
            "params": {"family": sparse_family_file},
            "output_csv": "out.csv",
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 0
        with open(tmp_path / "out.csv", encoding="utf-8") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == ["0", "1"]

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        spec = {
            "command": "bounds",
            "grid": {"family": ["x.json"], "seed": [0], "bogus": [1]},
            "output_csv": "out.csv",
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_output_not_overwritten(self, tmp_path, sparse_family_file):
        spec = {
            "command": "bounds",
            "grid": {"family": [sparse_family_file], "seed": [0]},
            "output_csv": "out.csv",
        }
        path = write_json(tmp_path / "spec.json", spec)
        assert main(["sweep", "--spec", path]) == 0
        assert main(["sweep", "--spec", path]) == 2
        assert main(["sweep", "--spec", path, "--force"]) == 0


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# Each CSV column of a sweep row, read off the single command's report (or the
# sweep's own parameter where the report does not carry it).
EXPECTED_ROW = {
    "construct": lambda doc, point: {
        "n": point["n"], "k": point["k"], "sizes": json.dumps(point["sizes"], separators=(",", ":")),
        "mode": "exact", "max_attempts": point["max_attempts"], "seed": doc["seed"],
        "certified": doc["certificate"]["certified"],
        "log2_failure_bound": doc["certificate"]["log2_failure_bound"],
        "attempts": doc["attempts"], "verified": doc["verified"],
    },
    "verify": lambda doc, point: {
        "family": point["family"], "k": doc["k"], "seed": point["seed"],
        "found": doc["witness"]["found"], "complete": doc["witness"]["complete"],
        "nodes_explored": doc["witness"]["nodes_explored"],
    },
    "attack": lambda doc, point: {
        "family": point["family"], "mode": point["mode"], "trials": point["trials"],
        "truncation": "exact", "seed": doc["seed"], "found": doc["trace"]["found"],
        "trial": doc["trace"]["trial"], "d_left": doc["trace"]["d_left"],
        "d_right": doc["trace"]["d_right"], "x_surv": len(doc["trace"]["x_surv"]),
        "y_surv": len(doc["trace"]["y_surv"]),
        "attacked_pairs_surviving": doc["trace"]["attacked_edge_pairs_surviving"],
    },
    "bounds": lambda doc, point: {
        "family": point["family"], "seed": point["seed"],
        **{key: doc["bounds"][key] for key in ("n", "k", "r", "symmetric_lhs", "asymmetric_min", "rhs_unit")},
        **{f"{part}_{key}": doc["bounds"][part][key] for part in ("kst", "hansel") for key in ("lhs", "rhs", "satisfied")},
    },
    "sc-verify": lambda doc, point: {
        "layered": point["layered"], "k_range": "all", "mode": point["mode"],
        "samples": point["samples"], "seed": doc["verdict"]["seed"],
        "is_superconcentrator": doc["verdict"]["is_superconcentrator"],
        "pairs_checked": doc["verdict"]["pairs_checked"],
        "counterexample_k": (doc["verdict"]["counterexample"] or {}).get("k"),
    },
    "sc-analyze": lambda doc, point: {
        "layered": point["layered"], "theorem": doc["theorem"], "B": point.get("B", 0.01),
        "D": point.get("D", 0.01), "seed": point["seed"], "n": doc["report"]["n"], "m": doc["report"]["m"],
        "constant": doc["report"]["constant"], "rungs": len(doc["report"]["ladder"]),
    },
}


class TestSweepParity:
    """A one-point sweep writes the row its single command's report implies,
    non-default parameters included."""

    @pytest.fixture
    def inputs(self, tmp_path):
        family = {
            "n": 12, "k": 2,
            "bicliques": [
                {"left": list(range(6)), "right": [0, 1]},
                {"left": list(range(6, 12)), "right": list(range(2, 8))},
                {"left": [0, 1, 2], "right": list(range(3, 12))},
                {"left": list(range(7, 12)), "right": list(range(5))},
            ],
        }
        thin = {
            "n": 3, "m": 2,
            "edges_vm": [[v, u] for v in range(3) for u in range(2)],
            "edges_mw": [[u, w] for u in range(2) for w in range(3)],
        }
        return {
            "family": write_json(tmp_path / "family.json", family),
            "layered": write_json(tmp_path / "thin.json", thin),
            "sizes": [[8, 8]] * 70,
        }

    @pytest.mark.parametrize("command", sorted(EXPECTED_ROW))
    def test_row_matches_single_command_report(self, tmp_path, inputs, command):
        fam, layered = inputs["family"], inputs["layered"]
        seed, params = {
            "construct": (3, {"n": 60, "k": 8, "sizes": inputs["sizes"], "max_attempts": 2, "budget": 1}),
            "verify": (0, {"family": fam, "k": 2, "budget": 1}),
            "attack": (4, {"family": fam, "mode": "asym", "marked": "0,1", "trials": 3, "fixed_d": 1.0}),
            "bounds": (0, {"family": fam, "A": 3.0}),
            "sc-verify": (2, {"layered": layered, "mode": "sampled", "samples": 5, "stream": 1}),
            "sc-analyze": (1, {"layered": layered, "theorem": 8, "D": 0.02}),
        }[command]
        argv = [command]
        for key, value in params.items():
            if key == "sizes":
                value = write_json(tmp_path / "sizes.json", value)
            argv += ["--" + key.replace("_", "-"), str(value)]
        if command in ("construct", "attack", "sc-verify"):
            argv += ["--seed", str(seed)]
        report = tmp_path / "report.json"
        argv += ["--out-cert" if command == "construct" else "--json-out", str(report)]
        rc = main(argv)

        spec = {"command": command, "grid": {"seed": [seed]}, "params": params, "output_csv": "out.csv"}
        assert main(["sweep", "--spec", write_json(tmp_path / "spec.json", spec)]) == rc
        with open(tmp_path / "out.csv", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        doc = load_json(report)
        expected = EXPECTED_ROW[command](doc, dict(params, seed=seed))
        assert set(row) == {"index", "command", "version", *expected}
        assert (row["index"], row["command"], row["version"]) == ("0", command, doc["version"])
        for column, value in expected.items():
            assert row[column] == _cell(value), column
