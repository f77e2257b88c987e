import csv
import json

import pytest

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

    def test_budget_env_override(self, sparse_family_file, capsys, monkeypatch):
        monkeypatch.setenv("ZARANK_WITNESS_BUDGET", "1")
        rc = main(["verify", "--family", sparse_family_file])
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


class TestBoundsCommand:
    def test_prints_table_and_writes_json(self, tmp_path, sparse_family_file, capsys):
        out = tmp_path / "bounds.json"
        rc = main(["bounds", "--family", sparse_family_file, "--json-out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "counting:" in text and "entropy:" in text
        doc = load_json(out)
        assert doc["bounds"]["n"] == 8


class TestScCommands:
    @pytest.fixture
    def layered_file(self, tmp_path):
        n = 4
        doc = {
            "n": n,
            "m": n,
            "edges_vm": [[v, u] for v in range(n) for u in range(n)],
            "edges_mw": [[u, w] for u in range(n) for w in range(n)],
        }
        return write_json(tmp_path / "layered.json", doc)

    def test_sc_verify_exhaustive(self, layered_file, capsys):
        rc = main(["sc-verify", "--layered", layered_file])
        assert rc == 0
        assert "verified exhaustively" in capsys.readouterr().out

    def test_sc_verify_sampled_requires_seed(self, layered_file, capsys):
        assert main(["sc-verify", "--layered", layered_file, "--mode", "sampled"]) == 2

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
