"""Mutation check: each listed mutant of a fast path must fail its tests.

The script copies ``src/`` to a temporary directory and runs the listed
tests there once unchanged, which must pass. Then, for each mutant, it
replaces the mutant's old text, which must occur exactly once in its file,
by the new text in the copy, runs the mutant's tests on the copy with one
pytest, and puts the file back. A mutant is killed when pytest fails or
runs past ``TIMEOUT_S``, and survives when every test passes. The tests
are the repository's own; pytest's ``pythonpath`` option points them at the
copy.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutate.py              # every mutant
    python3 tests/mutate.py threshold    # the mutants whose name holds "threshold"

It prints one line per mutant and exits 0 if every mutant was killed, 1 if
one survived or could not be applied, and 2 if the unchanged copy fails.
pytest collects only ``test_*.py`` files, so the test suite never runs this.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


FLOW = "tests/test_superconc.py::TestFlow"
HALL = "tests/test_superconc.py::TestHallScan"
SC_BUDGET = "tests/test_superconc.py::TestVerify"
SUBSET = "tests/test_core.py::TestSubsetSearch"
SAMPLER = "tests/test_core.py::TestSubsetSampler"
BALANCE = "tests/test_superconc.py::TestBalance"
DECOMPOSE = "tests/test_superconc.py::TestDecompose"
TRADEOFF = "tests/test_superconc.py::TestTradeoffAudit"
SPLIT = "tests/test_witness.py::TestSplitProof::"
ABSENT = "tests/test_witness.py::TestAbsentCheck"
DEFICIT = (
    "tests/test_superconc.py::TestVerify::test_exhaustive_counterexample_without_a_deficit_raises",
    "tests/test_superconc.py::TestVerify::test_sampled_counterexample_without_a_deficit_raises",
    "tests/test_cli.py::TestScCommands::test_sc_verify_counterexample_without_a_deficit_exits_three",
)
POOL_FDS = SPLIT + "test_no_fd_or_child_outlives_a_pool"
CALLER_GONE = SPLIT + "test_workers_exit_quietly_once_the_callers_ends_close"
ATTACK = ("tests/test_attack.py", "tests/test_reports.py")
LOADERS = (
    "tests/test_core.py::TestLoaderMessages",
    "tests/test_core.py::TestLoaderOracle",
    "tests/test_core.py::TestSerialization",
)

MUTANTS = [
    Mutant(
        "flow flips the last frame only",
        "zarank/superconc.py",
        "for x, _, r in stack:",
        "for x, _, r in stack[-1:]:",
        (FLOW,),
    ),
    Mutant(
        "flow skips the Kuhn phase",
        "zarank/superconc.py",
        "    for s in rest:\n",
        "    for s in rest[:0]:\n",
        (FLOW,),
    ),
    Mutant(
        "flow keeps seen across sources",
        "zarank/superconc.py",
        "seen = 0",
        "seen = locals().get('seen', 0)",
        (FLOW,),
    ),
    Mutant(
        "flow greedy takes used middles",
        "zarank/superconc.py",
        "cand = vm[s] & ~used",
        "cand = vm[s]",
        (FLOW,),
    ),
    Mutant(
        "flow looks an idle in side up as free",
        "zarank/superconc.py",
        "if low & free:",
        "if low & free or r not in mate:",
        (FLOW,),
    ),
    Mutant(
        "search threshold >= made >",
        "zarank/core.py",
        "if (shrunk & rows[p]).bit_count() >= threshold:",
        "if (shrunk & rows[p]).bit_count() > threshold:",
        (SUBSET, HALL),
    ),
    Mutant(
        "filter spare one short",
        "zarank/core.py",
        "spare = len(live) - i - need  #",
        "spare = len(live) - i - need - 1  #",
        (SUBSET, "tests/test_witness.py::TestHasKxk::test_early_exit_filter_changes_only_time"),
    ),
    Mutant(
        "budget tick <= made <",
        "zarank/core.py",
        "return self.nodes <= self.limit",
        "return self.nodes < self.limit",
        ("tests/test_witness.py::TestHasKxk::test_one_budget_spans_probe_and_proof",),
    ),
    Mutant(
        "probe resumes without raising the limit",
        "zarank/witness.py",
        "            budget.limit = cap\n            outcome = next(probe)\n",
        "            outcome = next(probe)\n",
        (SPLIT + "test_split_keeps_serial_node_count", SPLIT + "test_probe_witness_after_the_slice_kills_the_workers"),
    ),
    Mutant(
        "Hall threshold one short",
        "zarank/superconc.py",
        "threshold = size - k + 1",
        "threshold = size - k",
        (HALL,),
    ),
    Mutant(
        "Hall prune |N(P)| >= k made > k",
        "zarank/superconc.py",
        "t_combo = t_of[grown] if size >= k else first_t",
        "t_combo = t_of[grown] if size > k else first_t",
        (HALL,),
    ),
    Mutant(
        "Hall decides k past an unlisted violation",
        "zarank/superconc.py",
        "if clean + 1 >= k:",
        "if True:",
        (HALL,),
    ),
    Mutant(
        "Hall scan skips the unlisted sizes",
        "zarank/superconc.py",
        "hall = _first_kset(g.vm.adj, clean + 1, g.mw.cols, budget)",
        "hall = _first_kset(g.vm.adj, k, g.mw.cols, budget)",
        (HALL,),
    ),
    Mutant(
        "Hall drops the S-step tick",
        "zarank/superconc.py",
        '            if not budget.tick():\n                return "budget"\n            grown',
        "            grown",
        (SC_BUDGET,),
    ),
    Mutant(
        "exhaustive scan budget unlimited",
        "zarank/superconc.py",
        "budget = _Budget(node_budget)",
        "budget = _Budget(math.inf)",
        (SC_BUDGET,),
    ),
    Mutant(
        "sc budget below one accepted",
        "zarank/superconc.py",
        "if node_budget < 1:",
        "if False:",
        (SC_BUDGET,),
    ),
    Mutant(
        "pair scan draws every k-set first",
        "zarank/superconc.py",
        "pairs = ((s, t) for s in combinations(range(n), k) for t in combinations(range(n), k))",
        "pairs = __import__('itertools').product(combinations(range(n), k), repeat=2)",
        (SC_BUDGET,),
    ),
    Mutant(
        "kst integer <= made <",
        "zarank/bounds.py",
        "satisfied = scaled_lhs <= (k - 1)",
        "satisfied = scaled_lhs < (k - 1)",
        ("tests/test_bounds.py::TestKstCheck",),
    ),
    Mutant(
        "exact certificate < made <=",
        "zarank/construct.py",
        "* math.comb(n, k) ** 2 < 1",
        "* math.comb(n, k) ** 2 <= 1",
        ("tests/test_construct.py::TestCertificate",),
    ),
    Mutant(
        "absent verdict skips the counting check",
        "zarank/witness.py",
        "if whole_square and not kst_check(g, k).satisfied:",
        "if False:",
        (ABSENT, "tests/test_cli.py::TestVerifyCommand::test_absent_verdict_failing_the_counting_check_exits_three"),
    ),
    Mutant(
        "counting check also on domains",
        "zarank/witness.py",
        "whole_square = left is None and right is None and g.n_left == g.n_right",
        "whole_square = g.n_left == g.n_right",
        (ABSENT,),
    ),
    Mutant(
        "counterexample builder skips the deficit check",
        "zarank/superconc.py",
        "if flow >= k:",
        "if False:",
        DEFICIT,
    ),
    Mutant(
        "lex rank one past",
        "zarank/superconc.py",
        "for x in range(start, c):",
        "for x in range(start, c + 1):",
        (HALL,),
    ),
    Mutant(
        "sampler rejection by modulo",
        "zarank/core.py",
        "            while r >= width:\n                r = getrandbits(k)\n",
        "            r %= width\n",
        (SAMPLER,),
    ),
    Mutant(
        "sampler draws an extra bit",
        "zarank/core.py",
        "k = width.bit_length()",
        "k = width.bit_length() + 1",
        (SAMPLER,),
    ),
    Mutant(
        "bits byte base one short",
        "zarank/core.py",
        "base += 8",
        "base += 7",
        ("tests/test_core.py::TestBits",),
    ),
    Mutant(
        "transpose rows unreversed",
        "zarank/core.py",
        "for row in reversed(rows)]",
        "for row in rows]",
        ("tests/test_core.py::TestTranspose",),
    ),
    Mutant(
        "transposed fills its columns from the columns",
        "zarank/core.py",
        'flipped.__dict__["cols"] = self.adj',
        'flipped.__dict__["cols"] = self.cols',
        ("tests/test_core.py::TestTranspose", "tests/test_superconc.py::TestLayeredFlip"),
    ),
    Mutant(
        "layers need not meet",
        "zarank/core.py",
        "if (self.mw.n_left, self.mw.n_right) != (self.vm.n_right, self.vm.n_left):",
        "if False:",
        ("tests/test_core.py::TestGraphChecks",),
    ),
    Mutant(
        "edge builder drops the lower bound",
        "zarank/core.py",
        "0 <= v < n_from and 0 <= w < n_to",
        "v < n_from and 0 <= w < n_to",
        LOADERS,
    ),
    Mutant(
        "edge builder < n_to made <=",
        "zarank/core.py",
        "0 <= w < n_to",
        "0 <= w <= n_to",
        LOADERS,
    ),
    Mutant(
        "edge builder passes bools and floats",
        "zarank/core.py",
        "type(v) is int is type(w) and 0 <= v",
        "0 <= v",
        LOADERS,
    ),
    Mutant(
        "index builder < n made <=",
        "zarank/core.py",
        "not 0 <= i < n:",
        "not 0 <= i <= n:",
        LOADERS,
    ),
    Mutant(
        "index builder passes bools and floats",
        "zarank/core.py",
        "if type(i) is not int or not",
        "if not",
        LOADERS,
    ),
    Mutant(
        "balance target floor for ceiling",
        "zarank/superconc.py",
        "-((den - 2 * den * follow_min) // (2 * num))",
        "(2 * den * follow_min - den) // (2 * num)",
        (BALANCE,),
    ),
    Mutant(
        "balance drops x > n",
        "zarank/superconc.py",
        "if x > n or y > n:",
        "if y > n:",
        (BALANCE,),
    ),
    Mutant(
        "decompose splits by V-side degree",
        "zarank/superconc.py",
        "    deg = [row.bit_count() for row in g.mw.adj]",
        "    deg = [col.bit_count() for col in g.vm.cols]",
        (DECOMPOSE, TRADEOFF),
    ),
    Mutant(
        "balance layer left untransposed",
        "zarank/superconc.py",
        "BipartiteGraph(m, n, tuple(new_in)).transposed()",
        "BipartiteGraph(m, n, tuple(new_in))",
        (BALANCE, "tests/test_superconc.py::TestEdgeAudit", TRADEOFF),
    ),
    Mutant(
        "tradeoff audit skips the flip",
        "zarank/superconc.py",
        "    if flipped:\n        g = layered_flip(g)\n",
        "    if False:\n        g = layered_flip(g)\n",
        (TRADEOFF,),
    ),
    Mutant(
        "tradeoff audit skips the balance",
        "zarank/superconc.py",
        "    g = balance_degrees(g, g.vm.edge_count, g.mw.edge_count)\n",
        "",
        (TRADEOFF, "tests/test_cli.py::TestScCommands::test_sc_analyze_theorem8_balances_a_skewed_input"),
    ),
    Mutant(
        "attack right side survives with p",
        "zarank/attack.py",
        "{i: 1.0 - q for i, q in self.p.items()}",
        "dict(self.p)",
        ATTACK,
    ),
    Mutant(
        "attack focus threshold <= made <",
        "zarank/attack.py",
        "for v in range(n) if d_v[v] <= d]",
        "for v in range(n) if d_v[v] < d]",
        ATTACK,
    ),
    Mutant(
        "attack right truncation uses the left d",
        "zarank/attack.py",
        "_truncate(gen, plan.right, y_surv)",
        "_truncate(gen, plan.right._replace(d=plan.left.d), y_surv)",
        ATTACK,
    ),
    Mutant(
        "attack kept sum over the attacked bicliques",
        "zarank/attack.py",
        "_surviving_pairs(family, plan.kept, x_surv, y_surv)",
        "_surviving_pairs(family, plan.attacked, x_surv, y_surv)",
        ATTACK,
    ),
    Mutant(
        "attack deleted side swapped",
        "zarank/attack.py",
        'side = "right" if gen.random() < plan.p[i] else "left"',
        'side = "left" if gen.random() < plan.p[i] else "right"',
        ATTACK,
    ),
    Mutant(
        "attack median index one past",
        "zarank/attack.py",
        "sorted(d_v)[half - 1]",
        "sorted(d_v)[half]",
        ATTACK,
    ),
    Mutant(
        "attack skips the right truncation",
        "zarank/attack.py",
        "y_surv = _truncate(gen, plan.right, y_surv)",
        "y_surv = y_surv",
        ATTACK,
    ),
    Mutant(
        "attack s_v on the wrong side",
        "zarank/attack.py",
        "s_v_left=plan.left.s_v,",
        "s_v_left=plan.right.s_v,",
        ATTACK,
    ),
    Mutant(
        "attack skips the full-union re-verification",
        "zarank/attack.py",
        "if _surviving_pairs(family, range(family.size), mask_of(result.S), mask_of(result.T)):",
        "if False:",
        ATTACK,
    ),
    Mutant(
        "a pool allowed one worker imports multiprocessing",
        "zarank/forks.py",
        "workers > 1 and",
        "workers > 0 and",
        ("tests/test_cli.py::TestEntryPoint::test_one_job_sweep_loads_no_process_pool",),
    ),
    Mutant(
        "a pool left one CPU forks one worker",
        "zarank/forks.py",
        "_usable_cpus())) > 1:",
        "_usable_cpus())) > 0:",
        (SPLIT + "test_probe_witness_after_the_slice_kills_the_workers",),
    ),
    Mutant(
        "pool leaves its token pipe open",
        "zarank/forks.py",
        "        for fd in self.fds:\n            os.close(fd)\n",
        "",
        (POOL_FDS,),
    ),
    Mutant(
        "pool keeps its popen fds",
        "zarank/forks.py",
        "            proc.close()  #",
        "            pass  #",
        (POOL_FDS,),
    ),
    Mutant(
        "a worker keeps the caller's pipe ends",
        "zarank/forks.py",
        "        end.close()\n",
        "        pass\n",
        (CALLER_GONE,),
    ),
    Mutant(
        "a worker sets no death signal",
        "zarank/forks.py",
        "ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))",
        "ctypes.CDLL(None)",
        (SPLIT + "test_workers_die_with_a_killed_caller",),
    ),
    Mutant(
        "a worker skips the re-check of its caller",
        "zarank/forks.py",
        "if os.getppid() != pool.caller:",
        "if False:",
        (SPLIT + "test_a_worker_whose_caller_has_gone_before_it_starts_exits",),
    ),
    Mutant(
        "a worker re-raises a failed send",
        "zarank/forks.py",
        "    except (EOFError, ConnectionError):  # the caller has gone\n        os._exit(0)\n",
        "    except (EOFError, ConnectionError):  # the caller has gone\n        raise\n",
        (CALLER_GONE,),
    ),
]


def tests_pass(src: Path, tests: tuple[str, ...]) -> bool:
    """True if every test passes with ``src`` first on the import path;
    False if one fails or they run past ``TIMEOUT_S``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *tests]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str]) -> int:
    mutants = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    if not mutants:
        print(f"no mutant name holds any of {argv}")
        return 1
    with tempfile.TemporaryDirectory(prefix="zarank-mutate-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every_test = tuple(dict.fromkeys(test for m in mutants for test in m.tests))
        if not tests_pass(src, every_test):
            print("the unchanged copy fails its tests; no mutant was run")
            return 2
        survived = 0
        for m in mutants:
            path = src / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"NOT APPLIED  {m.name}: its old text occurs {text.count(m.old)} times in {m.file}")
                survived += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                killed = not tests_pass(src, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':<12} {m.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
