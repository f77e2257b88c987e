"""The package namespace: every public name of the library modules, each
imported from its module on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zarank

LIBRARY = ("attack", "bounds", "construct", "core", "superconc", "witness")


def test_all_names_every_public_name_of_the_library_modules():
    exported = [name for module in LIBRARY for name in importlib.import_module(f"zarank.{module}").__all__]
    assert sorted(exported) == zarank.__all__


@pytest.mark.parametrize("module", LIBRARY)
def test_names_are_the_defining_modules_objects(module):
    mod = importlib.import_module(f"zarank.{module}")
    for name in mod.__all__:
        assert getattr(zarank, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from zarank import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == zarank.__all__
    assert all(namespace[name] is getattr(zarank, name) for name in zarank.__all__)


def test_dir_lists_every_name_and_submodule():
    assert set(dir(zarank)) >= {*zarank.__all__, *LIBRARY, "cli", "__version__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'zarank' has no attribute 'no_such_name'"):
        zarank.no_such_name
    assert not hasattr(zarank, "main")  # a name of cli, which is not re-exported
    with pytest.raises(ImportError):
        exec("from zarank import no_such_name", {})


def test_bare_import_loads_submodules_on_use():
    src = str(Path(zarank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, zarank\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('zarank.'))\n"
        "print(loaded())\n"
        "print(zarank.witness.__name__, zarank.cli.__name__)\n"
        "print(zarank.union_of.__module__, loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]",
        "zarank.witness zarank.cli",
        "zarank.core ['zarank.bounds', 'zarank.cli', 'zarank.core', 'zarank.forks', 'zarank.witness']",
    ]


def test_no_module_reads_the_environment():
    # A run's inputs are its argv and files, so no hidden variable changes a report.
    reads = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(zarank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & reads, path.name


def test_only_core_fills_a_column_cache():
    # A graph's cached column view is filled by the module that defines it, so
    # no other module writes into an object's __dict__.
    for path in sorted(Path(zarank.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writes = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__dict__"
        ]
        assert not writes, f"{path.name}:{writes[0]}"
