"""The mutation script's list stays runnable: every mutant's old text occurs
once in its file, and every test it names exists. A refactor that moves an
anchor fails here, not only as "NOT APPLIED" in a full run of the script."""

import ast

from mutate import MUTANTS, ROOT


def _defines(node_id: str) -> bool:
    """True if the file of a pytest node id exists and defines each class or
    function the id names, each inside the one before it."""
    path, *names = node_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    scope = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        node = next((d for d in scope if isinstance(d, (ast.ClassDef, ast.FunctionDef)) and d.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_every_old_text_occurs_once_in_its_file():
    counts = {m.name: (ROOT / "src" / m.file).read_text(encoding="utf-8").count(m.old) for m in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_every_named_test_exists():
    missing = [(m.name, node_id) for m in MUTANTS for node_id in m.tests if not _defines(node_id)]
    assert missing == []
