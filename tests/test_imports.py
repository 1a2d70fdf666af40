"""Every name a `batchopt` module imports is used in that module, and
every private helper the package defines is referenced in the package.

The only exemption is a name that the benchmark's layer trace wraps under
that module (`WRAPPED` in perfbench/layers.py, read from its source): the
trace resolves it by module attribute, so the module must keep importing
it even where it no longer calls it.  A private helper (a `_`-prefixed
function, method or class) counts as referenced when some module of the
package reads its name, bare or as an attribute; references from tests do
not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "batchopt").glob("*.py"))


def traced_names() -> dict[str, set[str]]:
    """Module name -> the attributes `WRAPPED` resolves in that module."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    (wrapped,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)
    )
    names: dict[str, set[str]] = {}
    for _, owner, attr in wrapped:
        package, _, module = owner.partition(".")
        if package == "batchopt" and ":" not in module:  # not a class attribute
            names.setdefault(module, set()).add(attr)
    return names


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    exempt = traced_names().get(path.stem, set())
    unused = [n for n in unused_imports(path.read_text(encoding="utf-8")) if n not in exempt]
    assert unused == []


def unreferenced_helpers(sources: list[str]) -> list[str]:
    """The `_`-prefixed functions, methods and classes (dunders aside)
    that `sources` define and never read by name or attribute."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers([path.read_text(encoding="utf-8") for path in MODULES]) == []


def test_an_unreferenced_helper_is_found():
    sources = [
        "class _Kept:\n    def _used(self): pass\n    def _left(self): pass\n"
        "    def __init__(self): self._used()\n",
        "def _called(): pass\ndef _orphan(): pass\nclass _Gone: pass\n_called()\nx = _Kept\n",
    ]
    assert unreferenced_helpers(sources) == ["_Gone", "_left", "_orphan"]


def test_an_unused_import_is_found():
    source = "from os import path, sep\nimport json\nimport os.path\nprint(sep, os)\n"
    assert unused_imports(source) == ["json", "path"]


def test_the_trace_exempts_names_by_module():
    names = traced_names()
    assert "case_cycle_time" in names["metrics"]
    assert {"detect_scenarios_from_stats", "derive_interventions"} <= names["rl"]
    assert "next_open" not in names.get("calendars", set())  # a class attribute
