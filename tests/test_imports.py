"""Every name a versorlab module imports is used in that module, every private
module-level function and class is used somewhere in the package, and the
package's top-level names run the README's quick start.

A stdlib stand-in for a linter's unused-import rule.  A name counts as used
when it appears as an identifier anywhere in the module (annotations
included) or is listed in the module's ``__all__``.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so are
``from __future__`` imports.

And one for a dead-code rule: a module-level ``_name`` function or class
counts as used when some module names it outside its own definition, as an
identifier where that module's own binding or its ``from .module import``
resolves to it, or in such an import.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "versorlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def dead_names(sources: dict) -> list:
    """(module, line, name) of each private module-level function or class in
    ``sources`` (module name -> source) that no module uses outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, top.name): top.lineno for module, tree in trees.items() for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               and top.name.startswith("_") and not top.name.startswith("__")}
    used = set()
    for module, tree in trees.items():
        origin = {}  # a name imported from a sibling module -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    origin[alias.asname or alias.name] = node.module
                    used.add((node.module, alias.name))
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(((module if (module, node.id) in defined
                               else origin.get(node.id, module)), node.id))
    return sorted((module, line, name) for (module, name), line in defined.items()
                  if (module, name) not in used)


def test_dead_name_checker_flags_a_helper_nothing_calls():
    sources = {"a": "def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
                    "class _Gone:\n    pass\n\n\ndef _imported():\n    pass\n\n\nx = _used()\n",
               "b": "from .a import _imported\n\n\ndef _used():\n    return _imported()\n\n\n"
                    "y = _used()\n"}
    assert dead_names(sources) == [("a", 5, "_dead"), ("a", 9, "_Gone")]


def test_no_private_function_or_class_is_dead():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_names(sources) == []


def test_checker_flags_an_unused_name():
    src = "from typing import List, Optional\nimport os\nx: Optional[int] = None\n"
    assert unused_imports(src) == [(1, "List"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_readme_quick_start_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    printed = [m.group(1) for m in re.finditer(r"print\(.*#\s*(.+)$", block, re.M)]
    assert printed == ["[1, 1, 4, 4, 4, 4, 6]", "24 D4"]
    assert lines[:2] == printed
    assert [line.split()[0] for line in lines[2:]] == ["A1^3", "A3", "B3", "H3"]  # McKay rows
