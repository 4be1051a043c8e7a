"""Every name a versorlab module imports is used in that module, and the
package's top-level names run the README's quick start.

A stdlib stand-in for a linter's unused-import rule.  A name counts as used
when it appears as an identifier anywhere in the module (annotations
included) or is listed in the module's ``__all__``.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so are
``from __future__`` imports.
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
