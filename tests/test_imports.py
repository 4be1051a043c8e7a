"""Every name a versorlab module imports is used in that module, every private
module-level function and class is used somewhere in the package, and the
package's top-level names run the README's quick start.

A stdlib stand-in for a linter's unused-import rule.  A name counts as used
when it appears as an identifier anywhere in the module (annotations
included) or is listed in the module's ``__all__``.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so are
``from __future__`` imports.

And one for a dead-code rule: a module-level ``_name`` function or class, and
every name but a dunder that a module-level assignment binds, counts as used
when some module reads it outside its own definition, as an identifier where
that module's own binding or its ``from .module import`` resolves to it, or in
such an import.

And a ratchet on unnamed tolerances: every float literal below 1e-2 in magnitude
in ``src/``, outside the definitions of ``DEFAULT_EPS`` and ``HASH_GRID``, is
pinned as a (module, value) pair, so a new unnamed tolerance fails here.

And a ratchet on size: the code lines of ``src/versorlab/*.py``, every line that holds
a token other than a comment or a docstring, are pinned as one count, so a change that
grows or shrinks ``src/`` moves the pin in its own diff.

And one for a dead-tolerance rule: an ``eps``, ``tol`` or ``tolerance``
parameter counts as set when some call in the package passes it a value, by
keyword, by position or through a starred argument, that is neither
``DEFAULT_EPS`` nor another such unset parameter of the function making the call.
"""

import ast
import contextlib
import io
import re
import tokenize
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


def _bound(top) -> list:
    """The names the dead-code rule checks of a module-level statement: a private
    function's or class's, and each name an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name] if top.name.startswith("_") else []
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def dead_names(sources: dict) -> list:
    """(module, line, name) of each private module-level function or class, and each
    non-dunder name a module-level assignment binds, in ``sources`` (module name -> source)
    that no module reads outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, name): top.lineno for module, tree in trees.items() for top in tree.body
               for name in _bound(top) if not name.startswith("__")}
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
                if isinstance(node, ast.Name) and node.id != own and not isinstance(node.ctx, ast.Store):
                    used.add(((module if (module, node.id) in defined
                               else origin.get(node.id, module)), node.id))
    return sorted((module, line, name) for (module, name), line in defined.items()
                  if (module, name) not in used)


TOLERANCES = ("eps", "tol", "tolerance")


def _collect(module, node, scope, klass, takers, calls):
    """Fill ``takers`` (callee name -> [(key, positional index or None)]) with each tolerance
    parameter under ``node``, a class's ``__init__``'s under the class's name, and ``calls``
    with (call, {tolerance parameter -> key} of the innermost function around it)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in child.args.posonlyargs + child.args.args]
            skip = int(klass is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in child.decorator_list))
            name = klass if klass is not None and child.name == "__init__" else child.name
            own = {}
            for p in params + [a.arg for a in child.args.kwonlyargs]:
                if p in TOLERANCES:
                    own[p] = (module, child.lineno, child.name, p)
                    index = params.index(p) - skip if p in params else None
                    takers.setdefault(name, []).append((own[p], index))
            _collect(module, child, own, None, takers, calls)
        else:
            if isinstance(child, ast.Call):
                calls.append((child, scope))
            _collect(module, child, scope, child.name if isinstance(child, ast.ClassDef) else None,
                     takers, calls)


def _passed(call, param, index):
    """The expressions ``call`` may pass to ``param``, at ``index`` among the positionals."""
    values = [k.value for k in call.keywords if k.arg in (param, None)]
    if index is not None:
        star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                    len(call.args))
        values += call.args[index:index + 1] if index < star else call.args[star:]
    return values


def unset_tolerances(sources: dict) -> list:
    """(module, line, function, parameter) of each tolerance parameter in ``sources``
    (module name -> source) that no call sets, to a fixpoint: a parameter whose only
    settings pass through unset parameters is unset too."""
    takers, calls = {}, []
    for module, source in sources.items():
        _collect(module, ast.parse(source), {}, None, takers, calls)
    every, unset = {key for entries in takers.values() for key, _ in entries}, set()
    while True:
        kept = set()
        for call, scope in calls:
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for key, index in takers.get(name, ()):
                for value in _passed(call, key[3], index):
                    named = getattr(value, "id", None) or getattr(value, "attr", None)
                    if named != "DEFAULT_EPS" and scope.get(named) not in unset:
                        kept.add(key)
        if every - kept == unset:
            return sorted(unset)
        unset = every - kept


def test_tolerance_checker_flags_a_parameter_nothing_sets():
    sources = {"a": "def f(x, eps=DEFAULT_EPS):\n    return g(x, eps)\n\n\n"
                    "def g(x, tol):\n    return x\n\n\n"
                    "def h(x, *, tolerance):\n    return x\n\n\n"
                    "class P:\n    def __init__(self, eps):\n        pass\n\n"
                    "    def m(self, v, eps):\n        return P(eps)\n\n\n"
                    "def s(z0, z1, eps):\n    return z0\n\n\n"
                    "f(1)\nf(2, DEFAULT_EPS)\nh(3, tolerance=0.5)\ns(*(1, 2), 1e-3)\n",
               "b": "def k(eps):\n    return obj.m(0, eps)\n\n\n"
                    "def q(v, tol):\n    return k(tol)\n\n\nq(1, tol=DEFAULT_EPS)\n"}
    # f's eps is passed only DEFAULT_EPS, and g's tol only f's eps; P's eps
    # only m's, which k's passes through, which q's does, which nothing sets
    assert unset_tolerances(sources) == [
        ("a", 1, "f", "eps"), ("a", 5, "g", "tol"), ("a", 14, "__init__", "eps"),
        ("a", 17, "m", "eps"), ("b", 1, "k", "eps"), ("b", 5, "q", "tol")]


def test_every_tolerance_parameter_is_set_by_some_call():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unset_tolerances(sources) == []


def small_literals(sources: dict) -> list:
    """(module, value) of each float literal 0 < |x| < 1e-2, outside the assignments of
    ``DEFAULT_EPS`` and ``HASH_GRID``, sorted."""
    found = []
    for module, source in sources.items():
        tree, named = ast.parse(source), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in ("DEFAULT_EPS", "HASH_GRID")
                    for t in node.targets):
                named |= {id(c) for c in ast.walk(node.value)}
        found += [(module, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1e-2 and id(node) not in named]
    return sorted(found)


def test_small_literal_checker_skips_only_the_two_named_constants():
    sources = {"a": "DEFAULT_EPS = 1e-9\nHASH_GRID = 1e-6\nx = 0.5 * 1e-3 + 0.0\n",
               "b": "def f(y, tol=-1e-8):\n    return y < 2e-2 or y < 5e-324\n"}
    # -1e-8 is its literal 1e-8, negated; 2e-2 is not below 1e-2
    assert small_literals(sources) == [("a", 0.001), ("b", 5e-324), ("b", 1e-08)]


def test_no_new_unnamed_tolerance_in_src():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert small_literals(sources) == [
        ("induction", 1e-08), ("induction", 0.001),
        ("mckay", 1e-09), ("mckay", 1e-09), ("mckay", 1e-06),
        ("roots", 1e-08), ("roots", 1e-06), ("verify", 1e-06)]


_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment or layout, docstrings left out; a token
    over several lines, such as a long string, counts each of them."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_code_line_counter_skips_docstrings_comments_and_blank_lines():
    source = ('"""Module\ndocstring."""\n\n# a comment\nx = 1  # trailing\n\n\n'
              'def f(a,\n      b):\n    """Doc."""\n    return """not\na docstring"""\n')
    # x = 1, the def's two lines and the return's two
    assert code_lines(source) == 5


def test_src_code_lines_are_pinned():
    # a change that moves this count updates it and says so in CHANGES.md
    assert sum(code_lines(p.read_text()) for p in sorted(SRC.glob("*.py"))) == 2111


def test_dead_name_checker_flags_a_helper_nothing_calls():
    sources = {"a": "def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n\n\n"
                    "class _Gone:\n    pass\n\n\ndef _imported():\n    pass\n\n\n"
                    "LIMIT, _SPARE = 3, 4\n__all__ = ['LIMIT']\nx = _used() + LIMIT\n",
               "b": "from .a import _imported\n\n\ndef _used():\n    return _imported()\n\n\n"
                    "y: int = _used()\nprint(y)\n"}
    # a constant counts as read only where some module loads it; dunders are exempt
    assert dead_names(sources) == [("a", 5, "_dead"), ("a", 9, "_Gone"), ("a", 17, "_SPARE"),
                                   ("a", 19, "x")]


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
