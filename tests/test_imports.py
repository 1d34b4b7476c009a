"""Every module of the package uses each name it imports, and every
private definition of the package is referenced somewhere in it.

No linter ships with the test dependencies, so these are small stdlib
``ast`` checks: a deletion that leaves an import or a private helper
behind fails here.  ``__init__.py`` is exempt from the import check,
since its imports are the public surface.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "segscore"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that nothing else in ``source`` uses.

    A use is a bare name (which covers the head of an attribute chain),
    a name inside a quoted annotation, or an entry of ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                             and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        annotation = (node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else getattr(node, "annotation", None))
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _names(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and _names(node.targets[0]) == {"__all__"}:
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text("utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The absolute module names that ``source`` imports, with their parents."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        for name in names:
            parts = name.split(".")
            found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return found


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=[path.name for path in MODULES] + ["__init__.py"])
def test_no_module_uses_the_standard_html_parser(path):
    # dom.py's own tokenizer reads every page, so the parse cannot follow
    # the html.parser of the running interpreter
    assert imported_modules(path.read_text("utf-8")) & {"html.parser", "_markupbase"} == set()


def test_importing_the_cli_leaves_the_network_and_html_parser_modules_out():
    probe = ("import sys, segscore.cli; print(sorted({'urllib.request', 'http.client', "
             "'html.parser'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) of each private module-level function, class or
    constant, and of each private method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((target.id, node) for target in targets if isinstance(target, ast.Name))


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in tree: as a bare name, as an attribute,
    as a name imported from elsewhere, or inside a string that reads as an
    expression (a quoted annotation, the name given to getattr)."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                found.update(_names(ast.parse(node.value, mode="eval")))
            except (SyntaxError, ValueError):  # not Python, or holds a NUL
                pass
    return found


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private definitions (see _private_definitions) of the modules that
    ``sources`` maps by name which no module reads outside the definition
    itself: a helper read only by its own recursion is unreferenced.  A
    helper read only by another unreferenced one is flagged once that one
    is deleted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name} (line {node.lineno})"
            for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if _private(name) and everywhere[name] <= _references(node)[name]]


def test_every_private_definition_is_referenced():
    assert unreferenced_privates({path.name: path.read_text("utf-8")
                                  for path in sorted(PACKAGE.glob("*.py"))}) == []


class TestUnusedImports:
    def test_flags_an_unused_name(self):
        assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
            "dumps (line 2)", "os (line 1)"]

    def test_attribute_heads_quoted_annotations_and_all_count_as_uses(self):
        source = ("import os.path\nfrom typing import TYPE_CHECKING\nfrom .y import Z\n"
                  "if TYPE_CHECKING:\n    from .x import Segment, Node\n"
                  "__all__ = ['Z']\n"
                  "def f(s: 'Segment') -> list['Node']:\n    os.path.join('a')\n")
        assert unused_imports(source) == []

    def test_a_name_only_in_a_docstring_is_unused(self):
        assert unused_imports('"""json.dumps"""\nimport json\n') == ["json (line 2)"]

    def test_future_imports_are_exempt(self):
        assert unused_imports("from __future__ import annotations\n") == []


class TestImportedModules:
    def test_names_every_form_of_import_with_its_parents(self):
        source = ("import html.parser\nfrom _markupbase import ParserBase\n"
                  "from .dom import parse_html\nimport json as j\n")
        assert imported_modules(source) == {"html", "html.parser", "_markupbase", "json"}


class TestUnreferencedPrivates:
    def test_flags_each_kind_of_unread_private(self):
        source = ("_LIMIT = 3\n_names: list = []\n"
                  "def _helper():\n    pass\n"
                  "class _Node:\n    pass\n"
                  "class Tree:\n    def _walk(self):\n        pass\n")
        assert unreferenced_privates({"m.py": source}) == [
            "m.py: _LIMIT (line 1)", "m.py: _names (line 2)", "m.py: _helper (line 3)",
            "m.py: _Node (line 5)", "m.py: _walk (line 8)"]

    def test_reads_in_any_module_count(self):
        sources = {"a.py": "_LIMIT = 3\ndef _helper():\n    pass\n"
                           "class Tree:\n    def _walk(self):\n        pass\n",
                   "b.py": "from .a import _helper\nimport a\n"
                           "def run(tree: '_Hidden'):\n    tree._walk(a._LIMIT)\n",
                   "c.py": "class _Hidden:\n    pass\n"}
        assert unreferenced_privates(sources) == []

    def test_a_private_read_only_by_itself_is_unreferenced(self):
        source = "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
        assert unreferenced_privates({"m.py": source}) == ["m.py: _loop (line 1)"]

    def test_public_names_and_dunders_are_exempt(self):
        source = ("__all__ = []\nLIMIT = 3\ndef helper():\n    pass\n"
                  "class Tree:\n    def __init__(self):\n        pass\n")
        assert unreferenced_privates({"m.py": source}) == []
