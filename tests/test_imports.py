"""Every module of the package uses each name it imports.

No linter ships with the test dependencies, so this is a small stdlib
``ast`` check: a deletion that leaves an import behind fails here.
``__init__.py`` is exempt, since its imports are the public surface.
"""

from __future__ import annotations

import ast
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
