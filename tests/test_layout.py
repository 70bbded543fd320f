"""Every top-level name in the package is used somewhere.

A ``def`` or ``class`` of ``src/wedgewalks/*.py``, public or private, must be
named in ``src/`` outside its own definition, or in ``perfbench/*.py``.
Tests do not count: code that only a test reaches is dead code with a test.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wedgewalks"


def _definitions(path: Path, private: bool):
    """(name, first line, last line) of each top-level def or class that is
    private (its name starts with ``_``) or public."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _unused_definitions(private: bool) -> list[str]:
    sources = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for path, lines in sources.items():
        elsewhere = "\n".join(["\n".join(text) for p, text in sources.items() if p != path]
                              + [bench])
        for name, first, last in _definitions(path, private):
            text = "\n".join(lines[:first - 1] + lines[last:] + [elsewhere])
            if not re.search(rf"\b{re.escape(name)}\b", text):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_definition_is_used():
    unused = _unused_definitions(private=False)
    assert not unused, unused


def test_every_private_definition_is_used():
    # a helper that a rewrite leaves behind, called by nothing
    unused = _unused_definitions(private=True)
    assert not unused, unused


#: the package modules that each module imports, at the top or inside a
#: function; ``__init__`` stands for ``from . import __version__``
IMPORTS = {
    "__init__": {"series", "walks"},
    "asymptotics": {"closedforms", "errors", "series", "walks"},
    "cli": {"__init__", "asymptotics", "closedforms", "discrepancies", "errors", "suites",
            "walks"},
    "closedforms": {"errors", "kernel", "series"},
    "discrepancies": set(),
    "errors": set(),
    "kernel": {"series"},
    "series": set(),
    "suites": {"closedforms", "discrepancies", "kernel", "series", "walks"},
    "walks": {"errors", "series"},
}


def _package_imports(path: Path, modules: set[str]) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_each_module_imports_only_its_pinned_layer():
    # kernel builds series only: the walk counts reach it as arguments
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    assert {path.stem: _package_imports(path, modules) for path in paths} == IMPORTS
