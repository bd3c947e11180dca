"""Every name a module of the package imports or defines is used.

A name a module imports must be used in that module, re-exported by the
package ``__init__``, or marked on its import line as one that perfbench's
tracer patches. The marked ones are listed in TRACER_ONLY, which shrinks as
the tracer stops wrapping names the program no longer calls.

A top-level function or class must be referenced somewhere in the package,
exported by ``__init__``, or wrapped by perfbench's tracer (its SITES).
"""

import ast
from pathlib import Path

from test_tracer_seams import _load_tracing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rlseg"
TRACER_MARK = "perfbench's tracer patches it"

# (module, name): imported only so that perfbench's tracer can wrap it there
TRACER_ONLY = {
    ("chars", "components"),
    ("chars", "segment_words"),
    ("chars", "separator_at"),
    ("pixel_baseline", "plan_chars"),
}


def _imports(tree):
    """(bound name, line number) of every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _used_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _reexported() -> set[tuple[str, str]]:
    """(module, name) of every name ``__init__`` imports from a module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _unused_imports() -> dict[tuple[str, str], str]:
    """(module, name) -> import line, for each import its module does not use."""
    exported = _reexported()
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = _used_names(tree)
        for name, lineno in _imports(tree):
            key = (path.stem, name)
            if name not in used and key not in exported:
                unused[key] = lines[lineno - 1]
    return unused


def test_every_unused_import_is_marked_for_the_tracer():
    unmarked = {k: line for k, line in _unused_imports().items() if TRACER_MARK not in line}
    assert unmarked == {}


def test_tracer_only_imports_are_the_listed_ones():
    assert set(_unused_imports()) == TRACER_ONLY


def _definitions():
    """(module, name) of every top-level def and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name


def _referenced() -> set[str]:
    """Every name the package's code reads, bare or as an attribute."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_definition_is_used_exported_or_traced():
    used, exported = _referenced(), _reexported()
    traced = {attr for _, attr, _ in _load_tracing().SITES}
    dead = [
        f"{module}.{name}"
        for module, name in _definitions()
        if name not in used and (module, name) not in exported and name not in traced
    ]
    assert dead == []
