"""Every module-level import of the library is used.

A static scan with the stdlib ``ast``: an imported name counts as used when
the module reads it anywhere or lists it in ``__all__``.
"""
import ast
from pathlib import Path

import fyk

# perfbench/tracing.py patches these by name, so they stay until the tracer
# stops reading them (ROADMAP items 2 and 3)
PINNED = {
    ("moments", "integrate"),
    ("solver", "eigsh"),
    ("solver", "spsolve"),
}


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_unused_import_scan_sees_reads_and_all():
    source = "import a\nimport b.c\nfrom d import e, f as g\n__all__ = ['e']\nb.c.x()\n"
    assert _unused_imports(source) == {"a", "g"}


def test_library_has_no_unused_imports():
    unused = set()
    for path in sorted(Path(fyk.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            unused.update(
                (path.stem, name) for name in _unused_imports(path.read_text())
            )
    assert unused - PINNED == set()
