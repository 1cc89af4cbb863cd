"""Every module-level import of the library is used, only the modules that
need it import ``scipy.integrate`` at module level, and nothing but the
pinned names comes from ``scipy.sparse``.

A static scan with the stdlib ``ast``: an imported name counts as used when
the module reads it anywhere or lists it in ``__all__``.
"""
import ast
from pathlib import Path

import fyk

# perfbench/tracing.py patches these by name, so they stay until the tracer
# stops reading them (ROADMAP items 1 and 3(a))
PINNED = {
    ("moments", "integrate"),
    ("solver", "eigsh"),
    ("solver", "spsolve"),
}


# the module-level names bound from scipy.integrate: perfbench/tracing.py
# patches both by name (ROADMAP item 3(b) makes them lazy)
SCIPY_INTEGRATE = {("moments", "integrate"), ("geometry", "solve_ivp")}


def _library_sources():
    for path in sorted(Path(fyk.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, path.read_text()


def _names_from(source, target):
    """The names a module binds at module level from the package ``target``
    or any of its submodules."""
    parent, _, leaf = target.rpartition(".")

    def inside(mod):
        return mod == target or mod.startswith(target + ".")

    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update(
                a.asname or a.name.split(".")[0] for a in node.names if inside(a.name)
            )
        elif isinstance(node, ast.ImportFrom) and node.module == parent:
            names.update(a.asname or a.name for a in node.names if a.name == leaf)
        elif isinstance(node, ast.ImportFrom) and inside(node.module or ""):
            names.update(a.asname or a.name for a in node.names)
    return names


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
    for stem, source in _library_sources():
        unused.update((stem, name) for name in _unused_imports(source))
    assert unused - PINNED == set()


def test_scipy_integrate_scan_sees_every_import_form():
    source = (
        "import scipy.integrate\nimport scipy.integrate as si\nfrom scipy import integrate, special\n"
        "from scipy.integrate import quad as q, solve_ivp\nimport scipy\n"
        "def f():\n    from scipy import integrate as lazy\n"
    )
    assert _names_from(source, "scipy.integrate") == {
        "scipy", "si", "integrate", "q", "solve_ivp"
    }


def test_scipy_integrate_stays_out_of_the_library():
    # the quadrature and ODE routes of the other modules are numpy rules;
    # adaptive quadrature lives in the tests as an oracle
    found = set()
    for stem, source in _library_sources():
        found.update((stem, name) for name in _names_from(source, "scipy.integrate"))
    assert found == SCIPY_INTEGRATE


def test_scipy_sparse_scan_sees_submodules():
    source = (
        "from scipy import sparse\nimport scipy.sparse.linalg as spla\n"
        "from scipy.sparse.linalg import eigsh\nfrom scipy.linalg import solve\n"
    )
    assert _names_from(source, "scipy.sparse") == {"sparse", "spla", "eigsh"}


def test_scipy_sparse_binds_only_pinned_names():
    # the finite-volume pencils are plain (diagonal, off-diagonal) arrays and
    # the residual gates apply them matrix-free, so no module builds a sparse
    # matrix; the pinned names stay only for perfbench/tracing.py
    found = set()
    for stem, source in _library_sources():
        found.update((stem, name) for name in _names_from(source, "scipy.sparse"))
    assert found <= PINNED
