"""Every module-level import of the library is used, every private
module-level function and class has a reader in the library, and no module
imports SciPy at module level, so ``import fyk.cli`` and the subcommands load
numpy only; ``gamma_fn``, ``bessel_k`` and the metric-callable ``solve_ivp``
import SciPy on their first call.

A static scan with the stdlib ``ast``: an imported name counts as used when
the module reads it anywhere or lists it in ``__all__``.  A private helper
counts as read when some other statement of the library reads it; readers in
the tests do not count, so no helper lives on for the tests alone.  A fresh
interpreter checks what a run actually loads.
"""
import ast
import subprocess
import sys
from pathlib import Path

import fyk

# perfbench/tracing.py patches these by name; they are stand-ins bound to
# None, not imports, until the tracer stops reading them (ROADMAP item 1)
PINNED = {
    ("moments", "integrate"),
    ("solver", "eigsh"),
    ("solver", "spsolve"),
}


# the module-level names bound from scipy.integrate: none, since
# geometry.solve_ivp imports it on its first call
SCIPY_INTEGRATE = set()


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
    assert unused == set()


def _unread_private_definitions(sources):
    """The (module, name) of each private module-level function and class in
    ``sources`` (module name -> source) that no other top-level statement of
    any of them reads: as a name, as an attribute or by ``from ... import``."""
    defined, read = set(), set()
    for stem, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defined.add((stem, stmt.name))
                names.discard(stmt.name)  # a recursive call is no reader
            read |= names
    return {(stem, name) for stem, name in defined if name not in read}


def test_private_definition_scan_sees_every_reader():
    sources = {
        "a": "def _loop():\n    return _loop()\n\ndef _named():\n    pass\n\n"
        "class _Cls:\n    pass\n\ndef _attr():\n    pass\n\nx = _named()\n",
        "b": "from .a import _Cls\nfrom . import a\ny = a._attr\n\ndef _unused():\n    pass\n"
        "\ndef __dunder__():\n    pass\n",
    }
    assert _unread_private_definitions(sources) == {("a", "_loop"), ("b", "_unused")}


def test_every_private_definition_has_a_reader_in_the_library():
    sources = {p.stem: p.read_text() for p in Path(fyk.__file__).parent.glob("*.py")}
    assert _unread_private_definitions(sources) == set()


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
    # matrix; the pinned names are stand-ins, not imports
    found = set()
    for stem, source in _library_sources():
        found.update((stem, name) for name in _names_from(source, "scipy.sparse"))
    assert found == set()


def test_tracer_patched_names_exist_at_import():
    from fyk import geometry, moments, solver

    modules = {"geometry": geometry, "moments": moments, "solver": solver}
    for stem, name in PINNED | {("geometry", "solve_ivp")}:
        assert name in vars(modules[stem]), (stem, name)


def test_cli_import_loads_no_scipy_integrate_or_sparse():
    # a fresh interpreter: the test session itself imports scipy.integrate
    code = (
        "import sys, fyk.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'sparse'])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        cwd=Path(fyk.__file__).parent.parent,
    )
    assert out.stdout.strip() == "[]"


def test_library_binds_no_scipy_name_at_module_level():
    # the Bessel kernel, the Gauss-Jacobi panel, the matrix products and the
    # eigensolvers are numpy; SciPy is imported inside gamma_fn, bessel_k
    # and geometry.solve_ivp only
    found = set()
    for stem, source in _library_sources():
        found.update((stem, name) for name in _names_from(source, "scipy"))
    assert found == set()


def test_cli_runs_without_scipy():
    # a fresh interpreter, since the test session itself imports SciPy: the
    # import, then one run of the direct route, pohozaev and a small
    # linearized solve, load no scipy module; the public SciPy wrappers
    # still work, by their lazy import
    code = (
        "import contextlib, io, math, sys, fyk.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "runs = [\n"
        "    ['integrals', '--n', '7', '--gamma', '0.25', '--method', 'direct_2d', '--tol', '1e-4'],\n"
        "    ['pohozaev', '--n', '4', '--gamma', '0.3', '--radii', '1'],\n"
        "    ['solve', 'linearized', '--n', '4', '--gamma', '0.3', '--resolution', '32'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [fyk.cli.main(argv) for argv in runs]\n"
        "print(codes)\n"
        "print(scipy_modules())\n"
        "from fyk.specfun import bessel_k, gamma_fn\n"
        "g = gamma_fn([0.5, 4.0])\n"
        "k = bessel_k(0.5, [1.0])\n"
        "assert abs(g[0] - math.sqrt(math.pi)) <= 1e-15 and g[1] == 6.0\n"
        "assert abs(k[0] - math.sqrt(math.pi / 2.0) * math.exp(-1.0)) <= 1e-15\n"
        "print('scipy.special' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        cwd=Path(fyk.__file__).parent.parent,
    )
    after_import, codes, after_runs, lazy = out.stdout.splitlines()
    assert codes == "[0, 0, 0]"
    assert after_import == after_runs == "[]"
    assert lazy == "True"
