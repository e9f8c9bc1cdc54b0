"""The public surface: the package root exports the README tour, every exported name resolves, every raise is a package error, every library name has a caller, every imported name is read, and the tour prints what it promises."""

import ast
import builtins
import contextlib
import dataclasses
import decimal
import importlib
import inspect
import io
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from typing import Dict, Optional

import tma

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(pathlib.Path(tma.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    submodules = [info.name for info in pkgutil.iter_modules(tma.__path__) if not info.name.startswith("_")]
    modules = [tma] + [importlib.import_module(f"tma.{name}") for name in submodules]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    missing = [f"{mod.__name__}.{name}" for mod in exporting for name in mod.__all__ if not hasattr(mod, name)]
    assert len(exporting) > 1 and not missing


def test_top_level_names_are_the_readme_tour():
    # the package root re-exports what the README's python blocks import from
    # it, and nothing else: every other name lives in its submodule
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    toured = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "tma"
        for alias in node.names
    }
    assert len(toured) > 10
    assert set(tma.__all__) == toured | {"errors", "__version__"}
    assert len(tma.__all__) == len(set(tma.__all__))


def test_every_raise_is_a_package_error():
    # errors.py promises that every failure derives from TmaError, so no
    # module may raise a builtin exception class (bare re-raises are fine)
    builtin_errors = {
        name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in builtin_errors:
                    offenders.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert len(SOURCES) > 10 and not offenders


def test_no_instance_bypasses_its_constructor():
    # every instance passes its class's checks: no module allocates one with
    # __new__ or fills its __dict__; object.__setattr__ may only normalize a
    # frozen dataclass's own fields inside its __post_init__
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                offenders.append(f"{path.name}:{node.lineno} reads __new__")
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
                offenders.append(f"{path.name}:{node.lineno} reads __dict__")
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object" and id(node) not in allowed):
                offenders.append(f"{path.name}:{node.lineno} calls object.__setattr__ outside __post_init__")
    assert len(SOURCES) > 10 and not offenders


def _names_in(tree: ast.AST) -> set:
    """Every variable and attribute name that occurs in ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_dataclass_has_an_underscore_init_field():
    # a field the constructor takes but no caller should set is state that only
    # some construction paths fill and check; derived data belongs to a non-init field
    modules = [importlib.import_module(f"tma.{info.name}") for info in pkgutil.iter_modules(tma.__path__)]
    classes = [obj for mod in modules for obj in vars(mod).values()
               if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == mod.__name__]
    offenders = [f"{cls.__name__}.{fl.name}" for cls in classes for fl in dataclasses.fields(cls)
                 if fl.init and fl.name.startswith("_")]
    assert len(classes) > 10 and not offenders


def test_every_library_name_has_a_caller():
    # a top-level function or class must be read by other package code (a
    # module-level table counts), by the benchmark workloads, or be named in
    # the README as a tool kept for interactive use: a name that only its own
    # tests call is not part of the library
    defined, read = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined[own] = path.stem
            read |= _names_in(node) - {own}
    for path in (README.parent / "perfbench").glob("*.py"):
        read |= _names_in(ast.parse(path.read_text(), str(path)))
    read |= set(re.findall(r"\w+", README.read_text()))
    uncalled = sorted(f"{module}.{name}" for name, module in defined.items() if name not in read)
    assert len(defined) > 150 and not uncalled


def test_every_name_the_benchmark_imports_resolves():
    # perfbench/ is the only caller of some tma names, and a prune that drops one
    # breaks it at import time; its files are parsed here, never imported
    bench = sorted((README.parent / "perfbench").glob("*.py"))
    imported = [
        (path.name, node.module, alias.name)
        for path in bench
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tma"
        for alias in node.names
    ]
    missing = [f"{file}: from {module} import {name}" for file, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert len(imported) > 20 and not missing


def test_every_flavor_the_benchmark_names_is_known():
    # a renamed flavor must fail here rather than in a benchmark run.  A literal
    # a tma callable takes as its flavor, by position or keyword, must be one of
    # its module's FLAVORS (the grid flavors of tma.solver, the spec flavors of
    # tma.jets); one bound to a name ``flavor`` must be one of either
    known = set(importlib.import_module("tma.jets").FLAVORS) | set(importlib.import_module("tma.solver").FLAVORS)
    named = []
    for path in sorted((README.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tma"
            for alias in node.names
        }
        values = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = imported.get(getattr(node.func, "id", None))
                allowed = set(getattr(sys.modules[target.__module__], "FLAVORS", known)) if callable(target) else known
                values += [(kw.value, allowed) for kw in node.keywords if kw.arg == "flavor"]
                params = list(inspect.signature(target).parameters) if callable(target) else []
                if "flavor" in params and params.index("flavor") < len(node.args):
                    values.append((node.args[params.index("flavor")], allowed))
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "flavor" for t in node.targets):
                values.append((node.value, known))
            elif isinstance(node, ast.For) and getattr(node.target, "id", None) == "flavor":
                values.append((node.iter, known))
        named += [
            (path.name, c.lineno, c.value, c.value in allowed)
            for value, allowed in values
            for c in ast.walk(value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        ]
    assert {"complex11", "complex", "real"} <= {entry[2] for entry in named}
    assert not [entry for entry in named if not entry[3]]


def _dead_imports(path: pathlib.Path) -> list:
    """Names an import in ``path`` binds that the module never reads.

    A read is a loaded name, a function parameter (pytest fixtures arrive
    that way) or a string in ``__all__``.  A dotted ``import a.b`` without
    ``as`` is an import for its side effect, and ``__future__`` imports are
    compiler directives; neither binds a name to read.
    """
    tree = ast.parse(path.read_text(), str(path))
    read = set()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name for alias in node.names if alias.asname or "." not in alias.name]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return [f"{path.parent.name}/{path.name}: {name}" for name in bound if name not in read]


def test_every_imported_name_is_read():
    # an import that nothing reads is dead code, in the package and in its tests alike
    paths = SOURCES + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    dead = [entry for path in paths for entry in _dead_imports(path)]
    assert len(paths) > 25 and not dead


def fresh_python(code: str, env: Optional[Dict[str, str]] = None) -> str:
    """Standard output of ``code`` run in a new interpreter that imports this checkout's ``tma``.

    ``env`` holds environment variables set in the interpreter on top of this one's.
    """
    src = str(pathlib.Path(tma.__file__).parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, **(env or {})}).stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs over a second to import; the package must not load it
    assert fresh_python("import tma; print('scipy.stats' in sys.modules)") == "False"


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse was most of the import time; the solves are matrix-free
    # now, and neither the import nor a solve may load it
    assert fresh_python("import tma; print('scipy.sparse' in sys.modules)") == "False"


def test_sparse_solves_run_from_a_cold_import():
    # one semi-implicit step and one Newton solve, each the first solve of
    # its interpreter: the step moves the quadratic u0 exactly to
    # u0 + dt*log(a/b), the solve of a rippled boundary converges, and
    # neither loads SciPy
    grid = "from tma.solver import *; import numpy as np; grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (9, 9))\n"
    step = grid + (
        "spec = reference_flow_spec(2.0, 1.0)\n"
        "f = run_flow(flow_from_spec(spec, grid, 1e-3), 1, scheme='semi-implicit')\n"
        "print(np.abs(f.slices[-1] - evaluate_on_grid(spec, grid, time=f.times[-1])).max() <= 1e-13)\n"
        "print('scipy' in sys.modules)"
    )
    solve = grid + (
        "sol = solve_elliptic(perturbed_flow_spec(1.0, 1.0, 0.05, modes=((1.0, 1.0),)), grid)\n"
        "print(np.nanmax(np.abs(discrete_time_speed(sol, 0))) <= 1e-10)\n"
        "print('scipy' in sys.modules)"
    )
    assert fresh_python(step).split() == ["True", "False"]
    assert fresh_python(solve).split() == ["True", "False"]


def test_readme_examples_print_what_their_comments_give():
    # The first two python blocks: the library quick tour and the exact
    # quadratic flow, run in one namespace as a reader would paste them.  The
    # third, the oscillation measurement, takes 2500 RK4 steps at 128^2
    # (about 6 s on a 2-core machine), too long for the unit suite.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[:2]
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    promised = [line.split("#")[1].split() for block in blocks for line in block.splitlines() if line.startswith("print(")]
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(promised) == 5
    for got, want in zip(printed, promised):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            tol = 0.5 * 10.0 ** decimal.Decimal(w).as_tuple().exponent  # half a unit in the comment's last digit
            assert abs(float(g) - float(w)) <= tol, (got, want)
