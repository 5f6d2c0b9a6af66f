"""Four rules on the package's source, read off its syntax trees.

The package imports only public NumPy and SciPy API, so that it can run
on the dependency floor that pyproject.toml declares (numpy>=1.24,
scipy>=1.10) and that the CI dependency-floor job installs.

Only simplex.py constructs NumericOverflowError: a number a run computed
is refused by one guard, simplex._finite, whose error every solver and
flow turns into a halt (mirror_step's degenerate update is the other
construction there).

Only solvers.py catches a halting error (_HALTS or one of its four
classes): whether a failure ends a run with a partial trace or raises is
decided in one place, the boundary solvers._halting that every solver and
flow runs inside.

The package constructs no SystemExit, and only cli.main catches
BilevelError by name: a run's failure, a halt included, leaves the CLI one
way, as one line and exit status 1."""

import ast
from pathlib import Path

import pytest

import bilevel_reweight
from bilevel_reweight import solvers

PACKAGE = Path(bilevel_reweight.__file__).resolve().parent


def package_hits(find):
    """{file name: find(source)} for each package module find hits in."""
    found = {path.name: find(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    return {name: hits for name, hits in found.items() if hits}


def private_imports(source):
    """(line, dotted name) of each underscore-prefixed module or name that
    source imports from numpy or scipy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] in ("numpy", "scipy") and any(
                    part.startswith("_") for part in parts):
                found.append((node.lineno, name))
    return found


def name_of(node):
    """The name node refers to, bare or dotted, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def constructions(source, name):
    """Line of each place source constructs the exception class name: a
    call of it, or a raise of the class itself, by bare or dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc
        else:
            continue
        if name_of(target) == name:
            found.append(node.lineno)
    return found


HALTS = {"_HALTS", *(cls.__name__ for cls in solvers._HALTS)}


def catches(source, names):
    """(enclosing function or None, line) of each except clause in source
    that names one of names, by bare or dotted name, alone or in a tuple."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught = (child.type.elts if isinstance(child.type, ast.Tuple)
                          else [child.type])
                if any(name_of(c) in names for c in caught):
                    found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def halt_catches(source):
    """Line of each except clause in source that names _HALTS or one of its
    classes."""
    return [line for _, line in catches(source, HALTS)]


def exit_paths(source):
    """("SystemExit", line) of each SystemExit that source constructs, and
    (enclosing function or None, line) of each except clause that names
    BilevelError."""
    return ([("SystemExit", line) for line in constructions(source,
                                                            "SystemExit")]
            + catches(source, {"BilevelError"}))


def test_package_imports_no_private_numpy_or_scipy_api():
    assert package_hits(private_imports) == {}


def test_only_simplex_constructs_numeric_overflow():
    assert set(package_hits(
        lambda source: constructions(source, "NumericOverflowError"))) == {
            "simplex.py"}


def test_only_solvers_catches_a_halting_error():
    assert set(package_hits(halt_catches)) == {"solvers.py"}


def test_only_main_turns_a_run_failure_into_an_exit():
    assert {name: [where for where, _ in hits] for name, hits
            in package_hits(exit_paths).items()} == {"cli.py": ["main"]}


@pytest.mark.parametrize("source, hits", [
    ("from numpy.linalg import LinAlgError, _umath_linalg",
     [(1, "numpy.linalg._umath_linalg")]),
    ("import numpy._core.multiarray as ma", [(1, "numpy._core.multiarray")]),
    ("from scipy.integrate._ivp import dop853_coefficients",
     [(1, "scipy.integrate._ivp"),
      (1, "scipy.integrate._ivp.dop853_coefficients")]),
    ("def f():\n    from numpy import _NoValue", [(2, "numpy._NoValue")]),
    ("import numpy as np\nfrom scipy.linalg.lapack import get_lapack_funcs\n"
     "from ._private import x\nimport _thread", [])])
def test_private_imports_finds_what_it_forbids(source, hits):
    assert private_imports(source) == hits


@pytest.mark.parametrize("source, hits", [
    ("raise NumericOverflowError('x overflowed')", [1]),
    ("def f():\n    err = errors.NumericOverflowError(msg)\n    raise err",
     [2]),
    ("if bad:\n    raise NumericOverflowError", [2]),
    ("from .errors import NumericOverflowError\n"
     "_HALTS = (NumericOverflowError, ValueError)\n"
     "try:\n    f()\nexcept NumericOverflowError:\n    raise\n"
     "raise ValueError('x')", [])])
def test_overflow_constructions_finds_what_it_forbids(source, hits):
    assert constructions(source, "NumericOverflowError") == hits


@pytest.mark.parametrize("source, hits", [
    ("try:\n    f()\nexcept _HALTS as exc:\n    pass", [3]),
    ("try:\n    f()\nexcept (ValueError, errors.NoConvergenceError):\n"
     "    pass", [3]),
    ("try:\n    f()\nexcept ValueError:\n    pass\n"
     "except SingularDesignError:\n    pass", [5]),
    ("_HALTS = (NumericOverflowError, NoConvergenceError)\n"
     "raise NoConvergenceError('x')\n"
     "try:\n    f()\nexcept (OSError, ConfigError):\n    pass\n"
     "except:\n    raise", [])])
def test_halt_catches_finds_what_it_forbids(source, hits):
    assert halt_catches(source) == hits


@pytest.mark.parametrize("source, hits", [
    ("raise SystemExit(f'{preset}: {run} halted')", [("SystemExit", 1)]),
    ("import sys\nsys.exit(main())", []),
    ("def main():\n    try:\n        run()\n"
     "    except (ConfigError, errors.BilevelError):\n        return 1",
     [("main", 4)]),
    ("try:\n    f()\nexcept BilevelError:\n    raise builtins.SystemExit",
     [("SystemExit", 4), (None, 3)]),
    ("def run():\n    def step():\n        try:\n            f()\n"
     "        except BilevelError:\n            pass\n"
     "    try:\n        step()\n    except ValueError:\n        pass",
     [("step", 5)]),
    ("try:\n    f()\nexcept (ConfigError, DatasetFormatError):\n    pass\n"
     "except SystemExit:\n    raise", [])])
def test_exit_paths_finds_what_it_forbids(source, hits):
    assert exit_paths(source) == hits
