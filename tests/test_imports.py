"""No module of the package binds an import or a local name it never uses,
and the CLI starts without the modules only some runs need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qwnlab"


def _module_imports(tree):
    """Names bound by the module-level import statements of a module."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree):
    """Names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_uses_its_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        "%s (line %d)" % (name, line)
        for name, line in _module_imports(tree).items()
        if name not in used and name not in _exported(tree)
    )
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def _unused_locals(tree):
    """(function, name, line) of each name a function stores and never
    loads.  Loads in nested functions count for the enclosing one; ``_``
    and names declared ``global`` are exempt."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        loaded = {"_"}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                loaded.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                loaded.add(node.id)
        found.update(
            (func.name, name, line)
            for name, line in stored.items()
            if name not in loaded
        )
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_uses_its_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(
        "%s in %s (line %d)" % (name, func, line)
        for func, name, line in _unused_locals(tree)
    )
    assert not unused, "unused locals in %s: %s" % (path.name, ", ".join(unused))


def test_cli_import_leaves_out_process_pools():
    # The termination sweep imports these when it forks workers; the CLI's
    # start-up should not pay for them.
    env = dict(os.environ)
    paths = [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    probe = (
        "import sys, qwnlab.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_a_free_run_leaves_out_scipy():
    # the free whitening is numpy only: importing scipy.linalg would cost
    # the run tens of MB and a third of a second
    env = dict(os.environ)
    paths = [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    probe = (
        "import sys; from qwnlab.suites import RunConfig, run_suite; "
        "report = run_suite(RunConfig(suite='free', kind='matrices', dim=2, "
        "truncation=3, trials=2)); "
        "print(len(report.checks), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    count, modules = result.stdout.strip().split(" ", 1)
    assert int(count) > 0 and modules == "[]"
