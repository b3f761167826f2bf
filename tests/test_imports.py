"""No module of the package binds an import or a local name it never uses
or defines a function, method or class nothing names, and the CLI starts
without the modules only some runs need."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qwnlab"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def _references(node):
    """How often each name is read under ``node``, as a bare name or as
    an attribute."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _traced_names():
    """Every name the benchmark's span tracer wraps; the file is only read."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tables = (tracing.FUNCTIONS, tracing.GENERATORS, tracing.METHODS)
    return {name for table in tables for names in table.values() for name in names}


def _class_data_attributes(tree):
    """(class, name, line) of each data attribute a class body assigns;
    the annotated fields of a dataclass are its instances' fields, which
    ``asdict`` reads, and are left out."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield cls.name, target.id, node.lineno


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_package_names_every_definition():
    # a function, method or class is named somewhere in the package outside
    # its own body, exported through an ``__all__``, or wrapped by the
    # benchmark's tracer, and a class-level data attribute is read as an
    # attribute somewhere in the package or traced; dunders are exempt
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    total = sum((_references(tree) for tree in trees.values()), Counter())
    kept = set().union(*map(_exported, trees.values())) | _traced_names()
    dead = sorted(
        "%s in %s (line %d)" % (node.name, name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _dunder(node.name)
        and node.name not in kept
        and total[node.name] == _references(node)[node.name]
    )
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    dead += sorted(
        "%s.%s in %s (line %d)" % (cls, attr, name, line)
        for name, tree in trees.items()
        for cls, attr, line in _class_data_attributes(tree)
        if not _dunder(attr) and attr not in read | _traced_names()
    )
    assert not dead, "definitions nothing names: %s" % ", ".join(dead)


def _foreign_private_calls(tree):
    """(name, line) of each call ``x._name(...)`` whose ``x`` is not
    ``self``, ``cls`` or ``super()``: one object reaching into another's
    private methods."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        if not name.startswith("_") or _dunder(name):
            continue
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        if (
            isinstance(owner, ast.Call)
            and isinstance(owner.func, ast.Name)
            and owner.func.id == "super"
        ):
            continue
        yield name, node.lineno


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_calls_no_private_method_of_another_object(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted("%s (line %d)" % call for call in _foreign_private_calls(tree))
    assert not found, "private calls in %s: %s" % (path.name, ", ".join(found))


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
