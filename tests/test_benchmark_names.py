"""The names the benchmark's span tracer looks up must exist.

``perfbench/tracing.py`` wraps the functions, generators and methods it
lists by name: module functions through ``getattr`` and methods through
``cls.__dict__``, so a method a class only inherits cannot be traced.  A
refactor that renames or moves one of them breaks ``--trace 1`` runs,
which the rest of the suite never starts.  The module is loaded from its
file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _tracing()
    for table in (tracing.FUNCTIONS, tracing.GENERATORS):
        for module_name, attrs in table.items():
            module = importlib.import_module("qwnlab." + module_name)
            for attr in attrs:
                assert callable(getattr(module, attr, None)), (module_name, attr)


def test_traced_methods_are_owned_by_their_class():
    tracing = _tracing()
    for (module_name, class_name), attrs in tracing.METHODS.items():
        cls = getattr(importlib.import_module("qwnlab." + module_name), class_name)
        for attr in attrs:
            assert attr in cls.__dict__, (class_name, attr)
