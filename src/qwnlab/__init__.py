"""Verification laboratory for quadratic and linear white-noise algebras.

Finite-dimensional truncations of the interacting Fock spaces carrying
quadratic (bosonic and free) and linear white noises, a symbolic rewrite
engine for the abstract relation tables, and suites of numerical checks
that emit deterministic JSON reports.
"""

from .algebra import FunctionAlgebra, MatrixAlgebra, random_element
from .bosonic import BosonicSpace
from .combinatorics import (
    bell_number,
    catalan,
    cumulant_weight,
    free_cumulants_to_moments,
    interval_compositions,
    inversions,
    moments_to_free_cumulants,
    noncrossing_partitions,
    ordered_partitions,
    set_partitions,
)
from .diagonal import DiagonalRepresentation
from .free import FreeSpace
from .qdeform import DiscretizedQuadratic, QFockSpace
from .report import CheckRecord, VerificationReport, canonical_json, emit_report
from .rewrite import (
    NormalForm,
    RewriteBudgetError,
    RewriteEngine,
    SymbolTable,
    UnsupportedRelationError,
    make_function_engine,
    nogo_certificate,
)
from .suites import SUITE_IDS, RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "BosonicSpace",
    "CheckRecord",
    "DiagonalRepresentation",
    "DiscretizedQuadratic",
    "FreeSpace",
    "FunctionAlgebra",
    "MatrixAlgebra",
    "NormalForm",
    "QFockSpace",
    "RewriteBudgetError",
    "RewriteEngine",
    "RunConfig",
    "SUITE_IDS",
    "SymbolTable",
    "UnsupportedRelationError",
    "VerificationReport",
    "bell_number",
    "canonical_json",
    "catalan",
    "cumulant_weight",
    "emit_report",
    "free_cumulants_to_moments",
    "interval_compositions",
    "inversions",
    "make_function_engine",
    "moments_to_free_cumulants",
    "nogo_certificate",
    "noncrossing_partitions",
    "ordered_partitions",
    "random_element",
    "run_suite",
    "set_partitions",
    "__version__",
]
