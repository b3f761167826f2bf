"""Suite wiring: configuration, per-suite seeding, report assembly.

Each suite draws its randomness from a generator seeded with the pair
(run seed, suite id), so adding or reordering suites never shifts the
random stream of another suite and reports stay byte-identical for a
given configuration and seed.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bosonic, diagonal, free, qdeform, rewrite
from .algebra import FunctionAlgebra, MatrixAlgebra, random_element, random_weights
from .combinatorics import (
    bell_number,
    catalan,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
    noncrossing_partitions,
    ordered_partitions,
    set_partitions,
)
from .report import VerificationReport, residual_record

SUITE_IDS = {
    "combinatorics": 0,
    "bosonic": 1,
    "diagonal": 2,
    "free": 3,
    "qdeform": 4,
    "classical": 5,
    "nogo": 6,
}

VERIFY_SUITES = ("bosonic", "classical", "diagonal", "free", "nogo", "qdeform")

ALGEBRA_KINDS = ("functions", "matrices")

# Largest gamma0 and gamma a run accepts.  Grade-k Gram entries grow like
# gamma**k: at truncation 6, 1e60 overflows them and eigvalsh raises,
# while 1e50 still ends in failing records.  1e30 keeps the products the
# checks form inside the double range with room to spare.  The cell
# measure l lies in [1 / MAX_GAMMA, MAX_GAMMA] too: the no-go certificate
# squares l and 1 / l, which overflows a double from about 1.4e154.
MAX_GAMMA = 1e30

# Lowest truncation each suite runs at; the others run from 1.  The bosonic
# closed forms read the grade-2 Gram, and the free moment, cumulant and
# traciality checks walk words of length up to 6, which need 3 grades.
MIN_TRUNCATION = {"bosonic": 2, "free": 3, "all": 3}

# Largest trials a run accepts.  Each trial costs about 0.7 ms and 0.2 kB
# (the norm checks hold one random element per trial), so 1e5 trials run
# about a minute and hold about 20 MB more; 1e8 would ask for about 20 GB.
MAX_TRIALS = 100_000

# Largest dense array, in bytes, a run may form (2 GiB).  A check holds a
# few arrays of the largest size at once, so a run needs a few times this.
MAX_DENSE_BYTES = 2 * 2**30


def largest_dense_bytes(suite, kind, dim, truncation):
    """Estimated bytes of the largest dense complex array a run forms.

    The bosonic and free suites are modelled by the top-grade matrix, D**T
    square for an algebra of dimension D at truncation T, and the free
    suite by D times that, the stack of top-grade number sides its
    adjointness check once held.  The other suites cap their own sizes, so
    only these two are modelled.

    Neither suite forms such a stack now: the bosonic checks read the Gram
    at one index per orbit, and the free ones hold a few top-grade matrices
    at once (the Gram, its whitening, a pair of adjoint sides).  The model
    is kept, conservative, until it counts the arrays each check holds at
    once and is checked against measured peaks.
    """
    if suite not in ("all", "bosonic", "free"):
        return 0
    base = dim**2 if kind == "matrices" else dim
    top = 16 * base ** (2 * truncation)
    return top * base if suite in ("all", "free") else top


@dataclass
class RunConfig:
    """Everything a run depends on; echoed into the report.  Each field but
    the suite is also the ``verify`` flag of its name, typed as annotated."""

    suite: str = "all"
    kind: str = "functions"
    dim: int = 2
    truncation: int = 4
    gamma0: float = 1.0
    gamma: float = 1.0
    q: float = 0.5
    s: float = 2.0
    l: float = 0.5
    trials: int = 25
    seed: int = 2026
    tolerance: float = 1e-9
    output: str = "-"

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), f.type))
        if self.suite != "all" and self.suite not in SUITE_IDS:
            raise ValueError("unknown suite %r" % (self.suite,))
        if self.kind not in ALGEBRA_KINDS:
            raise ValueError("algebra kind must be one of %s" % (ALGEBRA_KINDS,))
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be between 1 and 3")
        if not 1 <= self.truncation <= 6:
            raise ValueError("truncation must be between 1 and 6")
        floor = MIN_TRUNCATION.get(self.suite, 1)
        if self.truncation < floor:
            raise ValueError(
                "suite %s needs truncation at least %d" % (self.suite, floor)
            )
        if not (0 < self.gamma0 <= MAX_GAMMA and 0 < self.gamma <= MAX_GAMMA):
            raise ValueError("gamma0 and gamma must lie in (0, %g]" % MAX_GAMMA)
        if not -1.0 < self.q <= 1.0:
            raise ValueError("q must lie in (-1, 1]")
        if not 1 / MAX_GAMMA <= self.l <= MAX_GAMMA:
            raise ValueError(
                "the cell measure l must lie in [%g, %g]" % (1 / MAX_GAMMA, MAX_GAMMA)
            )
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.trials > MAX_TRIALS:
            raise ValueError("trials must be at most %d" % MAX_TRIALS)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        size = largest_dense_bytes(self.suite, self.kind, self.dim, self.truncation)
        if size > MAX_DENSE_BYTES:
            limit = MAX_DENSE_BYTES / 1e9
            raise ValueError(
                "suite %s over %s of dimension %d at truncation %d would form a "
                "dense array of %.1f GB, above the %.1f GB limit"
                % (self.suite, self.kind, self.dim, self.truncation, size / 1e9, limit)
            )


def _typed(name, value, kind):
    """Field ``name``'s ``value`` as its type ``kind``: a string for str;
    for int and float a number but never a bool, whole for int and finite
    for float.  Whole floats become ints and ints floats, so a value echoes
    the same bytes however it was given."""
    if kind is str and isinstance(value, str):
        return value
    whole = not isinstance(value, float) or value.is_integer()
    if kind is not str and type(value) in (int, float) and (whole or kind is float):
        try:
            value = kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if kind is int or math.isfinite(value):
                return value
            raise ValueError("%s must be finite" % name)
    expected = {str: "a string", int: "an integer", float: "a finite number"}[kind]
    got = json.dumps(value, default=repr)
    raise ValueError("%s must be %s, got %s" % (name, expected, got))


def suite_rng(config, suite):
    return np.random.default_rng([config.seed, SUITE_IDS[suite]])


def _make_algebra(config, rng):
    if config.kind == "matrices":
        return MatrixAlgebra(config.dim)
    return FunctionAlgebra(random_weights(rng, config.dim))


def run_combinatorics(config, rng):
    """Frozen enumeration counts and the transform round trip."""
    records = []
    ordered_counts = [1, 3, 13, 73, 501]
    measured = [sum(1 for _ in ordered_partitions(n)) for n in range(1, 6)]
    records.append(
        residual_record(
            "combinatorics.chain_partition_counts",
            "partition expansion of the scalar product",
            float(max(abs(a - b) for a, b in zip(measured, ordered_counts))),
            0.0,
            notes="counts for sizes 1..5: %s" % (measured,),
        )
    )
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    set_counts = [sum(1 for _ in set_partitions(n)) for n in range(1, 7)]
    gap = max(abs(a - b) for a, b in zip(set_counts, bells[1:7]))
    gap = max(gap, max(abs(bell_number(n) - bells[n]) for n in range(9)))
    records.append(
        residual_record(
            "combinatorics.set_partition_counts",
            "partition expansion of the scalar product",
            float(gap),
            0.0,
            notes="Bell numbers through size 8",
        )
    )
    catalans = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    nc_counts = [sum(1 for _ in noncrossing_partitions(n)) for n in range(1, 8)]
    gap = max(abs(a - b) for a, b in zip(nc_counts, catalans[1:8]))
    gap = max(gap, max(abs(catalan(n) - catalans[n]) for n in range(11)))
    records.append(
        residual_record(
            "combinatorics.noncrossing_counts",
            "noncrossing partitions in free moment formulas",
            float(gap),
            0.0,
            notes="Catalan numbers through size 10",
        )
    )
    records += qdeform.check_inversion_count(rng)
    worst = 0.0
    for _ in range(20):
        cumulants = list(rng.standard_normal(6))
        back = moments_to_free_cumulants(free_cumulants_to_moments(cumulants))
        worst = max(
            worst, max(abs(a - b) for a, b in zip(cumulants, back))
        )
    records.append(
        residual_record(
            "combinatorics.transform_round_trip",
            "moment and free-cumulant transforms",
            worst,
            1e-9,
            notes="20 random cumulant sequences of order 6",
        )
    )
    return records


def run_bosonic(config, rng):
    algebra = _make_algebra(config, rng)
    space = bosonic.BosonicSpace(
        algebra, max_grade=config.truncation, gamma0=config.gamma0
    )
    records = []
    records += space.check_gram_closed_forms(rng, trials=config.trials)
    records += space.check_gram_recursion(kmax=min(config.truncation, 4))
    if algebra.commutative:
        records += space.check_gram_paths(kmax=min(config.truncation, 4))
    records += space.check_adjointness(tol=config.tolerance)
    records += space.check_commutators()
    records += space.check_symmetric_invariance()
    records += space.check_norm_estimates(
        rng, trials=config.trials, slack=config.tolerance
    )
    records += space.check_positivity()
    return records


def run_diagonal(config, rng):
    algebra = FunctionAlgebra(random_weights(rng, min(config.dim, 2)))
    rep = diagonal.DiagonalRepresentation(
        algebra, max_grade=min(config.truncation, 3), gamma0=config.gamma0
    )
    records = []
    records += rep.check_measure_is_gram_diagonal()
    records += rep.check_inner_products(rng, trials=min(config.trials, 20))
    records += rep.check_operators(rng, trials=min(config.trials, 20))
    return records


def run_free(config, rng):
    algebra = _make_algebra(config, rng)
    space = free.FreeSpace(algebra, max_grade=config.truncation, gamma=config.gamma)
    records = []
    records += space.check_relations()
    records += space.check_adjointness(tol=config.tolerance)
    records += space.check_positivity()
    records += space.check_norm_estimates(
        rng, trials=config.trials, slack=config.tolerance
    )
    records += space.check_moments(
        rng, trials=min(config.trials, 20), tol=config.tolerance
    )
    records += space.check_cumulants(
        rng, trials=min(config.trials, 10), tol=config.tolerance
    )
    records += space.check_traciality(
        rng, trials=config.trials, tol=config.tolerance
    )
    free_algebra = FunctionAlgebra(random_weights(rng, 4))
    free_space = free.FreeSpace(free_algebra, max_grade=6, gamma=config.gamma)
    records += free_space.check_freeness(
        rng, trials=min(config.trials, 15), tol=config.tolerance
    )
    return records


def run_qdeform(config, rng):
    dim = min(config.dim, 2)
    truncation = min(config.truncation, 4)
    space = qdeform.QFockSpace(dim, config.q, truncation)
    records = []
    records += space.check_canonical_relation(tol=config.tolerance)
    if truncation >= 2:
        records += space.check_squared_relation(
            rng, trials=config.trials, tol=config.tolerance
        )
    records += space.check_adjointness()
    records += space.check_positivity()
    records += qdeform.check_inversion_count(rng)
    mass = random_weights(rng)
    ratios = (1.0 + rng.integers(0, 3, size=dim)) / 4.0
    fine_weights = np.stack([mass * ratios, mass * (1.0 - ratios)], axis=1).ravel()
    blocks = [(2 * i, 2 * i + 1) for i in range(dim)]
    disc = qdeform.DiscretizedQuadratic(
        config.q, fine_weights, blocks, max(truncation, 4)
    )
    phi = disc.random_piecewise(rng)
    psi = disc.random_piecewise(rng)
    records += disc.check_discretized_relation(
        phi, psi, rng, pairs=8, tol=config.tolerance
    )
    records += qdeform.check_bosonic_coefficient_match()
    return records


def run_classical(config, rng):
    engine = rewrite.make_function_engine(random_weights(rng, 3), config.gamma0)
    algebra = engine.symbols.algebra
    phi = random_element(algebra, rng)
    psi = random_element(algebra, rng)
    records = []
    records += engine.check_commuting_family(config.s, phi, psi)
    support_engine = rewrite.make_function_engine([0.5, 0.25])
    f1 = np.array([1.5, 0.0])
    f2 = np.array([0.0, -0.75])
    for powers in ((1, 3), (2, 2), (3, 3)):
        records += support_engine.check_factorization(config.s, f1, f2, powers)
    for gamma0, t in ((1.0, 1.0), (2.0, 1.5), (1.0, 3.0)):
        records += rewrite.gamma_moment_check(gamma0, t)
    records += rewrite.check_strategy_independence(rng, trials=10)
    records += rewrite.check_termination(
        rng, words=min(2000, 200 * config.trials)
    )
    records += rewrite.check_engine_vs_operators(
        rng, trials=min(config.trials, 30), tol=config.tolerance
    )
    records += rewrite.check_measured_table_map(config.gamma0, tol=config.tolerance)
    return records


def run_nogo(config, rng):
    records = []
    records += rewrite.check_nogo(config.gamma0, config.l, -1.0 / config.l)
    records += rewrite.check_nogo_grid(rng)
    return records


_RUNNERS = {
    "combinatorics": run_combinatorics,
    "bosonic": run_bosonic,
    "diagonal": run_diagonal,
    "free": run_free,
    "qdeform": run_qdeform,
    "classical": run_classical,
    "nogo": run_nogo,
}


def run_suite(config):
    """Execute the selected suites and assemble the ordered report."""
    if config.suite == "all":
        selected = sorted(VERIFY_SUITES)
    else:
        selected = [config.suite]
    echo = asdict(config)
    echo.pop("output")
    report = VerificationReport(config=echo)
    for name in selected:
        rng = suite_rng(config, name)
        report.extend(_RUNNERS[name](config, rng))
    return report.finalize()
