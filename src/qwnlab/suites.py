"""Suite wiring: configuration, per-suite seeding, report assembly.

Each suite draws its randomness from a generator seeded with the pair
(run seed, suite id), so adding or reordering suites never shifts the
random stream of another suite and reports stay byte-identical for a
given configuration and seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import bosonic, diagonal, free, qdeform, rewrite
from .algebra import FunctionAlgebra, MatrixAlgebra, random_element
from .combinatorics import (
    bell_number,
    catalan,
    free_cumulants_to_moments,
    inversions,
    moments_to_free_cumulants,
    noncrossing_partitions,
    ordered_partitions,
    set_partitions,
)
from .report import VerificationReport, residual_record
from .rewrite import RelationTable

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


@dataclass
class RunConfig:
    """Everything a run depends on; echoed into the report."""

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
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("%s must be finite" % f.name)
        if self.suite != "all" and self.suite not in SUITE_IDS:
            raise ValueError("unknown suite %r" % (self.suite,))
        if self.kind not in ALGEBRA_KINDS:
            raise ValueError("algebra kind must be one of %s" % (ALGEBRA_KINDS,))
        if not 1 <= self.dim <= 3:
            raise ValueError("dimension must be between 1 and 3")
        if not 1 <= self.truncation <= 6:
            raise ValueError("truncation must be between 1 and 6")
        if self.gamma0 <= 0 or self.gamma <= 0:
            raise ValueError("gamma0 and gamma must be positive")
        if not -1.0 < self.q <= 1.0:
            raise ValueError("q must lie in (-1, 1]")
        if self.l <= 0:
            raise ValueError("the cell measure l must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def suite_rng(config, suite):
    return np.random.default_rng([config.seed, SUITE_IDS[suite]])


def _make_algebra(config, rng):
    if config.kind == "matrices":
        return MatrixAlgebra(config.dim)
    weights = (1.0 + rng.integers(0, 4, size=config.dim)) / 4.0
    return FunctionAlgebra(weights)


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
    worst = 0
    for _ in range(200):
        n = 2 + int(rng.integers(7))
        perm = tuple(int(x) for x in rng.permutation(n))
        brute = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        worst = max(worst, abs(inversions(perm) - brute))
    records.append(
        residual_record(
            "combinatorics.inversions_brute_force",
            "inversion statistic of permutations",
            float(worst),
            0.0,
            notes="200 random permutations",
        )
    )
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
    records += space.check_adjointness(
        rng, trials=config.trials, tol=config.tolerance
    )
    records += space.check_commutators(rng, trials=config.trials)
    records += space.check_norm_estimates(
        rng, trials=config.trials, slack=config.tolerance
    )
    records += space.check_positivity()
    return records


def run_diagonal(config, rng):
    weights = (1.0 + rng.integers(0, 4, size=min(config.dim, 2))) / 4.0
    algebra = FunctionAlgebra(weights)
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
    records += space.check_relations(rng, trials=config.trials)
    records += space.check_adjointness(
        rng, trials=config.trials, tol=config.tolerance
    )
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
    free_algebra = FunctionAlgebra(
        (1.0 + rng.integers(0, 4, size=4)) / 4.0
    )
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
    records += space.check_canonical_relation(
        rng, trials=config.trials, tol=config.tolerance
    )
    if truncation >= 2:
        records += space.check_squared_relation(
            rng, trials=config.trials, tol=config.tolerance
        )
    records += space.check_adjointness(rng, trials=min(config.trials, 25))
    records += space.check_positivity()
    records += qdeform.check_inversion_count(rng)
    mass = (1.0 + rng.integers(0, 4)) / 4.0
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
    records += qdeform.check_bosonic_coefficient_match(rng)
    return records


def run_classical(config, rng):
    engine = rewrite.make_function_engine(
        (1.0 + rng.integers(0, 4, size=3)) / 4.0,
        RelationTable(gamma0=config.gamma0),
    )
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
    started = time.perf_counter()
    echo = asdict(config)
    echo.pop("output")
    report = VerificationReport(config=echo)
    for name in selected:
        rng = suite_rng(config, name)
        report.extend(_RUNNERS[name](config, rng))
    report.finalize()
    report.wall_clock_seconds = time.perf_counter() - started
    return report
