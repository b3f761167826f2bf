"""Benchmark for qwnlab's verification runs.

Run from the repository root:

    python3 perfbench/run.py --workload gram --seed 3 --seconds 55 --trace 0

Each workload is a list of ``qwnlab verify`` invocations, driven in this
process through the public entry point ``qwnlab.cli.main`` with seeds
made from the benchmark's seed passed as ``--seed``.  One pass runs the
list once, closed loop: one caller, and each invocation starts when the
previous one returns.  Passes repeat while another pass as long as the
last one ends within ``--seconds`` (at least two passes).  Nothing is
warmed up: every pass builds its own spaces and engines, so it pays for
filling their Gram and rule caches, as a user's run does.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median seconds of
a pass), ``setup_s`` (median, over fresh interpreters, of importing
``qwnlab.cli`` and validating the workload's configurations),
``peak_rss_mb`` of this process after its first pass and ``ok_ratio``
(invocations that succeeded over invocations attempted).

``--trace 1`` runs one untraced pass and then traced passes, and prints
the per-layer metrics of ``perfbench/tracing.py``'s spans (medians over the
traced passes), each suite's and each layer's share of ``run_s``, and
writes the spans to ``.perfbench/``.

An invocation fails if it raises, exits non-zero, or writes report bytes
that differ from the first pass of the run.  Exact counts (rewrite steps,
Gram assemblies, partitions drawn, whitener calls, report bytes and check
count) must repeat across passes, and across runs with the same seed and
source tree.  The last line of standard output is the JSON result.
"""

import os

# Must be set before numpy is first imported, here or in a child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_PASSES = 2
SETUP_SAMPLES = 5

# Why each workload exists is recorded in BENCHMARK.json.  Each entry is
# (seeds per pass, configurations).  A pass runs every configuration under
# seeds n*count .. n*count+count-1 for benchmark seed n.  The cost of
# `verify all` depends on the random words its seed draws for the rewrite
# checks (0.80M to 1.28M rewrite steps over seeds 0-15), so one pass
# averages three seeds; the Gram configurations cost the same for every
# seed.  `gram` first builds the truncation-5 Gram matrices over M_2 with
# little reuse, then reuses truncation-4 Gram matrices over 100 trials.
WORKLOADS = {
    "verify-default": (3, [{"suite": "all"}]),
    "gram": (
        1,
        [{"suite": "bosonic", "kind": "matrices", "dim": 2, "truncation": 5, "trials": 3}]
        + [
            {"suite": suite, "kind": "matrices", "dim": 2, "truncation": 4, "trials": 100}
            for suite in ("bosonic", "free")
        ],
    ),
}

# Counts that must be identical in every pass and every run of one seed.
EXACT_COUNTS = (
    "rewrite.steps",
    "combinatorics.ordered_partitions.items",
    "bosonic.gram_assemblies",
    "linalg.gram_whitener.calls",
    "report.bytes",
    "report.checks",
)

# Span metrics under a name that differs from the raw trace key.
TRACE_ALIASES = {
    "combinatorics.ordered_partitions.items": "combinatorics.ordered_partitions.items@bosonic",
}

SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qwnlab.cli
from qwnlab.suites import RunConfig
for options in json.loads(sys.argv[2]):
    RunConfig(**options)
print(repr(time.perf_counter() - start))
"""


def invocations(name, seed):
    count, configs = WORKLOADS[name]
    return [dict(config, seed=seed * count + j) for j in range(count) for config in configs]


def verify_argv(options, output):
    argv = ["verify", options["suite"]]
    for key, value in options.items():
        if key != "suite":
            argv += ["--" + key, str(value)]
    return argv + ["--output", str(output)]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    # Read the files directly: the benchmark may run in a plain checkout
    # with no .git, where a git command would search parent directories.
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no .git)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (%s)" % ref


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment(numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def measure_setup(invocations):
    configs = json.dumps(invocations)
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), configs],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError("setup child failed:\n" + child.stderr)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


class Workload:
    """Passes over one workload's invocations, with the correctness gate."""

    def __init__(self, entry, invocations, outdir):
        self.entry = entry
        self.invocations = invocations
        self.outputs = [outdir / ("report-%d.json" % i) for i in range(len(invocations))]
        self.reference = [None] * len(invocations)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # (start, end) perf_counter times of each invocation in the last pass
        self.windows = []

    def run_pass(self):
        """Run every invocation once; return (seconds, exact report counts)."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        gc.collect()
        outcomes = []
        self.windows = []
        start = time.perf_counter()
        for options, path in zip(self.invocations, self.outputs):
            stderr = io.StringIO()
            begun = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = self.entry(verify_argv(options, path))
            except (Exception, SystemExit):
                code = "raised:\n" + traceback.format_exc()
            self.windows.append((begun, time.perf_counter()))
            outcomes.append((code, stderr.getvalue()))
        seconds = time.perf_counter() - start
        counts = {"report.bytes": 0, "report.checks": 0}
        for i, ((code, stderr), path) in enumerate(zip(outcomes, self.outputs)):
            self.attempted += 1
            problem = self._judge(i, code, stderr, path, counts)
            if problem:
                self.failed += 1
                self.problems.append("%s: %s" % (self.label(i), problem))
        return seconds, counts

    def _judge(self, i, code, stderr, path, counts):
        if code != 0:
            return "exit %s; %s" % (code, stderr.strip()[-2000:])
        if not path.is_file():
            return "no report written"
        data = path.read_bytes()
        if self.reference[i] is None:
            self.reference[i] = data
        elif data != self.reference[i]:
            return "report bytes differ from the first pass"
        try:
            summary = json.loads(data)["summary"]
        except (ValueError, KeyError) as exc:
            return "unreadable report: %r" % (exc,)
        if summary["failed"] or not summary["checks"]:
            return "report summary %s" % (summary,)
        counts["report.bytes"] += len(data)
        counts["report.checks"] += summary["checks"]
        return None

    def label(self, i):
        options = self.invocations[i]
        return "%d:%s:seed%d" % (i, options["suite"], options["seed"])

    def digests(self):
        return {
            self.label(i): hashlib.sha256(data).hexdigest()
            for i, data in enumerate(self.reference)
            if data is not None
        }


def check_counts_across_runs(name, seed, source, counts, digests):
    """Compare exact counts with earlier runs of this seed and source tree."""
    path = STATE / ("counts-%s-seed%d-%s.json" % (name, seed, source[:16]))
    current = dict(counts, **{"sha256 " + k: v for k, v in digests.items()})
    problems = []
    previous = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in current.items():
        if key in previous and previous[key] != value:
            problems.append("%s was %r in an earlier run, now %r" % (key, previous[key], value))
    merged = dict(current, **previous)
    temporary = path.with_suffix(".tmp%d" % os.getpid())
    temporary.write_text(json.dumps(merged, indent=1, sort_keys=True))
    temporary.replace(path)
    return problems


def another_pass(times, start, seconds):
    """True while fewer than MIN_PASSES ran, or a pass as long as the last
    one still ends within ``seconds`` of ``start``."""
    if len(times) < MIN_PASSES:
        return True
    return time.perf_counter() - start + times[-1] <= seconds


def run_untraced(workload, seconds):
    """Pass times, report counts, and the peak RSS after the first pass:
    the peak a single ``qwnlab verify`` process of this workload reaches.
    Later passes only add allocator growth that a user's run never sees."""
    times = []
    start = time.perf_counter()
    while another_pass(times, start, seconds):
        elapsed, counts = workload.run_pass()
        if not times:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times.append(elapsed)
        print("pass %d: %.4f s" % (len(times), elapsed))
    return times, counts, peak_rss_mb


def run_traced(workload, seconds):
    from tracing import Tracer

    reference, _ = workload.run_pass()
    print("untraced pass: %.4f s" % reference)
    passes = []
    times = []
    start = time.perf_counter()
    while another_pass(times, start, seconds):
        tracer = Tracer()
        with tracer.installed():
            elapsed, counts = workload.run_pass()
        summary = tracer.summary()
        summary.update(counts)
        summary["run_s"] = elapsed
        times.append(elapsed)
        invocations = [tracer.summary(*window) for window in workload.windows]
        for part, (begun, ended) in zip(invocations, workload.windows):
            part["run_s"] = ended - begun
        passes.append((summary, invocations, tracer.spans))
        print("traced pass %d: %.4f s, %d spans" % (len(passes), elapsed, len(tracer.spans)))
    return reference, passes


def layer_value(metric, summaries, reference):
    """Median over traced passes of a time; a count from the first pass,
    since counts are checked to repeat exactly."""
    name = metric["name"]

    def one(summary):
        if name == "rewrite.steps_per_s":
            busy = summary.get("rewrite.normal_order.s", 0.0)
            return summary.get("rewrite.steps", 0) / busy if busy else 0.0
        if name == "trace.overhead_s":
            return summary["run_s"] - reference
        if name == "combinatorics.noncrossing_partitions.items":
            prefix = name + "@"
            return sum(v for k, v in summary.items() if k.startswith(prefix))
        return summary.get(TRACE_ALIASES.get(name, name), 0)

    if metric["unit"] in ("count", "bytes"):
        return one(summaries[0])
    return statistics.median(one(summary) for summary in summaries)


def print_shares(summaries, labels, invocations):
    """Each suite's and layer's share of the traced run_s, then the largest
    spans of each invocation as shares of that invocation's time."""
    from tracing import LAYERS

    def share(parts, key):
        return statistics.median(p.get(key, 0.0) / p["run_s"] for p in parts)

    suites = sorted(
        (k for k in summaries[0] if k.startswith("suites.") and k.endswith(".s")),
        key=lambda key: -share(summaries, key),
    )
    run_s = statistics.median(s["run_s"] for s in summaries)
    print("share of traced run_s (%.4f s) by suite:" % run_s)
    for key in suites:
        print("  %-22s %6.1f%%" % (key[:-2], 100 * share(summaries, key)))
    print("share of traced run_s by layer, self time:")
    covered = 0.0
    for layer in sorted(LAYERS, key=lambda layer: -share(summaries, layer + ".self_s")):
        covered += share(summaries, layer + ".self_s")
        print("  %-22s %6.1f%%" % (layer, 100 * share(summaries, layer + ".self_s")))
    print("  %-22s %6.1f%%  (cli, run_suite glue)" % ("outside spans", 100 * (1 - covered)))
    for i, label in enumerate(labels):
        parts = [per_pass[i] for per_pass in invocations]
        seconds = statistics.median(p["run_s"] for p in parts)
        # Suites and check_* methods orchestrate; the work is in what they call.
        spans = sorted(
            (
                k
                for k in parts[0]
                if k.endswith(".s") and not k.startswith("suites.") and ".check_" not in k
            ),
            key=lambda key: -share(parts, key),
        )
        print("largest spans of %s (%.4f s), inclusive:" % (label, seconds))
        for key in spans[:5]:
            print("  %-40s %6.1f%%" % (key[:-2], 100 * share(parts, key)))
        gram = share(parts, "bosonic.gram_matrix.s") + share(parts, "free.gram.s")
        print("  %-40s %6.1f%%" % ("bosonic.gram_matrix + free.gram", 100 * gram))


def write_spans(name, seed, passes):
    path = STATE / ("spans-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump(
            {"fields": ["name", "start", "end", "parent"], "passes": passes},
            fh,
        )
    print("spans written to %s" % path.relative_to(ROOT))


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main():
    args = parse_args()
    if not (SRC / "qwnlab" / "__init__.py").is_file():
        print("error: no qwnlab source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import qwnlab
    from qwnlab.cli import main as entry

    if Path(qwnlab.__file__).resolve().parent != SRC / "qwnlab":
        print("error: imported qwnlab from %s" % qwnlab.__file__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(numpy)
    print("environment " + json.dumps(env, sort_keys=True))

    STATE.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="reports-", dir=STATE))
    workload = Workload(entry, invocations(args.workload, args.seed), outdir)
    problems = []
    try:
        if args.trace:
            reference, passes = run_traced(workload, args.seconds)
            summaries = [summary for summary, _, _ in passes]
            counts = {key: summaries[0].get(TRACE_ALIASES.get(key, key), 0) for key in EXACT_COUNTS}
            exact = [
                k for k in summaries[0] if k.endswith(".calls") or ".items@" in k or k in EXACT_COUNTS
            ]
            for summary in summaries[1:]:
                moved = [k for k in exact if summary.get(k) != summaries[0].get(k)]
                problems += ["count %s changed between traced passes" % k for k in moved]
            metrics = {
                m["name"]: {"value": layer_value(m, summaries, reference), "unit": m["unit"]}
                for m in declared["per_layer"]
            }
            labels = [workload.label(i) for i in range(len(workload.invocations))]
            print_shares(summaries, labels, [parts for _, parts, _ in passes])
            write_spans(args.workload, args.seed, [spans for _, _, spans in passes])
        else:
            setup = measure_setup(workload.invocations)
            print("setup: " + ", ".join("%.4f" % s for s in setup) + " s")
            times, counts, peak_rss_mb = run_untraced(workload, args.seconds)
            values = {
                "run_s": statistics.median(times),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": (workload.attempted - workload.failed) / workload.attempted,
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared["end_to_end"]
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    digests = workload.digests()
    for key, digest in sorted(digests.items()):
        print("report %s sha256 %s" % (key, digest))
    print("exact counts " + json.dumps(counts, sort_keys=True))
    print(
        "fail_ratio %d/%d = %.4f"
        % (workload.failed, workload.attempted, workload.failed / workload.attempted)
    )
    if not workload.failed:
        problems += check_counts_across_runs(
            args.workload, args.seed, env["source_sha256"], counts, digests
        )
    problems = workload.problems + problems
    for problem, times in Counter(problems).items():
        print("problem (%dx): %s" % (times, problem))
    result = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
