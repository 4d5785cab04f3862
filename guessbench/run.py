"""Closed-loop benchmark of the guessnum package.

One client in one process sends the jobs of a workload back to back,
the way a researcher's sweep does.  Run from the root of a source
checkout::

    python3 guessbench/run.py --workload config_search --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
pass with ``--trace 1``.  Standard error carries the verdict of the
answer checker's self-check and every failed job.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PACKAGE = "guessnum"
LAYERS = ("digraph", "guessing_graph", "_search", "solvers", "gf_linear", "cyclic", "netcode")
SETUP_REPEATS = 9
# CPU seconds.  The slowest job that finishes takes up to about 1 s (a
# config_search paper family at 2^10 or 2^11 configurations, or the
# cyclic_sweep job that runs the exhaustive linear search); the colouring
# stalls run past 30 s.  Every stalled job costs the deadline, so it
# stays a few times the slowest job and no more.
JOB_DEADLINE_S = 5.0
# A pass still running this many time budgets after its passes began
# stops, and the jobs it did not reach count as failed, so a run ends in
# bounded time however many jobs stall.
PASS_CUTOFF = 2.0
HASH_SEED = "0"
SPAN_DIR = ROOT / ".guessbench"
CAL_ITERATIONS = 4_000
CAL_NOMINAL_S = 1e-3
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 0.15


class DeadlineExceeded(Exception):
    pass


def _on_deadline(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def cpu_deadline(seconds):
    """Raise DeadlineExceeded once the process used ``seconds`` more CPU time.

    CPU time rather than wall time, so that the set of jobs that miss the
    deadline does not depend on other load on the machine.
    """
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


class Program:
    """The freshly imported package: one attribute per layer module."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.import_module(PACKAGE)
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"{PACKAGE}.{layer}"))
        # process-wide caches, cleared before every measured pass; held
        # here because the tracer replaces the module attributes
        self.caches = (self.solvers.a_s_exact, self.cyclic._verified_primitive)

    def clear_caches(self):
        for cache in self.caches:
            cache.cache_clear()

    def code_size_cache_stats(self):
        info = self.caches[0].cache_info()
        return info.hits, info.hits + info.misses


def set_up(workload, seed):
    """Import the package afresh and build the workload's inputs with it."""
    program = Program()
    return program, workload.build(program, seed)


def self_check(program, workload):
    """The checker accepts a real answer and counts a corrupted one as failed.

    Prints the verdict to standard error and returns whether it passed.
    """
    job = workload.probe(program)
    answer = workload.run(program, job)
    real = workload.check(job, answer)
    wrong = workload.check(job, workload.corrupt(answer))
    ok = real.ok and not wrong.ok
    print(f"self-check: {'PASS' if ok else 'FAIL'}: real answer"
          f" {'accepted' if real.ok else 'rejected: ' + real.reason};"
          f" corrupted answer {'rejected: ' + wrong.reason if not wrong.ok else 'accepted'}",
          file=sys.stderr)
    return ok


def _calibration_loop():
    """Seconds one fixed piece of interpreter work takes right now."""
    table = list(range(64))
    acc = mask = 0
    start = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        mask ^= 1 << (i & 63)
        acc += table[i & 63] * (mask & 0xFFFF) % 7
    return time.perf_counter() - start


class SpeedNormalizer:
    """Rescales wall times by the current speed of the machine.

    The calibration loop runs at the start, about every CAL_EVERY_S
    seconds between jobs and at the end.  A job's time is scaled by
    CAL_NOMINAL_S over the median calibration time within CAL_WINDOW_S
    of the job.  A normalized second is thus a wall second on a machine
    that runs the calibration loop in exactly CAL_NOMINAL_S: drifts in
    host speed cancel, while a slower program still reads slower.
    """

    def __init__(self):
        self.stamps = []
        self.samples = []
        self.jobs = []  # (start, end, charged seconds)
        self._sample()

    def _sample(self):
        self.stamps.append(time.perf_counter())
        self.samples.append(_calibration_loop())

    def add(self, start, seconds):
        """Record a job that started at ``start`` and is charged ``seconds``."""
        self.jobs.append((start, time.perf_counter(), seconds))
        if time.perf_counter() - self.stamps[-1] >= CAL_EVERY_S:
            self._sample()

    def normalized(self):
        """Every recorded job's charged time, rescaled, in recording order."""
        self._sample()
        out = []
        for start, end, seconds in self.jobs:
            lo = bisect.bisect_left(self.stamps, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + CAL_WINDOW_S)
            window = self.samples[lo:hi] or self.samples
            out.append(seconds * CAL_NOMINAL_S / statistics.median(window))
        return out


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def run_pass(program, workload, jobs, stop_at, tracer=None):
    """One pass over the jobs; returns per-pass statistics.

    Jobs not started by the wall time ``stop_at`` are not run and count
    as failed.
    """
    program.clear_caches()
    normalizer = SpeedNormalizer()
    raw_busy = 0.0
    completed = exact = wrong = unreached = 0
    errors = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(index)
        start = time.perf_counter()
        outcome = None
        if start >= stop_at:
            unreached += 1
        else:
            try:
                with cpu_deadline(JOB_DEADLINE_S):
                    outcome = workload.run(program, job)
            except DeadlineExceeded:
                pass
            except Exception as exc:  # a raising job counts as failed, the pass goes on
                errors.append(f"{job.label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if outcome is not None:
            verdict = workload.check(job, outcome)
            if verdict.ok:
                completed += 1
                exact += verdict.exact
            else:
                wrong += 1
                errors.append(f"{job.label}: wrong answer: {verdict.reason}")
                outcome = None
        # a failed job misses any latency limit: it ranks at the deadline or later
        if outcome is None:
            elapsed = max(elapsed, JOB_DEADLINE_S)
        raw_busy += elapsed
        normalizer.add(start, elapsed)
    if unreached:
        errors.append(f"{unreached} jobs not reached before the pass cutoff")
    latencies = normalizer.normalized()
    hits, lookups = program.code_size_cache_stats()
    busy = sum(latencies)
    latencies.sort()
    return {
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "attempted": len(jobs),
        "completed": completed,
        "exact": exact,
        "wrong": wrong,
        "errors": errors,
        "p50": percentile(latencies, 50),
        "p90": percentile(latencies, 90),
        "cache_hits": hits,
        "cache_lookups": lookups,
    }


def run_passes(program, workload, jobs, budget_s, tracer=None):
    """Passes while the next one is expected to end within ``budget_s``.

    The first pass always runs; every pass is cut off PASS_CUTOFF budgets
    after the first one began.
    """
    passes = []
    start = time.perf_counter()
    stop_at = start + budget_s * PASS_CUTOFF
    while True:
        passes.append(run_pass(program, workload, jobs, stop_at, tracer))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > budget_s:
            return passes


def end_to_end(passes, setup_s):
    med = lambda key: statistics.median(key(p) for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (med(lambda p: p["completed"] / p["busy_s"]), "1/s"),
        "job_p50_ms": (med(lambda p: p["p50"] * 1e3), "ms"),
        "job_p90_ms": (med(lambda p: p["p90"] * 1e3), "ms"),
        "completed_share": (med(lambda p: p["completed"] / p["attempted"]), "ratio"),
        "exact_share": (med(lambda p: p["exact"] / max(1, p["completed"])), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="config_search")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SOURCE / PACKAGE / "__init__.py").is_file():
        print(f"guessbench: no {PACKAGE} package under {SOURCE}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing, and with it dict layout and lookup cost, changes
        # with the interpreter's random hash seed; replacing this process
        # with one under a fixed seed removes that run-to-run variation.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SOURCE))
    previous_handler = signal.signal(signal.SIGVTALRM, _on_deadline)
    try:
        return run_benchmark(args)
    finally:
        signal.signal(signal.SIGVTALRM, previous_handler)


def run_benchmark(args):
    workload = WORKLOADS[args.workload]
    normalizer = SpeedNormalizer()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        program, jobs = set_up(workload, args.seed)
        normalizer.add(start, time.perf_counter() - start)
    setup_times = normalizer.normalized()
    checker_ok = self_check(program, workload)

    if args.trace:
        plain = run_passes(program, workload, jobs, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(program, workload, jobs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(
            len(traced),
            sum(p["raw_busy_s"] for p in traced),
            sum(p["busy_s"] for p in traced),
            sum(p["cache_hits"] for p in traced), sum(p["cache_lookups"] for p in traced),
        )
        metrics["trace.overhead"] = (
            statistics.median(p["busy_s"] for p in traced)
            / statistics.median(p["busy_s"] for p in plain),
            "ratio",
        )
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        counted = plain
        wrong = sum(p["wrong"] for p in plain + traced)
    else:
        counted = run_passes(program, workload, jobs, args.seconds)
        metrics = end_to_end(counted, statistics.median(setup_times))
        wrong = sum(p["wrong"] for p in counted)

    for message in sorted({m for p in counted for m in p["errors"]}):
        print(f"failed job: {message}", file=sys.stderr)
    result = {
        "correct": checker_ok and wrong == 0,
        "attempted": sum(p["attempted"] for p in counted),
        "failed": sum(p["attempted"] - p["completed"] for p in counted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
