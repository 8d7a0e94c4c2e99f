"""Benchmark of the blocksparse solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``
directory.  One process, one BLAS thread.  The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A human-readable summary goes to standard error, and a traced
run writes its spans to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread: on a small shared machine more would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is repeated in groups at the start, between the timed solves, and
# around the peak-memory pass; setup_s is the median of all repeats.
SETUP_GROUP = 3
SETUP_BETWEEN_SOLVES = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_mb": "MB",
                    "f_measure": "score", "psnr_db": "dB"}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix == "s" or suffix.endswith("_s"):
        return "s"
    return {"index_mb": "MB", "ms_per_iter": "ms", "converged_frac": "ratio"}.get(suffix, "count")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark of the blocksparse solvers.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> float:
    """Import blocksparse from this checkout's ``src``; returns the import time."""
    if not (SRC / "blocksparse" / "__init__.py").is_file():
        sys.exit(f"blocksparse source not found under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import blocksparse
    elapsed = time.perf_counter() - t0
    if Path(blocksparse.__file__).resolve().parent != SRC / "blocksparse":
        sys.exit(f"imported blocksparse from {blocksparse.__file__}, not from {SRC}")
    return elapsed


class Tally:
    """Solves attempted and failed, and whether every output passed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def solve(self, workload, state, problem):
        """One solve; returns (output, or None if it raised, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.solve(state, problem)
        except Exception:
            self.failed += 1
            print(f"solve {problem.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def solve_all(self, workload, state):
        """Every problem once; returns the outputs and their summed solve time."""
        outputs, elapsed = [], 0.0
        for p in workload.problems:
            out, dt = self.solve(workload, state, p)
            outputs.append(out)
            elapsed += dt
        return outputs, elapsed

    def check_all(self, workload, outputs):
        from checks import CheckError
        for p, out in zip(workload.problems, outputs):
            if out is None:
                continue
            try:
                workload.check(p, out)
            except CheckError as exc:
                self.correct = False
                print(f"check {p.label} failed: {exc}", file=sys.stderr)


def run_rounds(seconds: float, one_round) -> list[float]:
    """Whole rounds until ``seconds`` of solve time have been measured."""
    times: list[float] = []
    while not times or sum(times) < seconds:
        times.append(one_round())
    return times


def peak_bytes(make_workload, seed: int, tally: Tally) -> int:
    """tracemalloc peak of a pass that makes the inputs, sets up and runs the
    problems marked ``in_peak_pass``: the memory a caller of the solvers
    holds, inputs included."""
    gc.collect()
    tracemalloc.start()
    try:
        workload = make_workload(seed)
        state = workload.setup()
        for p in workload.problems:
            if p.in_peak_pass:
                tally.solve(workload, state, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def end_to_end(make_workload, seed: int, seconds: float, tally: Tally) -> dict:
    workload = make_workload(seed)
    setup_times: list[float] = []
    state = None

    def set_up(times: int):
        # Set-up takes milliseconds and the machine's speed drifts over
        # seconds, so its repeats are spread over the whole run.
        nonlocal state
        for _ in range(times):
            t0 = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)

    first: list = []

    def one_round():
        outputs, elapsed = [], 0.0
        for p in workload.problems:
            out, dt = tally.solve(workload, state, p)
            outputs.append(out)
            elapsed += dt
            set_up(SETUP_BETWEEN_SOLVES)
        tally.check_all(workload, outputs)
        if not first:
            first.extend(outputs)
        return elapsed

    set_up(SETUP_GROUP)
    round_times = run_rounds(seconds, one_round)
    set_up(SETUP_GROUP)
    peak = peak_bytes(make_workload, seed, tally)
    set_up(SETUP_GROUP)

    quality = []
    for p, out in zip(workload.problems, first):
        if out is not None:
            quality.append(workload.quality(p, out))
            note = f", duality gap {p.data['gap']:.2e}" if "gap" in p.data else ""
            print(f"  {p.label}: F {quality[-1][0]:.4f}, PSNR {quality[-1][1]:.2f} dB{note}",
                  file=sys.stderr)
    print(f"rounds {[round(t, 3) for t in round_times]} s; "
          f"set-up median {statistics.median(setup_times) * 1e3:.3f} ms of {len(setup_times)}; "
          f"peak {peak / 1e6:.3f} MB", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(round_times),
        "peak_mb": peak / 1e6,
        "f_measure": statistics.fmean(f for f, _ in quality) if quality else 0.0,
        "psnr_db": statistics.fmean(db for _, db in quality) if quality else 0.0,
    }


def traced_run(make_workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Rounds of set-up plus solves with the tracer installed; each per-layer
    metric is the median over rounds, as is ``traced.run_s``."""
    import tracing

    workload = make_workload(seed)
    tracers = []

    def one_round():
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            state = workload.setup()
            outputs, elapsed = tally.solve_all(workload, state)
        tally.check_all(workload, outputs)
        tracers.append(tracer)
        return elapsed

    round_times = run_rounds(seconds, one_round)
    per_round = [t.metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["traced.run_s"] = statistics.median(round_times)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "span_fields": ["id", "parent", "name", "start", "end"],
                   "rounds": [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers]},
                  fh)
    print(f"traced rounds {[round(t, 3) for t in round_times]} s; spans in {path}",
          file=sys.stderr)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make_workload = workloads.WORKLOADS[args.workload]
    print(f"{args.workload} seed {args.seed}: import {import_s:.3f} s", file=sys.stderr)
    tally = Tally()
    if args.trace:
        metrics = traced_run(make_workload, args.seed, args.seconds, tally)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(make_workload, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
