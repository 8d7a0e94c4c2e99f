"""Traced runs: spans and counts at the package's module boundaries.

The tracer replaces public functions at the names each consumer module binds
(``pursuit.prox_block_norm``, ``blocktv.box_correlate_valid``, ...), records
one span per call (id, parent, name, start, end) and the counts each layer's
per-layer metrics need, and puts the originals back on exit.  Spans stay in
memory until the run writes them out.  Nothing inside the package changes,
and untraced runs never install the wrappers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from blocksparse import blocktv, grids, prox, pursuit, regularizer, rpca

GRIDS = "grids.build_clique_system"
PROX = "prox.prox_block_norm"
COLAMP = "pursuit.colamp_solve"
CG = "pursuit.cg_solve_normal"
REG_VALUE = "regularizer.stack_smoothed_value"
REG_GRAD = "regularizer.stack_smoothed_value_and_grad"
FFT_VALID = "fftops.box_correlate_valid"
FFT_FULL = "fftops.box_correlate_full"
RPCA = "rpca.solve_rpca"
SVD = "rpca.svd_soft_threshold"
BLOCKTV = "blocktv.denoise_block_tv"
BACKTRACK = "common.backtrack_step"

# (module, attribute, span name).  rpca._svd_soft is module-private; it is the
# SVD plus soft threshold that solve_rpca runs once per trial step.
BINDINGS = (
    (grids, "build_clique_system", GRIDS),
    (blocktv, "build_clique_system", GRIDS),
    (prox, "prox_block_norm", PROX),
    (pursuit, "prox_block_norm", PROX),
    (pursuit, "colamp_solve", COLAMP),
    (pursuit, "cg_solve_normal", CG),
    (rpca, "stack_smoothed_value", REG_VALUE),
    (rpca, "stack_smoothed_value_and_grad", REG_GRAD),
    (regularizer, "box_correlate_valid", FFT_VALID),
    (regularizer, "box_correlate_full", FFT_FULL),
    (blocktv, "box_correlate_valid", FFT_VALID),
    (blocktv, "box_correlate_full", FFT_FULL),
    (rpca, "solve_rpca", RPCA),
    (rpca, "_svd_soft", SVD),
    (blocktv, "denoise_block_tv", BLOCKTV),
    (blocktv, "backtrack_step", BACKTRACK),
)

# Top-level solves: the fftops repeat detector forgets its inputs at each one.
SOLVES = (PROX, COLAMP, RPCA, BLOCKTV)


def clique_system_bytes(system) -> int:
    """Bytes held by the arrays of a clique system, including tuples of arrays."""
    total = 0
    for value in vars(system).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._fft_seen: set = set()
        # Time spent in the tracer's own bookkeeping; spans are stamped with a
        # clock that stops while it runs, so that no span's duration, and no
        # layer's self time, includes it.
        self._overhead = 0.0

    def _clock(self) -> float:
        return time.perf_counter() - self._overhead

    def _on_call(self, name: str, args, kwargs) -> None:
        if name in SOLVES and not self._stack:
            self._fft_seen.clear()
        if name in (FFT_VALID, FFT_FULL):
            a = np.ascontiguousarray(args[0])
            side = args[1] if len(args) > 1 else kwargs["side"]
            key = (name, side, a.shape, a.dtype.str, hash(a.tobytes()))
            if key in self._fft_seen:
                self.counts["fftops.repeat_calls"] += 1
            self._fft_seen.add(key)

    def _on_result(self, name: str, result) -> None:
        c = self.counts
        if name == GRIDS:
            c["grids.index_bytes"] = max(c["grids.index_bytes"], clique_system_bytes(result))
        elif name == PROX:
            c["prox.iters"] += result.report.iterations
            c["prox.capped"] += result.report.termination_reason == "max-iterations"
            c["prox.converged"] += result.report.termination_reason == "converged"
        elif name == COLAMP:
            c["pursuit.outer_iters"] += result[1].iterations
            c["pursuit.at_cap"] += result[1].termination_reason == "max-iterations"
        elif name == RPCA:
            c["rpca.iters"] += result.report.iterations
            c["rpca.capped"] += result.report.termination_reason == "max-iterations"
        elif name == BLOCKTV:
            c["blocktv.iters"] += result[1].iterations
            c["blocktv.capped"] += result[1].termination_reason == "max-iterations"

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            t = time.perf_counter()
            self._on_call(name, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            self._overhead += time.perf_counter() - t
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                t = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                self.counts[name + ".calls"] += 1
            self._on_result(name, result)
            self._overhead += time.perf_counter() - t
            return result
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this round, by name."""
        names = {span_id: name for span_id, _, name, _, _ in self.spans}
        total = defaultdict(float)      # busy time by span name
        in_children = defaultdict(float)  # time of direct children, by parent name
        blocktv_fft = Counter()
        for _, parent, name, start, end in self.spans:
            total[name] += end - start
            parent_name = names.get(parent)
            if parent_name is not None:
                in_children[parent_name] += end - start
                if parent_name in (BLOCKTV, BACKTRACK):
                    blocktv_fft[name] += 1
        c = self.counts
        prox_calls = c[PROX + ".calls"]
        return {
            "grids.build_s": total[GRIDS],
            "grids.index_mb": c["grids.index_bytes"] / 1e6,
            "prox.calls": prox_calls,
            "prox.iters": c["prox.iters"],
            "prox.capped": c["prox.capped"],
            "prox.converged_frac": c["prox.converged"] / prox_calls if prox_calls else 0.0,
            "prox.s": total[PROX],
            "prox.ms_per_iter": 1e3 * total[PROX] / c["prox.iters"] if c["prox.iters"] else 0.0,
            "pursuit.outer_iters": c["pursuit.outer_iters"],
            "pursuit.at_cap": c["pursuit.at_cap"],
            "pursuit.s": total[COLAMP],
            "pursuit.self_s": total[COLAMP] - in_children[COLAMP],
            "pursuit.cg_calls": c[CG + ".calls"],
            "pursuit.cg_s": total[CG],
            "regularizer.value_calls": c[REG_VALUE + ".calls"],
            "regularizer.grad_calls": c[REG_GRAD + ".calls"],
            "regularizer.s": total[REG_VALUE] + total[REG_GRAD],
            "fftops.valid_calls": c[FFT_VALID + ".calls"],
            "fftops.full_calls": c[FFT_FULL + ".calls"],
            "fftops.repeat_calls": c["fftops.repeat_calls"],
            "fftops.s": total[FFT_VALID] + total[FFT_FULL],
            "rpca.iters": c["rpca.iters"],
            "rpca.capped": c["rpca.capped"],
            "rpca.svd_calls": c[SVD + ".calls"],
            "rpca.svd_s": total[SVD],
            "rpca.halvings": c[SVD + ".calls"] - c["rpca.iters"],
            "rpca.s": total[RPCA],
            "rpca.self_s": total[RPCA] - in_children[RPCA],
            "blocktv.iters": c["blocktv.iters"],
            "blocktv.capped": c["blocktv.capped"],
            # an objective evaluation makes one valid correlation, a gradient
            # evaluation one valid and one full
            "blocktv.obj_evals": blocktv_fft[FFT_VALID] - blocktv_fft[FFT_FULL],
            "blocktv.backtrack_s": total[BACKTRACK],
            "blocktv.s": total[BLOCKTV],
            "blocktv.self_s": total[BLOCKTV] - in_children[BLOCKTV],
        }


@contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name in BINDINGS:
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module.__name__}.{attr} not found; not traced", file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

