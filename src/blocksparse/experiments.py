"""Experiment harness: one table of experiments, one sweep runner, CSV rows.

:data:`EXPERIMENTS` holds the five CLI experiments, each a :class:`Sweep`
spec: compressive recovery versus measurement budget, noisy recovery versus
SNR, block-TV denoising, sparse-plus-low-rank decomposition, and the
ADMM-versus-FBS memory benchmark.  One runner gives them their rows, timing,
failure rows and worker processes; ``--dump-config`` reads its axis values
from the same points.  Each experiment reads only the flags it declares: the
runner's (:data:`RUNNER_FIELDS`) and its sweep's ``reads``.  The CLI offers
it no other flag, and ``--dump-config`` reports no other.  The memory
benchmark's row per trial holds two tracemalloc peaks on the same planted
stack, FBS's solve and the ADMM prox over every frame, and their ratio.  RNG
streams derive from (seed, trial, point stream) and rows are written trials
outer, points inner, so a rerun reproduces the CSV byte-for-byte apart from
the timing and measured-memory columns.

Beside its ``<name>.csv`` each experiment writes 8-bit ``.pgm`` previews
(:func:`blocksparse.matrixio.write_pgm`).  The compressive-recovery sweep and
the decomposition also save exact float64 state as NumPy ``.npy`` files
(``np.save``; read back bit for bit with ``np.load``):
``cs_measurements_m{m}.npy``, trial 0's ``(m,)`` measurements at each budget,
and ``rpca_foreground.npy``, trial 0's ``(H, W, L)`` sparse part.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import numbers
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import Field, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .blocktv import BlockTvConfig, denoise_block_tv
from .common import (ConfigError, SolverReport, check_count, check_finite, check_nonnegative,
                     check_positive)
from .grids import GridShape, build_clique_system
from .matrixio import write_pgm
from .metrics import psnr_db, relative_error, support_prf, support_set
from .prox import ProxConfig, prox_block_norm
from .pursuit import ColampConfig, MeasurementModel, colamp_solve
from .rpca import RpcaConfig, default_lambda, solve_rpca
from .synthetic import (block_shapes, gaussian_measurement_matrix, make_blocky_image,
                        make_lowrank_blocksparse_stack, make_piecewise_constant,
                        sigma_for_psnr_db, sigma_for_snr_db)

SCHEMA_VERSION = "5"

CSV_COLUMNS = (
    "schema_version", "experiment", "trial", "seed", "timestamp",
    "clique_side", "lam", "mu", "epsilon",
    "k_sparsity", "m", "m_over_k", "snr_db", "input_psnr_db", "solver",
    "n_frames", "rank_true",
    "rel_error", "psnr_db", "psnr_gain_db", "precision", "recall", "f_measure",
    "rank_est", "iterations", "inner_iterations", "inner_capped", "objective_monotone",
    "fbs_measured_entries", "admm_measured_entries", "memory_ratio",
    "wall_clock_s", "termination", "failed",
)

# Defaults tuned for the unit-amplitude synthetic generators; CLI flags
# override them.  The solvers' own settings are the defaults of their
# configs (ColampConfig, BlockTvConfig, RpcaConfig), and each sweep's
# default clique side is its Sweep's ``side``.
MEMORY_SIZE = 16
CS_SIZE = 32
CS_BLOCKS = 2
ROBUST_M_OVER_K = 2.0
BLOCKTV_SIZE = 64
BLOCKTV_INPUT_PSNR_DB = 20.0
RPCA_SIZE = 32
BLOCKTV_LAMBDA_GRID = (0.05, 0.1, 0.15, 0.25, 0.4, 0.6)
SNR_SWEEP_POINTS = (5.0, 10.0, 15.0, 20.0)
M_OVER_K_SWEEP = (1.0, 2.0, 3.0, 4.0, 5.0)

# Worker processes run one BLAS thread each, so that --jobs workers share the
# cores instead of oversubscribing them.  Results do not depend on it: the
# metrics sum without BLAS, whose threaded dot products (OpenBLAS: above 10,000
# entries) round differently at each thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(ValueError):
    """Unknown experiment."""


# The fields every experiment reads: its RNG seed, and how the runner runs it.
RUNNER_FIELDS = ("seed", "trials", "jobs", "out_dir")


def _check_seed(value, what: str) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{what} must be a nonnegative integer, got {value!r}")


def _flag(default, option: str, kind: type, help: str, check=None, what: str = ""):
    """A :class:`HarnessConfig` field and its command-line flag: ``option``
    parses to ``kind``, and a set value must pass ``check(value, what)``."""
    return field(default=default, metadata={"option": option, "type": kind, "help": help,
                                            "check": check, "what": what})


@dataclass
class HarnessConfig:
    """Flag values of the experiments; ``None`` means the experiment's default.

    The fields are the one flag table: each one's metadata holds its option,
    type, check and help, which both :meth:`__post_init__` and the CLI read.
    An experiment reads only :data:`RUNNER_FIELDS` and the fields its
    :class:`Sweep` declares in ``reads``; it ignores the others, and the CLI
    rejects them as flags of that experiment.
    """

    seed: int = _flag(0, "--seed", int, "master RNG seed", _check_seed, "seed")
    trials: int = _flag(20, "--trials", int, "trials per parameter point", check_count, "trials")
    jobs: int = _flag(1, "--jobs", int, "trial worker processes", check_count, "jobs")
    out_dir: str = _flag(".", "--out-dir", str, "output directory for CSV and images")
    clique_side: Optional[int] = _flag(None, "--clique-side", int, "clique patch side length "
                                       "(per-experiment default)", check_count, "clique side")
    lam: Optional[float] = _flag(None, "--lambda", float, "regularization weight "
                                 "(per-experiment default)", check_nonnegative, "lambda")
    mu: Optional[float] = _flag(None, "--mu", float, "decomposition fidelity weight "
                                "(default: the solver's)", check_positive, "mu")
    epsilon: Optional[float] = _flag(None, "--epsilon", float, "smoothing parameter "
                                     "(default: scale-relative)", check_positive, "epsilon")
    k_sparsity: int = _flag(40, "--k-sparsity", int, "planted sparsity K", check_count,
                            "k sparsity")
    m_over_k: Optional[float] = _flag(None, "--m-over-k", float, "measurement budget as a "
                                      "multiple of K", check_finite, "m/K")
    # snr_db may be negative: noise louder than the signal is a valid point
    snr_db: Optional[float] = _flag(None, "--snr-db", float, "measurement SNR (or input "
                                    "PSNR for denoising)", check_finite, "snr_db")

    def __post_init__(self):
        for f in fields(self):
            value, check = getattr(self, f.name), f.metadata["check"]
            if check is not None and (value is not None or f.default is not None):
                check(value, f.metadata["what"])
        if self.m_over_k is not None and round(self.m_over_k * self.k_sparsity) < 1:
            raise ConfigError("m/K times K must round to at least one measurement")


def _sides(side: int, size: int, baseline: bool) -> tuple[int, ...]:
    """``side``, then the l=1 baseline if ``baseline`` is set."""
    build_clique_system(GridShape(size, size), side)  # rejects a side that does not fit
    return (side, 1) if baseline and side != 1 else (side,)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(path, rows: list[dict]) -> None:
    """Write result rows against the fixed, versioned schema (validated)."""
    for row in rows:
        unknown = set(row) - set(CSV_COLUMNS)
        if unknown:
            raise ValueError(f"row carries unknown columns {sorted(unknown)}")
        for required in ("schema_version", "experiment", "trial", "seed"):
            if required not in row:
                raise ValueError(f"row is missing required column {required!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])


def _objective_monotone(trace: list[float]) -> bool:
    return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def _report_fields(report: SolverReport) -> dict:
    return {"iterations": report.iterations, "termination": report.termination_reason}


class Point(NamedTuple):
    """A sweep's parameter point: its CSV parameter columns, and the key of
    the random data its trials draw (equal streams see the same data)."""

    stream: int
    params: dict


@dataclass(frozen=True)
class Sweep:
    """A pure, module-level ``trial(cfg, trial, point) -> (result fields,
    artifacts)`` run at each of ``points(cfg, side)``, where ``side`` is
    ``cfg.clique_side`` or, unset, the sweep's own default ``side``.
    ``reads`` names the :class:`HarnessConfig` fields the sweep reads
    besides :data:`RUNNER_FIELDS`.  ``write(out_dir, done)`` gets
    ``(point, artifacts)`` of each trial-0 task that succeeded.
    ``--dump-config`` reports the fields the sweep reads, the point
    parameters named in ``axes`` (a scalar for one value, else a list) and
    ``settings(cfg)``."""

    help: str
    reads: tuple[str, ...]
    side: int
    points: Callable[[HarnessConfig, int], list[Point]]
    trial: Callable[[HarnessConfig, int, Point], tuple[dict, object]]
    write: Callable[[Path, list[tuple[Point, object]]], None]
    axes: tuple[str, ...]
    settings: Callable[[HarnessConfig], dict] = lambda cfg: {}

    def flags(self) -> list[Field]:
        """The :class:`HarnessConfig` fields the sweep reads, the runner's
        included, in field order: its command-line flags."""
        return [f for f in fields(HarnessConfig) if f.name in RUNNER_FIELDS + self.reads]


def _task(name: str, cfg: HarnessConfig, trial: int, point: Point) -> tuple[dict, object]:
    """One task's row, and its artifacts if it is trial 0 and succeeded."""
    row = {"schema_version": SCHEMA_VERSION, "experiment": name, "trial": trial,
           "seed": cfg.seed, "failed": False, **point.params}
    try:
        t0 = time.perf_counter()
        fields, artifacts = EXPERIMENTS[name].trial(cfg, trial, point)
        row["wall_clock_s"] = time.perf_counter() - t0
    except Exception as exc:  # the sweep continues; the row records the failure
        row["failed"] = True
        row["termination"] = f"error: {type(exc).__name__}: {exc}"
        return row, None
    row.update(fields)
    return row, artifacts if trial == 0 else None


def _run_sweep(name: str, sweep: Sweep, points: list[Point], cfg: HarnessConfig,
               out_dir: Path) -> list[dict]:
    tasks = [(name, cfg, trial, point) for trial in range(cfg.trials) for point in points]
    workers = min(cfg.jobs, os.cpu_count() or 1)
    if workers == 1:
        results = [_task(*task) for task in tasks]
    else:
        saved = dict(os.environ)
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                results = list(pool.map(_task, *zip(*tasks)))
        finally:
            os.environ.clear()
            os.environ.update(saved)
    done = [(point, artifacts) for (_, _, _, point), (_, artifacts) in zip(tasks, results)
            if artifacts is not None]
    if done:
        sweep.write(out_dir, done)
    return [row for row, _ in results]


def _cs_lambda0(cfg: HarnessConfig) -> float:
    return cfg.lam if cfg.lam is not None else ColampConfig.lam0


def _cs_params(cfg: HarnessConfig, side: int, ratio: float) -> dict:
    k = cfg.k_sparsity
    block_shapes(CS_SIZE, CS_SIZE, k, CS_BLOCKS)  # rejects a k whose blocks do not fit
    return {"clique_side": side, "k_sparsity": k, "m_over_k": ratio, "m": round(ratio * k),
            "lam": _cs_lambda0(cfg), "solver": "admm"}


def _cs_settings(cfg: HarnessConfig) -> dict:
    return {"lam0": _cs_lambda0(cfg), "lam_growth": ColampConfig.lam_growth}


def _cs_points(cfg: HarnessConfig, side: int) -> list[Point]:
    (side,) = _sides(side, CS_SIZE, baseline=False)
    ratios = (cfg.m_over_k,) if cfg.m_over_k is not None else M_OVER_K_SWEEP
    return [Point(i, _cs_params(cfg, side, ratio)) for i, ratio in enumerate(ratios)]


def _robust_points(cfg: HarnessConfig, side: int) -> list[Point]:
    sides = _sides(side, CS_SIZE, baseline=True)
    ratio = cfg.m_over_k if cfg.m_over_k is not None else ROBUST_M_OVER_K
    snrs = (cfg.snr_db,) if cfg.snr_db is not None else SNR_SWEEP_POINTS
    return [Point(i, {**_cs_params(cfg, side, ratio), "snr_db": snr})
            for i, snr in enumerate(snrs) for side in sides]


def _cs_trial(cfg: HarnessConfig, trial: int, point: Point) -> tuple[dict, object]:
    """CoLaMP recovery from ``m`` measurements, noisy when the point has ``snr_db``."""
    p = point.params
    k, m = p["k_sparsity"], p["m"]
    truth = make_blocky_image(CS_SIZE, CS_SIZE, k, CS_BLOCKS, _rng(cfg.seed, trial, 7))
    phi = gaussian_measurement_matrix(m, truth.size, _rng(cfg.seed, trial, 11, point.stream))
    y = phi @ truth.ravel()
    eps_res = None
    if "snr_db" in p:
        sigma = sigma_for_snr_db(y, p["snr_db"])
        y = y + sigma * _rng(cfg.seed, trial, 13, point.stream).standard_normal(m)
        eps_res = sigma * math.sqrt(m)
    pursuit = ColampConfig(k=k, lam0=p["lam"], eps_res=eps_res)
    cliques = build_clique_system(GridShape(CS_SIZE, CS_SIZE), p["clique_side"])
    xhat, report = colamp_solve(y, MeasurementModel(phi), cliques, pursuit)
    prec, rec, fmeas = support_prf(support_set(xhat), np.flatnonzero(truth.ravel()))
    # the pursuit's prox work: iterations summed over its calls, and the calls
    # that stopped at their iteration cap
    inner = {"inner_iterations": sum(report.extra["prox_iterations"]),
             "inner_capped": report.extra["prox_terminations"].get("max-iterations", 0)}
    return {"rel_error": relative_error(xhat, truth),
            "precision": prec, "recall": rec, "f_measure": fmeas,
            **_report_fields(report), **inner}, (truth, xhat, y)


def _write_cs(out_dir: Path, done: list[tuple[Point, object]]) -> None:
    write_pgm(out_dir / "cs_truth.pgm", done[0][1][0])
    for point, (_, xhat, y) in done:
        m = point.params["m"]
        write_pgm(out_dir / f"cs_recovered_m{m}.pgm", xhat)
        np.save(out_dir / f"cs_measurements_m{m}.npy", y)


def _write_robust(out_dir: Path, done: list[tuple[Point, object]]) -> None:
    first_snr = [(point, artifacts) for point, artifacts in done if point.stream == 0]
    if first_snr:
        write_pgm(out_dir / "robust_truth.pgm", first_snr[0][1][0])
    for point, (_, xhat, _) in first_snr:
        write_pgm(out_dir / f"robust_recovered_l{point.params['clique_side']}.pgm", xhat)


def _blocktv_points(cfg: HarnessConfig, side: int) -> list[Point]:
    sides = _sides(side, BLOCKTV_SIZE, baseline=True)
    lams = (cfg.lam,) if cfg.lam is not None else BLOCKTV_LAMBDA_GRID
    input_psnr = cfg.snr_db if cfg.snr_db is not None else BLOCKTV_INPUT_PSNR_DB
    return [Point(0, {"clique_side": side, "lam": lam, "input_psnr_db": input_psnr,
                      "epsilon": cfg.epsilon})
            for lam in lams for side in sides]


def _blocktv_trial(cfg: HarnessConfig, trial: int, point: Point) -> tuple[dict, object]:
    p = point.params
    truth = make_piecewise_constant(BLOCKTV_SIZE, BLOCKTV_SIZE, _rng(cfg.seed, trial, 7))
    sigma = sigma_for_psnr_db(1.0, p["input_psnr_db"])
    noisy = truth + sigma * _rng(cfg.seed, trial, 13).standard_normal(truth.shape)
    xhat, report = denoise_block_tv(noisy, BlockTvConfig(
        lam=p["lam"], eps=p["epsilon"], clique_side=p["clique_side"]))
    p_in = psnr_db(noisy, truth, peak=1.0)
    p_out = psnr_db(xhat, truth, peak=1.0)
    return {"rel_error": relative_error(xhat, truth),
            "psnr_db": p_out, "psnr_gain_db": p_out - p_in, "epsilon": report.extra["epsilon"],
            "objective_monotone": _objective_monotone(report.objective_trace),
            **_report_fields(report)}, (truth, noisy, xhat, p_out)


def _write_blocktv(out_dir: Path, done: list[tuple[Point, object]]) -> None:
    truth, noisy = done[0][1][:2]
    write_pgm(out_dir / "tv_truth.pgm", truth)
    write_pgm(out_dir / "tv_noisy.pgm", noisy)
    for side in sorted({point.params["clique_side"] for point, _ in done}):
        best = max((a for p, a in done if p.params["clique_side"] == side), key=lambda a: a[3])
        write_pgm(out_dir / f"tv_denoised_l{side}.pgm", best[2])


def _rpca_points(cfg: HarnessConfig, side: int) -> list[Point]:
    (side,) = _sides(side, RPCA_SIZE, baseline=False)
    lam = cfg.lam if cfg.lam is not None else default_lambda(side, RPCA_SIZE * RPCA_SIZE)
    mu = cfg.mu if cfg.mu is not None else RpcaConfig.mu
    return [Point(0, {"clique_side": side, "mu": mu, "epsilon": cfg.epsilon,
                      "n_frames": 10, "rank_true": 2, "solver": "fbs", "lam": lam})]


def _rpca_trial(cfg: HarnessConfig, trial: int, point: Point) -> tuple[dict, object]:
    p = point.params
    lowrank, sparse = make_lowrank_blocksparse_stack(
        RPCA_SIZE, RPCA_SIZE, p["n_frames"], p["rank_true"], _rng(cfg.seed, trial, 7))
    y = lowrank + sparse
    result = solve_rpca(y, RpcaConfig(lam=p["lam"], mu=p["mu"], eps=p["epsilon"],
                                      clique_side=p["clique_side"]))
    prec, rec, fmeas = support_prf(support_set(result.x), np.flatnonzero(sparse.ravel()))
    return {"rel_error": relative_error(result.x, sparse),
            "precision": prec, "recall": rec, "f_measure": fmeas,
            "epsilon": result.report.extra["epsilon"], "rank_est": result.report.extra["rank"],
            "objective_monotone": _objective_monotone(result.report.objective_trace),
            **_report_fields(result.report)}, (y, result.x, result.z)


def _write_rpca(out_dir: Path, done: list[tuple[Point, object]]) -> None:
    y, x, z = done[0][1]
    write_pgm(out_dir / "rpca_observed_f0.pgm", y[:, :, 0])
    write_pgm(out_dir / "rpca_foreground_f0.pgm", x[:, :, 0])
    write_pgm(out_dir / "rpca_background_f0.pgm", z[:, :, 0])
    np.save(out_dir / "rpca_foreground.npy", x)


def _traced_peak(solve: Callable[[], object]) -> tuple[object, int]:
    """Run ``solve()`` once untraced, then again under tracemalloc.  Returns
    the second run's result and its peak allocation in float64 entries
    (bytes // 8).  The first call of a solve in a process allocates more than
    later ones (memory-benchmark at side 10, trials 0-4: its FBS solve
    8,090-8,131 entries cold against 6,752-6,858 warm, its prox over four
    frames 113,613-113,639 against 113,213-113,324), so the warm-up keeps
    that one-off cost out of the measured peak."""
    solve()
    tracemalloc.start()
    try:
        result = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak // 8


def _memory_points(cfg: HarnessConfig, side: int) -> list[Point]:
    (side,) = _sides(side, MEMORY_SIZE, baseline=False)
    return [Point(0, {"clique_side": side, "n_frames": 4})]


def _memory_trial(cfg: HarnessConfig, trial: int, point: Point) -> tuple[dict, object]:
    """Peak memory of FBS and of the consensus-ADMM prox on one planted
    stack of ``L`` frames of ``n`` pixels, both measured by :func:`_traced_peak`.

    The paper's claim: FBS holds four stack-sized buffers (X, Z, gradient,
    residual), ``4 * n * L`` entries, where consensus ADMM on the same
    objective holds ``(2 * side^2 + 4) * n * L``, its ``2 * side^2``
    auxiliary and dual copies beside the same four.  The row tests it with
    measured peaks alone: FBS's 20-iteration solve of the stack, and the
    prox (5 iterations) over every frame with each frame's result kept
    alive, so the per-frame duals add up as they would in one ADMM solve of
    the stack.  The prox carries ``side^2`` dual copies per frame, so its
    peak is at least ``side^2 * n * L``.  ``memory_ratio`` is the ADMM peak
    over the FBS peak.
    """
    p = point.params
    side, frames = p["clique_side"], p["n_frames"]
    lowrank, sparse = make_lowrank_blocksparse_stack(MEMORY_SIZE, MEMORY_SIZE, frames, 2,
                                                     _rng(cfg.seed, trial, 7), fg_side=4)
    y = lowrank + sparse
    result, fbs_entries = _traced_peak(
        lambda: solve_rpca(y, RpcaConfig(clique_side=side, max_iters=20)))
    cliques = build_clique_system(GridShape(MEMORY_SIZE, MEMORY_SIZE), side)
    prox = ProxConfig(lam=0.1, max_iters=5)
    _, admm_entries = _traced_peak(
        lambda: [prox_block_norm(y[:, :, t], cliques, prox) for t in range(frames)])
    return {"fbs_measured_entries": fbs_entries, "admm_measured_entries": admm_entries,
            "memory_ratio": admm_entries / fbs_entries}, (y, result.x)


def _write_memory(out_dir: Path, done: list[tuple[Point, object]]) -> None:
    y, x = done[0][1]
    write_pgm(out_dir / "memory_observed_f0.pgm", y[:, :, 0])
    write_pgm(out_dir / "memory_foreground_f0.pgm", x[:, :, 0])


_CS_READS = ("clique_side", "lam", "k_sparsity", "m_over_k")

EXPERIMENTS: dict[str, Sweep] = {
    "cs-recovery-sweep": Sweep(
        "compressive recovery of blocky images vs. measurement budget", _CS_READS, 2,
        _cs_points, _cs_trial, _write_cs, ("m_over_k", "solver"), _cs_settings),
    "robust-cs-snr-sweep": Sweep(
        "noisy compressive recovery vs. SNR, with an l=1 baseline", (*_CS_READS, "snr_db"), 2,
        _robust_points, _cs_trial, _write_robust, ("m_over_k", "snr_db", "solver"),
        _cs_settings),
    "blocktv-denoise": Sweep(
        "block total-variation denoising, with an l=1 baseline",
        ("clique_side", "lam", "epsilon", "snr_db"), 2,
        _blocktv_points, _blocktv_trial, _write_blocktv, ("lam", "input_psnr_db")),
    "rpca-decompose": Sweep(
        "sparse-plus-low-rank decomposition of a planted stack",
        ("clique_side", "lam", "mu", "epsilon"), 2,
        _rpca_points, _rpca_trial, _write_rpca, ("lam", "mu", "solver")),
    "memory-benchmark": Sweep(
        "ADMM-vs-FBS peak memory, measured on the same stack", ("clique_side",), 10,
        _memory_points, _memory_trial, _write_memory, ()),
}


def _lookup(name: str, cfg: HarnessConfig) -> tuple[Sweep, int, list[Point]]:
    """The sweep for ``name``, its resolved clique side, and its points."""
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}")
    sweep = EXPERIMENTS[name]
    side = cfg.clique_side if cfg.clique_side is not None else sweep.side
    return sweep, side, sweep.points(cfg, side)


def resolve_config(name: str, cfg: HarnessConfig) -> dict:
    """Fully-resolved configuration for ``--dump-config``: the flags the
    experiment reads, with each swept axis replaced by the values the runner
    iterates."""
    sweep, side, points = _lookup(name, cfg)
    resolved = {f.name: getattr(cfg, f.name) for f in sweep.flags()}
    resolved.update(experiment=name, schema_version=SCHEMA_VERSION, clique_side=side)
    for axis in sweep.axes:
        values = list(dict.fromkeys(p.params[axis] for p in points))
        resolved[axis] = values[0] if len(values) == 1 else values
    resolved.update(sweep.settings(cfg))
    return resolved


def run_experiment(name: str, cfg: HarnessConfig) -> Path:
    """Run one experiment, write ``<name>.csv`` plus its artifacts into
    ``cfg.out_dir``, and return the CSV path.

    The artifacts are 8-bit ``.pgm`` previews and, for
    ``cs-recovery-sweep`` and ``rpca-decompose``, exact float64 solver state
    as ``.npy`` files (``cs_measurements_m{m}.npy`` and
    ``rpca_foreground.npy``), which ``np.load`` reads back bit for bit.

    ``memory-benchmark`` writes one row per trial with the measured peaks of
    FBS and of the ADMM prox over every frame of one stack, and their ratio.
    A trial that raises becomes a row with the failure flag; unknown names
    raise :class:`UsageError`.
    With ``cfg.jobs > 1`` trials run on up to ``os.cpu_count()`` ``spawn``
    worker processes with one BLAS thread each.  ``spawn`` re-imports the
    caller's ``__main__`` in every worker, so only callers whose entry code
    sits under an ``if __name__ == "__main__":`` guard (as the CLI's does)
    may pass ``jobs > 1``.
    """
    sweep, _, points = _lookup(name, cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    rows = _run_sweep(name, sweep, points, cfg, out_dir)
    for row in rows:
        row["timestamp"] = stamp
    csv_path = out_dir / f"{name}.csv"
    write_rows(csv_path, rows)
    return csv_path
