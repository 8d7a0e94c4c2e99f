"""Experiment harness: seeded synthetic sweeps, CSV emission, image dumps.

Five experiments are exposed through the CLI: compressive recovery versus
measurement budget, noisy compressive recovery versus SNR (with an l=1
baseline), block-TV denoising (with an l=1 baseline), sparse-plus-low-rank
decomposition, and the ADMM-versus-FBS memory/runtime benchmark.

Every sweep is seed-deterministic end to end: per-task RNG streams derive
from (master seed, trial, parameter index), tasks are pure, and rows are
written in task order through a single writer, so reruns reproduce the CSV
byte-for-byte apart from the timing columns.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .blocktv import BlockTvConfig, denoise_block_tv
from .common import ConfigError
from .grids import GridShape, build_clique_system
from .matrixio import write_matrix, write_pgm
from .metrics import (measured_snr_db, psnr_db, relative_error, support_prf,
                      support_set)
from .prox import ProxConfig, prox_block_norm
from .pursuit import ColampConfig, MeasurementModel, colamp_solve
from .rpca import RpcaConfig, default_lambda, solve_rpca
from .synthetic import (gaussian_measurement_matrix, make_blocky_image,
                        make_lowrank_blocksparse_stack, make_piecewise_constant,
                        sigma_for_psnr_db, sigma_for_snr_db)

SCHEMA_VERSION = "1"

CSV_COLUMNS = (
    "schema_version", "experiment", "trial", "seed", "timestamp",
    "clique_side", "lam", "mu", "alpha", "epsilon",
    "k_sparsity", "m", "m_over_k", "snr_db", "input_psnr_db", "solver",
    "n_frames", "rank_true",
    "rel_error", "psnr_db", "psnr_gain_db", "precision", "recall", "f_measure",
    "rank_est", "iterations", "objective_monotone",
    "fbs_measured_entries", "admm_measured_entries", "admm_formula_entries",
    "memory_ratio", "per_iter_seconds", "wall_clock_s", "peak_aux_entries",
    "termination", "failed",
)

# Wall-clock readings are inherently nondeterministic, so byte-determinism
# comparisons exclude these columns along with the timestamp.
TIMING_COLUMNS = ("timestamp", "wall_clock_s", "per_iter_seconds")

# Defaults tuned for the unit-amplitude synthetic generators; CLI flags
# override them.
CLIQUE_SIDE = 2
MEMORY_CLIQUE_SIDE = 10
CS_LAMBDA0 = 0.6
CS_LAMBDA_GROWTH = 1.02
CS_BLOCKS = 2
ROBUST_M_OVER_K = 2.0
BLOCKTV_INPUT_PSNR_DB = 20.0
RPCA_SIZE = 32
BLOCKTV_LAMBDA_GRID = (0.05, 0.1, 0.15, 0.25, 0.4, 0.6)
SNR_SWEEP_POINTS = (5.0, 10.0, 15.0, 20.0)
M_OVER_K_SWEEP = (1.0, 2.0, 3.0, 4.0, 5.0)


class UsageError(ValueError):
    """Unknown experiment or invalid flag combination."""


@dataclass
class HarnessConfig:
    """Flag values shared by all experiments; ``None`` means per-experiment default."""

    seed: int = 0
    trials: int = 20
    jobs: int = 1
    out_dir: str = "."
    clique_side: Optional[int] = None
    lam: Optional[float] = None
    mu: float = 1.0
    alpha: Union[float, str] = "auto"
    epsilon: Optional[float] = None
    k_sparsity: int = 40
    m_over_k: Optional[float] = None
    snr_db: Optional[float] = None
    solver: Optional[str] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.clique_side is not None and self.clique_side < 1:
            raise ConfigError("clique side must be >= 1")


def _clique_side(name: str, cfg: HarnessConfig) -> int:
    if cfg.clique_side is not None:
        return cfg.clique_side
    return MEMORY_CLIQUE_SIDE if name == "memory-benchmark" else CLIQUE_SIDE


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _run_tasks(tasks: list[Callable[[], object]], jobs: int) -> list:
    if jobs <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


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


def read_csv_without_timing(path) -> list[tuple[str, ...]]:
    """Rows of a results CSV with the timing columns removed, for
    byte-determinism comparisons."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
        out = [tuple(header[i] for i in keep)]
        out.extend(tuple(line[i] for i in keep) for line in reader)
    return out


def _base_row(name: str, cfg: HarnessConfig, trial: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "trial": trial,
        "seed": cfg.seed,
        "failed": False,
    }


def _failure_row(name: str, cfg: HarnessConfig, trial: int, exc: Exception, **params) -> dict:
    row = _base_row(name, cfg, trial)
    row.update(params)
    row["failed"] = True
    row["termination"] = f"error: {type(exc).__name__}: {exc}"
    return row


def _objective_monotone(trace: list[float]) -> bool:
    return all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def _pgm(path, image) -> None:
    write_pgm(path, image, maxval=255)


# ---------------------------------------------------------------------------
# cs-recovery-sweep


def _pursuit_config(cfg: HarnessConfig, k: int, eps_res: Optional[float] = None) -> ColampConfig:
    lam0 = cfg.lam if cfg.lam is not None else CS_LAMBDA0
    return ColampConfig(k=k, lam0=lam0, lam_growth=CS_LAMBDA_GROWTH, max_iters=50,
                        eps_res=eps_res,
                        prox=ProxConfig(lam=0.0, max_iters=1500, tol_abs=1e-11, tol_rel=1e-9))


def exp_cs_recovery_sweep(cfg: HarnessConfig, out_dir: Path) -> list[dict]:
    name = "cs-recovery-sweep"
    height = width = 32
    k = cfg.k_sparsity
    side = _clique_side(name, cfg)
    ratios = (cfg.m_over_k,) if cfg.m_over_k is not None else M_OVER_K_SWEEP
    cliques = build_clique_system(GridShape(height, width), side)

    def task(trial: int, pi: int, ratio: float):
        params = {"clique_side": side, "k_sparsity": k, "m_over_k": ratio,
                  "m": round(ratio * k), "lam": cfg.lam if cfg.lam is not None else CS_LAMBDA0,
                  "solver": "admm"}
        try:
            truth = make_blocky_image(height, width, k, CS_BLOCKS, _rng(cfg.seed, trial, 7))
            m = round(ratio * k)
            phi = gaussian_measurement_matrix(m, height * width, _rng(cfg.seed, trial, 11, pi))
            y = phi @ truth.ravel()
            t0 = time.perf_counter()
            xhat, report = colamp_solve(y, MeasurementModel(phi), cliques,
                                        _pursuit_config(cfg, k))
            wall = time.perf_counter() - t0
            prec, rec, fmeas = support_prf(support_set(xhat), np.flatnonzero(truth.ravel()))
            row = _base_row(name, cfg, trial)
            row.update(params)
            row.update({
                "rel_error": relative_error(xhat, truth),
                "precision": prec, "recall": rec, "f_measure": fmeas,
                "iterations": report.iterations,
                "wall_clock_s": wall,
                "peak_aux_entries": report.peak_aux_entries,
                "termination": report.termination_reason,
            })
            artifacts = (truth, xhat, y) if trial == 0 else None
            return row, artifacts
        except Exception as exc:  # sweep continues; row records the failure
            return _failure_row(name, cfg, trial, exc, **params), None

    tasks = [lambda t=t, pi=pi, r=r: task(t, pi, r)
             for t in range(cfg.trials) for pi, r in enumerate(ratios)]
    results = _run_tasks(tasks, cfg.jobs)

    rows = [row for row, _ in results]
    wrote_truth = False
    for (row, artifacts) in results:
        if artifacts is None:
            continue
        truth, xhat, y = artifacts
        if not wrote_truth:
            _pgm(out_dir / "cs_truth.pgm", truth)
            wrote_truth = True
        m = row["m"]
        _pgm(out_dir / f"cs_recovered_m{m}.pgm", xhat)
        write_matrix(out_dir / f"cs_measurements_m{m}.bsm", y[None, :])
    return rows


# ---------------------------------------------------------------------------
# robust-cs-snr-sweep


def exp_robust_cs_snr_sweep(cfg: HarnessConfig, out_dir: Path) -> list[dict]:
    name = "robust-cs-snr-sweep"
    height = width = 32
    k = cfg.k_sparsity
    ratio = cfg.m_over_k if cfg.m_over_k is not None else ROBUST_M_OVER_K
    m = round(ratio * k)
    snrs = (cfg.snr_db,) if cfg.snr_db is not None else SNR_SWEEP_POINTS
    block_side = _clique_side(name, cfg)
    sides = (block_side, 1) if block_side != 1 else (1,)
    systems = {s: build_clique_system(GridShape(height, width), s) for s in sides}

    def task(trial: int, si: int, snr: float, side: int):
        params = {"clique_side": side, "k_sparsity": k, "m": m, "m_over_k": ratio,
                  "snr_db": snr, "lam": cfg.lam if cfg.lam is not None else CS_LAMBDA0,
                  "solver": "admm"}
        try:
            truth = make_blocky_image(height, width, k, CS_BLOCKS, _rng(cfg.seed, trial, 7))
            phi = gaussian_measurement_matrix(m, height * width, _rng(cfg.seed, trial, 11, si))
            clean = phi @ truth.ravel()
            sigma = sigma_for_snr_db(clean, snr)
            y = clean + sigma * _rng(cfg.seed, trial, 13, si).standard_normal(m)
            eps_res = sigma * math.sqrt(m)
            t0 = time.perf_counter()
            xhat, report = colamp_solve(y, MeasurementModel(phi), systems[side],
                                        _pursuit_config(cfg, k, eps_res=eps_res))
            wall = time.perf_counter() - t0
            prec, rec, fmeas = support_prf(support_set(xhat), np.flatnonzero(truth.ravel()))
            row = _base_row(name, cfg, trial)
            row.update(params)
            row.update({
                "rel_error": relative_error(xhat, truth),
                "precision": prec, "recall": rec, "f_measure": fmeas,
                "snr_db": measured_snr_db(clean, y),
                "iterations": report.iterations,
                "wall_clock_s": wall,
                "peak_aux_entries": report.peak_aux_entries,
                "termination": report.termination_reason,
            })
            # keep the requested operating point as the sweep key
            row["snr_db"] = snr
            artifacts = (truth, xhat) if trial == 0 and snr == snrs[0] else None
            return row, artifacts
        except Exception as exc:
            return _failure_row(name, cfg, trial, exc, **params), None

    tasks = [lambda t=t, si=si, s=s, l=l: task(t, si, s, l)
             for t in range(cfg.trials)
             for si, s in enumerate(snrs)
             for l in sides]
    results = _run_tasks(tasks, cfg.jobs)
    rows = [row for row, _ in results]
    wrote_truth = False
    for row, artifacts in results:
        if artifacts is None:
            continue
        truth, xhat = artifacts
        if not wrote_truth:
            _pgm(out_dir / "robust_truth.pgm", truth)
            wrote_truth = True
        _pgm(out_dir / f"robust_recovered_l{row['clique_side']}.pgm", xhat)
    return rows


# ---------------------------------------------------------------------------
# blocktv-denoise


def exp_blocktv_denoise(cfg: HarnessConfig, out_dir: Path) -> list[dict]:
    name = "blocktv-denoise"
    height = width = 64
    input_psnr = cfg.snr_db if cfg.snr_db is not None else BLOCKTV_INPUT_PSNR_DB
    sigma = sigma_for_psnr_db(1.0, input_psnr)
    lams = (cfg.lam,) if cfg.lam is not None else BLOCKTV_LAMBDA_GRID
    block_side = _clique_side(name, cfg)
    sides = (block_side, 1) if block_side != 1 else (1,)

    def task(trial: int, lam: float, side: int):
        params = {"clique_side": side, "lam": lam, "input_psnr_db": input_psnr,
                  "epsilon": cfg.epsilon}
        try:
            truth = make_piecewise_constant(height, width, _rng(cfg.seed, trial, 7))
            noisy = truth + sigma * _rng(cfg.seed, trial, 13).standard_normal(truth.shape)
            tv_cfg = BlockTvConfig(lam=lam, eps=cfg.epsilon, clique_side=side,
                                   max_iters=300, tol_obj=1e-9)
            t0 = time.perf_counter()
            xhat, report = denoise_block_tv(noisy, tv_cfg)
            wall = time.perf_counter() - t0
            p_in = psnr_db(noisy, truth, peak=1.0)
            p_out = psnr_db(xhat, truth, peak=1.0)
            row = _base_row(name, cfg, trial)
            row.update(params)
            row.update({
                "rel_error": relative_error(xhat, truth),
                "psnr_db": p_out,
                "psnr_gain_db": p_out - p_in,
                "iterations": report.iterations,
                "objective_monotone": _objective_monotone(report.objective_trace),
                "wall_clock_s": wall,
                "peak_aux_entries": report.peak_aux_entries,
                "termination": report.termination_reason,
            })
            artifacts = (truth, noisy, xhat, p_out) if trial == 0 else None
            return row, artifacts
        except Exception as exc:
            return _failure_row(name, cfg, trial, exc, **params), None

    tasks = [lambda t=t, lam=lam, l=l: task(t, lam, l)
             for t in range(cfg.trials) for lam in lams for l in sides]
    results = _run_tasks(tasks, cfg.jobs)
    rows = [row for row, _ in results]

    best: dict[int, tuple[float, np.ndarray]] = {}
    base_images = None
    for row, artifacts in results:
        if artifacts is None:
            continue
        truth, noisy, xhat, p_out = artifacts
        base_images = (truth, noisy)
        side = row["clique_side"]
        if side not in best or p_out > best[side][0]:
            best[side] = (p_out, xhat)
    if base_images is not None:
        _pgm(out_dir / "tv_truth.pgm", base_images[0])
        _pgm(out_dir / "tv_noisy.pgm", base_images[1])
        for side, (_, img) in sorted(best.items()):
            _pgm(out_dir / f"tv_denoised_l{side}.pgm", img)
    return rows


# ---------------------------------------------------------------------------
# rpca-decompose


def exp_rpca_decompose(cfg: HarnessConfig, out_dir: Path) -> list[dict]:
    name = "rpca-decompose"
    if cfg.solver not in (None, "fbs"):
        raise UsageError("rpca-decompose runs the forward-backward solver only; "
                         "the consensus-ADMM alternative appears in memory-benchmark "
                         "accounting")
    height = width = RPCA_SIZE
    frames, rank_true = 10, 2
    side = _clique_side(name, cfg)

    def task(trial: int):
        params = {"clique_side": side, "mu": cfg.mu, "alpha": cfg.alpha,
                  "epsilon": cfg.epsilon, "n_frames": frames, "rank_true": rank_true,
                  "solver": "fbs",
                  "lam": cfg.lam if cfg.lam is not None else default_lambda(side, height * width)}
        try:
            lowrank, sparse = make_lowrank_blocksparse_stack(
                height, width, frames, rank_true, _rng(cfg.seed, trial, 7))
            y = lowrank + sparse
            rpca_cfg = RpcaConfig(lam=cfg.lam, mu=cfg.mu, alpha=cfg.alpha,
                                  eps=cfg.epsilon, clique_side=side)
            t0 = time.perf_counter()
            result = solve_rpca(y, rpca_cfg)
            wall = time.perf_counter() - t0
            prec, rec, fmeas = support_prf(support_set(result.x, 0.1),
                                           np.flatnonzero(sparse.ravel()))
            row = _base_row(name, cfg, trial)
            row.update(params)
            row.update({
                "rel_error": relative_error(result.x, sparse),
                "precision": prec, "recall": rec, "f_measure": fmeas,
                "rank_est": result.report.extra["rank"],
                "iterations": result.report.iterations,
                "objective_monotone": _objective_monotone(result.report.objective_trace),
                "wall_clock_s": wall,
                "peak_aux_entries": result.report.peak_aux_entries,
                "termination": result.report.termination_reason,
            })
            artifacts = (y, result.x, result.z) if trial == 0 else None
            return row, artifacts
        except Exception as exc:
            return _failure_row(name, cfg, trial, exc, **params), None

    results = _run_tasks([lambda t=t: task(t) for t in range(cfg.trials)], cfg.jobs)
    rows = [row for row, _ in results]
    for row, artifacts in results:
        if artifacts is None:
            continue
        y, x, z = artifacts
        _pgm(out_dir / "rpca_observed_f0.pgm", y[:, :, 0])
        _pgm(out_dir / "rpca_foreground_f0.pgm", x[:, :, 0])
        _pgm(out_dir / "rpca_background_f0.pgm", z[:, :, 0])
        write_matrix(out_dir / "rpca_foreground.bsm", x.reshape(height * width, frames))
    return rows


# ---------------------------------------------------------------------------
# memory-benchmark


def admm_formula_entries(side: int, n_pixels: int, frames: int) -> int:
    """Total ADMM storage for the decomposition problem: ``2*side^2`` stack-sized
    auxiliary/dual copies plus the four stack-sized working variables."""
    return (2 * side * side + 4) * n_pixels * frames


def exp_memory_benchmark(cfg: HarnessConfig, out_dir: Path) -> list[dict]:
    name = "memory-benchmark"
    side = _clique_side(name, cfg)

    rows: list[dict] = []

    # Measured FBS peak on a small planted stack; the formula ratio at `side`.
    height = width = 16
    frames = 4
    lowrank, sparse = make_lowrank_blocksparse_stack(height, width, frames, 2,
                                                     _rng(cfg.seed, 0, 7), fg_side=4)
    y = lowrank + sparse
    t0 = time.perf_counter()
    result = solve_rpca(y, RpcaConfig(clique_side=2, max_iters=20))
    wall = time.perf_counter() - t0
    n = height * width
    fbs_entries = result.report.peak_aux_entries
    formula = admm_formula_entries(side, n, frames)
    row = _base_row(name, cfg, 0)
    row.update({
        "clique_side": side, "n_frames": frames,
        "fbs_measured_entries": fbs_entries,
        "admm_formula_entries": formula,
        "memory_ratio": formula / fbs_entries,
        "peak_aux_entries": fbs_entries,
        "iterations": result.report.iterations,
        "wall_clock_s": wall,
        "termination": result.report.termination_reason,
        "solver": "fbs",
    })
    rows.append(row)
    _pgm(out_dir / "memory_observed_f0.pgm", y[:, :, 0])
    _pgm(out_dir / "memory_foreground_f0.pgm", result.x[:, :, 0])

    # Measured per-frame ADMM prox auxiliaries (consensus copies + duals).
    if side <= min(height, width):
        cliques = build_clique_system(GridShape(height, width), side)
        prox_res = prox_block_norm(y[:, :, 0], cliques,
                                   ProxConfig(lam=0.1, max_iters=5))
        row = _base_row(name, cfg, 1)
        row.update({
            "clique_side": side, "n_frames": 1, "solver": "admm",
            "admm_measured_entries": prox_res.report.peak_aux_entries,
            "admm_formula_entries": 2 * side * side * n,
            "peak_aux_entries": prox_res.report.peak_aux_entries,
            "iterations": prox_res.report.iterations,
            "wall_clock_s": prox_res.report.wall_clock,
            "termination": prox_res.report.termination_reason,
        })
        rows.append(row)

    # Per-iteration runtime at two clique sizes on a 64x64x10 stack: the FFT
    # gradient path makes these comparable.
    for trial, timing_side in enumerate((4, 16), start=2):
        secs = fbs_per_iteration_seconds(timing_side, seed=cfg.seed)
        row = _base_row(name, cfg, trial)
        row.update({
            "clique_side": timing_side, "n_frames": 10, "solver": "fbs",
            "per_iter_seconds": secs,
        })
        rows.append(row)
    return rows


def fbs_per_iteration_seconds(side: int, seed: int = 0, iters: int = 30,
                              repeats: int = 3) -> float:
    """Median per-iteration wall clock of the decomposition solver at a given
    clique size on a 64x64x10 planted stack (forced iteration count)."""
    height = width = 64
    frames = 10
    lowrank, sparse = make_lowrank_blocksparse_stack(height, width, frames, 2,
                                                     _rng(seed, 99, side))
    y = lowrank + sparse
    cfg = RpcaConfig(clique_side=side, max_iters=iters, tol_obj=0.0)
    solve_rpca(y, RpcaConfig(clique_side=side, max_iters=2, tol_obj=0.0))  # warm caches
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = solve_rpca(y, cfg)
        samples.append((time.perf_counter() - t0) / max(result.report.iterations, 1))
    return float(np.median(samples))


EXPERIMENTS: dict[str, Callable[[HarnessConfig, Path], list[dict]]] = {
    "cs-recovery-sweep": exp_cs_recovery_sweep,
    "robust-cs-snr-sweep": exp_robust_cs_snr_sweep,
    "blocktv-denoise": exp_blocktv_denoise,
    "rpca-decompose": exp_rpca_decompose,
    "memory-benchmark": exp_memory_benchmark,
}


def resolve_config(name: str, cfg: HarnessConfig) -> dict:
    """Fully-resolved configuration for ``--dump-config``."""
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}")
    resolved = asdict(cfg)
    resolved["experiment"] = name
    resolved["schema_version"] = SCHEMA_VERSION
    resolved["clique_side"] = _clique_side(name, cfg)
    if name in ("cs-recovery-sweep", "robust-cs-snr-sweep"):
        resolved.setdefault("lam0", cfg.lam if cfg.lam is not None else CS_LAMBDA0)
        resolved["lam_growth"] = CS_LAMBDA_GROWTH
        if cfg.m_over_k is None:
            resolved["m_over_k"] = (ROBUST_M_OVER_K if name == "robust-cs-snr-sweep"
                                    else list(M_OVER_K_SWEEP))
        if name == "robust-cs-snr-sweep" and cfg.snr_db is None:
            resolved["snr_db"] = list(SNR_SWEEP_POINTS)
        resolved["solver"] = "admm"
    elif name == "blocktv-denoise":
        if cfg.lam is None:
            resolved["lam"] = list(BLOCKTV_LAMBDA_GRID)
        resolved["input_psnr_db"] = (cfg.snr_db if cfg.snr_db is not None
                                     else BLOCKTV_INPUT_PSNR_DB)
    elif name == "rpca-decompose":
        side = resolved["clique_side"]
        if cfg.lam is None:
            resolved["lam"] = default_lambda(side, RPCA_SIZE * RPCA_SIZE)
        resolved["solver"] = "fbs"
    return resolved


def run_experiment(name: str, cfg: HarnessConfig) -> Path:
    """Run one experiment, write ``<name>.csv`` plus image files into
    ``cfg.out_dir``, and return the CSV path.

    Solver failures inside a sweep are recorded as rows with the failure
    flag; unknown names raise :class:`UsageError`.
    """
    if name not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {name!r}")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).isoformat()
    rows = EXPERIMENTS[name](cfg, out_dir)
    for row in rows:
        row.setdefault("timestamp", stamp)
    csv_path = out_dir / f"{name}.csv"
    write_rows(csv_path, rows)
    return csv_path
