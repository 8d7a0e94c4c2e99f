import csv

import numpy as np
import pytest

from blocksparse import experiments
from blocksparse.common import ConfigError
from blocksparse.experiments import (CSV_COLUMNS, HarnessConfig, UsageError,
                                     admm_formula_entries, resolve_config, run_experiment,
                                     write_rows)

import helpers


def small_cfg(tmp_path, **kw):
    base = dict(seed=0, trials=2, jobs=1, out_dir=str(tmp_path))
    base.update(kw)
    return HarnessConfig(**base)


def test_unknown_experiment_raises():
    with pytest.raises(UsageError):
        run_experiment("mystery-sweep", HarnessConfig())
    with pytest.raises(UsageError):
        resolve_config("mystery-sweep", HarnessConfig())


def test_write_rows_validates_columns(tmp_path):
    with pytest.raises(ValueError):
        write_rows(tmp_path / "r.csv", [{"schema_version": "1", "experiment": "x",
                                        "trial": 0, "seed": 0, "bogus": 1}])
    with pytest.raises(ValueError):
        write_rows(tmp_path / "r.csv", [{"experiment": "x"}])


def test_write_rows_schema_header(tmp_path):
    path = tmp_path / "r.csv"
    write_rows(path, [{"schema_version": "1", "experiment": "x", "trial": 0, "seed": 0}])
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS


def test_admm_formula():
    assert admm_formula_entries(10, 100, 5) == 204 * 100 * 5
    assert admm_formula_entries(2, 16, 1) == 12 * 16


def test_memory_benchmark_rows(tmp_path):
    cfg = small_cfg(tmp_path)
    path = run_experiment("memory-benchmark", cfg)
    rows = list(csv.DictReader(open(path, newline="")))
    fbs, admm = rows[0], rows[1]
    side, n, frames = 10, 16 * 16, 4
    fbs_entries = int(fbs["fbs_measured_entries"])
    admm_entries = int(admm["admm_measured_entries"])
    # measured peaks hold at least the state each method needs: the prox
    # holds its side*side*n carried duals, not the paper's two stacks
    assert fbs_entries >= 4 * n * frames
    assert admm_entries >= side * side * n
    assert int(fbs["admm_formula_entries"]) == admm_formula_entries(side, n, frames)
    assert int(admm["admm_formula_entries"]) == 2 * side * side * n
    assert float(fbs["memory_ratio"]) == frames * admm_entries / fbs_entries
    assert float(fbs["memory_ratio"]) > 1
    sides = [int(r["clique_side"]) for r in rows[2:]]
    assert sides == [4, 16]
    assert all(float(r["per_iter_seconds"]) > 0 for r in rows[2:])
    assert (tmp_path / "memory_observed_f0.pgm").exists()


def test_rpca_experiment_rows_and_images(tmp_path, monkeypatch):
    real = experiments.solve_rpca
    results = []

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiments, "solve_rpca", recording)
    cfg = small_cfg(tmp_path, trials=1)
    path = run_experiment("rpca-decompose", cfg)
    rows = list(csv.DictReader(open(path, newline="")))
    assert len(rows) == 1
    row = rows[0]
    assert row["failed"] == "0"
    assert float(row["f_measure"]) > 0.5
    assert row["rank_est"] == "2"
    assert row["objective_monotone"] == "1"
    for name in ("rpca_observed_f0.pgm", "rpca_foreground_f0.pgm",
                 "rpca_background_f0.pgm"):
        assert (tmp_path / name).exists()
    assert helpers.read_pgm8(tmp_path / "rpca_observed_f0.pgm").shape == (32, 32)
    # the exact state is the solver's sparse part, bit for bit
    saved = np.load(tmp_path / "rpca_foreground.npy")
    assert saved.dtype == np.float64 and saved.shape == (32, 32, 10)
    assert np.array_equal(saved, results[0].x)


def test_blocktv_experiment_grid(tmp_path):
    cfg = small_cfg(tmp_path, trials=1, lam=0.1)
    path = run_experiment("blocktv-denoise", cfg)
    rows = list(csv.DictReader(open(path, newline="")))
    # one lambda, two clique sides (2 and the l=1 baseline), one trial
    assert len(rows) == 2
    assert sorted(int(r["clique_side"]) for r in rows) == [1, 2]
    assert all(float(r["psnr_gain_db"]) > 0 for r in rows)
    # only the CoLaMP sweeps have inner prox solves to report
    assert all(r["inner_iterations"] == r["inner_capped"] == "" for r in rows)
    assert (tmp_path / "tv_noisy.pgm").exists()


def test_cs_sweep_rows_failure_isolated(tmp_path):
    # single ratio point, tiny trial count to stay fast
    cfg = small_cfg(tmp_path, trials=2, m_over_k=3.0, k_sparsity=12)
    path = run_experiment("cs-recovery-sweep", cfg)
    rows = list(csv.DictReader(open(path, newline="")))
    assert len(rows) == 2
    assert all(r["experiment"] == "cs-recovery-sweep" for r in rows)
    assert all(r["m"] == "36" for r in rows)
    y = np.load(tmp_path / "cs_measurements_m36.npy")
    assert y.dtype == np.float64 and y.shape == (36,)


def test_robust_sweep_end_to_end(tmp_path):
    # the noisy path: a residual target from the noise level, and the l=1 baseline
    path = run_experiment("robust-cs-snr-sweep",
                          small_cfg(tmp_path, trials=1, m_over_k=5.0, snr_db=30.0))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["clique_side"] for r in rows) == ["1", "2"]
    assert all(r["failed"] == "0" for r in rows)
    (block,) = [r for r in rows if r["clique_side"] == "2"]
    assert float(block["f_measure"]) == 1.0
    for name in ("robust_truth.pgm", "robust_recovered_l2.pgm", "robust_recovered_l1.pgm"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize("name, solver, flags", [
    ("blocktv-denoise", "denoise_block_tv", dict(lam=0.1)),
    ("rpca-decompose", "solve_rpca", {}),
])
def test_rows_record_the_resolved_epsilon(tmp_path, monkeypatch, name, solver, flags):
    real = getattr(experiments, solver)
    reports = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        reports.append(result[1] if isinstance(result, tuple) else result.report)
        return result

    monkeypatch.setattr(experiments, solver, recording)
    path = run_experiment(name, small_cfg(tmp_path, trials=1, **flags))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(reports) > 0
    for row, report in zip(rows, reports):
        assert row["epsilon"] == repr(report.extra["epsilon"])


def test_cs_rows_report_the_pursuits_prox_work(tmp_path, monkeypatch):
    real = experiments.colamp_solve
    reports = []

    def recording(*args, **kwargs):
        xhat, report = real(*args, **kwargs)
        reports.append(report)
        return xhat, report

    monkeypatch.setattr(experiments, "colamp_solve", recording)
    path = run_experiment("cs-recovery-sweep",
                          small_cfg(tmp_path, trials=2, m_over_k=3.0, k_sparsity=12))
    rows = list(csv.DictReader(open(path, newline="")))
    assert len(rows) == len(reports) == 2
    for row, report in zip(rows, reports):
        calls = report.extra["prox_iterations"]
        assert calls and int(row["inner_iterations"]) == sum(calls)
        assert int(row["inner_capped"]) == report.extra["prox_terminations"].get(
            "max-iterations", 0)


def test_determinism_excluding_timing(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    pa = run_experiment("rpca-decompose", small_cfg(a_dir, trials=1))
    pb = run_experiment("rpca-decompose", small_cfg(b_dir, trials=1))
    assert helpers.read_csv_without_timing(pa) == helpers.read_csv_without_timing(pb)
    assert ((a_dir / "rpca_foreground.npy").read_bytes()
            == (b_dir / "rpca_foreground.npy").read_bytes())


def test_memory_benchmark_reruns_equal_apart_from_measurements(tmp_path):
    pa = run_experiment("memory-benchmark", small_cfg(tmp_path / "a"))
    pb = run_experiment("memory-benchmark", small_cfg(tmp_path / "b"))
    assert helpers.read_csv_without_timing(pa) == helpers.read_csv_without_timing(pb)


def test_jobs_do_not_change_results(tmp_path):
    # rpca-decompose's 10,240-entry stack is long enough for a threaded BLAS
    # to split a dot product, so its rows check that no metric uses one;
    # cs-recovery-sweep's rows come from CoLaMP, and so from the prox, and
    # at m/K 1 from a pursuit that stalls and returns its best iterate
    cases = (("blocktv-denoise", dict(lam=0.1), 3), ("rpca-decompose", {}, 2),
             ("cs-recovery-sweep", dict(m_over_k=3.0), 2),
             ("cs-recovery-sweep", dict(m_over_k=1.0), 2))
    for case, (name, flags, jobs) in enumerate(cases):
        out = tmp_path / str(case)
        p1 = run_experiment(name, small_cfg(out / "j1", trials=2, jobs=1, **flags))
        p2 = run_experiment(name, small_cfg(out / "j2", trials=2, jobs=jobs, **flags))
        rows = helpers.read_csv_without_timing(p1)
        assert rows == helpers.read_csv_without_timing(p2), (name, flags)
        if flags.get("m_over_k") == 1.0:
            column = rows[0].index("termination")
            assert {row[column] for row in rows[1:]} == {"stalled"}


def test_resolve_config_defaults():
    resolved = resolve_config("memory-benchmark", HarnessConfig())
    assert resolved["clique_side"] == 10
    resolved = resolve_config("rpca-decompose", HarnessConfig())
    assert resolved["clique_side"] == 2
    assert resolved["lam"] == pytest.approx(1.0 / (2 * 32))
    resolved = resolve_config("cs-recovery-sweep", HarnessConfig())
    assert resolved["m_over_k"] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_config_validation():
    with pytest.raises(Exception):
        HarnessConfig(trials=0)
    with pytest.raises(Exception):
        HarnessConfig(jobs=0)


@pytest.mark.parametrize("field", ["seed", "trials", "jobs", "k_sparsity", "clique_side"])
def test_config_rejects_non_integer_count(field):
    with pytest.raises(ConfigError):
        HarnessConfig(**{field: 2.5})


def test_failed_trial_becomes_a_row_and_the_sweep_continues(tmp_path, monkeypatch):
    real = experiments.denoise_block_tv

    def fail_on_baseline(noisy, tv_cfg):
        if tv_cfg.clique_side == 1:
            raise RuntimeError("injected")
        return real(noisy, tv_cfg)

    monkeypatch.setattr(experiments, "denoise_block_tv", fail_on_baseline)
    path = run_experiment("blocktv-denoise", small_cfg(tmp_path, trials=1, lam=0.1))
    ok, failed = list(csv.DictReader(open(path, newline="")))
    assert failed["failed"] == "1"
    assert failed["termination"] == "error: RuntimeError: injected"
    assert (failed["experiment"], failed["trial"], failed["seed"]) == ("blocktv-denoise", "0", "0")
    assert (failed["clique_side"], failed["lam"], failed["input_psnr_db"]) == ("1", "0.1", "20.0")
    assert failed["rel_error"] == failed["iterations"] == failed["epsilon"] == ""
    assert ok["failed"] == "0" and ok["clique_side"] == "2"
    assert ok["termination"] in ("converged", "max-iterations")
    assert float(ok["psnr_gain_db"]) > 0
    assert (tmp_path / "tv_denoised_l2.pgm").exists()
    assert not (tmp_path / "tv_denoised_l1.pgm").exists()


def _csv_values(value):
    return {"" if v is None else repr(float(v))
            for v in (value if isinstance(value, list) else [value])}


# Per sweep: whether it adds the l=1 baseline side, and the dump key that
# holds each swept column (the CS sweeps report their lambda as lam0).
_SWEEP_COLUMNS = {
    "cs-recovery-sweep": (False, {"m_over_k": "m_over_k", "lam": "lam0"}),
    "robust-cs-snr-sweep": (True, {"m_over_k": "m_over_k", "snr_db": "snr_db", "lam": "lam0"}),
    "blocktv-denoise": (True, {"lam": "lam", "input_psnr_db": "input_psnr_db"}),
    "rpca-decompose": (False, {"lam": "lam"}),
}


@pytest.mark.parametrize("flags", [{}, dict(m_over_k=3.0, snr_db=10.0, lam=0.2, clique_side=3)])
@pytest.mark.parametrize("name", sorted(_SWEEP_COLUMNS))
def test_dump_config_lists_the_points_the_sweep_runs(tmp_path, monkeypatch, name, flags):
    def refuse(*args, **kwargs):
        raise RuntimeError("solver stubbed out")

    # Failure rows carry every parameter column, so stubbed solvers keep this fast.
    for solver in ("colamp_solve", "denoise_block_tv", "solve_rpca"):
        monkeypatch.setattr(experiments, solver, refuse)
    cfg = small_cfg(tmp_path, trials=1, **flags)
    dump = resolve_config(name, cfg)
    baseline, columns = _SWEEP_COLUMNS[name]
    swept = ("clique_side", "m_over_k", "snr_db", "lam", "input_psnr_db")
    expected = {(str(side),) for side in ({dump["clique_side"], 1} if baseline
                                          else {dump["clique_side"]})}
    for column in swept[1:]:
        values = _csv_values(dump[columns[column]]) if column in columns else {""}
        expected = {point + (value,) for point in expected for value in values}
    rows = list(csv.DictReader(open(run_experiment(name, cfg), newline="")))
    assert all(r["failed"] == "1" for r in rows)
    assert len(rows) == len(expected)
    assert {tuple(r[c] for c in swept) for r in rows} == expected


_DEFAULT_FLAGS = {"clique_side": 2, "epsilon": None, "jobs": 1, "k_sparsity": 40,
                  "lam": None, "m_over_k": None, "mu": 1.0, "out_dir": ".",
                  "schema_version": "4", "seed": 0, "snr_db": None, "trials": 20}


@pytest.mark.parametrize("name, resolved", [
    ("cs-recovery-sweep", {"lam0": 0.6, "lam_growth": 1.02,
                           "m_over_k": [1.0, 2.0, 3.0, 4.0, 5.0], "solver": "admm"}),
    ("robust-cs-snr-sweep", {"lam0": 0.6, "lam_growth": 1.02, "m_over_k": 2.0,
                             "snr_db": [5.0, 10.0, 15.0, 20.0], "solver": "admm"}),
    ("blocktv-denoise", {"input_psnr_db": 20.0, "lam": [0.05, 0.1, 0.15, 0.25, 0.4, 0.6]}),
    ("rpca-decompose", {"lam": 0.015625, "solver": "fbs"}),
    ("memory-benchmark", {"clique_side": 10}),
])
def test_resolve_config_at_default_flags_is_pinned(name, resolved):
    assert resolve_config(name, HarnessConfig()) == {**_DEFAULT_FLAGS, "experiment": name,
                                                     **resolved}
