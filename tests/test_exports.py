import inspect

import blocksparse
from blocksparse import (GridShape, SolverReport, build_clique_system, common, experiments,
                         fftops, matrixio, metrics, prox, pursuit, regularizer, rpca, synthetic)

# The package's public surface, in __all__ order.
EXPORTS = (
    "BlockTvConfig", "CliqueSystem", "ColampConfig",
    "ConfigError", "GradientField", "GridShape", "MeasurementModel",
    "NumericalError", "ProxConfig", "ProxResult", "RpcaConfig", "RpcaResult",
    "ShapeError", "SolverReport", "block_norm", "build_clique_system", "colamp_solve",
    "default_lambda", "denoise_block_tv", "discrete_gradient",
    "discrete_gradient_adjoint", "prox_block_norm", "psnr_db", "relative_error",
    "solve_rpca", "support_prf", "support_set", "svt", "truncate_top_k",
)

# Names removed from the package: code nothing called, and names since replaced.
DELETED = {
    blocksparse: ("prox_block_norm_framewise", "SyntheticSpec", "SyntheticData",
                  "gen_synthetic", "AllocationTracker", "block_norm_smoothed_grad_fft",
                  "cg_solve_normal", "backtrack_step", "AcceptedStep", "StepFailureError",
                  "default_epsilon", "group_shrink", "block_norm_smoothed",
                  "block_norm_smoothed_grad", "rpca_objective", "numerical_rank",
                  "measured_snr_db"),
    common: ("AllocationTracker", "backtrack_step", "AcceptedStep", "StepFailureError"),
    SolverReport: ("peak_aux_entries",),
    prox: ("prox_block_norm_framewise", "group_shrink"),
    pursuit: ("cg_solve_normal",),
    regularizer: ("block_norm_smoothed_grad_fft", "_clique_sq_norms", "default_epsilon",
                  "block_norm_smoothed", "block_norm_smoothed_grad", "_checked"),
    rpca: ("rpca_objective", "numerical_rank", "_BACKTRACK_SHRINK", "_MAX_HALVINGS"),
    metrics: ("measured_snr_db",),
    matrixio: ("read_pgm", "write_matrix", "read_matrix", "quantize", "_MATRIX_MAGIC"),
    experiments: ("read_csv_without_timing", "UNREPEATABLE_COLUMNS"),
    fftops: ("_kernel_cache", "_cache_lock", "_padded_shape", "_kernel_fft",
             "_box_convolve_full"),
    synthetic: ("SyntheticSpec", "SyntheticData", "gen_synthetic", "KINDS", "make_phantom",
                "_PHANTOM_ELLIPSES", "MeasurementModel"),
    GridShape: ("index",),
    build_clique_system(GridShape(4, 4), 2): (
        "corners", "indices", "subset_of", "subsets", "coverage", "n_cliques",
        "_check_image", "gather", "scatter_add"),
    prox._TileStack: ("block", "row_factors", "dual_factors", "rescale_factors"),
    prox._TileStack(build_clique_system(GridShape(4, 4), 2)): ("alpha",),
}


def test_every_export_resolves():
    assert tuple(blocksparse.__all__) == EXPORTS
    for name in blocksparse.__all__:
        getattr(blocksparse, name)


def test_pgm_writer_takes_no_format_options():
    # 8-bit output over the data range is the one format the experiments write
    assert list(inspect.signature(matrixio.write_pgm).parameters) == ["path", "image"]


def test_valid_sum_and_clique_norms_take_no_out_option():
    # both return their sums in the first entries of their row pass
    assert list(inspect.signature(fftops.box_correlate_valid).parameters) == [
        "a", "side", "scratch"]
    assert list(inspect.signature(regularizer.smoothed_clique_norms).parameters) == [
        "sq", "side", "eps", "scratch"]


def test_deleted_names_are_gone():
    for owner, names in DELETED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert not set(DELETED[blocksparse]) & set(blocksparse.__all__)
