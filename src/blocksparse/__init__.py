"""Overlapping block-sparsity regularization and solvers.

The penalty sums l2 norms over all translated square pixel cliques of an
image, promoting sparse supports with smooth, contiguous boundaries.  Three
solver families build on it: a consensus-ADMM proximal operator, a
forward-backward splitting for sparse-plus-low-rank decomposition, and a
greedy pursuit (CoLaMP) for compressive recovery; block total-variation
denoising applies the penalty to image gradients.  The two smoothed
solvers each run their own backtracking line search: block-TV tests the
Armijo condition, and the decomposition the forward-backward majorisation.
Every clique sum comes from one exact window-sum primitive
(:mod:`blocksparse.fftops`).
"""

from .blocktv import BlockTvConfig, GradientField, denoise_block_tv, discrete_gradient, discrete_gradient_adjoint
from .common import ConfigError, NumericalError, ShapeError, SolverReport
from .grids import CliqueSystem, GridShape, build_clique_system
from .metrics import psnr_db, relative_error, support_prf, support_set
from .prox import ProxConfig, ProxResult, prox_block_norm
from .pursuit import ColampConfig, MeasurementModel, colamp_solve, truncate_top_k
from .regularizer import block_norm
from .rpca import RpcaConfig, RpcaResult, default_lambda, solve_rpca, svt

__version__ = "0.1.0"

__all__ = [
    "BlockTvConfig", "CliqueSystem", "ColampConfig",
    "ConfigError", "GradientField", "GridShape", "MeasurementModel",
    "NumericalError", "ProxConfig", "ProxResult", "RpcaConfig", "RpcaResult",
    "ShapeError", "SolverReport", "block_norm", "build_clique_system", "colamp_solve",
    "default_lambda", "denoise_block_tv", "discrete_gradient",
    "discrete_gradient_adjoint", "prox_block_norm", "psnr_db", "relative_error",
    "solve_rpca", "support_prf", "support_set", "svt", "truncate_top_k",
]
