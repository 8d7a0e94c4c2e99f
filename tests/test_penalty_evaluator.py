"""Block-TV and RPCA evaluate each point's clique norms once.

The box-filter correlations are wrapped at the names ``regularizer`` binds,
which every smoothed solver reaches through the evaluator pair.  Within one
solve no correlation may see an input it has seen before, and each iteration
makes exactly one full correlation: the gradient's, built from the norms the
accepted line-search trial already computed.
"""

import numpy as np
import pytest

from blocksparse import BlockTvConfig, RpcaConfig, denoise_block_tv, regularizer, solve_rpca
from blocksparse.synthetic import make_lowrank_blocksparse_stack, make_piecewise_constant


@pytest.fixture
def correlations(monkeypatch):
    """Records ``(kind, side, shape, bytes)`` of every correlation input."""
    calls = []

    def recording(kind, fn):
        def wrapped(a, side):
            a = np.ascontiguousarray(a)
            calls.append((kind, side, a.shape, a.tobytes()))
            return fn(a, side)
        return wrapped

    monkeypatch.setattr(regularizer, "box_correlate_valid",
                        recording("valid", regularizer.box_correlate_valid))
    monkeypatch.setattr(regularizer, "box_correlate_full",
                        recording("full", regularizer.box_correlate_full))
    return calls


def assert_no_repeats(calls):
    assert len(set(calls)) == len(calls), (
        f"{len(calls) - len(set(calls))} of {len(calls)} correlations repeat an earlier input")


@pytest.mark.parametrize("step", ["backtracking", "fixed"])
def test_blocktv_evaluates_each_point_once(correlations, step):
    rng = np.random.default_rng(0)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    cfg = BlockTvConfig(lam=0.1, clique_side=2, max_iters=25, tol_obj=0.0, step=step,
                        alpha=0.05 if step == "fixed" else None)
    _, report = denoise_block_tv(y, cfg)
    assert report.iterations == 25
    assert_no_repeats(correlations)
    assert sum(kind == "full" for kind, *_ in correlations) == report.iterations


def test_rpca_evaluates_each_point_once(correlations):
    rng = np.random.default_rng(1)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 1, rng, fg_side=3)
    res = solve_rpca(lowrank + sparse, RpcaConfig(clique_side=2, max_iters=25, tol_obj=0.0))
    assert res.report.iterations == 25
    assert_no_repeats(correlations)
    assert sum(kind == "full" for kind, *_ in correlations) == res.report.iterations
