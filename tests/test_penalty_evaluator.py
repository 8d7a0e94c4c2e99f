"""Block-TV, RPCA and the prox evaluate each point's clique norms once.

The box-filter correlations are wrapped at the names ``regularizer`` binds,
which every solver reaches through the evaluator pair.  Within one solve no
correlation may see an input it has seen before.  In the smoothed solvers
each iteration makes exactly one full correlation: the gradient's, built from
the norms the accepted line-search trial already computed.  The valid
correlations, one per trial and one at the start, must all pass through
those names too.  The prox makes one valid correlation per checked iteration,
for the penalty in its objective, and no full one.
"""

import numpy as np
import pytest

from blocksparse import (BlockTvConfig, GridShape, ProxConfig, RpcaConfig, build_clique_system,
                         denoise_block_tv, prox_block_norm, regularizer, solve_rpca)
from blocksparse.synthetic import make_lowrank_blocksparse_stack, make_piecewise_constant


@pytest.fixture
def correlations(monkeypatch):
    """Records ``(kind, side, shape, bytes)`` of every correlation input."""
    calls = []

    def recording(kind, fn):
        def wrapped(a, side, **buffers):
            a = np.ascontiguousarray(a)
            calls.append((kind, side, a.shape, a.tobytes()))
            return fn(a, side, **buffers)
        return wrapped

    monkeypatch.setattr(regularizer, "box_correlate_valid",
                        recording("valid", regularizer.box_correlate_valid))
    monkeypatch.setattr(regularizer, "box_correlate_full",
                        recording("full", regularizer.box_correlate_full))
    return calls


def assert_no_repeats(calls):
    assert len(set(calls)) == len(calls), (
        f"{len(calls) - len(set(calls))} of {len(calls)} correlations repeat an earlier input")


def test_blocktv_evaluates_each_point_once(correlations):
    rng = np.random.default_rng(0)
    y = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    cfg = BlockTvConfig(lam=0.1, clique_side=2, max_iters=25, tol_obj=0.0)
    _, report = denoise_block_tv(y, cfg)
    assert report.iterations == 25
    assert_no_repeats(correlations)
    assert sum(kind == "full" for kind, *_ in correlations) == report.iterations
    trials = report.iterations + report.extra["halvings"]
    assert sum(kind == "valid" for kind, *_ in correlations) == trials + 1


def test_rpca_evaluates_each_point_once(correlations):
    rng = np.random.default_rng(1)
    lowrank, sparse = make_lowrank_blocksparse_stack(12, 12, 4, 1, rng, fg_side=3)
    res = solve_rpca(lowrank + sparse, RpcaConfig(clique_side=2, max_iters=25, tol_obj=0.0))
    assert res.report.iterations == 25
    assert_no_repeats(correlations)
    assert sum(kind == "full" for kind, *_ in correlations) == res.report.iterations
    trials = res.report.iterations + res.report.extra["halvings"]
    assert sum(kind == "valid" for kind, *_ in correlations) == trials + 1


def test_prox_evaluates_each_checked_point_once(correlations):
    rng = np.random.default_rng(2)
    v = make_piecewise_constant(16, 16, rng) + 0.1 * rng.standard_normal((16, 16))
    cliques = build_clique_system(GridShape(16, 16), 2)
    res = prox_block_norm(v, cliques, ProxConfig(lam=0.2, max_iters=25, tol_abs=0.0, tol_rel=0.0))
    assert res.report.iterations == 25
    assert_no_repeats(correlations)
    assert sum(kind == "full" for kind, *_ in correlations) == 0
    assert sum(kind == "valid" for kind, *_ in correlations) == len(res.report.objective_trace)
