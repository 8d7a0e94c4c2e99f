import threading
import weakref

import numpy as np
import pytest

from blocksparse import (AllocationTracker, ConfigError, SolverReport,
                         StepFailureError, backtrack_step)
from blocksparse.common import check_finite


def test_report_validates_trace_lengths():
    with pytest.raises(ValueError):
        SolverReport(2, [1.0], [1.0, 0.5], "converged")


def test_report_validates_reason():
    with pytest.raises(ValueError):
        SolverReport(0, [], [], "finished")


def test_tracker_peak_monotone():
    t = AllocationTracker()
    assert t.peak == 0
    t.register("a", 100)
    t.register("b", 50)
    assert t.peak == 150
    t.release("a")
    assert t.current == 50
    assert t.peak == 150  # peak never decreases within a run
    t.register("c", 30)
    assert t.peak == 150


def test_tracker_empty():
    assert AllocationTracker().peak == 0


def test_tracker_thread_safety():
    t = AllocationTracker()

    def worker(i):
        for k in range(200):
            t.register(f"w{i}-{k}", 1)
        for k in range(200):
            t.release(f"w{i}-{k}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert t.current == 0
    assert t.peak <= 1600


def quadratic(curvature=1.0):
    """``f`` in the line-search contract: value and an ``aux`` (the point)."""
    return lambda z: (0.5 * curvature * float(np.sum(z * z)), z)


def test_backtrack_quadratic_accepts_unit_step():
    x = np.array([3.0, -4.0])
    step = backtrack_step(quadratic(), x, 12.5, x, 1.0)
    assert step.alpha == 1.0
    assert np.array_equal(step.x, x - 1.0 * x)
    assert step.value == 0.0


def test_backtrack_returns_what_f_computed_at_the_accepted_point():
    curvature = 4.0
    x = np.array([1.0, -2.0])
    g = curvature * x
    seen = []

    def f(z):
        value = 0.5 * curvature * float(np.sum(z * z))
        seen.append((z, value))
        return value, object()

    step = backtrack_step(f, x, 0.5 * curvature * 5.0, g, 1.0)
    accepted_z, accepted_value = seen[-1]
    assert step.x is accepted_z
    assert step.value == accepted_value
    assert len(seen) > 1  # alpha0 = 1 overshoots, so halvings ran
    assert np.array_equal(step.x, x - step.alpha * g)


def test_backtrack_never_evaluates_f_at_x():
    x = np.array([3.0, -4.0, 0.5])
    g = 8.0 * x  # a poor scaling: several trials are rejected first
    calls = []

    def f(z):
        calls.append(z.copy())
        return 0.5 * float(np.sum(z * z)), None

    backtrack_step(f, x, 0.5 * float(np.sum(x * x)), g, 1.0)
    assert len(calls) >= 2
    assert not any(np.array_equal(z, x) for z in calls)


def test_backtrack_releases_rejected_aux():
    # a rejected trial's aux must be dropped before the next trial runs
    refs = []

    class Aux:
        pass

    def f(z):
        assert all(r() is None for r in refs), "a rejected trial's aux is still referenced"
        aux = Aux()
        refs.append(weakref.ref(aux))
        return 0.5 * float(np.sum(z * z)), aux

    x = np.array([1.0, 1.0])
    step = backtrack_step(f, x, 1.0, 16.0 * x, 1.0)
    assert len(refs) > 1
    assert isinstance(step.aux, Aux)


def test_backtrack_zero_gradient_returns_alpha0():
    x = np.ones(3)
    step = backtrack_step(quadratic(), x, 1.5, np.zeros(3), 0.7)
    assert step.alpha == 0.7
    assert step.x is x and step.value == 1.5 and step.aux is None


def test_backtrack_stiff_quadratic_scales_with_curvature():
    curvature = 4096.0
    x = np.array([1.0])
    g = curvature * x
    alpha0 = 1024.0 / curvature
    step = backtrack_step(quadratic(curvature), x, 0.5 * curvature, g, alpha0)
    # accepted step within a factor of two of 1/curvature
    assert 1.0 / curvature <= step.alpha <= 2.0 / curvature


def test_backtrack_requires_positive_alpha0():
    with pytest.raises(ConfigError):
        backtrack_step(lambda z: (0.0, None), np.zeros(2), 0.0, np.ones(2), 0.0)
    with pytest.raises(ConfigError):
        backtrack_step(lambda z: (0.0, None), np.zeros(2), 0.0, np.ones(2), -1.0)


def test_backtrack_wrong_gradient_fails():
    x = np.array([1.0, 1.0])
    wrong = -x  # ascent direction
    with pytest.raises(StepFailureError):
        backtrack_step(quadratic(), x, 1.0, wrong, 1.0)


@pytest.mark.parametrize("fx", [np.nan, np.inf])
def test_backtrack_rejects_nonfinite_current_value(fx):
    with pytest.raises(ConfigError, match="not finite"):
        backtrack_step(quadratic(), np.ones(2), fx, np.ones(2), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects_nonfinite(bad):
    with pytest.raises(ConfigError, match="widget must be finite"):
        check_finite(np.array([0.0, bad]), "widget")
    with pytest.raises(ConfigError):
        check_finite(bad, "widget")


def test_check_finite_accepts_finite():
    check_finite(np.zeros((2, 3)), "widget")
    check_finite(-1e308, "widget")
