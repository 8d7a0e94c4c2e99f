import numpy as np
import pytest

from blocksparse import ConfigError, SolverReport
from blocksparse.common import check_finite


def test_report_validates_trace_lengths():
    with pytest.raises(ValueError):
        SolverReport(2, [1.0], [1.0, 0.5], "converged")


def test_report_validates_reason():
    with pytest.raises(ValueError):
        SolverReport(0, [], [], "finished")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_rejects_nonfinite(bad):
    with pytest.raises(ConfigError, match="widget must be finite"):
        check_finite(np.array([0.0, bad]), "widget")
    with pytest.raises(ConfigError):
        check_finite(bad, "widget")


def test_check_finite_accepts_finite():
    check_finite(np.zeros((2, 3)), "widget")
    check_finite(-1e308, "widget")
