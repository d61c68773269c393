"""Shared fixtures: small scenarios that assemble in milliseconds."""

import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import mgtstab as M


def match_spectra(vals_a, vals_b):
    """Greatest pairwise distance under optimal multiset matching."""
    A = np.asarray(vals_a, complex)
    B = np.asarray(vals_b, complex)
    if A.shape != B.shape:
        raise ValueError("spectra have different sizes")
    cost = np.abs(A[:, None] - B[None, :])
    r, cidx = linear_sum_assignment(cost)
    return float(cost[r, cidx].max())


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind (waitpid returned pid %d)" % pid)


def interval_config(**over):
    cfg = {
        "geometry": {"kind": "interval", "x_left": 0.0, "x_right": 1.0, "gamma0_end": "left"},
        "mesh": {"resolution": 16},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0, "kappa0": 1.0, "kappa1": 1.0},
        "time": {"T": 1.0, "dt": 1e-2},
    }
    for key, val in over.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    return M.load_config(cfg)


@pytest.fixture
def damped_1d():
    """Damped interval scenario: gamma = 1, both boundary feedbacks on."""
    return M.Scenario(interval_config())


@pytest.fixture
def square_2d():
    """Unit square, gamma0 on the bottom edge, modest resolution."""
    cfg = M.load_config(
        {
            "geometry": {"kind": "named", "name": "unit-square"},
            "mesh": {"resolution": 8},
            "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0, "kappa0": 1.0, "kappa1": 1.0},
            "time": {"T": 1.0, "dt": 1e-2},
        }
    )
    return M.Scenario(cfg)
