"""Shared fixtures: small scenarios that assemble in milliseconds."""

import faulthandler
import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

import mgtstab as M
from mgtstab import presets


def match_spectra(vals_a, vals_b):
    """Greatest pairwise distance under optimal multiset matching."""
    A = np.asarray(vals_a, complex)
    B = np.asarray(vals_b, complex)
    if A.shape != B.shape:
        raise ValueError("spectra have different sizes")
    cost = np.abs(A[:, None] - B[None, :])
    r, cidx = linear_sum_assignment(cost)
    return float(cost[r, cidx].max())


def pencil(gen):
    """The assembled 3n x 3n pencil ``(E, L)`` of a generator, ``E Phi' = L Phi``,
    as CSR matrices: ``E = diag(I, I, Ew)`` and ``L = [[shift I, I, 0], [0, 0, I],
    [Lu, Lv, Lw]]``."""
    I = sp.identity(gen.Ew.shape[0], format="csr")
    E = sp.block_diag([I, I, gen.Ew], format="csr")
    first = [gen.shift * I if gen.shift else None, I, None]
    return E, sp.bmat([first, [None, None, I], [gen.Lu, gen.Lv, gen.Lw]], format="csr")


def dispersion_root(params, guess):
    """A root of the 1D dispersion relation on the interval (0, 1), by Newton
    from ``guess``; ``params`` is a config's ``params`` section.

    ``u = e^{lam t} phi(x)`` solves ``tau u_ttt + alpha u_tt - c^2 u_xx -
    b u_txx = 0`` with ``-phi'(0) + kappa0 phi(0) = 0`` at gamma0 and
    ``phi'(1) + kappa1 lam phi(1) = 0`` at gamma1 exactly when

        F(lam) = (mu + kappa0 kappa1 lam) sinh(k)/k + (kappa0 + kappa1 lam) cosh(k)

    vanishes, with ``mu = lam^2 (tau lam + alpha) / (c^2 + b lam)`` and
    ``k = sqrt(mu)``.  F is even in k, so the branch of the root does not
    matter.
    """
    tau, alpha, c2, b = params["tau"], params["alpha"], params["c"] ** 2, params["b"]
    k0, k1 = params["kappa0"], params["kappa1"]
    lam = complex(guess)
    for _ in range(50):
        mu = lam**2 * (tau * lam + alpha) / (c2 + b * lam)
        dmu = lam * ((3 * tau * lam + 2 * alpha) * (c2 + b * lam) - b * lam * (tau * lam + alpha))
        dmu /= (c2 + b * lam) ** 2
        k = np.sqrt(mu)
        sh, ch = np.sinh(k) / k, np.cosh(k)
        f = (mu + k0 * k1 * lam) * sh + (k0 + k1 * lam) * ch
        # d(sinh k / k)/d mu = (cosh k - sinh k / k) / (2 mu), d(cosh k)/d mu = (sinh k / k) / 2
        df = (dmu + k0 * k1) * sh + (mu + k0 * k1 * lam) * (ch - sh) / (2 * mu) * dmu
        df += k1 * ch + (k0 + k1 * lam) * sh / 2 * dmu
        lam -= f / df
    return lam


def dispersion_root_count(params, re_lo, re_hi, im_max, steps=64):
    """The number of roots, with multiplicity, of ``dispersion_root``'s ``F`` in the
    rectangle ``re_lo < Re lam < re_hi``, ``|Im lam| < im_max``, by the argument
    principle: the winding number of ``F`` along the rectangle's boundary.

    ``F`` is analytic in ``lam`` away from the pole ``-c^2/b`` of ``mu`` (it is
    entire in ``mu``), which the rectangle must avoid.  The boundary starts at
    ``steps`` points a side; every step over which ``arg F`` turns by pi/4 or
    more is halved until none does, and the turns add up to ``2 pi`` times the
    count.  A root on the boundary, or one too close to resolve, raises.
    """
    tau, alpha, c2, b = params["tau"], params["alpha"], params["c"] ** 2, params["b"]
    k0, k1 = params["kappa0"], params["kappa1"]
    if re_lo <= -c2 / b <= re_hi:
        raise ValueError("the rectangle contains the pole -c^2/b of mu")

    def F(lam):
        mu = lam**2 * (tau * lam + alpha) / (c2 + b * lam)
        k = np.sqrt(mu)
        f = (mu + k0 * k1 * lam) * np.sinh(k) / k + (k0 + k1 * lam) * np.cosh(k)
        if not (np.isfinite(f).all() and (f != 0).all()):
            raise ValueError("F vanishes or is not finite on the boundary")
        return f

    corners = [complex(re_lo, -im_max), complex(re_hi, -im_max), complex(re_hi, im_max), complex(re_lo, im_max)]
    sides = [np.linspace(a, z, steps, endpoint=False) for a, z in zip(corners, corners[1:] + corners[:1])]
    lam = np.concatenate(sides + [corners[:1]])
    f = F(lam)
    for _ in range(60):
        turn = np.angle(f[1:] / f[:-1])
        coarse = np.flatnonzero(np.abs(turn) >= np.pi / 4)
        if not len(coarse):
            return int(round(turn.sum() / (2 * np.pi)))
        mid = 0.5 * (lam[coarse] + lam[coarse + 1])
        lam, f = np.insert(lam, coarse + 1, mid), np.insert(f, coarse + 1, F(mid))
    raise ValueError("arg F did not resolve along the boundary")


def preset_names():
    """The names of the package's preset scenarios."""
    return sorted(presets._SCENARIOS)


def simulate_with_states(bundle, initial, on_chunk=None, **run):
    """``simulate``'s trajectory and its recorded u-form states, of shape
    ``(3, samples, n)``, copied from each chunk that ``on_chunk`` receives
    (and passed on to ``on_chunk`` when given)."""
    states = []

    def keep(chunk):
        states.append(chunk.states.copy())
        if on_chunk is not None:
            on_chunk(chunk)

    traj = M.simulate(bundle, initial, on_chunk=keep, **run)
    return traj, np.concatenate(states, axis=1)


def reconstruct_u_from_z(times, z_samples, u0, params):
    """Rebuild u from sampled z by the variation-of-parameters formula.

    ``u(t) = e^{-q t} u0 + int_0^t e^{-q (t - s)} z(s) ds`` with ``q =
    c^2/b``, evaluated by the exponentially weighted trapezoid recurrence
    on the stored samples (second-order accurate in the sample spacing).
    """
    times = np.asarray(times, float)
    z = np.asarray(z_samples, float)
    q = params.q
    out = np.empty_like(z)
    out[0] = u0
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        decay = np.exp(-q * h)
        out[k + 1] = decay * out[k] + 0.5 * h * (decay * z[k] + z[k + 1])
    return out


def static_poly_1d(b=1.0, kappa0=2.0):
    """Static polynomial z = -x^2 + 2x + 1 (Robin at x=0 with kappa0=2).

    Time-independent, so the z-multiplier identity collapses to the
    elliptic balance; with Simpson quadrature every integral is exact.
    """
    return M.ManufacturedField(
        a=np.ones_like, at=np.zeros_like, att=np.zeros_like, p=np.ones_like,
        phi=lambda x: -x[:, 0] ** 2 + 2 * x[:, 0] + 1.0,
        grad_phi=lambda x: (2.0 - 2.0 * x[:, 0])[:, None],
        lap_phi=lambda x: np.full(len(x), -2.0),
        psi=lambda x: x[:, 0] + 0.5,
        gamma=lambda x: np.full(len(x), 0.5),
        family="static-poly-1d",
        meta={"kappa0": kappa0, "b": b},
    )


def open_fds():
    """This process's open file descriptors, or None where ``/proc/self/fd``
    does not exist."""
    try:
        return {int(fd) for fd in os.listdir("/proc/self/fd")}
    except FileNotFoundError:
        return None


# each test's wall-time bound, far above the slowest test (about 4 s)
TEST_SECONDS = 60
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's stderr: during a test, output capture
    # redirects file descriptor 2
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def wall_time_bound(pytestconfig):
    """End the run, printing every thread's traceback, when one test outlasts
    ``TEST_SECONDS``, so that a hang fails the suite instead of stalling it.
    The watchdog is faulthandler's own thread: it sends no signal, so it does
    not clash with the tests that set SIGALRM themselves."""
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or unreaped, or a
    file descriptor open that was not open before it."""
    before = open_fds()
    yield
    if hasattr(os, "WNOHANG"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        else:
            pytest.fail("the test left a child process behind (waitpid returned pid %d)" % pid)
    left = set() if before is None else open_fds() - before
    if left:
        pytest.fail("the test left file descriptors open: %s" % sorted(left))


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
