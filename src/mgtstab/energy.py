"""Energy functionals, the dissipation identity and decay-rate fitting.

With the tau-normalized coefficients (bars denote division by tau) the
two energies are

    E1 = (b/2tau) z^T Ktilde z + (1/2) z_t^T M z_t
         + (c^2/2b) u_t^T (Mgamma/tau) u_t,
    E0 = (1/2) u_t^T (Malpha/tau) u_t + (c^2/2tau) u^T Ktilde u,

and along solutions E1 satisfies the exact balance

    E1(T) + int [ (b/tau) z_t^T B1 z_t + u_tt^T (Mgamma/tau) u_tt ] dt
        = E1(t) + int z_t^T M f / tau dt.

The identity holds in continuous time; its discrete residual measures
the time-integration error and is a second-order convergence target.
"""

import numpy as np
import scipy.linalg

from .errors import UndefinedWeightError


def _quad(A, x):
    """``x^T A x`` of a vector, or of each row of an ``(m, n)`` stack."""
    return np.einsum("...i,i...->...", x, A @ x.T)


def energy_E1(state, bundle, params, allow_indefinite=False):
    """First-order (z-level) energy of a z-form state ``(u, z, z_t)``.

    The fields may be ``(m, n)`` stacks of m states, which gives one
    energy per row.  Requires ``gamma >= 0`` nodewise; pass
    ``allow_indefinite=True`` to evaluate the (then sign-indefinite)
    quadratic form anyway, which is how instability scenarios report
    their growth.
    """
    gamma = params.gamma_field
    if not allow_indefinite and np.any(gamma < -1e-14):
        raise UndefinedWeightError(
            "gamma is negative somewhere; E1's weighted term is undefined "
            "(pass allow_indefinite=True to evaluate the indefinite form)"
        )
    tau, b = params.tau, params.b
    q = params.q
    ut = state.v - q * state.u
    val = 0.5 * (b / tau) * _quad(bundle.Ktilde, state.v)
    val += 0.5 * _quad(bundle.Mmat, state.w)
    val += 0.5 * q * _quad(bundle.Mgamma, ut) / tau
    return val


def energy_E0(state, bundle, params):
    """Zeroth-order energy of a u-form state ``(u, u_t, u_tt)`` (or row-wise stack)."""
    if np.any(params.alpha_field < 0):
        raise UndefinedWeightError("alpha is negative somewhere; E0 is undefined")
    tau = params.tau
    val = 0.5 * _quad(bundle.Malpha, state.v) / tau
    val += 0.5 * (params.c**2 / tau) * _quad(bundle.Ktilde, state.u)
    return val


def energy_identity_residual(trajectory, t_start=None, t_end=None):
    """Normalized residual of the energy balance over a sample window.

    Time integrals use the trapezoid rule on the stored output grid, so
    the residual scales with the output spacing squared.  Normalization
    is by the larger endpoint energy.
    """
    t = trajectory.times
    i0 = 0 if t_start is None else int(np.searchsorted(t, t_start))
    i1 = len(t) - 1 if t_end is None else int(np.searchsorted(t, t_end))
    if i1 <= i0:
        raise ValueError("empty integration window")
    sl = slice(i0, i1 + 1)
    diss = np.trapezoid(trajectory.D_boundary[sl] + trajectory.D_interior[sl], t[sl])
    work = np.trapezoid(trajectory.work_rate[sl], t[sl])
    lhs = trajectory.E1[i1] + diss
    rhs = trajectory.E1[i0] + work
    scale = max(abs(trajectory.E1[i0]), abs(trajectory.E1[i1]), 1e-300)
    return abs(lhs - rhs) / scale


def fit_decay_rate(times, E, tail_fraction=0.5, floor_rel=1e-13):
    """Least-squares exponential fit ``E(t) ~ M E(0) exp(-omega t)``.

    Fits log E over the trailing ``tail_fraction`` of the samples,
    dropping values below ``floor_rel * E(0)`` (the solver roundoff
    plateau).  Returns ``{"omega", "M", "fit_residual", "n_points"}``
    with ``M`` clamped to at least one.
    """
    times = np.asarray(times, float)
    E = np.asarray(E, float)
    if np.any(E <= 0):
        keep = E > 0
        times, E = times[keep], E[keep]
    if len(E) < 3:
        raise ValueError("not enough positive energy samples to fit")
    start = int(np.floor(len(times) * (1.0 - tail_fraction)))
    tail = slice(max(start, 0), None)
    t_f, e_f = times[tail], E[tail]
    keep = e_f > floor_rel * E[0]
    t_f, e_f = t_f[keep], e_f[keep]
    if len(e_f) < 3:
        raise ValueError("decay fit window is empty after flooring")
    A = np.column_stack([np.ones_like(t_f), t_f])
    coef, *_ = np.linalg.lstsq(A, np.log(e_f), rcond=None)
    intercept, slope = coef
    omega = -float(slope)
    M = max(1.0, float(np.exp(intercept) / E[0]))
    resid = float(np.sqrt(np.mean((A @ coef - np.log(e_f)) ** 2)))
    return {"omega": omega, "M": M, "fit_residual": resid, "n_points": int(len(e_f))}


def energy_quadratic_form(bundle, params):
    """Dense matrix Q with E0 + E1 = Phi^T Q Phi on stacked (u, u_t, u_tt)."""
    n = bundle.mesh.n_nodes
    tau, b, q = params.tau, params.b, params.q
    K = bundle.Ktilde.toarray()
    M = bundle.Mmat.toarray()
    Mg = bundle.Mgamma.toarray() / tau
    Ma = bundle.Malpha.toarray() / tau
    Z = np.zeros((n, n))
    # E1 in z-variables (blocks u, z, z_t), pulled back through the transform
    Q1 = 0.5 * np.block(
        [[Z, Z, Z], [Z, (b / tau) * K, Z], [Z, Z, M]]
    )
    T = np.block([[np.eye(n), Z, Z], [q * np.eye(n), np.eye(n), Z], [Z, q * np.eye(n), np.eye(n)]])
    Q = T.T @ Q1 @ T
    # the u_t-weighted gamma term of E1 plus E0
    Q[n : 2 * n, n : 2 * n] += 0.5 * q * Mg + 0.5 * Ma
    Q[:n, :n] += 0.5 * (params.c**2 / tau) * K
    return 0.5 * (Q + Q.T)


def norm_equivalence_constants(bundle, params):
    """Extremal generalized eigenvalues of the energy vs the state norm.

    The reference squared norm is ``u^T Ktilde u + u_t^T Ktilde u_t +
    u_tt^T M u_tt``.  Returns ``(c1, c2)`` with
    ``c1 ||Phi||^2 <= E(Phi) <= c2 ||Phi||^2`` for every state; ``c1 > 0``
    requires ``alpha`` bounded below away from zero.
    """
    n = bundle.mesh.n_nodes
    K = bundle.Ktilde.toarray()
    M = bundle.Mmat.toarray()
    Z = np.zeros((n, n))
    H = np.block([[K, Z, Z], [Z, K, Z], [Z, Z, M]])
    Q = energy_quadratic_form(bundle, params)
    lam = scipy.linalg.eigh(Q, H, eigvals_only=True)
    return float(lam[0]), float(lam[-1])
