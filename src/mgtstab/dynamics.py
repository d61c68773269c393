"""First-order generators, the z change of variables, and time stepping.

The semi-discrete third-order model in the displacement variables is

    tau M u_ttt + Malpha u_tt + c^2 Ktilde u + b Ktilde u_t
        + c^2 B1 u_t + b B1 u_tt = M f(t),

written first order in ``Phi = (u, u_t, u_tt)``.  The change of variables
``z = u_t + (c^2/b) u`` conjugates it exactly (at the matrix level) to a
damped-wave equation for ``z`` coupled to a scalar relaxation ODE for
``u``; both generator forms are assembled here and their conjugacy is a
test target, not an assumption.  General ``tau > 0`` is handled by
normalizing the equation by ``tau``, which rescales ``alpha, b, c^2,
gamma`` by ``1/tau`` and leaves the ratio ``q = c^2/b`` unchanged.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import energy as _energy
from .errors import NumericalError
from .geometry import GAMMA0, GAMMA1

_LOGGER = logging.getLogger(__name__)


@dataclass
class State:
    """Nodal state ``(u, v, w)`` at time ``t``.

    ``(v, w)`` is ``(u_t, u_tt)`` in u-form and ``(z, z_t)`` in z-form,
    with ``z = u_t + (c^2/b) u``.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t: float = 0.0


def m_transform(state, params):
    """Map (u, u_t, u_tt) to (u, z, z_t) with z = u_t + q u, q = c^2/b."""
    q = params.q
    return State(state.u.copy(), state.v + q * state.u, state.w + q * state.v, state.t)


def m_inverse(state, params):
    """Inverse change of variables: u_t = z - q u, u_tt = z_t - q z + q^2 u."""
    q = params.q
    ut = state.v - q * state.u
    utt = state.w - q * state.v + q**2 * state.u
    return State(state.u.copy(), ut, utt, state.t)


# -- compatibility of initial data ------------------------------------------


def check_compatibility(state, bundle):
    """Weak boundary residuals of the initial data.

    ``r0`` is the L2(gamma0) norm of the Riesz representative of
    ``d_nu u0 + kappa0 u0`` (normal derivative recovered from element
    gradients), ``r1`` the same on gamma1 for ``d_nu u0 + kappa1 u1``.
    Reporting only; incompatible data are legal but the exact equivalence
    with the z-form then holds only up to this residual.
    """
    mesh = bundle.mesh
    n, dim = mesh.n_nodes, mesh.dim
    # the element owning each boundary facet: match the sorted vertex keys
    # of the facets against those of every element face
    faces = mesh.elements[:, list(itertools.combinations(range(dim + 1), dim))]
    face_keys = np.ravel_multi_index(np.sort(faces, axis=2).reshape(-1, dim).T, (n,) * dim)
    facet_keys = np.ravel_multi_index(np.sort(mesh.facets, axis=1).T, (n,) * dim)
    order = np.argsort(face_keys)
    owner = order[np.searchsorted(face_keys[order], facet_keys)] // (dim + 1)
    grads = np.einsum("eai,ea->ei", mesh.element_gradients, state.u[mesh.elements])
    dnu = np.einsum("fi,fi->f", grads[owner], mesh.facet_normals)

    out = {}
    for name, tag, bmat, MG, value in (
        ("r0", GAMMA0, bundle.B0, bundle.T0, state.u),
        ("r1", GAMMA1, bundle.B1, bundle.T1, state.v),
    ):
        on = mesh.facet_tags == tag
        if not on.any():
            out[name] = 0.0
            continue
        cells, measures = mesh.facets[on], mesh.facet_measures[on]
        rho = np.zeros(n)
        np.add.at(rho, cells, (dnu[on] * measures / dim)[:, None])
        rho += bmat @ value
        # Riesz-represent the functional in L2 of the boundary part
        nodes = mesh.nodes_on(tag)
        MGr = MG[np.ix_(nodes, nodes)].toarray()
        w = np.linalg.solve(MGr, rho[nodes])
        out[name] = float(np.sqrt(w @ MGr @ w))
    return out


# -- generators --------------------------------------------------------------


@dataclass
class Generator:
    """First-order operator pencil ``E Phi' = L Phi + F(t)`` in block form.

    ``form`` is ``"u"`` (states ``(u, u_t, u_tt)``) or ``"z"`` (states
    ``(u, z, z_t)``).  In ``Phi = (u, v, w)`` the pencil reads

        u' = shift u + v,    v' = w,    Ew w' = Lu u + Lv v + Lw w,

    with ``shift = 0`` in u-form and ``-c^2/b`` in z-form.  ``E`` and
    ``L`` are the assembled 3n x 3n matrices; ``dense()`` returns the
    actual generator matrix ``E^{-1} L``.
    """

    form: str
    shift: float
    Ew: sp.csr_matrix
    Lu: sp.csr_matrix
    Lv: sp.csr_matrix
    Lw: sp.csr_matrix
    bundle: object

    @property
    def size(self):
        return 3 * self.Ew.shape[0]

    @property
    def E(self):
        n = self.Ew.shape[0]
        return sp.block_diag([sp.identity(n), sp.identity(n), self.Ew], format="csr")

    @property
    def L(self):
        I = sp.identity(self.Ew.shape[0], format="csr")
        first = [self.shift * I if self.shift else None, I, None]
        return sp.bmat([first, [None, None, I], [self.Lu, self.Lv, self.Lw]], format="csr")

    def dense(self):
        # the first two block rows are identity shifts; only the third
        # needs Ew^{-1}
        n = self.Ew.shape[0]
        A = np.zeros((3 * n, 3 * n), order="F")
        i = np.arange(n)
        A[i, i] = self.shift
        A[i, n + i] = A[n + i, 2 * n + i] = 1.0
        L3 = sp.hstack([self.Lu, self.Lv, self.Lw]).toarray()
        A[2 * n :] = splu(self.Ew.tocsc()).solve(L3)
        return A


def assemble_generator(bundle, params, form="u"):
    """Assemble the first-order pencil in u- or z-variables.

    The two pencils are exactly conjugate under the nodal transform
    matrix; that identity is validated numerically in the tests rather
    than assumed here.
    """
    tau, b, c2 = params.tau, params.b, params.c**2
    if form == "u":
        shift, Ew = 0.0, tau * bundle.Mmat
        Lu, Lv = -c2 * bundle.Ktilde, -(b * bundle.Ktilde + c2 * bundle.B1)
        Lw = -(bundle.Malpha + b * bundle.B1)
    elif form == "z":
        q, b_bar, Mgam = params.q, b / tau, bundle.Mgamma / tau
        shift, Ew = -q, bundle.Mmat
        Lu, Lv, Lw = -(q**2) * Mgam, q * Mgam - b_bar * bundle.Ktilde, -(b_bar * bundle.B1 + Mgam)
    else:
        raise ValueError("form must be 'u' or 'z'")
    return Generator(form, shift, Ew, Lu, Lv, Lw, bundle)


# -- time stepping -----------------------------------------------------------


class Stepper:
    """A-stable one-step/two-step integrators for the u-form pencil.

    ``implicit-midpoint`` (default) conserves every quadratic invariant
    of the homogeneous system exactly, which is what makes the critical
    case a clean conservation test.  ``bdf2`` is the dissipative
    alternative; a step without the previous state is one midpoint step.

    Every implicit stage ``(E - k L) x = g`` in ``x = (u, v, w)`` is
    condensed exactly to one n x n solve.  The first two block rows give
    ``v = g_v + k w`` and ``u = g_u + k v``; the third becomes
    ``S w = g_w + k L_u (g_u + k g_v) + k L_v g_v`` with
    ``S = E_w - k L_w - k^2 L_v - k^3 L_u`` from the generator's blocks.
    ``S`` is factorized once per stage length, ``k = dt/2`` (midpoint)
    and ``k = 2 dt/3`` (BDF2), and the map from the step's state to the
    right-hand side of ``S`` is one precomputed n x 3n matrix.  The
    forcing ``source`` is ``None`` or a callable ``t -> nodal vector``.
    """

    def __init__(self, generator, dt, scheme="implicit-midpoint", source=None):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in ("implicit-midpoint", "bdf2"):
            raise ValueError("unknown scheme %r" % scheme)
        if generator.form != "u":
            raise ValueError("Stepper integrates the u-form pencil, not form %r" % generator.form)
        self.dt = float(dt)
        self.scheme = scheme
        self.source = source
        self._M = generator.bundle.Mmat
        E, L = generator.E, generator.L
        Ew, Lu, Lv, Lw = generator.Ew, generator.Lu, generator.Lv, generator.Lw
        n = Ew.shape[0]

        def stage(k, G):
            # (k, factor of S, the n x 3n map x -> rhs of S) for g = G x
            S = Ew - k * Lw - k**2 * Lv - k**3 * Lu
            R = sp.hstack([k * Lu, k**2 * Lu + k * Lv, sp.identity(n)])
            return k, splu(S.tocsc()), (R @ G).tocsr()

        self._mid = stage(0.5 * self.dt, E + 0.5 * self.dt * L)
        if scheme == "bdf2":
            self._bdf = stage(2.0 / 3.0 * self.dt, E)

    def step(self, state, prev=None):
        """Advance a u-form :class:`State` by ``dt``.

        BDF2 takes the state one step earlier as ``prev``; without it (the
        first step) it takes one midpoint step.  Midpoint ignores ``prev``.
        """
        x = np.concatenate((state.u, state.v, state.w))
        if self.scheme == "bdf2" and prev is not None:
            k, lu, Q = self._bdf
            x = (4.0 * x - np.concatenate((prev.u, prev.v, prev.w))) / 3.0
            gu, gv, _ = np.split(x, 3)
            t_f, weight = state.t + self.dt, k
        else:
            k, lu, Q = self._mid
            gu, gv = state.u + k * state.v, state.v + k * state.w
            t_f, weight = state.t + 0.5 * self.dt, self.dt
        rhs = Q @ x
        if self.source is not None:
            rhs += weight * (self._M @ self.source(t_f))
        w = lu.solve(rhs)
        v = gv + k * w
        return State(gu + k * v, v, w, state.t + self.dt)


# -- simulation ---------------------------------------------------------------


@dataclass
class Trajectory:
    """Output time series of one run.

    Energy/dissipation columns follow the energy identity: boundary
    dissipation rate ``(b/tau) z_t^T B1 z_t``, interior rate
    ``u_tt^T (Mgamma/tau) u_tt`` and work rate ``z_t^T M f / tau``.
    With ``store_states`` the u-form states at the output times are
    kept as ``states``, of shape ``(3, samples, n)``: ``u``, ``u_t`` and
    ``u_tt``.
    """

    times: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    E: np.ndarray
    D_boundary: np.ndarray
    D_interior: np.ndarray
    work_rate: np.ndarray
    u_L2: np.ndarray
    z_L2: np.ndarray
    zt_L2: np.ndarray
    states: np.ndarray = None
    compat: dict = None
    meta: dict = None

    def state(self, k):
        if self.states is None:
            raise ValueError("state snapshots were not stored")
        return State(*self.states[:, k].copy(), float(self.times[k]))

    CSV_COLUMNS = ("t", "E0", "E1", "E", "D_boundary", "D_interior", "u_L2", "z_L2", "zt_L2")

    def csv_rows(self):
        cols = [self.times] + [getattr(self, name) for name in self.CSV_COLUMNS[1:]]
        return list(self.CSV_COLUMNS), np.column_stack(cols)


# Recorded values per state component held before the trajectory columns
# of a chunk of samples are evaluated together.
_CHUNK_ELEMENTS = 65536


def _observables(U, V, W, times, bundle, params, source, gamma_negative):
    """The nine trajectory columns (after ``t``) of a chunk of recorded
    states, one row per sample in ``U, V, W = u, u_t, u_tt``.

    Raises :class:`NumericalError` at the first sample whose ``z_t`` or
    energy is not finite; a blow-up overflows silently up to that check.
    """
    q, tau = params.q, params.tau
    with np.errstate(over="ignore", invalid="ignore"):
        Z, Zt = V + q * U, W + q * V
        E1 = _energy.energy_E1(State(U, Z, Zt), bundle, params, allow_indefinite=gamma_negative)
        E0 = _energy.energy_E0(State(U, V, W), bundle, params)
    bad_state = ~np.isfinite(Zt).all(axis=1)
    bad = bad_state | ~np.isfinite(E0 + E1)
    if bad.any():
        first = int(np.argmax(bad))
        what = "state" if bad_state[first] else "energy"
        raise NumericalError("non-finite %s at t=%.6g" % (what, times[first]))
    quad, M = _energy._quad, bundle.Mmat
    if source is None:
        work = np.zeros(len(times))
    else:
        F = np.array([source(t) for t in times])
        work = np.einsum("ij,ji->i", Zt, M @ F.T) / tau
    return (
        E0,
        E1,
        E0 + E1,
        quad(bundle.B1, Zt) * params.b / tau,
        quad(bundle.Mgamma, W) / tau,
        work,
        np.sqrt(quad(M, U)),
        np.sqrt(quad(M, Z)),
        np.sqrt(quad(M, Zt)),
    )


def simulate(
    bundle,
    params,
    initial,
    T,
    dt,
    source=None,
    scheme="implicit-midpoint",
    output_stride=1,
    store_states=True,
    compat_tol=0.1,
):
    """Advance the u-form system and record energy/dissipation series.

    ``initial`` is a u-form :class:`State` and ``source`` ``None`` or a
    callable ``t -> nodal vector``.  Compatibility residuals of the
    initial data are computed and logged (a warning above ``compat_tol``)
    but never enforced.  The residuals are recovered from element
    gradients and carry O(h) noise even for exactly compatible data, so
    the default threshold only flags order-one violations.  Non-finite
    states or recorded energies abort with :class:`NumericalError`
    (expected for blow-up scenarios run too long).

    The trajectory columns are evaluated for a chunk of recorded samples
    at once (``_CHUNK_ELEMENTS // n`` of them), so a blow-up is detected
    at the end of its chunk; the error still names its first sample.
    """
    n = bundle.mesh.n_nodes
    compat = check_compatibility(initial, bundle)
    if max(compat["r0"], compat["r1"]) > compat_tol:
        _LOGGER.warning(
            "initial data violate the boundary compatibility conditions "
            "(r0=%.3e, r1=%.3e); u- and z-form trajectories agree only up "
            "to this residual",
            compat["r0"],
            compat["r1"],
        )

    gen = assemble_generator(bundle, params, form="u")
    stepper = Stepper(gen, dt, scheme, source)
    n_steps = int(round(T / dt))
    record_at = sorted(set(range(0, n_steps + 1, int(output_stride))) | {n_steps})
    n_rec = len(record_at)
    chunk = max(1, _CHUNK_ELEMENTS // n)
    gamma_negative = bool(np.any(params.gamma_field < 0))

    # (u, u_t, u_tt) of the recorded states: every sample when they are
    # kept, else one chunk that is overwritten after its evaluation
    X = np.empty((3, n_rec if store_states else min(chunk, n_rec), n))
    times = np.empty(n_rec)
    cols = np.empty((9, n_rec))
    fields = (initial.u, initial.v, initial.w)
    state = State(*(np.asarray(a, float) for a in fields), float(initial.t))
    prev, i = None, 0
    for k in range(n_steps + 1):
        if k:
            state, prev = stepper.step(state, prev), state
        if k != record_at[i]:
            continue
        lo = i - i % chunk
        row = i if store_states else i - lo
        X[0, row], X[1, row], X[2, row] = state.u, state.v, state.w
        times[i] = state.t
        i += 1
        if i % chunk == 0 or i == n_rec:
            rows = slice(lo, i) if store_states else slice(0, i - lo)
            cols[:, lo:i] = _observables(
                *X[:, rows], times[lo:i], bundle, params, source, gamma_negative
            )

    traj = Trajectory(
        times,
        *cols,
        X if store_states else None,
        compat=compat,
        meta={
            "dt": float(dt),
            "T": float(n_steps * dt),
            "scheme": scheme,
            "output_stride": int(output_stride),
            "gamma_negative": gamma_negative,
            "stability_classification": params.stability_classification(),
        },
    )
    return traj


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
