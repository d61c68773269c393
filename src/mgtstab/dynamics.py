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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import energy as _energy
from .discretization import _mass
from .errors import NumericalError
from .geometry import GAMMA0, GAMMA1

_LOGGER = logging.getLogger(__name__)


@dataclass
class StateU:
    """Nodal state (u, u_t, u_tt) at time ``t``."""

    u: np.ndarray
    ut: np.ndarray
    utt: np.ndarray
    t: float = 0.0

    def stack(self):
        return np.concatenate([self.u, self.ut, self.utt])

    @classmethod
    def unstack(cls, vec, t=0.0):
        n = len(vec) // 3
        return cls(vec[:n].copy(), vec[n : 2 * n].copy(), vec[2 * n :].copy(), t)


@dataclass
class StateZ:
    """Nodal state (u, z, z_t) at time ``t`` with ``z = u_t + (c^2/b) u``."""

    u: np.ndarray
    z: np.ndarray
    zt: np.ndarray
    t: float = 0.0

    def stack(self):
        return np.concatenate([self.u, self.z, self.zt])

    @classmethod
    def unstack(cls, vec, t=0.0):
        n = len(vec) // 3
        return cls(vec[:n].copy(), vec[n : 2 * n].copy(), vec[2 * n :].copy(), t)


def m_transform(state, params):
    """Map (u, u_t, u_tt) to (u, z, z_t) with z = u_t + q u, q = c^2/b."""
    q = params.q
    return StateZ(state.u.copy(), state.ut + q * state.u, state.utt + q * state.ut, state.t)


def m_inverse(state, params):
    """Inverse change of variables: u_t = z - q u, u_tt = z_t - q z + q^2 u."""
    q = params.q
    ut = state.z - q * state.u
    utt = state.zt - q * state.z + q**2 * state.u
    return StateU(state.u.copy(), ut, utt, state.t)


class SourceTerm:
    """Deterministic time-dependent nodal forcing f(t).

    Either identically zero, or a fixed nodal field times a scalar time
    profile, or an arbitrary callable ``t -> nodal vector``.
    """

    def __init__(self, n_nodes, func=None):
        self.n_nodes = int(n_nodes)
        self._func = func

    @classmethod
    def zero(cls, n_nodes):
        return cls(n_nodes, None)

    @classmethod
    def separable(cls, field_values, profile):
        field_values = np.asarray(field_values, float)
        return cls(len(field_values), lambda t: field_values * profile(t))

    @property
    def is_zero(self):
        return self._func is None

    def __call__(self, t):
        if self._func is None:
            return np.zeros(self.n_nodes)
        return np.asarray(self._func(t), float)


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
    for name, tag, bmat, value in (
        ("r0", GAMMA0, bundle.B0, state.u),
        ("r1", GAMMA1, bundle.B1, state.ut),
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
        MG = bundle.T1 if tag == GAMMA1 else _mass(cells, measures, np.ones(n), n)
        nodes = mesh.nodes_on(tag)
        MGr = MG[np.ix_(nodes, nodes)].toarray()
        w = np.linalg.solve(MGr, rho[nodes])
        out[name] = float(np.sqrt(w @ MGr @ w))
    return out


# -- generators --------------------------------------------------------------


@dataclass
class Generator:
    """First-order operator pencil ``E Phi' = L Phi + F(t)``.

    ``form`` is ``"u"`` (states ``(u, u_t, u_tt)``) or ``"z"`` (states
    ``(u, z, z_t)``).  ``dense()`` returns the actual generator matrix
    ``E^{-1} L``.
    """

    form: str
    E: sp.csr_matrix
    L: sp.csr_matrix
    bundle: object
    params: object
    _dense: np.ndarray = field(default=None, repr=False)

    @property
    def size(self):
        return self.E.shape[0]

    def dense(self):
        if self._dense is None:
            lu = splu(self.E.tocsc())
            self._dense = lu.solve(self.L.toarray())
        return self._dense

    def source_block(self, f_nodal):
        """Right-hand side vector from a nodal forcing value."""
        n = self.E.shape[0] // 3
        out = np.zeros(3 * n)
        Mf = self.bundle.Mmat @ f_nodal
        if self.form == "u":
            out[2 * n :] = Mf
        else:
            out[2 * n :] = Mf / self.params.tau
        return out


def assemble_generator(bundle, params, form="u"):
    """Assemble the first-order pencil in u- or z-variables.

    The two pencils are exactly conjugate under the nodal transform
    matrix; that identity is validated numerically in the tests rather
    than assumed here.
    """
    n = bundle.mesh.n_nodes
    I = sp.identity(n, format="csr")
    tau, b, c2 = params.tau, params.b, params.c**2
    if form == "u":
        E = sp.block_diag([sp.identity(n), sp.identity(n), tau * bundle.Mmat], format="csc")
        L = sp.bmat(
            [
                [None, I, None],
                [None, None, I],
                [
                    -c2 * bundle.Ktilde,
                    -(b * bundle.Ktilde + c2 * bundle.B1),
                    -(bundle.Malpha + b * bundle.B1),
                ],
            ],
            format="csr",
        )
    elif form == "z":
        q = params.q
        b_bar = b / tau
        Mgam = bundle.Mgamma / tau
        E = sp.block_diag([sp.identity(n), sp.identity(n), bundle.Mmat], format="csc")
        L = sp.bmat(
            [
                [-q * I, I, None],
                [None, None, I],
                [
                    -(q**2) * Mgam,
                    q * Mgam - b_bar * bundle.Ktilde,
                    -(b_bar * bundle.B1 + Mgam),
                ],
            ],
            format="csr",
        )
    else:
        raise ValueError("form must be 'u' or 'z'")
    return Generator(form, E.tocsr(), L, bundle, params)


# -- time stepping -----------------------------------------------------------

_STATE_TYPES = {"u": StateU, "z": StateZ}


class Stepper:
    """A-stable one-step/two-step integrators for a generator pencil.

    ``implicit-midpoint`` (default) conserves every quadratic invariant
    of the homogeneous system exactly, which is what makes the critical
    case a clean conservation test.  ``bdf2`` is the dissipative
    alternative; its first step falls back to one midpoint step.
    """

    def __init__(self, generator, dt, scheme="implicit-midpoint", source=None):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in ("implicit-midpoint", "bdf2"):
            raise ValueError("unknown scheme %r" % scheme)
        self.generator = generator
        self.dt = float(dt)
        self.scheme = scheme
        self.source = source
        E, L = generator.E, generator.L
        if scheme == "implicit-midpoint":
            self._lhs = splu((E - 0.5 * dt * L).tocsc())
            self._rhs = (E + 0.5 * dt * L).tocsr()
        else:
            self._lhs = splu((E - (2.0 / 3.0) * dt * L).tocsc())
            self._mid_lhs = splu((E - 0.5 * dt * L).tocsc())
            self._mid_rhs = (E + 0.5 * dt * L).tocsr()
        self._E = E.tocsr()
        self._prev = None

    def _forcing(self, t):
        if self.source is None or self.source.is_zero:
            return None
        return self.generator.source_block(self.source(t))

    def _midpoint(self, vec, t):
        rhs_mat = self._rhs if self.scheme == "implicit-midpoint" else self._mid_rhs
        lhs = self._lhs if self.scheme == "implicit-midpoint" else self._mid_lhs
        rhs = rhs_mat @ vec
        F = self._forcing(t + 0.5 * self.dt)
        if F is not None:
            rhs = rhs + self.dt * F
        return lhs.solve(rhs)

    def step(self, state):
        cls = _STATE_TYPES[self.generator.form]
        if not isinstance(state, cls):
            raise TypeError("stepper for form %r expects %s" % (self.generator.form, cls.__name__))
        vec = state.stack()
        if self.scheme == "implicit-midpoint":
            new = self._midpoint(vec, state.t)
        else:
            if self._prev is None:
                new = self._midpoint(vec, state.t)
            else:
                rhs = (4.0 / 3.0) * (self._E @ vec) - (1.0 / 3.0) * (self._E @ self._prev)
                F = self._forcing(state.t + self.dt)
                if F is not None:
                    rhs = rhs + (2.0 / 3.0) * self.dt * F
                new = self._lhs.solve(rhs)
            self._prev = vec
        out = cls.unstack(new, state.t + self.dt)
        return out


def step(generator, state, dt, scheme="implicit-midpoint", source=None):
    """Single time step (convenience wrapper; builds a fresh stepper)."""
    return Stepper(generator, dt, scheme, source).step(state)


# -- simulation ---------------------------------------------------------------


@dataclass
class Trajectory:
    """Output time series of one run.

    Energy/dissipation columns follow the energy identity: boundary
    dissipation rate ``(b/tau) z_t^T B1 z_t``, interior rate
    ``u_tt^T (Mgamma/tau) u_tt`` and work rate ``z_t^T M f / tau``.
    State snapshots at output times are kept when ``store_states``.
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
    states_u: np.ndarray = None
    states_ut: np.ndarray = None
    states_utt: np.ndarray = None
    compat: dict = None
    meta: dict = None

    def state_u(self, k):
        if self.states_u is None:
            raise ValueError("state snapshots were not stored")
        return StateU(
            self.states_u[k].copy(),
            self.states_ut[k].copy(),
            self.states_utt[k].copy(),
            float(self.times[k]),
        )

    def state_z(self, k, params):
        return m_transform(self.state_u(k), params)

    CSV_COLUMNS = ("t", "E0", "E1", "E", "D_boundary", "D_interior", "u_L2", "z_L2", "zt_L2")

    def csv_rows(self):
        cols = [
            self.times,
            self.E0,
            self.E1,
            self.E,
            self.D_boundary,
            self.D_interior,
            self.u_L2,
            self.z_L2,
            self.zt_L2,
        ]
        return list(self.CSV_COLUMNS), np.column_stack(cols)


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

    ``initial`` is a :class:`StateU`.  Compatibility residuals of the
    initial data are computed and logged (a warning above ``compat_tol``)
    but never enforced.  The residuals are recovered from element
    gradients and carry O(h) noise even for exactly compatible data, so
    the default threshold only flags order-one violations.  Non-finite
    states or recorded energies abort with :class:`NumericalError`
    (expected for blow-up scenarios run too long).
    """
    mesh = bundle.mesh
    n = mesh.n_nodes
    if source is None:
        source = SourceTerm.zero(n)
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

    gamma_negative = bool(np.any(params.gamma_field < 0))
    q = params.q
    tau = params.tau

    times, rows = [], {k: [] for k in ("E0", "E1", "E", "Db", "Di", "W", "uL", "zL", "ztL")}
    snaps = {"u": [], "ut": [], "utt": []} if store_states else None

    state = StateU(
        np.asarray(initial.u, float).copy(),
        np.asarray(initial.ut, float).copy(),
        np.asarray(initial.utt, float).copy(),
        float(initial.t),
    )

    def record(s):
        z = s.ut + q * s.u
        zt = s.utt + q * s.ut
        if not np.all(np.isfinite(zt)):
            raise NumericalError("non-finite state at t=%.6g" % s.t)
        e1 = _energy.energy_E1(
            StateZ(s.u, z, zt, s.t), bundle, params, allow_indefinite=gamma_negative
        )
        e0 = _energy.energy_E0(s, bundle, params)
        if not np.isfinite(e0 + e1):
            raise NumericalError("non-finite energy at t=%.6g" % s.t)
        times.append(s.t)
        rows["E0"].append(e0)
        rows["E1"].append(e1)
        rows["E"].append(e0 + e1)
        rows["Db"].append(float(zt @ (bundle.B1 @ zt)) * params.b / tau)
        rows["Di"].append(float(s.utt @ (bundle.Mgamma @ s.utt)) / tau)
        f = source(s.t)
        rows["W"].append(float(zt @ (bundle.Mmat @ f)) / tau)
        rows["uL"].append(float(np.sqrt(s.u @ (bundle.Mmat @ s.u))))
        rows["zL"].append(float(np.sqrt(z @ (bundle.Mmat @ z))))
        rows["ztL"].append(float(np.sqrt(zt @ (bundle.Mmat @ zt))))
        if snaps is not None:
            snaps["u"].append(s.u.copy())
            snaps["ut"].append(s.ut.copy())
            snaps["utt"].append(s.utt.copy())

    record_set = set(record_at)
    record(state)
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        if k in record_set:
            record(state)

    traj = Trajectory(
        times=np.array(times),
        E0=np.array(rows["E0"]),
        E1=np.array(rows["E1"]),
        E=np.array(rows["E"]),
        D_boundary=np.array(rows["Db"]),
        D_interior=np.array(rows["Di"]),
        work_rate=np.array(rows["W"]),
        u_L2=np.array(rows["uL"]),
        z_L2=np.array(rows["zL"]),
        zt_L2=np.array(rows["ztL"]),
        states_u=np.array(snaps["u"]) if snaps else None,
        states_ut=np.array(snaps["ut"]) if snaps else None,
        states_utt=np.array(snaps["utt"]) if snaps else None,
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
