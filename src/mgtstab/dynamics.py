"""First-order generators, the z change of variables, and time stepping.

The semi-discrete third-order model in the displacement variables is

    tau M u_ttt + Malpha u_tt + c^2 Ktilde u + b Ktilde u_t
        + c^2 B1 u_t + b B1 u_tt = 0,

written first order in ``Phi = (u, u_t, u_tt)``.  The change of variables
``z = u_t + (c^2/b) u`` conjugates it exactly (at the matrix level) to a
damped-wave equation for ``z`` coupled to a scalar relaxation ODE for
``u``; both generator forms are assembled here and their conjugacy is a
test target, not an assumption.  General ``tau > 0`` is handled by
normalizing the equation by ``tau``, which rescales ``alpha, b, c^2,
gamma`` by ``1/tau`` and leaves the ratio ``q = c^2/b`` unchanged.  Each
implicit step is one condensed n x n solve: a dense LAPACK LU for n <= 128
and above it SuperLU in symmetric mode on a minimum-degree ordering of
``S + S^T``.  ``simulate`` steps flat buffers with ``Stepper.advance``, on
views built once per run: the stage's right-hand side, written into a
scratch row (by scipy's CSR kernel itself on the sparse stage), its solve
there and one 3 x 4 combine a step, so a step is the linear map
``x -> C [x; S^{-1} Q x]``.  The recorded energy series are quadratic
forms on copies of the operators without their stored zeros.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse.linalg import splu

# the private kernel ``Q @ y`` calls on a zeroed array it allocates; the sparse step
# calls it on its scratch row instead (a test pins it to ``Q @ y``)
from scipy.sparse._sparsetools import csr_matvec

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


def _lapack(out):
    # a LAPACK call's outputs before ``info``; a nonzero ``info`` raises like splu's singular factor
    if out[-1]:
        raise RuntimeError("LAPACK info %d: singular factor or bad argument" % out[-1])
    return out[:-1]


# -- compatibility of initial data ------------------------------------------


def check_compatibility(state, bundle):
    """Weak boundary residuals of the initial data.

    ``r0`` is the L2(gamma0) norm of the Riesz representative of
    ``d_nu u0 + kappa0 u0`` (normal derivative recovered from element
    gradients), ``r1`` the same on gamma1 for ``d_nu u0 + kappa1 u1``.
    Reporting only; incompatible data are legal but the exact equivalence
    with the z-form then holds only up to this residual.
    """
    return _compatibility(state, bundle)[0]


def _compatibility(state, bundle):
    # check_compatibility's residuals, the sum of the L2 norms of the terms
    # they add up (d_nu u0 and the Robin term) over gamma0 and gamma1, and
    # each residual's noise floor: the L2 norm of the greatest jump of the
    # element gradient across an interior face of each facet's element.  A
    # facet's d_nu u0 is its element's mean gradient, off the boundary value
    # by about h/2 |u0''|, half the jump h |u0''| to the next element; so a
    # residual under its floor is recovery noise at twice its expected size.
    mesh = bundle.mesh
    n, dim = mesh.n_nodes, mesh.dim
    owner = mesh.facet_elements
    grads = np.einsum("eai,ea->ei", mesh.element_gradients, state.u[mesh.elements])
    dnu = np.einsum("fi,fi->f", grads[owner], mesh.facet_normals)
    a, b = mesh.face_elements[mesh.faces.counts == 2].T  # the two elements of each interior face
    jump = np.zeros(len(mesh.elements))
    step = np.linalg.norm(grads[a] - grads[b], axis=1)
    np.maximum.at(jump, a, step)
    np.maximum.at(jump, b, step)

    out, scale, floor = {}, 0.0, {}
    for name, tag, bmat, MG, value in (
        ("r0", GAMMA0, bundle.B0, bundle.T0, state.u),
        ("r1", GAMMA1, bundle.B1, bundle.T1, state.v),
    ):
        on = mesh.facet_tags == tag
        if not on.any():
            out[name] = floor[name] = 0.0
            continue
        cells, measures = mesh.facets[on], mesh.facet_measures[on]
        nodes = mesh.nodes_on(tag)
        MGr = MG[np.ix_(nodes, nodes)].toarray()
        lu, piv = _lapack(dgetrf(MGr))  # one factorization for the part's four norms

        def functional(per_facet):
            # int over the part of per_facet times each nodal basis function
            rho = np.zeros(n)
            np.add.at(rho, cells, (per_facet * measures / dim)[:, None])
            return rho

        def norm(rho):
            # Riesz-represent the functional in L2 of the boundary part
            (w,) = _lapack(dgetrs(lu, piv, rho[nodes]))
            return float(np.sqrt(w @ MGr @ w))

        flux, robin = functional(dnu[on]), bmat @ value
        out[name] = norm(flux + robin)
        scale += norm(flux) + norm(robin)
        floor[name] = norm(functional(jump[owner[on]]))
    return out, scale, floor


# -- generators --------------------------------------------------------------


@dataclass
class Generator:
    """First-order operator pencil ``E Phi' = L Phi`` in block form.

    ``form`` is ``"u"`` (states ``(u, u_t, u_tt)``) or ``"z"`` (states
    ``(u, z, z_t)``).  In ``Phi = (u, v, w)`` the pencil reads

        u' = shift u + v,    v' = w,    Ew w' = Lu u + Lv v + Lw w,

    with ``shift = 0`` in u-form and ``-c^2/b`` in z-form, that is
    ``E = diag(I, I, Ew)`` and ``L`` the block matrix of the right-hand
    sides; ``dense()`` returns the actual generator matrix ``E^{-1} L``.
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

    def dense(self):
        """The generator matrix ``E^{-1} L``, dense, of size 3n."""
        return self._companion((self.Lu, self.Lv, self.Lw), self.shift)

    def dense_vw(self):
        """The ``(v, w)`` block ``[[0, I], Ew^{-1} [Lv, Lw]]`` of ``E^{-1} L``, size 2n.

        When ``Lu == 0`` (z-form with gamma == 0) the generator matrix is
        block upper triangular, ``[[shift I, *], [0, dense_vw()]]``, so
        its spectrum is ``shift`` n times together with this block's.
        """
        return self._companion((self.Lv, self.Lw))

    def _companion(self, row, shift=0.0):
        # identity superdiagonal blocks, ``shift I`` as the first diagonal
        # block and ``Ew^{-1} row`` as the last block row, the only one
        # that needs Ew^{-1}
        n, k = self.Ew.shape[0], len(row)
        A = np.zeros((k * n, k * n), order="F")
        i = np.arange(n)
        A[i, i] = shift
        for j in range(k - 1):
            A[j * n + i, (j + 1) * n + i] = 1.0
        A[(k - 1) * n :] = splu(self.Ew.tocsc()).solve(sp.hstack(row).toarray())
        return A


def assemble_generator(bundle, form="u"):
    """Assemble the first-order pencil in u- or z-variables.

    Each block is arithmetic on the operators' ``.data`` on their shared
    pattern, entry for entry the sparse expression's value (``Mgamma / tau``
    is ``Mgamma * (1 / tau)``) with its exact zeros kept.  The two pencils
    are exactly conjugate under the nodal transform matrix; that identity
    is validated numerically in the tests rather than assumed here.
    """
    params = bundle.params
    tau, b, c2 = params.tau, params.b, params.c**2
    M, K, B1 = bundle.Mmat, bundle.Ktilde.data, bundle.B1.data
    if form == "u":
        shift, Ew = 0.0, tau * M.data
        Lu, Lv, Lw = -c2 * K, -(b * K + c2 * B1), -(bundle.Malpha.data + b * B1)
    elif form == "z":
        q, b_bar, Mgam = params.q, b / tau, bundle.Mgamma.data * (1.0 / tau)
        shift, Ew = -q, M.data
        Lu, Lv, Lw = -(q**2) * Mgam, q * Mgam - b_bar * K, -(b_bar * B1 + Mgam)
    else:
        raise ValueError("form must be 'u' or 'z'")
    blocks = (sp.csr_matrix((d, M.indices, M.indptr), shape=M.shape) for d in (Ew, Lu, Lv, Lw))
    return Generator(form, shift, *blocks, bundle)


# -- time stepping -----------------------------------------------------------


# Values held in one working set: a chunk of recorded state components,
# or a dense stage's ``S`` and n x 3n map ``Q``.
_CHUNK_ELEMENTS = 65536

# simulate warns when a compatibility residual exceeds this share of the
# boundary terms it adds up (and its noise floor)
_COMPAT_TOL = 0.1


# S w = Q x; a dense stage holds the LAPACK LU of S and its pivots, a sparse one piv = None
_Stage = namedtuple("_Stage", "Q lu piv C S factor_nnz")


def _views(flat):
    # the views advance takes of a flat (u, v, w, scratch) buffer: the state,
    # the scratch row, all four rows as (4, n) and the state as (3, n)
    n = len(flat) // 4
    return flat[: 3 * n], flat[3 * n :], flat.reshape(4, n), flat[: 3 * n].reshape(3, n)


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
    and ``k = 2 dt/3`` (BDF2), and the map ``Q`` from the step's state to
    the right-hand side of ``S`` is one precomputed n x 3n matrix, read off
    the same blocks with no 3n x 3n matrix built; BDF2's ``Q`` and the
    ``g`` columns of its ``C`` carry the 1/3 of ``g = (4 x - prev) / 3``.
    Both are array arithmetic on the ``.data`` of the blocks, which must
    share one CSR pattern (else ``ValueError``), each entry summed in the
    order a sparse sum of the blocks sums it: ``S`` keeps the pattern less
    its exact zeros, and ``Q`` fills one n x 3n pattern that repeats each
    of its rows at column offsets 0, n and 2n.  Both are dense, with a
    LAPACK LU of ``S`` (``"dense-lu"``), while they fit the working-set
    budget ``4 n^2 <= _CHUNK_ELEMENTS`` (n <= 128); above it ``S`` has a
    SuperLU factor and ``Q`` is CSR (``"sparse-lu"``).  SuperLU runs in
    symmetric mode on a minimum-degree ordering of ``S + S^T`` (``S`` is
    symmetric positive definite), factors ``S^T`` and solves with its
    transposed sweep (``trans="T"``), which is ``S w = rhs`` for any ``S``
    and faster than the plain sweep on the same factor (see the README).
    :meth:`advance` steps flat ``4n`` buffers ``(u, v, w, scratch)``, given
    as their :func:`_views`, in three kernel calls: ``Q`` into the scratch
    row (a CSR ``Q`` by ``csr_matvec`` on the zeroed row, the kernel and
    bits of ``Q @ y`` without its dispatch and allocation), the solve there
    (SuperLU's result copied back), and one 3 x 4 matrix ``C`` from the four
    rows to the next state; :meth:`step` wraps it for a ``State``.
    """

    def __init__(self, generator, dt, scheme="implicit-midpoint"):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError("dt must be positive and finite")
        if scheme not in ("implicit-midpoint", "bdf2"):
            raise ValueError("unknown scheme %r" % scheme)
        if generator.form != "u":
            raise ValueError("Stepper integrates the u-form pencil, not form %r" % generator.form)
        self.dt = float(dt)
        blocks = generator.Ew, generator.Lu, generator.Lv, generator.Lw
        indptr, indices = generator.Ew.indptr, generator.Ew.indices
        if not all(np.array_equal(A.indptr, indptr) and np.array_equal(A.indices, indices) for A in blocks):
            raise ValueError("the generator blocks Ew, Lu, Lv and Lw must share one CSR pattern")
        ew, lu, lv, lw = (A.data for A in blocks)
        n, size = len(indptr) - 1, len(indices)
        # Q's n x 3n pattern: each row of the blocks' pattern three times, at
        # column offsets 0, n and 2n; ``slots[b]`` are block b's positions in it
        rows = np.diff(indptr)
        slots = np.repeat(2 * indptr[:-1], rows) + np.arange(size)
        slots = slots + np.repeat(rows, rows) * np.arange(3)[:, None]
        q_indices = np.empty(3 * size, indices.dtype)
        for b in range(3):
            q_indices[slots[b]] = indices + b * n

        def stage(k, Q, C):
            # the stage of length k with map blocks Q and combine C; its storage follows n alone
            s = ((ew - k * lw) - k**2 * lv) - k**3 * lu
            S = sp.csr_matrix((s, indices.copy(), indptr.copy()), shape=(n, n))
            S.eliminate_zeros()  # as a sparse sum stores it, so SuperLU orders the same structure
            data = np.empty(3 * size)
            for b in range(3):
                data[slots[b]] = Q[b]
            Q = sp.csr_matrix((data, q_indices, 3 * indptr), shape=(n, 3 * n))
            if 4 * n * n <= _CHUNK_ELEMENTS:
                factor, piv = _lapack(dgetrf(S.toarray()))
                return _Stage(Q.toarray(), factor, piv, np.array(C), S, n * n)
            # the factor of S^T (CSC, as S is CSR), solved with trans="T"
            factor = splu(S.T, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
            return _Stage(Q, factor, None, np.array(C), S, factor.nnz)

        # C: (u, v, w, w') -> (u + 2k v + k^2 (w + w'), v + k (w + w'), w'), g = x; Q is
        # [k Lu, k^2 Lu + k Lv, I] (E + k L), each entry summed as that product sums it
        k = 0.5 * self.dt
        klu, kluv = k * lu, k**2 * lu + k * lv
        Q = [klu + klu, (klu * k + kluv) + k * lv, kluv * k + (ew + k * lw)]
        C = [[1, 2 * k, k**2, k**2], [0, 1, k, k], [0, 0, 0, 1]]
        self._mid, self._bdf = stage(k, Q, C), None
        if scheme == "bdf2":
            # C: (g_u, g_v, g_w, w') -> (g_u + k g_v + k^2 w', g_v + k w', w') / 3 in its
            # g columns, g = 4 x - prev; Q is [k Lu, k^2 Lu + k Lv, I] E / 3
            k, third = 2.0 / 3.0 * self.dt, 1.0 / 3.0
            Q = [third * (k * lu), third * (k**2 * lu + k * lv), third * ew]
            C = [[third, k * third, 0, k**2], [0, third, 0, k], [0, 0, 0, 1]]
            self._bdf = stage(k, Q, C)

    def advance(self, x, prev, out):
        """Write the step from the state in ``x`` into ``out``; ``x``, ``prev`` and
        ``out`` are the :func:`_views` of three distinct flat ``(u, v, w, scratch)``
        buffers, and the caller keeps the clock.  BDF2 takes the state before ``x`` as
        ``prev`` and overwrites it; without it, and always for midpoint, the step is a
        midpoint step that writes only ``x``'s scratch row besides ``out``."""
        stage, (y, r, g, _) = self._mid, x
        if prev is not None and self._bdf is not None:
            # g = 4 x - prev in prev's buffer, with out as scratch
            stage, (y, r, g, _) = self._bdf, prev
            np.subtract(np.multiply(x[0], 4.0, out=out[0]), y, out=y)
        # S's right-hand side Q y in g's scratch row, solved there
        if stage.piv is None:
            Q = stage.Q
            if (len(r), len(y)) != Q.shape:  # the kernel checks no length
                raise ValueError("buffers of %d nodes for a stage of %d" % (len(r), Q.shape[0]))
            r.fill(0.0)
            csr_matvec(len(r), len(y), Q.indptr, Q.indices, Q.data, y, r)
            np.copyto(r, stage.lu.solve(r, "T"))
        else:
            np.dot(stage.Q, y, out=r)
            dgetrs(stage.lu, stage.piv, r, 0, 1)  # trans=0, overwrite_b=1; info flags bad arguments only
        np.dot(stage.C, g, out=out[3])

    def step(self, state, prev=None):
        """Advance a u-form :class:`State` by ``dt``; see :meth:`advance`."""
        flat = lambda s: _views(np.concatenate((s.u, s.v, s.w, s.w)))  # noqa: E731  (scratch last)
        out = _views(np.empty(4 * len(state.u)))
        self.advance(flat(state), None if prev is None else flat(prev), out)
        return State(*out[2][:3], state.t + self.dt)

    def health(self, state):
        """``stage_solver`` and ``stage_factor_nnz`` of the stage most steps use (BDF2's
        for ``bdf2``), and the ``stage_residual`` |S w - rhs|_inf / |rhs|_inf of that
        stage's solve with ``rhs = Q x``, ``x`` being ``state``."""
        stage = self._bdf or self._mid
        rhs = stage.Q @ np.concatenate((state.u, state.v, state.w))
        w = stage.lu.solve(rhs, "T") if stage.piv is None else _lapack(dgetrs(stage.lu, stage.piv, rhs))[0]
        res = float(np.abs(stage.S @ w - rhs).max() / (np.abs(rhs).max() or 1.0))
        solver = "sparse-lu" if stage.piv is None else "dense-lu"
        return dict(stage_solver=solver, stage_factor_nnz=stage.factor_nnz, stage_residual=res)


# -- simulation ---------------------------------------------------------------


@dataclass
class Trajectory:
    """Output time series of one run.

    Energy/dissipation columns follow the energy identity: boundary
    dissipation rate ``(b/tau) z_t^T B1 z_t`` and interior rate
    ``u_tt^T (Mgamma/tau) u_tt``.
    The chunks that ``simulate`` passes to ``on_chunk`` also hold their
    recorded u-form states as ``states``, of shape ``(3, samples, n)``:
    ``u``, ``u_t`` and ``u_tt``, a transposed view of a node-major
    ``(3, n, samples)`` buffer, valid only during the call.
    """

    times: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    E: np.ndarray
    D_boundary: np.ndarray
    D_interior: np.ndarray
    u_L2: np.ndarray
    z_L2: np.ndarray
    zt_L2: np.ndarray
    states: np.ndarray = None
    compat: dict = None
    meta: dict = None

    CSV_COLUMNS = ("t", "E0", "E1", "E", "D_boundary", "D_interior", "u_L2", "z_L2", "zt_L2")

    def csv_rows(self):
        return np.column_stack([self.times] + [getattr(self, name) for name in self.CSV_COLUMNS[1:]])


def _observables(U, V, W, times, bundle):
    """The eight trajectory columns (after ``t``) of a chunk of recorded
    states, one row per sample in ``U, V, W = u, u_t, u_tt``; ``E1`` and
    ``zt_L2`` share one ``z_t`` form, and ``E1`` may be indefinite.

    Raises :class:`NumericalError` at the first sample whose ``z_t`` or
    energy is not finite; a blow-up overflows silently up to that check.
    """
    params = bundle.params
    q, tau = params.q, params.tau
    quad, M = _energy._quad, bundle.Mmat
    with np.errstate(over="ignore", invalid="ignore"):
        Z, Zt = V + q * U, W + q * V
        zt_mass = quad(M, Zt)
        E1 = _energy._energy_E1(State(U, Z, Zt), bundle, zt_mass)
        E0 = _energy.energy_E0(State(U, V, W), bundle)
    bad_state = ~np.isfinite(Zt).all(axis=1)
    bad = bad_state | ~np.isfinite(E0 + E1)
    if bad.any():
        first = int(np.argmax(bad))
        what = "state" if bad_state[first] else "energy"
        raise NumericalError("non-finite %s at t=%.6g" % (what, times[first]))
    return (
        E0,
        E1,
        E0 + E1,
        quad(bundle.B1, Zt) * params.b / tau,
        quad(bundle.Mgamma, W) / tau,
        np.sqrt(quad(M, U)),
        np.sqrt(quad(M, Z)),
        np.sqrt(zt_mass),
    )


def _zero_free(bundle):
    """The bundle with copies, free of stored zeros, of the operators that
    :func:`_observables` reads and that hold one (``B1`` off gamma1, ``Mgamma``
    at gamma == 0): an exact zero never changes a finite row sum's bits."""
    ops = {}
    for name in ("Mmat", "Ktilde", "Malpha", "Mgamma", "B1"):
        A = getattr(bundle, name)
        if not A.data.all():
            ops[name] = A = A.copy()
            A.eliminate_zeros()
    return replace(bundle, **ops)


def record_count(T, dt, output_stride):
    """Samples ``simulate`` records: every ``output_stride``-th of the
    ``round(T / dt)`` steps from step 0, and the last step."""
    n_steps = int(round(T / dt))
    return n_steps // output_stride + 1 + (n_steps % output_stride > 0)


def simulate(
    bundle,
    initial,
    T,
    dt,
    scheme="implicit-midpoint",
    output_stride=1,
    on_chunk=None,
):
    """Advance the u-form system and record energy/dissipation series.

    ``initial`` is a u-form :class:`State`.  Compatibility residuals of the
    initial data are computed and logged but never enforced: a warning
    when one exceeds both ``_COMPAT_TOL`` times the summed L2 norms of the
    terms both add up, over the whole boundary, so it does not depend on
    the data's scale, and its noise floor, twice the expected O(h) error
    of the recovered normal derivative (estimated from the jumps of the
    element gradients next to the boundary).  Where both terms vanish,
    e.g. at ``cos(pi x)``'s Neumann ends, only that noise is left.
    Non-finite states or recorded energies abort with
    :class:`NumericalError` (expected for blow-up scenarios run too long).

    The trajectory columns are evaluated for a chunk of recorded samples
    at once (``_CHUNK_ELEMENTS // n`` of them), so a blow-up is detected
    at the end of its chunk; the error still names its first sample.
    ``on_chunk``, when given, is called after each chunk with a
    :class:`Trajectory` holding only that chunk's ``times``, columns and
    ``states``, chunk after chunk in order, so the caller can write them
    out while the stepping goes on.  Its ``states`` are a view of the
    chunk buffer, valid only during the call; the returned trajectory
    holds none.
    """
    n = bundle.mesh.n_nodes
    compat, scale, floor = _compatibility(initial, bundle)
    if any(compat[k] > max(_COMPAT_TOL * scale, floor[k]) for k in compat):
        _LOGGER.warning(
            "initial data violate the boundary compatibility conditions "
            "(r0=%.3e, r1=%.3e); u- and z-form trajectories agree only up "
            "to this residual",
            compat["r0"],
            compat["r1"],
        )

    gen = assemble_generator(bundle, form="u")
    stepper = Stepper(gen, dt, scheme)
    n_steps, stride = int(round(T / dt)), int(output_stride)
    n_rec = record_count(T, dt, stride)
    chunk = max(1, _CHUNK_ELEMENTS // n)
    classification = bundle.params.stability_classification()
    forms = _zero_free(bundle)

    # (u, u_t, u_tt) of one chunk of recorded states, node-major: each chunk
    # is sized to its samples, so every component is a contiguous (n, samples)
    # block for the sparse products; overwritten after its evaluation
    buf = np.empty(3 * n * min(chunk, n_rec))
    times = np.empty(n_rec)
    cols = np.empty((8, n_rec))
    # a ring of flat (u, u_t, u_tt, scratch) buffers, as their views: the
    # current state, the one before it (BDF2's history) and the next
    x, prev, out = map(_views, np.empty((3, 4 * n)))
    x[3][:] = (initial.u, initial.v, initial.w)
    t, i = float(initial.t), 0
    for k in range(n_steps + 1):
        if k:
            stepper.advance(x, prev if k > 1 else None, out)
            x, prev, out, t = out, x, prev, t + stepper.dt
        if k % stride and k != n_steps:
            continue
        j = i % chunk
        if j == 0:
            lo, m = i, min(chunk, n_rec - i)
            X = buf[: 3 * n * m].reshape(3, n, m)
        X[:, :, j] = x[3]
        times[i] = t
        i += 1
        if j == m - 1:
            states = X.transpose(0, 2, 1)
            cols[:, lo:i] = _observables(*states, times[lo:i], forms)
            if on_chunk is not None:
                on_chunk(Trajectory(times[lo:i], *cols[:, lo:i], states))

    return Trajectory(
        times,
        *cols,
        compat=compat,
        meta={
            "dt": float(dt),
            "T": float(n_steps * dt),
            "scheme": scheme,
            "output_stride": int(output_stride),
            "gamma_negative": classification == "unstable",
            "stability_classification": classification,
            **stepper.health(initial),
        },
    )
