"""Quadrature verification of the integration-by-parts multiplier identities.

Each identity is the space-time expansion obtained by multiplying the
damped-wave form ``z_tt - b Lap z + gamma u_tt = f`` by a multiplier
(``h . grad z``, ``(1/2) z div h`` or ``z``) and integrating by parts.
Closed-form manufactured fields make every term computable by
quadrature: ``f`` is defined from the other fields so the equation holds
exactly, so the only error left is the quadrature error, which must
converge at second order under joint space/time refinement.  Boundary
terms are kept in their raw form with the normal derivative explicit,
except for the ``z``-multiplier identity which substitutes both boundary
conditions and therefore needs boundary-condition-satisfying fields.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dynamics import _CHUNK_ELEMENTS
from .errors import CertificationError
from .geometry import VectorFieldH


@dataclass
class ManufacturedField:
    """Closed-form space-time fields for identity checks.

    All callables are vectorized and broadcast over a leading time axis:
    time-dependent ones take ``(t, x)`` with ``t`` of shape ``(nt, 1)``
    (or a scalar) and ``x`` of shape ``(nq, dim)``, and return values of
    shape ``(nt, nq)`` and gradients of shape ``(nt, nq, dim)``; a field
    that does not depend on time may return ``(nq,)`` (``(nq, dim)``).
    ``gamma`` takes ``x`` only.  The forcing consistent with the
    z-equation is ``f = z_tt - b lap_z + gamma u_tt``.
    """

    z: callable
    zt: callable
    ztt: callable
    grad_z: callable
    lap_z: callable
    gamma: callable
    utt: callable
    family: str = "generic"
    meta: dict = field(default_factory=dict)

    def f(self, t, x, b):
        return self.ztt(t, x) - b * self.lap_z(t, x) + self.gamma(x) * self.utt(t, x)


def trig_1d():
    """Smooth 1D family z = cos(pi x) sin(t) (does not satisfy the BCs)."""
    pi = np.pi
    return ManufacturedField(
        z=lambda t, x: np.cos(pi * x[:, 0]) * np.sin(t),
        zt=lambda t, x: np.cos(pi * x[:, 0]) * np.cos(t),
        ztt=lambda t, x: -np.cos(pi * x[:, 0]) * np.sin(t),
        grad_z=lambda t, x: (-pi * np.sin(pi * x[:, 0]) * np.sin(t))[..., None],
        lap_z=lambda t, x: -(pi**2) * np.cos(pi * x[:, 0]) * np.sin(t),
        gamma=lambda x: 0.3 + 0.1 * x[:, 0],
        utt=lambda t, x: (1.0 + x[:, 0]) * np.sin(2.0 * t),
        family="trig-1d",
    )


def trig_2d():
    """Smooth 2D family z = cos(pi x) cos(pi y) sin(t)."""
    pi = np.pi

    def gz(t, x):
        return np.stack(
            [
                -pi * np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]) * np.sin(t),
                -pi * np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]) * np.sin(t),
            ],
            axis=-1,
        )

    return ManufacturedField(
        z=lambda t, x: np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) * np.sin(t),
        zt=lambda t, x: np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) * np.cos(t),
        ztt=lambda t, x: -np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) * np.sin(t),
        grad_z=gz,
        lap_z=lambda t, x: -2 * pi**2 * np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]) * np.sin(t),
        gamma=lambda x: 0.2 + 0.1 * x[:, 1],
        utt=lambda t, x: (1.0 + x[:, 0] * x[:, 1]) * np.cos(t),
        family="trig-2d",
    )


def bc_satisfying_1d(omega=1.3, kappa0=1.0, kappa1=1.0):
    """1D separable family satisfying both boundary conditions on (0, 1).

    ``z = X(x) e^{s t}`` with ``X = cos(omega x) + (kappa0/omega)
    sin(omega x)`` (Robin condition at x=0 for free) and the growth rate
    ``s = -X'(1) / (kappa1 X(1))`` enforcing the feedback condition at
    x=1.
    """

    def X(x):
        return np.cos(omega * x) + (kappa0 / omega) * np.sin(omega * x)

    def Xp(x):
        return -omega * np.sin(omega * x) + kappa0 * np.cos(omega * x)

    X1, Xp1 = X(np.array([1.0]))[0], Xp(np.array([1.0]))[0]
    if abs(X1) < 1e-8:
        raise ValueError("degenerate family: X(1) ~ 0, pick another omega")
    s = -Xp1 / (kappa1 * X1)
    fld = ManufacturedField(
        z=lambda t, x: X(x[:, 0]) * np.exp(s * t),
        zt=lambda t, x: s * X(x[:, 0]) * np.exp(s * t),
        ztt=lambda t, x: s**2 * X(x[:, 0]) * np.exp(s * t),
        grad_z=lambda t, x: (Xp(x[:, 0]) * np.exp(s * t))[..., None],
        lap_z=lambda t, x: -(omega**2) * X(x[:, 0]) * np.exp(s * t),
        gamma=lambda x: 0.2 * (1.0 + x[:, 0]),
        utt=lambda t, x: (1.0 - x[:, 0] ** 2) * np.exp(s * t),
        family="bc-1d",
    )
    fld.meta.update({"s": float(s), "omega": omega, "kappa0": kappa0, "kappa1": kappa1})
    return fld


def static_poly_1d(b=1.0, kappa0=2.0):
    """Static polynomial z = -x^2 + 2x + 1 (Robin at x=0 with kappa0=2).

    Time-independent, so the z-multiplier identity collapses to the
    elliptic balance; with Simpson quadrature every integral is exact.
    """
    zero = lambda t, x: np.zeros(len(x))
    return ManufacturedField(
        z=lambda t, x: -x[:, 0] ** 2 + 2 * x[:, 0] + 1.0,
        zt=zero,
        ztt=zero,
        grad_z=lambda t, x: (2.0 - 2.0 * x[:, 0])[..., None],
        lap_z=lambda t, x: np.full(len(x), -2.0),
        gamma=lambda x: np.full(len(x), 0.5),
        utt=lambda t, x: x[:, 0] + 0.5,
        family="static-poly-1d",
        meta={"kappa0": kappa0, "b": b},
    )


# -- the space-time quadrature kernel ---------------------------------------


def _kernel(x, w, times):
    """The space-time quadrature kernel on one flat point set ``(x, w)``.

    For a closure ``g(t, x) -> (nt, nq)`` (see :class:`ManufacturedField`),
    ``integral(g)`` is the trapezoid-in-time integral over ``times`` of
    the series ``S(t) = sum_q w_q g(t, x_q)`` and ``jump(g)`` is its
    end-time difference ``S(times[-1]) - S(times[0])``.  ``g`` is called
    once per chunk of at most ``_CHUNK_ELEMENTS // nq`` times (at least
    one), given as a column; a static ``g`` is summed once per chunk.
    """
    rows = max(1, _CHUNK_ELEMENTS // len(w))

    def series(g, at):
        chunks = np.split(at[:, None], range(rows, len(at), rows))
        sums = [np.broadcast_to(np.sum(g(t, x) * w, axis=-1), len(t)) for t in chunks]
        return np.concatenate(sums)

    def integral(g):
        return np.trapezoid(series(g, times), times)

    def jump(g):
        end, start = series(g, times[[-1, 0]])
        return end - start

    return integral, jump


def _element_points(mesh, rule):
    """Flat element quadrature: points ``(n, dim)`` and weights ``(n,)``."""
    x, w = mesh.element_quadrature(rule or ("trapezoid" if mesh.dim == 1 else "vertex"))
    return x.reshape(-1, mesh.dim), w.ravel()


def _boundary_points(mesh):
    """Flat facet quadrature of the gamma0 facets followed by the gamma1 ones.

    Returns the facet subset, the points, the weights, the outward
    normal at every point and the number of points on gamma0 (they come
    first).
    """
    facets = np.concatenate([mesh.gamma0_facets, mesh.gamma1_facets])
    x, w = mesh.facet_quadrature()
    nq = w.shape[1]
    x, w = x[facets].reshape(-1, mesh.dim), w[facets].ravel()
    nu = np.repeat(mesh.facet_normals[facets], nq, axis=0)
    return facets, x, w, nu, len(mesh.gamma0_facets) * nq


def _closed_form(h, allow_uncertified):
    """The closed-form field behind ``h``, after the certification gate."""
    if not isinstance(h, VectorFieldH):
        return h
    if not allow_uncertified and not h.certified:
        raise CertificationError("multiplier field is not certified")
    if h.analytic is None:
        raise ValueError(
            "identity quadrature needs a field with closed-form "
            "derivatives (analytic backend missing)"
        )
    return h.analytic


def _normalized(terms):
    total = sum(terms.values())
    scale = max(max(abs(v) for v in terms.values()), 1e-300)
    return abs(total) / scale


def residual_hgradz(fields, h, mesh, b, times, space_rule=None, allow_uncertified=False):
    """Residual of the ``h . grad z`` multiplier identity.

    Computes every term of the integrated-by-parts expansion by
    space-time quadrature and returns their normalized sum together with
    the gamma0 annihilation term ``int int_{gamma0} (z_t^2 - b |grad z|^2)
    (h . nu)``, which must sit at the certification tolerance.
    """
    fld = _closed_form(h, allow_uncertified)
    times = np.asarray(times, float)
    xv, wv = _element_points(mesh, space_rule)
    vol, vol_jump = _kernel(xv, wv, times)
    hv, div, gam = fld(xv), fld.divergence(xv), fields.gamma(xv)
    J = fld.jacobian(xv)
    Jsym2 = J + np.transpose(J, (0, 2, 1))

    facets, xb, wb, nu, n0 = _boundary_points(mesh)
    hb = fld(xb).reshape(len(facets), -1, mesh.dim)
    if isinstance(h, VectorFieldH):
        # the certified gamma0 trace replaces the closed form on its facets
        row, k = np.nonzero(facets[:, None] == h.gamma0_facet_index)
        hb[row] = h.gamma0_facet_values[k]
    hb = hb.reshape(-1, mesh.dim)
    hnu = np.sum(hb * nu, axis=1)
    bdy, _ = _kernel(xb, wb, times)
    gamma0, _ = _kernel(xb[:n0], wb[:n0], times)

    hgz = lambda t, x: np.sum(hv * fields.grad_z(t, x), axis=-1)
    grad2 = lambda t, x: np.sum(fields.grad_z(t, x) ** 2, axis=-1)

    terms = {}
    terms["time_boundary"] = vol_jump(lambda t, x: fields.zt(t, x) * hgz(t, x))
    terms["vol_div_zt2"] = 0.5 * vol(lambda t, x: div * fields.zt(t, x) ** 2)
    terms["bdy_hnu_zt2"] = -0.5 * bdy(lambda t, x: hnu * fields.zt(t, x) ** 2)
    terms["vol_jacobian"] = (b / 2.0) * vol(
        lambda t, x: np.einsum(
            "...ni,nik,...nk->...n", fields.grad_z(t, x), Jsym2, fields.grad_z(t, x)
        )
    )
    terms["vol_div_grad2"] = -(b / 2.0) * vol(lambda t, x: div * grad2(t, x))
    terms["bdy_hnu_grad2"] = (b / 2.0) * bdy(lambda t, x: hnu * grad2(t, x))
    terms["bdy_dnu"] = -b * bdy(
        lambda t, x: np.sum(fields.grad_z(t, x) * nu, axis=-1)
        * np.sum(hb * fields.grad_z(t, x), axis=-1)
    )
    terms["vol_gamma"] = vol(lambda t, x: gam * fields.utt(t, x) * hgz(t, x))
    terms["vol_f"] = -vol(lambda t, x: fields.f(t, x, b) * hgz(t, x))

    gamma0_term = abs(
        gamma0(lambda t, x: (fields.zt(t, x) ** 2 - b * grad2(t, x)) * hnu[:n0])
    )
    return {"residual": _normalized(terms), "terms": terms, "gamma0_term": gamma0_term}


def residual_zdivh(fields, h, mesh, b, times, space_rule=None, allow_uncertified=False):
    """Residual of the ``(1/2) z div h`` multiplier identity.

    Includes the ``grad(div h)`` volume term, reported separately (it
    vanishes identically for fields with constant divergence).
    """
    fld = _closed_form(h, allow_uncertified)
    times = np.asarray(times, float)
    xv, wv = _element_points(mesh, space_rule)
    vol, vol_jump = _kernel(xv, wv, times)
    div, gdiv, gam = fld.divergence(xv), fld.grad_divergence(xv), fields.gamma(xv)
    _, xb, wb, nu, _ = _boundary_points(mesh)
    bdy, _ = _kernel(xb, wb, times)
    div_b = fld.divergence(xb)

    terms = {}
    terms["time_boundary"] = 0.5 * vol_jump(lambda t, x: fields.zt(t, x) * fields.z(t, x) * div)
    terms["vol_zt2"] = -0.5 * vol(lambda t, x: fields.zt(t, x) ** 2 * div)
    terms["vol_grad2"] = (b / 2.0) * vol(
        lambda t, x: np.sum(fields.grad_z(t, x) ** 2, axis=-1) * div
    )
    terms["vol_graddiv"] = (b / 2.0) * vol(
        lambda t, x: fields.z(t, x) * np.sum(fields.grad_z(t, x) * gdiv, axis=-1)
    )
    terms["bdy_dnu"] = -(b / 2.0) * bdy(
        lambda t, x: np.sum(fields.grad_z(t, x) * nu, axis=-1) * fields.z(t, x) * div_b
    )
    terms["vol_gamma"] = 0.5 * vol(lambda t, x: gam * fields.utt(t, x) * fields.z(t, x) * div)
    terms["vol_f"] = -0.5 * vol(lambda t, x: fields.f(t, x, b) * fields.z(t, x) * div)
    return {
        "residual": _normalized(terms),
        "terms": terms,
        "graddiv_term": abs(terms["vol_graddiv"]),
    }


def residual_zmul(fields, mesh, b, kappa0, kappa1, times, space_rule=None):
    """Residual of the plain ``z`` multiplier identity, BCs substituted.

    Requires fields whose trace satisfies both boundary conditions (the
    Robin condition on gamma0 and the velocity feedback on gamma1); the
    boundary terms then appear as ``b int_{gamma0} kappa0 z^2`` and the
    time-boundary gamma1 term ``(b/2) [int_{gamma1} kappa1 z^2]``.
    """
    times = np.asarray(times, float)
    xv, wv = _element_points(mesh, space_rule)
    vol, vol_jump = _kernel(xv, wv, times)
    gam = fields.gamma(xv)
    _, xb, wb, _, n0 = _boundary_points(mesh)
    robin, _ = _kernel(xb[:n0], wb[:n0], times)
    _, feedback = _kernel(xb[n0:], wb[n0:], times)
    k0 = kappa0(xb[:n0]) if callable(kappa0) else float(kappa0)
    k1 = kappa1(xb[n0:]) if callable(kappa1) else float(kappa1)

    terms = {}
    terms["time_boundary"] = vol_jump(lambda t, x: fields.zt(t, x) * fields.z(t, x))
    terms["vol_zt2"] = -vol(lambda t, x: fields.zt(t, x) ** 2)
    terms["vol_grad2"] = b * vol(lambda t, x: np.sum(fields.grad_z(t, x) ** 2, axis=-1))
    terms["gamma0_robin"] = b * robin(lambda t, x: k0 * fields.z(t, x) ** 2)
    terms["gamma1_feedback"] = (b / 2.0) * feedback(lambda t, x: k1 * fields.z(t, x) ** 2)
    terms["vol_gamma"] = vol(lambda t, x: gam * fields.utt(t, x) * fields.z(t, x))
    terms["vol_f"] = -vol(lambda t, x: fields.f(t, x, b) * fields.z(t, x))
    return {"residual": _normalized(terms), "terms": terms}


def refinement_slope(residuals, factors=None):
    """Least-squares slope of log(residual) against log(1/h).

    Raises ``ValueError`` when a residual is zero, negative or not finite:
    no rate is defined then.
    """
    r = np.asarray(residuals, float)
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("residuals must be positive and finite to define a rate")
    n = len(r)
    x = np.log(np.asarray(factors, float)) if factors is not None else np.log(2.0) * np.arange(n)
    A = np.column_stack([np.ones(n), x])
    coef, *_ = np.linalg.lstsq(A, np.log(r), rcond=None)
    return -float(coef[1])


def reconstruction_diagnostic(trajectory, bundle, params, window, delta=0.25, source=None):
    """Observability-style diagnostic: integrated energy vs its bounders.

    Computes ``int_s^{T-s} E1 dt`` and the terms that dominate it
    (endpoint energies, integrated boundary/interior dissipation,
    integrated forcing, and a lower-order term surrogate: the
    time-integrated spectral fractional norm ``||z||^2_{1-delta}`` built
    from the generalized eigenpairs of (Ktilde, M)).  Reports the
    smallest constant making the inequality hold for this run.
    """
    t = trajectory.times
    s, te = window
    i0 = int(np.searchsorted(t, s))
    i1 = min(int(np.searchsorted(t, te)), len(t) - 1)
    if i1 <= i0 + 1:
        raise ValueError("window too narrow for the stored samples")
    sl = slice(i0, i1 + 1)

    lhs = float(np.trapezoid(trajectory.E1[sl], t[sl]))
    terms = {
        "E1_start": float(trajectory.E1[i0]),
        "E1_end": float(trajectory.E1[i1]),
        "boundary_dissipation": float(np.trapezoid(trajectory.D_boundary[sl], t[sl])),
        "interior_dissipation": float(np.trapezoid(trajectory.D_interior[sl], t[sl])),
    }
    if source is None:
        terms["forcing"] = 0.0
    else:
        M = bundle.Mmat
        f2 = [float(source(ti) @ (M @ source(ti))) for ti in t[sl]]
        terms["forcing"] = float(np.trapezoid(f2, t[sl]))

    if trajectory.states is None:
        raise ValueError("reconstruction diagnostic needs stored state snapshots")
    K = bundle.Ktilde.toarray()
    M = bundle.Mmat.toarray()
    lam, V = scipy.linalg.eigh(K, M)
    lam = np.maximum(lam, 0.0)
    q = params.q
    z_samples = trajectory.states[1, sl] + q * trajectory.states[0, sl]
    coords = z_samples @ (M @ V)
    frac = (coords**2) @ (lam ** (1.0 - delta))
    terms["lot_surrogate"] = float(np.trapezoid(frac, t[sl]))

    rhs_total = sum(terms.values())
    implied_C = lhs / rhs_total if rhs_total > 0 else np.inf
    return {
        "lhs": lhs,
        "rhs_terms": terms,
        "implied_C": float(implied_C),
        "delta": float(delta),
        "lot_definition": "time-integrated spectral fractional norm of z (own surrogate)",
    }
