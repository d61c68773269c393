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

The fields are separable, ``z = a(t) phi(x)`` and ``u_tt = p(t) psi(x)``,
so every term is one trapezoid integral (or end-time jump) of a product
of time factors times one weighted sum over the space quadrature.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import CertificationError
from .geometry import VectorFieldH


@dataclass
class ManufacturedField:
    """Separable closed-form fields ``z = a(t) phi(x)``, ``u_tt = p(t) psi(x)``.

    The time factors ``a``, ``at`` (``a'``), ``att`` (``a''``) and ``p``
    map an array of times to an array of the same shape.  The spatial
    factors take points ``(nq, dim)``: ``phi``, ``lap_phi``, ``psi`` and
    the coefficient ``gamma`` return ``(nq,)``, ``grad_phi`` returns
    ``(nq, dim)``.  The forcing consistent with the z-equation is
    ``f = a'' phi - b a lap_phi + p gamma psi``.
    """

    a: callable
    at: callable
    att: callable
    p: callable
    phi: callable
    grad_phi: callable
    lap_phi: callable
    psi: callable
    gamma: callable
    family: str = "generic"
    meta: dict = field(default_factory=dict)


def trig_1d():
    """Smooth 1D family z = cos(pi x) sin(t) (does not satisfy the BCs)."""
    pi = np.pi
    return ManufacturedField(
        a=np.sin, at=np.cos, att=lambda t: -np.sin(t), p=lambda t: np.sin(2.0 * t),
        phi=lambda x: np.cos(pi * x[:, 0]),
        grad_phi=lambda x: (-pi * np.sin(pi * x[:, 0]))[:, None],
        lap_phi=lambda x: -(pi**2) * np.cos(pi * x[:, 0]),
        psi=lambda x: 1.0 + x[:, 0],
        gamma=lambda x: 0.3 + 0.1 * x[:, 0],
        family="trig-1d",
    )


def trig_2d():
    """Smooth 2D family z = cos(pi x) cos(pi y) sin(t)."""
    pi = np.pi

    def grad_phi(x):
        (cx, cy), (sx, sy) = np.cos(pi * x.T), np.sin(pi * x.T)
        return np.stack([-pi * sx * cy, -pi * cx * sy], axis=1)

    return ManufacturedField(
        a=np.sin, at=np.cos, att=lambda t: -np.sin(t), p=np.cos,
        phi=lambda x: np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
        grad_phi=grad_phi,
        lap_phi=lambda x: -2 * pi**2 * np.cos(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
        psi=lambda x: 1.0 + x[:, 0] * x[:, 1],
        gamma=lambda x: 0.2 + 0.1 * x[:, 1],
        family="trig-2d",
    )


def bc_satisfying_1d():
    """1D separable family satisfying both boundary conditions on (0, 1).

    ``z = X(x) e^{s t}`` with ``X = cos(omega x) + (kappa0/omega)
    sin(omega x)`` (Robin condition at x=0 for free) and the growth rate
    ``s = -X'(1) / (kappa1 X(1))`` enforcing the feedback condition at
    x=1, for ``omega = 1.3`` and ``kappa0 = kappa1 = 1``; ``meta`` holds
    these values and ``s``.
    """
    omega, kappa0, kappa1 = 1.3, 1.0, 1.0

    def X(x):
        return np.cos(omega * x) + (kappa0 / omega) * np.sin(omega * x)

    def Xp(x):
        return -omega * np.sin(omega * x) + kappa0 * np.cos(omega * x)

    X1, Xp1 = X(np.array([1.0]))[0], Xp(np.array([1.0]))[0]
    s = -Xp1 / (kappa1 * X1)
    e = lambda t: np.exp(s * t)
    return ManufacturedField(
        a=e, at=lambda t: s * e(t), att=lambda t: s**2 * e(t), p=e,
        phi=lambda x: X(x[:, 0]),
        grad_phi=lambda x: Xp(x[:, 0])[:, None],
        lap_phi=lambda x: -(omega**2) * X(x[:, 0]),
        psi=lambda x: 1.0 - x[:, 0] ** 2,
        gamma=lambda x: 0.2 * (1.0 + x[:, 0]),
        family="bc-1d",
        meta={"s": float(s), "omega": omega, "kappa0": kappa0, "kappa1": kappa1},
    )


# -- the separable quadrature -------------------------------------------------


def _in_time(fields, times):
    """The time factor of every term: trapezoid integrals over ``times`` of
    ``a'^2``, ``a^2``, ``a''a`` and ``pa`` and the end-time jumps of ``a'a``
    and ``a^2``."""
    times = np.asarray(times, float)
    a, at, att, p = (g(times) for g in (fields.a, fields.at, fields.att, fields.p))
    trap = lambda g: np.trapezoid(g, times)
    return SimpleNamespace(
        at2=trap(at * at), a2=trap(a * a), atta=trap(att * a), pa=trap(p * a),
        jump_ata=at[-1] * a[-1] - at[0] * a[0], jump_a2=a[-1] ** 2 - a[0] ** 2,
    )


def _source_terms(fields, x, wm, b, ti):
    """The ``vol_gamma`` and ``vol_f`` terms, ``int int gamma u_tt m`` and
    ``-int int f m``, for a multiplier with time factor ``a`` whose spatial
    factor times the quadrature weights at the points ``x`` is ``wm``.
    Integrated in time, ``f`` is the rank-3 sum ``a''a phi - b a^2 lap_phi
    + pa gamma psi``.
    """
    gpsi = fields.gamma(x) * fields.psi(x)
    f = ti.atta * fields.phi(x) - b * ti.a2 * fields.lap_phi(x) + ti.pa * gpsi
    return ti.pa * np.sum(wm * gpsi), -np.sum(wm * f)


def _element_points(mesh, rule):
    """Flat element quadrature: points ``(n, dim)`` and weights ``(n,)``."""
    x, w = mesh.element_quadrature(rule or "vertex")
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


def _closed_form(h):
    """The closed-form field behind ``h``, after the certification gate."""
    if not isinstance(h, VectorFieldH):
        return h
    if not h.certified:
        raise CertificationError("multiplier field is not certified")
    if h.analytic is None:
        raise ValueError(
            "identity quadrature needs a field with closed-form "
            "derivatives (analytic backend missing)"
        )
    return h.analytic


def _normalized(terms):
    """``|sum of terms| / max |term|``, reported as 0 at or below
    ``len(terms) * eps``: the rounding bound of the float sum, under
    which the residual has no digits and so no rate."""
    total = sum(terms.values())
    scale = max(max(abs(v) for v in terms.values()), 1e-300)
    residual = abs(total) / scale
    return 0.0 if residual <= len(terms) * np.finfo(float).eps else residual


def residual_hgradz(fields, h, mesh, b, times):
    """Residual of the ``h . grad z`` multiplier identity.

    Computes every term of the integrated-by-parts expansion by
    space-time quadrature and returns their normalized sum together with
    the gamma0 annihilation term ``int int_{gamma0} (z_t^2 - b |grad z|^2)
    (h . nu)``, which must sit at the certification tolerance.
    """
    fld = _closed_form(h)
    ti = _in_time(fields, times)
    xv, wv = _element_points(mesh, None)
    phi, gphi = fields.phi(xv), fields.grad_phi(xv)
    hgp = np.sum(fld(xv) * gphi, axis=1)
    div, grad2 = fld.divergence(xv), np.sum(gphi**2, axis=1)
    J = fld.jacobian(xv)
    jac = np.einsum("ni,nik,nk->n", gphi, J + np.transpose(J, (0, 2, 1)), gphi)

    facets, xb, wb, nu, n0 = _boundary_points(mesh)
    hb = fld(xb).reshape(len(facets), -1, mesh.dim)
    if isinstance(h, VectorFieldH):
        # the certified gamma0 trace replaces the closed form on its facets
        row, k = np.nonzero(facets[:, None] == h.gamma0_facet_index)
        hb[row] = h.gamma0_facet_values[k]
    hb = hb.reshape(-1, mesh.dim)
    gphib = fields.grad_phi(xb)
    whnu = wb * np.sum(hb * nu, axis=1)
    phi2_b = whnu * fields.phi(xb) ** 2
    grad2_b = whnu * np.sum(gphib**2, axis=1)

    terms = {}
    terms["time_boundary"] = ti.jump_ata * np.sum(wv * phi * hgp)
    terms["vol_div_zt2"] = 0.5 * ti.at2 * np.sum(wv * div * phi**2)
    terms["bdy_hnu_zt2"] = -0.5 * ti.at2 * np.sum(phi2_b)
    terms["vol_jacobian"] = (b / 2.0) * ti.a2 * np.sum(wv * jac)
    terms["vol_div_grad2"] = -(b / 2.0) * ti.a2 * np.sum(wv * div * grad2)
    terms["bdy_hnu_grad2"] = (b / 2.0) * ti.a2 * np.sum(grad2_b)
    terms["bdy_dnu"] = -b * ti.a2 * np.sum(
        wb * np.sum(gphib * nu, axis=1) * np.sum(hb * gphib, axis=1)
    )
    terms["vol_gamma"], terms["vol_f"] = _source_terms(fields, xv, wv * hgp, b, ti)

    gamma0_term = abs(ti.at2 * np.sum(phi2_b[:n0]) - b * ti.a2 * np.sum(grad2_b[:n0]))
    return {"residual": _normalized(terms), "terms": terms, "gamma0_term": gamma0_term}


def residual_zdivh(fields, h, mesh, b, times):
    """Residual of the ``(1/2) z div h`` multiplier identity.

    Includes the ``grad(div h)`` volume term, reported separately (it
    vanishes identically for fields with constant divergence).
    """
    fld = _closed_form(h)
    ti = _in_time(fields, times)
    xv, wv = _element_points(mesh, None)
    phi, gphi = fields.phi(xv), fields.grad_phi(xv)
    wdiv = wv * fld.divergence(xv)
    gdiv = np.sum(gphi * fld.grad_divergence(xv), axis=1)
    _, xb, wb, nu, _ = _boundary_points(mesh)
    dnu_b = wb * np.sum(fields.grad_phi(xb) * nu, axis=1) * fields.phi(xb) * fld.divergence(xb)

    terms = {}
    terms["time_boundary"] = 0.5 * ti.jump_ata * np.sum(wdiv * phi**2)
    terms["vol_zt2"] = -0.5 * ti.at2 * np.sum(wdiv * phi**2)
    terms["vol_grad2"] = (b / 2.0) * ti.a2 * np.sum(wdiv * np.sum(gphi**2, axis=1))
    terms["vol_graddiv"] = (b / 2.0) * ti.a2 * np.sum(wv * phi * gdiv)
    terms["bdy_dnu"] = -(b / 2.0) * ti.a2 * np.sum(dnu_b)
    terms["vol_gamma"], terms["vol_f"] = _source_terms(fields, xv, 0.5 * wdiv * phi, b, ti)
    graddiv = abs(terms["vol_graddiv"])
    return {"residual": _normalized(terms), "terms": terms, "graddiv_term": graddiv}


def residual_zmul(fields, mesh, b, kappa0, kappa1, times, space_rule=None):
    """Residual of the plain ``z`` multiplier identity, BCs substituted.

    Requires fields whose trace satisfies both boundary conditions (the
    Robin condition on gamma0 and the velocity feedback on gamma1); the
    boundary terms then appear as ``b int_{gamma0} kappa0 z^2`` and the
    time-boundary gamma1 term ``(b/2) [int_{gamma1} kappa1 z^2]``, with
    the constant coefficients ``kappa0`` and ``kappa1``.
    """
    ti = _in_time(fields, times)
    xv, wv = _element_points(mesh, space_rule)
    phi = fields.phi(xv)
    _, xb, wb, _, n0 = _boundary_points(mesh)
    phi2_b = wb * fields.phi(xb) ** 2

    terms = {}
    terms["time_boundary"] = ti.jump_ata * np.sum(wv * phi**2)
    terms["vol_zt2"] = -ti.at2 * np.sum(wv * phi**2)
    terms["vol_grad2"] = b * ti.a2 * np.sum(wv * np.sum(fields.grad_phi(xv) ** 2, axis=1))
    terms["gamma0_robin"] = b * ti.a2 * np.sum(kappa0 * phi2_b[:n0])
    terms["gamma1_feedback"] = (b / 2.0) * ti.jump_a2 * np.sum(kappa1 * phi2_b[n0:])
    terms["vol_gamma"], terms["vol_f"] = _source_terms(fields, xv, wv * phi, b, ti)
    return {"residual": _normalized(terms), "terms": terms}


def refinement_slope(residuals):
    """Least-squares slope of log(residual) against log(1/h), h halving
    from one residual to the next.

    Raises ``ValueError`` when a residual is zero, negative or not finite:
    no rate is defined then.
    """
    r = np.asarray(residuals, float)
    if not (np.isfinite(r) & (r > 0)).all():
        raise ValueError("residuals must be positive and finite to define a rate")
    n = len(r)
    A = np.column_stack([np.ones(n), np.log(2.0) * np.arange(n)])
    coef, *_ = np.linalg.lstsq(A, np.log(r), rcond=None)
    return -float(coef[1])
