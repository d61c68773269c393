"""Multiplier identity residuals on manufactured solutions.

Each identity is an exact statement about smooth fields; discretizing
space and time with second-order rules must shrink the normalized
residual at O(h^2) under simultaneous refinement. The gamma0
annihilation term uses the certified tangential trace and has to vanish
identically, not just converge.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import mgtstab as M
from mgtstab import multiplier
from mgtstab.errors import CertificationError
from mgtstab.geometry import RadialField, VectorFieldH

from conftest import interval_config, static_poly_1d


def interval_mesh(r):
    scen = M.Scenario(interval_config(mesh={"resolution": r}))
    return scen.geometry, scen.mesh


def run_levels_1d(which, levels=3):
    fields = M.trig_1d()
    out = []
    for lvl in range(levels):
        r = 32 * 2**lvl
        geo, mesh = interval_mesh(r)
        h = M.build_vector_field_h(geo, mesh, 0.5)
        times = np.linspace(0.0, 2.0, 41 * 2**lvl - 2**lvl + 1)
        res = which(fields, h, mesh, 1.0, times)
        out.append(res)
    return out


# ------------------------------------------------------------------- 1d


def test_hgradz_second_order_1d():
    outs = run_levels_1d(M.residual_hgradz)
    slope = M.refinement_slope([o["residual"] for o in outs])
    assert slope >= 1.9, (slope, [o["residual"] for o in outs])
    for o in outs:
        assert o["gamma0_term"] <= 1e-9


def test_zdivh_second_order_1d():
    outs = run_levels_1d(M.residual_zdivh)
    slope = M.refinement_slope([o["residual"] for o in outs])
    assert slope >= 1.9, slope


def test_zmul_second_order_1d():
    fields = M.bc_satisfying_1d()
    k0, k1 = fields.meta["kappa0"], fields.meta["kappa1"]
    residuals = []
    for lvl in range(3):
        _, mesh = interval_mesh(32 * 2**lvl)
        times = np.linspace(0.0, 2.0, 41 * 2**lvl - 2**lvl + 1)
        out = M.residual_zmul(fields, mesh, 1.0, k0, k1, times)
        residuals.append(out["residual"])
    slope = M.refinement_slope(residuals)
    assert slope >= 1.9, (slope, residuals)


def test_zmul_exact_for_static_polynomial():
    # quadratic z with Simpson volume quadrature: every term integrates
    # exactly, so the identity holds to roundoff at a coarse resolution
    fields = static_poly_1d()
    _, mesh = interval_mesh(8)
    times = np.linspace(0.0, 1.0, 5)
    out = M.residual_zmul(
        fields, mesh, fields.meta["b"], fields.meta["kappa0"], 1.0, times,
        space_rule="simpson",
    )
    assert out["residual"] <= 1e-12, out


def test_zmul_terms_reported():
    fields = M.bc_satisfying_1d()
    _, mesh = interval_mesh(32)
    times = np.linspace(0.0, 1.0, 21)
    out = M.residual_zmul(fields, mesh, 1.0, 1.0, 1.0, times)
    for key in ("gamma0_robin", "gamma1_feedback", "vol_zt2", "vol_grad2"):
        assert key in out["terms"]
    assert out["terms"]["gamma0_robin"] != 0.0


# ------------------------------------------------------------------- 2d


def test_identities_second_order_2d():
    geo = M.named_geometry("unit-square")
    fields = M.trig_2d()
    res_h, res_z = [], []
    for r, nt in ((8, 21), (16, 41), (32, 81)):
        mesh = M.build_mesh(geo, r)
        h = M.build_vector_field_h(geo, mesh, 0.3)
        times = np.linspace(0.0, 1.0, nt)
        out_h = M.residual_hgradz(fields, h, mesh, 1.0, times)
        out_z = M.residual_zdivh(fields, h, mesh, 1.0, times)
        assert out_h["gamma0_term"] <= 1e-9
        res_h.append(out_h["residual"])
        res_z.append(out_z["residual"])
    assert M.refinement_slope(res_h) >= 1.8, res_h
    assert M.refinement_slope(res_z) >= 1.8, res_z


# ------------------------------------------- the per-sample reference


def per_sample_kernel(x, w, times):
    """Reference kernel: one closure call per time sample."""

    def series(g, at):
        return np.array([np.sum(g(t, x) * w) for t in at])

    def integral(g):
        return np.trapezoid(series(g, times), times)

    def jump(g):
        end, start = series(g, times[[-1, 0]])
        return end - start

    return integral, jump


def pointwise(fld):
    """``(t, x)`` closures of the full fields, built from the factors of a
    separable family; ``t`` is one time sample."""
    z = lambda t, x: fld.a(t) * fld.phi(x)
    zt = lambda t, x: fld.at(t) * fld.phi(x)
    ztt = lambda t, x: fld.att(t) * fld.phi(x)
    lap_z = lambda t, x: fld.a(t) * fld.lap_phi(x)
    utt = lambda t, x: fld.p(t) * fld.psi(x)
    return SimpleNamespace(
        z=z,
        zt=zt,
        grad_z=lambda t, x: fld.a(t) * fld.grad_phi(x),
        gamma=fld.gamma,
        utt=utt,
        f=lambda t, x, b: ztt(t, x) - b * lap_z(t, x) + fld.gamma(x) * utt(t, x),
    )


def reference_terms(fld, h, mesh, b, times):
    """Every term of the three identities in closure form, summed by the
    per-sample kernel: the quadrature the separable one must reproduce."""
    fields, ana = pointwise(fld), h.analytic
    xv, wv = multiplier._element_points(mesh, None)
    vol, vol_jump = per_sample_kernel(xv, wv, times)
    hv, div, gam = ana(xv), ana.divergence(xv), fields.gamma(xv)
    gdiv, J = ana.grad_divergence(xv), ana.jacobian(xv)
    Jsym2 = J + np.transpose(J, (0, 2, 1))
    facets, xb, wb, nu, n0 = multiplier._boundary_points(mesh)
    hb = ana(xb).reshape(len(facets), -1, mesh.dim)
    row, k = np.nonzero(facets[:, None] == h.gamma0_facet_index)
    hb[row] = h.gamma0_facet_values[k]
    hb = hb.reshape(-1, mesh.dim)
    hnu, div_b = np.sum(hb * nu, axis=1), ana.divergence(xb)
    bdy, _ = per_sample_kernel(xb, wb, times)
    gamma0, _ = per_sample_kernel(xb[:n0], wb[:n0], times)
    _, feedback = per_sample_kernel(xb[n0:], wb[n0:], times)
    z, zt, gz, utt, f = fields.z, fields.zt, fields.grad_z, fields.utt, fields.f
    hgz = lambda t, x: np.sum(hv * gz(t, x), axis=-1)
    grad2 = lambda t, x: np.sum(gz(t, x) ** 2, axis=-1)
    dnu = lambda t, x: np.sum(gz(t, x) * nu, axis=-1)

    hgradz = {
        "time_boundary": vol_jump(lambda t, x: zt(t, x) * hgz(t, x)),
        "vol_div_zt2": 0.5 * vol(lambda t, x: div * zt(t, x) ** 2),
        "bdy_hnu_zt2": -0.5 * bdy(lambda t, x: hnu * zt(t, x) ** 2),
        "vol_jacobian": (b / 2.0) * vol(
            lambda t, x: np.einsum("...ni,nik,...nk->...n", gz(t, x), Jsym2, gz(t, x))
        ),
        "vol_div_grad2": -(b / 2.0) * vol(lambda t, x: div * grad2(t, x)),
        "bdy_hnu_grad2": (b / 2.0) * bdy(lambda t, x: hnu * grad2(t, x)),
        "bdy_dnu": -b * bdy(lambda t, x: dnu(t, x) * np.sum(hb * gz(t, x), axis=-1)),
        "vol_gamma": vol(lambda t, x: gam * utt(t, x) * hgz(t, x)),
        "vol_f": -vol(lambda t, x: f(t, x, b) * hgz(t, x)),
    }
    gamma0_term = abs(gamma0(lambda t, x: (zt(t, x) ** 2 - b * grad2(t, x)) * hnu[:n0]))
    zdivh = {
        "time_boundary": 0.5 * vol_jump(lambda t, x: zt(t, x) * z(t, x) * div),
        "vol_zt2": -0.5 * vol(lambda t, x: zt(t, x) ** 2 * div),
        "vol_grad2": (b / 2.0) * vol(lambda t, x: grad2(t, x) * div),
        "vol_graddiv": (b / 2.0) * vol(
            lambda t, x: z(t, x) * np.sum(gz(t, x) * gdiv, axis=-1)
        ),
        "bdy_dnu": -(b / 2.0) * bdy(lambda t, x: dnu(t, x) * z(t, x) * div_b),
        "vol_gamma": 0.5 * vol(lambda t, x: gam * utt(t, x) * z(t, x) * div),
        "vol_f": -0.5 * vol(lambda t, x: f(t, x, b) * z(t, x) * div),
    }
    zmul = {
        "time_boundary": vol_jump(lambda t, x: zt(t, x) * z(t, x)),
        "vol_zt2": -vol(lambda t, x: zt(t, x) ** 2),
        "vol_grad2": b * vol(grad2),
        "gamma0_robin": b * gamma0(lambda t, x: 1.1 * z(t, x) ** 2),
        "gamma1_feedback": (b / 2.0) * feedback(lambda t, x: 0.7 * z(t, x) ** 2),
        "vol_gamma": vol(lambda t, x: gam * utt(t, x) * z(t, x)),
        "vol_f": -vol(lambda t, x: f(t, x, b) * z(t, x)),
    }
    return hgradz, gamma0_term, zdivh, zmul


FAMILIES = {
    "trig-1d": (M.trig_1d, (1, 2)),
    "trig-2d": (M.trig_2d, (2,)),
    "bc-1d": (M.bc_satisfying_1d, (1, 2)),
    "static-poly-1d": (static_poly_1d, (1, 2)),
}


@pytest.mark.parametrize("dim", [1, 2])
def test_residuals_equal_the_per_sample_kernel(dim):
    # every family on a 1D or 2D mesh: the separable quadrature is the same
    # discrete quantity as the closure-form one with a different rounding,
    # so every term agrees to 1e-14 of the largest term of its identity,
    # the einsum Jacobian term and the certified gamma0 trace included
    if dim == 1:
        geo, mesh = interval_mesh(64)
    else:
        geo = M.named_geometry("half-disk")
        mesh = M.build_mesh(geo, 4)
    h = M.build_vector_field_h(geo, mesh, 0.3)
    b, times = 1.3, np.linspace(0.0, 2.0, 41)
    families = [make() for make, dims in FAMILIES.values() if dim in dims]
    assert len(families) == (3 if dim == 1 else 4)
    for fld in families:
        ref_h, ref_gamma0, ref_z, ref_m = reference_terms(fld, h, mesh, b, times)
        out_h = M.residual_hgradz(fld, h, mesh, b, times)
        out_z = M.residual_zdivh(fld, h, mesh, b, times)
        out_m = M.residual_zmul(fld, mesh, b, 1.1, 0.7, times)
        for ref, out in ((ref_h, out_h), (ref_z, out_z), (ref_m, out_m)):
            assert list(out["terms"]) == list(ref)
            scale = max(abs(v) for v in ref.values())
            for key, val in ref.items():
                assert abs(out["terms"][key] - val) <= 1e-14 * scale, (fld.family, key)
            assert abs(out["residual"] - multiplier._normalized(ref)) <= 1e-14, fld.family
        assert abs(out_h["gamma0_term"] - ref_gamma0) <= 1e-14 * max(map(abs, ref_h.values()))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_factors_are_derivatives_of_each_other(family):
    # a', a'' and grad phi, lap phi against central differences: the
    # factors define every term, so a wrong one would bend the identities
    fld = FAMILIES[family][0]()
    t, dt = np.linspace(0.1, 1.9, 7), 1e-5
    for g, dg in ((fld.a, fld.at), (fld.at, fld.att)):
        np.testing.assert_allclose((g(t + dt) - g(t - dt)) / (2 * dt), dg(t), atol=1e-8)
    x = np.random.default_rng(3).uniform(0.05, 0.95, (9, 2))
    grad = fld.grad_phi(x)
    dx, lap = 1e-4, np.zeros(len(x))
    for i in range(grad.shape[1]):
        e = np.zeros(2)
        e[i] = dx
        up, mid, down = fld.phi(x + e), fld.phi(x), fld.phi(x - e)
        np.testing.assert_allclose((up - down) / (2 * dx), grad[:, i], atol=1e-7)
        lap += (up - 2 * mid + down) / dx**2
    np.testing.assert_allclose(lap, fld.lap_phi(x), atol=1e-5)


def test_residual_within_the_rounding_bound_of_its_sum_is_zero():
    # |sum| / max|term| at or below len(terms) * eps carries no digits
    eps = np.finfo(float).eps
    terms = {"a": 1.0, "b": -1.0, "c": 3 * eps}
    assert multiplier._normalized(terms) == 0.0
    terms["c"] = 4 * eps
    assert multiplier._normalized(terms) == 4 * eps


# ----------------------------------------------------------- gatekeeping


def test_uncertified_field_rejected():
    geo, mesh = interval_mesh(16)
    certified = M.build_vector_field_h(geo, mesh, 0.5)
    raw = dataclasses.replace(certified, certified_c0=None, max_normal_trace_on_gamma0=None)
    assert not raw.certified
    fields = M.trig_1d()
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(CertificationError):
        M.residual_hgradz(fields, raw, mesh, 1.0, times)


def test_certified_gamma0_trace_annihilates_the_gamma0_term():
    # zero stored gamma0 values must replace the closed-form trace of the
    # radial field, which is not tangential on the bottom side
    geo = M.named_geometry("unit-square")
    mesh = M.build_mesh(geo, 8)
    fields = M.trig_2d()
    times = np.linspace(0.0, 1.0, 11)
    radial = RadialField(geo.x0)
    g0 = mesh.gamma0_facets
    n_points = mesh.facet_quadrature()[1].shape[1]
    zeros = VectorFieldH(
        np.zeros((mesh.n_nodes, 2)), g0, np.zeros((len(g0), n_points, 2)),
        analytic=radial, certified_c0=1.0, max_normal_trace_on_gamma0=0.0,
    )
    assert zeros.certified
    out = M.residual_hgradz(fields, zeros, mesh, 1.0, times)
    assert out["gamma0_term"] == 0.0
    bare = M.residual_hgradz(fields, radial, mesh, 1.0, times)
    assert bare["gamma0_term"] > 0.1


def test_curved_field_needs_closed_form_derivatives():
    geo = M.named_geometry("transducer")
    mesh = M.build_mesh(geo, 8)
    h = M.build_vector_field_h(geo, mesh, 0.35)
    assert h.analytic is None
    fields = M.trig_2d()
    with pytest.raises(ValueError):
        M.residual_hgradz(fields, h, mesh, 1.0, np.linspace(0.0, 1.0, 5))


# ----------------------------------------------------------- diagnostics


def test_refinement_slope_recovers_exact_order():
    res = [1.0 / 4**k for k in range(4)]
    assert M.refinement_slope(res) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.inf, np.nan])
def test_refinement_slope_rejects_undefined_rates(bad):
    with pytest.raises(ValueError):
        M.refinement_slope([1e-2, bad, 1e-4])
