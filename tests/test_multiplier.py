"""Multiplier identity residuals on manufactured solutions.

Each identity is an exact statement about smooth fields; discretizing
space and time with second-order rules must shrink the normalized
residual at O(h^2) under simultaneous refinement. The gamma0
annihilation term uses the certified tangential trace and has to vanish
identically, not just converge.
"""

import numpy as np
import pytest

import mgtstab as M
from mgtstab.errors import CertificationError
from mgtstab.geometry import RadialField, VectorFieldH

from conftest import interval_config


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
    fields = M.static_poly_1d()
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


# ----------------------------------------------------------- gatekeeping


def test_uncertified_field_rejected():
    geo, mesh = interval_mesh(16)
    certified = M.build_vector_field_h(geo, mesh, 0.5)
    raw = VectorFieldH.from_nodal(
        mesh, certified.nodal_values, collar_width=0.5, analytic=certified.analytic
    )
    assert not raw.certified
    fields = M.trig_1d()
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(CertificationError):
        M.residual_hgradz(fields, raw, mesh, 1.0, times)
    out = M.residual_hgradz(fields, raw, mesh, 1.0, times, allow_uncertified=True)
    assert np.isfinite(out["residual"])


def test_certified_gamma0_trace_annihilates_the_gamma0_term():
    # zero stored gamma0 values must replace the closed-form trace of the
    # radial field, which is not tangential on the bottom side
    geo = M.named_geometry("unit-square")
    mesh = M.build_mesh(geo, 8)
    fields = M.trig_2d()
    times = np.linspace(0.0, 1.0, 11)
    radial = RadialField(geo.x0)
    zeros = VectorFieldH.from_nodal(mesh, np.zeros((mesh.n_nodes, 2)), analytic=radial)
    out = M.residual_hgradz(fields, zeros, mesh, 1.0, times, allow_uncertified=True)
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
    res3 = [1.0 / 27**k for k in range(3)]
    assert M.refinement_slope(res3, factors=[1, 3, 9]) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.inf, np.nan])
def test_refinement_slope_rejects_undefined_rates(bad):
    with pytest.raises(ValueError):
        M.refinement_slope([1e-2, bad, 1e-4])


def test_reconstruction_diagnostic_structure():
    scen = M.Scenario(interval_config(mesh={"resolution": 32}, initial={"kind": "robin-mode"}))
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=4.0, dt=2e-3, store_states=True
    )
    out = M.reconstruction_diagnostic(traj, scen.bundle, scen.params, window=(0.0, 4.0))
    rhs = out["rhs_terms"]
    for key in (
        "E1_start",
        "E1_end",
        "boundary_dissipation",
        "interior_dissipation",
        "lot_surrogate",
    ):
        assert key in rhs
    assert out["lhs"] > 0
    assert rhs["lot_surrogate"] > 0
    assert np.isfinite(out["implied_C"]) and out["implied_C"] > 0
    assert out["delta"] == 0.25
