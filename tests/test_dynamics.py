"""Time integration: transform algebra, conservation, the energy identity.

The sharpest checks here are structural. Implicit midpoint preserves
quadratic invariants of a linear system exactly (up to solver roundoff),
and the discrete energy identity must close with O(dt^2) quadrature
error regardless of parameter regime.
"""

import logging

import numpy as np
import pytest

import mgtstab as M
from mgtstab.dynamics import SourceTerm, StateU

from conftest import interval_config


def make_scenario(**over):
    return M.Scenario(interval_config(**over))


def random_state(n, rng):
    return StateU(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)


# ---------------------------------------------------------- m-transform


def test_m_transform_roundtrip():
    rng = np.random.default_rng(0)
    scen = make_scenario(params={"tau": 0.7, "c": 1.4, "b": 2.2})
    s = random_state(scen.mesh.n_nodes, rng)
    z = M.m_transform(s, scen.params)
    back = M.m_inverse(z, scen.params)
    np.testing.assert_allclose(back.u, s.u, rtol=1e-14)
    np.testing.assert_allclose(back.ut, s.ut, rtol=1e-13)
    np.testing.assert_allclose(back.utt, s.utt, rtol=1e-13)


def test_m_transform_definition():
    rng = np.random.default_rng(1)
    scen = make_scenario(params={"tau": 0.7, "c": 1.4, "b": 2.2})
    q = scen.params.q
    s = random_state(scen.mesh.n_nodes, rng)
    z = M.m_transform(s, scen.params)
    np.testing.assert_allclose(z.z, s.ut + q * s.u, rtol=1e-14)
    np.testing.assert_allclose(z.zt, s.utt + q * s.ut, rtol=1e-14)


# ---------------------------------------------------------- conservation


def test_midpoint_conserves_critical_energy():
    # gamma = alpha - tau c^2 / b = 0 and kappa1 = 0: E1 is a conserved
    # quadratic form, which implicit midpoint preserves to roundoff
    scen = make_scenario(
        mesh={"resolution": 64},
        params={"alpha": 1.0, "kappa1": 0.0},
        initial={"kind": "robin-mode"},
    )
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=2.0, dt=1e-3, store_states=False
    )
    drift = np.abs(traj.E1 - traj.E1[0]).max() / traj.E1[0]
    assert drift <= 1e-10, drift


def test_damped_energy_decreases():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=3.0, dt=2e-3, store_states=False
    )
    assert traj.E1[-1] < 0.5 * traj.E1[0]
    assert (np.diff(traj.E1) <= 1e-12).all()


def test_unstable_energy_grows():
    scen = make_scenario(
        mesh={"resolution": 32},
        params={"alpha": 0.5, "kappa1": 0.0},
        initial={"kind": "robin-mode"},
    )
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=20.0, dt=5e-3,
        store_states=False, compat_tol=np.inf,
    )
    assert traj.E[-1] > 10 * traj.E[0]


# ------------------------------------------------------- energy identity


def test_energy_identity_residual_second_order():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = M.simulate(
            scen.bundle, scen.params, scen.initial, T=1.0, dt=dt, store_states=False
        )
        residuals.append(M.energy_identity_residual(traj))
    slope = M.refinement_slope(residuals)
    assert residuals[-1] <= 1e-4
    assert slope >= 1.9, (slope, residuals)


def test_energy_identity_with_forcing():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    x = scen.mesh.nodes[:, 0]
    src = SourceTerm.separable(np.sin(np.pi * x), lambda t: np.cos(3.0 * t))
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=1.0, dt=1e-3,
        source=src, store_states=False,
    )
    assert np.abs(traj.work_rate).max() > 1e-3  # forcing actually acts
    assert M.energy_identity_residual(traj) <= 1e-4


def test_energy_identity_windowing():
    scen = make_scenario(mesh={"resolution": 16}, initial={"kind": "robin-mode"})
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=2.0, dt=1e-3, store_states=False
    )
    assert M.energy_identity_residual(traj, t_start=0.5, t_end=1.5) <= 1e-4


# ---------------------------------------------------------- compatibility


def test_robin_mode_is_compatible():
    scen = make_scenario(mesh={"resolution": 64}, initial={"kind": "robin-mode"})
    rep = M.check_compatibility(scen.initial, scen.bundle)
    # residuals are recovered from element gradients, so they carry O(h)
    # noise; at n = 64 they sit well under the order-one default threshold
    assert max(rep.values()) < 0.02


def test_incompatible_data_flagged(caplog):
    scen = make_scenario(mesh={"resolution": 64})
    n = scen.mesh.n_nodes
    # u0' = 1 at the right end with u1 = 0 violates the gamma1 condition
    bad = StateU(np.linspace(1.0, 2.0, n), np.zeros(n), np.zeros(n), 0.0)
    rep = M.check_compatibility(bad, scen.bundle)
    assert max(rep.values()) > 0.1
    with caplog.at_level(logging.WARNING, logger="mgtstab.dynamics"):
        traj = M.simulate(
            scen.bundle, scen.params, bad, T=0.05, dt=1e-2, store_states=False
        )
    assert any("compatibility" in r.getMessage() for r in caplog.records)
    assert traj.compat["r1"] == pytest.approx(rep["r1"])


def named_scenario(name, resolution, kappa0, kappa1):
    cfg = {
        "geometry": {"kind": "named", "name": name},
        "mesh": {"resolution": resolution},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0, "kappa0": kappa0, "kappa1": kappa1},
        "time": {"T": 1.0, "dt": 1e-2},
    }
    return M.Scenario(M.load_config(cfg))


@pytest.mark.parametrize("resolution", [4, 8])
def test_square_compatibility_residuals_exact(resolution):
    # on the unit square (gamma0 the bottom side, outer normal -y) these
    # data give constant boundary functionals, so r0 and r1 are exact:
    # d_nu y = -1 on gamma0, and constant u0, u1 leave kappa * value only.
    # The P1 interpolant of y^2 has gradient (0, h) only in the bottom row
    # of elements, so its r0 = h pins the facet-to-element match.
    scen = named_scenario("unit-square", resolution, kappa0=1.7, kappa1=0.6)
    n = scen.mesh.n_nodes
    y = scen.mesh.nodes[:, 1]
    rep = M.check_compatibility(StateU(y.copy(), np.zeros(n), np.zeros(n)), scen.bundle)
    assert rep["r0"] == pytest.approx(1.0, rel=1e-12)
    rep = M.check_compatibility(StateU(y**2, np.zeros(n), np.zeros(n)), scen.bundle)
    assert rep["r0"] == pytest.approx(1.0 / resolution, rel=1e-12)
    const = StateU(np.full(n, 2.0), np.full(n, -3.0), np.zeros(n))
    rep = M.check_compatibility(const, scen.bundle)
    assert rep["r0"] == pytest.approx(3.4, rel=1e-12)
    assert rep["r1"] == pytest.approx(1.8 * np.sqrt(3.0), rel=1e-12)


def loop_compatibility(state, bundle):
    """Facet-by-facet reference for check_compatibility."""
    mesh = bundle.mesh
    dim = mesh.dim
    out = {}
    for name, tag, bmat, value in (("r0", 0, bundle.B0, state.u), ("r1", 1, bundle.B1, state.ut)):
        rho = bmat @ value
        mass = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for f in np.flatnonzero(mesh.facet_tags == tag):
            nodes = mesh.facets[f]
            e = next(e for e, conn in enumerate(mesh.elements) if set(nodes) <= set(conn))
            grad = mesh.element_gradients[e].T @ state.u[mesh.elements[e]]
            L = mesh.facet_measures[f]
            rho[nodes] += (grad @ mesh.facet_normals[f]) * L / dim
            mass[np.ix_(nodes, nodes)] += L * (1.0 + np.eye(dim)) / (dim * (dim + 1))
        on = mesh.nodes_on(tag)
        m = mass[np.ix_(on, on)]
        w = np.linalg.solve(m, rho[on])
        out[name] = float(np.sqrt(w @ m @ w))
    return out


@pytest.mark.parametrize("name", ["interval", "unit-square", "half-disk", "transducer"])
def test_compatibility_matches_facet_loop(name):
    if name == "interval":
        scen = make_scenario(mesh={"resolution": 12}, params={"kappa0": 1.3, "kappa1": 0.7})
    else:
        scen = named_scenario(name, 4, kappa0=1.3, kappa1=0.7)
    state = random_state(scen.mesh.n_nodes, np.random.default_rng(11))
    rep = M.check_compatibility(state, scen.bundle)
    ref = loop_compatibility(state, scen.bundle)
    for key in ("r0", "r1"):
        assert rep[key] == pytest.approx(ref[key], rel=1e-12)


# -------------------------------------------------------------- schemes


def test_bdf2_tracks_midpoint():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    kw = dict(T=1.0, dt=5e-4, store_states=False)
    mid = M.simulate(scen.bundle, scen.params, scen.initial, scheme="implicit-midpoint", **kw)
    bdf = M.simulate(scen.bundle, scen.params, scen.initial, scheme="bdf2", **kw)
    assert abs(mid.E1[-1] - bdf.E1[-1]) / mid.E1[0] < 1e-4


def test_unknown_scheme_rejected():
    scen = make_scenario(mesh={"resolution": 8})
    with pytest.raises(ValueError):
        M.simulate(scen.bundle, scen.params, scen.initial, T=0.1, dt=1e-2, scheme="euler")


def test_single_step_is_linear():
    rng = np.random.default_rng(3)
    scen = make_scenario(mesh={"resolution": 16})
    gen = M.assemble_generator(scen.bundle, scen.params, form="u")
    a = random_state(scen.mesh.n_nodes, rng)
    b = random_state(scen.mesh.n_nodes, rng)
    ab = StateU(a.u + b.u, a.ut + b.ut, a.utt + b.utt, 0.0)
    sa = M.step(gen, a, 1e-2)
    sb = M.step(gen, b, 1e-2)
    sab = M.step(gen, ab, 1e-2)
    np.testing.assert_allclose(sab.u, sa.u + sb.u, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(sab.utt, sa.utt + sb.utt, rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------- reconstruction


def test_reconstruction_matches_simulated_u():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    dt = 5e-4
    traj = M.simulate(scen.bundle, scen.params, scen.initial, T=1.0, dt=dt)
    z = traj.states_ut + scen.params.q * traj.states_u
    u_rec = M.reconstruct_u_from_z(traj.times, z, traj.states_u[0], scen.params)
    err = np.abs(u_rec - traj.states_u).max()
    assert err < 5e-6, err


def test_output_stride_subsamples():
    scen = make_scenario(mesh={"resolution": 16})
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=0.2, dt=1e-2,
        output_stride=4, store_states=False,
    )
    np.testing.assert_allclose(np.diff(traj.times), 4e-2, rtol=1e-12)
