"""Time integration: transform algebra, conservation, the energy identity.

The sharpest checks here are structural. Implicit midpoint preserves
quadratic invariants of a linear system exactly (up to solver roundoff),
and the discrete energy identity must close with O(dt^2) quadrature
error regardless of parameter regime.
"""

import logging

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import mgtstab as M
from mgtstab import dynamics
from mgtstab.dynamics import State

from conftest import interval_config


def make_scenario(**over):
    return M.Scenario(interval_config(**over))


def random_state(n, rng):
    return State(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)


# ---------------------------------------------------------- m-transform


def test_m_transform_roundtrip():
    rng = np.random.default_rng(0)
    scen = make_scenario(params={"tau": 0.7, "c": 1.4, "b": 2.2})
    s = random_state(scen.mesh.n_nodes, rng)
    z = M.m_transform(s, scen.params)
    back = M.m_inverse(z, scen.params)
    np.testing.assert_allclose(back.u, s.u, rtol=1e-14)
    np.testing.assert_allclose(back.v, s.v, rtol=1e-13)
    np.testing.assert_allclose(back.w, s.w, rtol=1e-13)


def test_m_transform_definition():
    rng = np.random.default_rng(1)
    scen = make_scenario(params={"tau": 0.7, "c": 1.4, "b": 2.2})
    q = scen.params.q
    s = random_state(scen.mesh.n_nodes, rng)
    z = M.m_transform(s, scen.params)
    np.testing.assert_allclose(z.v, s.v + q * s.u, rtol=1e-14)
    np.testing.assert_allclose(z.w, s.w + q * s.v, rtol=1e-14)


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
    src = lambda t: np.sin(np.pi * x) * np.cos(3.0 * t)
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
    bad = State(np.linspace(1.0, 2.0, n), np.zeros(n), np.zeros(n), 0.0)
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
    rep = M.check_compatibility(State(y.copy(), np.zeros(n), np.zeros(n)), scen.bundle)
    assert rep["r0"] == pytest.approx(1.0, rel=1e-12)
    rep = M.check_compatibility(State(y**2, np.zeros(n), np.zeros(n)), scen.bundle)
    assert rep["r0"] == pytest.approx(1.0 / resolution, rel=1e-12)
    const = State(np.full(n, 2.0), np.full(n, -3.0), np.zeros(n))
    rep = M.check_compatibility(const, scen.bundle)
    assert rep["r0"] == pytest.approx(3.4, rel=1e-12)
    assert rep["r1"] == pytest.approx(1.8 * np.sqrt(3.0), rel=1e-12)


def loop_compatibility(state, bundle):
    """Facet-by-facet reference for check_compatibility."""
    mesh = bundle.mesh
    dim = mesh.dim
    out = {}
    for name, tag, bmat, value in (("r0", 0, bundle.B0, state.u), ("r1", 1, bundle.B1, state.v)):
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
    ab = State(a.u + b.u, a.v + b.v, a.w + b.w, 0.0)
    stepper = M.Stepper(gen, 1e-2)
    sa, sb, sab = (stepper.step(s) for s in (a, b, ab))
    np.testing.assert_allclose(sab.u, sa.u + sb.u, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(sab.w, sa.w + sb.w, rtol=1e-11, atol=1e-12)


def test_z_form_generator_rejected():
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, scen.params, form="z")
    with pytest.raises(ValueError, match="u-form"):
        M.Stepper(gen, 1e-2)


def test_bdf2_history_is_per_trajectory():
    rng = np.random.default_rng(5)
    scen = make_scenario(mesh={"resolution": 16})
    gen = M.assemble_generator(scen.bundle, scen.params, form="u")
    n = scen.mesh.n_nodes

    def advance(stepper, trajs, n_steps=3):
        for _ in range(n_steps):
            for traj in trajs:
                traj.append(stepper.step(traj[-1], traj[-2] if len(traj) > 1 else None))

    shared = [[random_state(n, rng)], [random_state(n, rng)]]
    advance(M.Stepper(gen, 1e-2, "bdf2"), shared)  # the two trajectories alternate
    for traj in shared:
        alone = [traj[0]]
        advance(M.Stepper(gen, 1e-2, "bdf2"), [alone])
        for s, r in zip(traj, alone):
            for name in ("u", "v", "w", "t"):
                np.testing.assert_array_equal(getattr(s, name), getattr(r, name))


def pencil_reference(gen, x0, t0, dt, scheme, source):
    """The full 3n-pencil solves ``(E - k L) x' = g`` the stepper condenses:
    one midpoint step, or a midpoint start and one BDF2 step."""
    E, L = gen.E, gen.L

    def forcing(t):
        return np.concatenate([np.zeros(2 * len(x0) // 3), gen.bundle.Mmat @ source(t)])

    mid = splu((E - 0.5 * dt * L).tocsc())
    x1 = mid.solve((E + 0.5 * dt * L) @ x0 + dt * forcing(t0 + 0.5 * dt))
    if scheme == "implicit-midpoint":
        return x1
    rhs = (4.0 / 3.0) * (E @ x1) - (1.0 / 3.0) * (E @ x0) + (2.0 / 3.0) * dt * forcing(t0 + 2 * dt)
    return splu((E - (2.0 / 3.0) * dt * L).tocsc()).solve(rhs)


@pytest.mark.parametrize("scheme", ["implicit-midpoint", "bdf2"])
@pytest.mark.parametrize("name", ["interval-1d-damped", "half-disk-2d"])
def test_condensed_step_matches_full_pencil_solve(name, scheme):
    cfg = M.preset(name)
    cfg["mesh"]["resolution"] = 6
    cfg["params"]["tau"] = 0.8  # so that E's third block is not the mass matrix
    scen = M.Scenario(M.load_config(cfg))
    gen = M.assemble_generator(scen.bundle, scen.params, form="u")
    nodes = scen.mesh.nodes
    profile = np.cos(2.0 * nodes[:, 0]) + nodes[:, -1]
    src = lambda t: profile * (np.sin(3.0 * t) + 0.5)
    rng = np.random.default_rng(8)
    s0 = random_state(scen.mesh.n_nodes, rng)
    s0.t = 0.3
    dt = 2e-2
    stepper = M.Stepper(gen, dt, scheme, src)
    s1 = stepper.step(s0)
    new = s1 if scheme == "implicit-midpoint" else stepper.step(s1, s0)
    got = np.concatenate([new.u, new.v, new.w])
    ref = pencil_reference(gen, np.concatenate([s0.u, s0.v, s0.w]), s0.t, dt, scheme, src)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert new.t == pytest.approx(s0.t + (1 if scheme == "implicit-midpoint" else 2) * dt)


def per_sample_columns(traj, bundle, params, source):
    """Trajectory columns evaluated one recorded state at a time."""
    q, tau = params.q, params.tau
    rows = []
    for k in range(len(traj.times)):
        s = traj.state(k)
        z, zt = s.v + q * s.u, s.w + q * s.v
        e1 = M.energy_E1(M.m_transform(s, params), bundle, params)
        e0 = M.energy_E0(s, bundle, params)
        rows.append(
            [
                e0,
                e1,
                e0 + e1,
                zt @ (bundle.B1 @ zt) * params.b / tau,
                s.w @ (bundle.Mgamma @ s.w) / tau,
                zt @ (bundle.Mmat @ source(s.t)) / tau,
                np.sqrt(s.u @ (bundle.Mmat @ s.u)),
                np.sqrt(z @ (bundle.Mmat @ z)),
                np.sqrt(zt @ (bundle.Mmat @ zt)),
            ]
        )
    return np.array(rows).T


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_chunked_recording_matches_per_sample(offset):
    # n = 4096 nodes give chunks of 16 samples
    scen = make_scenario(mesh={"resolution": 4095}, initial={"kind": "robin-mode"})
    chunk = dynamics._CHUNK_ELEMENTS // scen.mesh.n_nodes
    assert chunk == 16
    n_samples = 1 if offset is None else chunk + offset
    x = scen.mesh.nodes[:, 0]
    src = lambda t: np.sin(np.pi * x) * np.cos(3.0 * t)
    dt = 1e-3
    run = dict(T=(n_samples - 1) * dt, dt=dt, source=src)
    kept = M.simulate(scen.bundle, scen.params, scen.initial, store_states=True, **run)
    bare = M.simulate(scen.bundle, scen.params, scen.initial, store_states=False, **run)
    assert len(kept.times) == len(bare.times) == n_samples
    assert bare.states is None and kept.states.shape == (3, n_samples, scen.mesh.n_nodes)
    names = ("E0", "E1", "E", "D_boundary", "D_interior", "work_rate", "u_L2", "z_L2", "zt_L2")
    ref = per_sample_columns(kept, scen.bundle, scen.params, src)
    for name, col in zip(names, ref):
        for traj in (kept, bare):
            got = getattr(traj, name)
            np.testing.assert_allclose(got, col, rtol=1e-12, atol=1e-300, err_msg=name)


# ---------------------------------------------------------- reconstruction


def test_reconstruction_matches_simulated_u():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    dt = 5e-4
    traj = M.simulate(scen.bundle, scen.params, scen.initial, T=1.0, dt=dt)
    u, ut, _ = traj.states
    z = ut + scen.params.q * u
    u_rec = M.reconstruct_u_from_z(traj.times, z, u[0], scen.params)
    err = np.abs(u_rec - u).max()
    assert err < 5e-6, err


def test_output_stride_subsamples():
    scen = make_scenario(mesh={"resolution": 16})
    traj = M.simulate(
        scen.bundle, scen.params, scen.initial, T=0.2, dt=1e-2,
        output_stride=4, store_states=False,
    )
    np.testing.assert_allclose(np.diff(traj.times), 4e-2, rtol=1e-12)
