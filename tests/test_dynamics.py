"""Time integration: transform algebra, conservation, the energy identity.

The sharpest checks here are structural. Implicit midpoint preserves
quadratic invariants of a linear system exactly (up to solver roundoff),
and the discrete energy identity must close with O(dt^2) quadrature
error regardless of parameter regime.
"""

import logging
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

import mgtstab as M
from mgtstab import dynamics, energy
from mgtstab.dynamics import State

from conftest import interval_config, reconstruct_u_from_z, simulate_with_states


def make_scenario(**over):
    return M.Scenario(interval_config(**over))


def random_state(n, rng):
    return State(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)


# ---------------------------------------------------------- m-transform


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
    traj = M.simulate(scen.bundle, scen.initial, T=2.0, dt=1e-3)
    drift = np.abs(traj.E1 - traj.E1[0]).max() / traj.E1[0]
    assert drift <= 1e-10, drift


def test_damped_energy_decreases():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    traj = M.simulate(scen.bundle, scen.initial, T=3.0, dt=2e-3)
    assert traj.E1[-1] < 0.5 * traj.E1[0]
    assert (np.diff(traj.E1) <= 1e-12).all()


def test_unstable_energy_grows():
    scen = make_scenario(
        mesh={"resolution": 32},
        params={"alpha": 0.5, "kappa1": 0.0},
        initial={"kind": "robin-mode"},
    )
    traj = M.simulate(scen.bundle, scen.initial, T=20.0, dt=5e-3)
    assert traj.E[-1] > 10 * traj.E[0]


# ------------------------------------------------------- energy identity


def test_energy_identity_residual_second_order():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = M.simulate(scen.bundle, scen.initial, T=1.0, dt=dt)
        residuals.append(M.energy_identity_residual(traj))
    slope = M.refinement_slope(residuals)
    assert residuals[-1] <= 1e-4
    assert slope >= 1.9, (slope, residuals)


def test_energy_identity_with_forcing():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    x = scen.mesh.nodes[:, 0]
    src = lambda t: np.sin(np.pi * x) * np.cos(3.0 * t)
    traj = M.simulate(scen.bundle, scen.initial, T=1.0, dt=1e-3, source=src)
    assert np.abs(traj.work_rate).max() > 1e-3  # forcing actually acts
    assert M.energy_identity_residual(traj) <= 1e-4


def test_energy_identity_windowing():
    scen = make_scenario(mesh={"resolution": 16}, initial={"kind": "robin-mode"})
    traj = M.simulate(scen.bundle, scen.initial, T=2.0, dt=1e-3)
    assert M.energy_identity_residual(traj, t_start=0.5, t_end=1.5) <= 1e-4


def test_energy_identity_window_end_past_the_last_sample_is_clamped():
    scen = M.Scenario(interval_config())
    traj = M.simulate(scen.bundle, scen.initial, T=1.0, dt=1e-2)
    whole = M.energy_identity_residual(traj)
    for t_end in (1.0 + 1e-9, 2.0):
        assert M.energy_identity_residual(traj, t_end=t_end) == whole
    with pytest.raises(ValueError):
        M.energy_identity_residual(traj, t_start=2.0)


# ---------------------------------------------------------- compatibility


def test_robin_mode_is_compatible():
    scen = make_scenario(mesh={"resolution": 64}, initial={"kind": "robin-mode"})
    rep = M.check_compatibility(scen.initial, scen.bundle)
    # residuals are recovered from element gradients, so they carry O(h)
    # noise; at n = 64 they sit well under the order-one default threshold
    assert max(rep.values()) < 0.02


def test_robin_mode_frequency_brackets_the_root_for_every_kappa0():
    # w sin w - kappa0 cos w rises from -kappa0 at 0 and changes sign within
    # one double of the result, for tiny and huge kappa0 alike
    for kappa0 in np.logspace(-300, 300, 121):
        g = lambda w: w * math.sin(w) - kappa0 * math.cos(w)
        w = M.robin_mode_frequency(kappa0)
        assert 0 < w <= math.pi / 2
        assert any(np.sign(g(w)) * np.sign(g(math.nextafter(w, to))) <= 0 for to in (0, 2))
        lo, hi = 1e-12, math.pi / 2 - 1e-12
        if g(lo) < 0 < g(hi):
            assert w == pytest.approx(brentq(g, lo, hi), rel=0, abs=2e-12)
    assert M.robin_mode_frequency(1.0) == 0.8603335890193797


def test_incompatible_data_flagged(caplog):
    scen = make_scenario(mesh={"resolution": 64})
    n = scen.mesh.n_nodes
    # u0' = 1 at the right end with u1 = 0 violates the gamma1 condition
    bad = State(np.linspace(1.0, 2.0, n), np.zeros(n), np.zeros(n), 0.0)
    rep = M.check_compatibility(bad, scen.bundle)
    assert max(rep.values()) > 0.1
    with caplog.at_level(logging.WARNING, logger="mgtstab.dynamics"):
        traj = M.simulate(scen.bundle, bad, T=0.05, dt=1e-2)
    assert any("compatibility" in r.getMessage() for r in caplog.records)
    assert traj.compat["r1"] == pytest.approx(rep["r1"])


def test_compatibility_warning_does_not_scale_with_the_data(caplog):
    # the exact Robin mode logs nothing at any amplitude, and u0' = 1 at the
    # gamma1 end with u1 = 0 warns at any amplitude
    scen = M.Scenario(M.load_config({"preset": "interval-1d-damped"}))
    n = scen.mesh.n_nodes
    bad = State(np.linspace(1.0, 2.0, n), np.zeros(n), np.zeros(n), 0.0)
    r1 = {}
    for data, warns in ((scen.initial, False), (bad, True)):
        for amplitude in (1e-3, 1.0, 100.0):
            scaled = State(amplitude * data.u, amplitude * data.v, amplitude * data.w, 0.0)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="mgtstab.dynamics"):
                traj = M.simulate(scen.bundle, scaled, T=0.02, dt=1e-2)
            assert any("compatibility" in r.getMessage() for r in caplog.records) == warns
            assert traj.compat == M.check_compatibility(scaled, scen.bundle)
            r1[warns, amplitude] = traj.compat["r1"]
    # the reported residuals scale with the data: an absolute threshold of
    # 0.1 would flag the large Robin mode and pass the small bad datum
    assert r1[False, 100.0] > 0.1 > r1[True, 1e-3]


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_compatibility_recovery_noise_alone_does_not_warn(caplog, resolution):
    # u0 = cos(pi x), u1 = 0 on an interval with gamma0 empty: d_nu u0 and
    # kappa1 u1 vanish on the whole boundary, so r1 is the O(h) noise of
    # the recovered d_nu u0 alone, pi^2 h / sqrt(2) over the two ends
    scen = make_scenario(mesh={"resolution": resolution}, geometry={"gamma0_end": None})
    x, n = scen.mesh.nodes[:, 0], scen.mesh.n_nodes
    state = State(np.cos(np.pi * x), np.zeros(n), np.zeros(n), 0.0)
    with caplog.at_level(logging.WARNING, logger="mgtstab.dynamics"):
        traj = M.simulate(scen.bundle, state, T=1e-2, dt=1e-2)
    assert not any("compatibility" in r.getMessage() for r in caplog.records)
    h = 1.0 / resolution
    assert traj.compat["r0"] == 0.0
    assert traj.compat["r1"] == pytest.approx(np.pi**2 * h / np.sqrt(2), rel=0.05)


@pytest.mark.parametrize("preset, resolution", [("transducer-2d", 5), ("half-disk-2d", 24)])
def test_compatibility_gaussian_bumps_warn(caplog, preset, resolution):
    # the bumps' boundary terms do not cancel: an incompatibility by construction
    scen = M.Scenario(M.load_config({"preset": preset, "mesh": {"resolution": resolution}}))
    with caplog.at_level(logging.WARNING, logger="mgtstab.dynamics"):
        M.simulate(scen.bundle, scen.initial, T=1e-2, dt=1e-2)
    assert any("compatibility" in r.getMessage() for r in caplog.records)


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
    kw = dict(T=1.0, dt=5e-4)
    mid = M.simulate(scen.bundle, scen.initial, scheme="implicit-midpoint", **kw)
    bdf = M.simulate(scen.bundle, scen.initial, scheme="bdf2", **kw)
    assert abs(mid.E1[-1] - bdf.E1[-1]) / mid.E1[0] < 1e-4


def test_unknown_scheme_rejected():
    scen = make_scenario(mesh={"resolution": 8})
    with pytest.raises(ValueError):
        M.simulate(scen.bundle, scen.initial, T=0.1, dt=1e-2, scheme="euler")


def test_single_step_is_linear():
    rng = np.random.default_rng(3)
    scen = make_scenario(mesh={"resolution": 16})
    gen = M.assemble_generator(scen.bundle, form="u")
    a = random_state(scen.mesh.n_nodes, rng)
    b = random_state(scen.mesh.n_nodes, rng)
    ab = State(a.u + b.u, a.v + b.v, a.w + b.w, 0.0)
    stepper = M.Stepper(gen, 1e-2)
    sa, sb, sab = (stepper.step(s) for s in (a, b, ab))
    np.testing.assert_allclose(sab.u, sa.u + sb.u, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(sab.w, sa.w + sb.w, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("dt", [0.0, -1e-2, float("nan"), float("inf")])
def test_non_positive_or_non_finite_dt_rejected(dt):
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, form="u")
    with pytest.raises(ValueError, match="dt must be positive"):
        M.Stepper(gen, dt)


def test_z_form_generator_rejected():
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, form="z")
    with pytest.raises(ValueError, match="u-form"):
        M.Stepper(gen, 1e-2)


def test_bdf2_history_is_per_trajectory():
    rng = np.random.default_rng(5)
    scen = make_scenario(mesh={"resolution": 16})
    gen = M.assemble_generator(scen.bundle, form="u")
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
@pytest.mark.parametrize("name", ["interval-1d-damped", "half-disk-2d", "transducer-2d"])
def test_condensed_step_matches_full_pencil_solve(name, scheme):
    cfg = M.preset(name)
    # transducer-2d at resolution 3 (n = 85) is a 2D stage with a dense LU
    cfg["mesh"]["resolution"] = 3 if name == "transducer-2d" else 6
    cfg["params"]["tau"] = 0.8  # so that E's third block is not the mass matrix
    scen = M.Scenario(M.load_config(cfg))
    gen = M.assemble_generator(scen.bundle, form="u")
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


@pytest.mark.parametrize("resolution, solver", [(127, "dense-lu"), (128, "sparse-lu")])
def test_stage_storage_switches_above_n_128(resolution, solver):
    # n = resolution + 1: the dense S and Q hold 4 n^2 values, 65 536 at n = 128
    scen = make_scenario(mesh={"resolution": resolution})
    gen = M.assemble_generator(scen.bundle, form="u")
    for scheme in ("implicit-midpoint", "bdf2"):
        health = M.Stepper(gen, 1e-2, scheme).health(scen.initial)
        assert health["stage_solver"] == solver
        n = scen.mesh.n_nodes
        assert (health["stage_factor_nnz"] == n * n) == (solver == "dense-lu")
        assert health["stage_residual"] <= 1e-12


def stage_matrix(gen, k):
    """The condensed stage matrix of length k, from the generator blocks."""
    return gen.Ew - k * gen.Lw - k**2 * gen.Lv - k**3 * gen.Lu


def test_bdf2_health_measures_the_bdf2_stage():
    # n = 17: a dense stage, so the test's LAPACK LU repeats the stepper's bit for bit
    scen = make_scenario(mesh={"resolution": 16}, initial={"kind": "robin-mode"})
    gen = M.assemble_generator(scen.bundle, form="u")
    n, dt = scen.mesh.n_nodes, 1e-2
    x = np.concatenate([scen.initial.u, scen.initial.v, scen.initial.w])
    residual = {}
    for k, G in ((0.5 * dt, gen.E + 0.5 * dt * gen.L), (2.0 / 3.0 * dt, gen.E)):
        S = stage_matrix(gen, k)
        rhs = (sp.hstack([k * gen.Lu, k**2 * gen.Lu + k * gen.Lv, sp.identity(n)]) @ G).toarray() @ x
        w = lu_solve(lu_factor(S.toarray()), rhs)
        residual[k] = np.abs(S @ w - rhs).max() / np.abs(rhs).max()
    for scheme, k in (("implicit-midpoint", 0.5 * dt), ("bdf2", 2.0 / 3.0 * dt)):
        health = M.Stepper(gen, dt, scheme).health(scen.initial)
        assert health["stage_residual"] == residual[k], scheme
    assert residual[0.5 * dt] != residual[2.0 / 3.0 * dt]


def test_sparse_stages_store_less_fill_than_the_default_ordering():
    # half-disk-2d at resolution 24, n = 5101, the halfdisk-bdf2 benchmark size
    cfg = M.preset("half-disk-2d")
    cfg["mesh"]["resolution"] = 24
    scen = M.Scenario(M.load_config(cfg))
    assert scen.mesh.n_nodes == 5101
    gen = M.assemble_generator(scen.bundle, form="u")
    dt = cfg["time"]["dt"]
    for scheme, k in (("implicit-midpoint", 0.5 * dt), ("bdf2", 2.0 / 3.0 * dt)):
        S = stage_matrix(gen, k)
        assert (S != S.T).nnz == 0, scheme  # the premise of the symmetric ordering
        health = M.Stepper(gen, dt, scheme).health(scen.initial)
        assert health["stage_solver"] == "sparse-lu"
        assert health["stage_factor_nnz"] < splu(S.tocsc()).nnz, scheme
        assert health["stage_residual"] <= 1e-12, scheme


def _force_stage_solver(monkeypatch, n, solver):
    # move the working-set budget the stage storage is chosen against
    budget = 4 * n * n if solver == "dense-lu" else 4 * n * n - 1
    monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", budget)


@pytest.mark.parametrize("solver", ["dense-lu", "sparse-lu"])
@pytest.mark.parametrize("scheme", ["implicit-midpoint", "bdf2"])
def test_advance_is_the_condensed_stage_algebra(monkeypatch, scheme, solver):
    # one fused step against the stage written out: the pencil's right-hand
    # side r = G g + forcing, S w = r_w + k L_u (r_u + k r_v) + k L_v r_v,
    # then v = r_v + k w and u = r_u + k v
    scen = make_scenario(mesh={"resolution": 16}, params={"tau": 0.8})
    n, nodes = scen.mesh.n_nodes, scen.mesh.nodes[:, 0]
    _force_stage_solver(monkeypatch, n, solver)
    gen = M.assemble_generator(scen.bundle, form="u")
    src = lambda t: np.cos(2.0 * nodes) * (np.sin(3.0 * t) + 0.5)
    dt, t = 2e-2, 0.3
    x, prev = np.random.default_rng(12).standard_normal((2, 4 * n))
    x0, prev0, out = x.copy(), prev.copy(), np.empty(4 * n)
    views = dynamics._views
    assert M.Stepper(gen, dt, scheme, src).advance(views(x), views(prev), t, views(out)) == t + dt

    if scheme == "implicit-midpoint":
        k = 0.5 * dt
        G, g, forcing = gen.E + k * gen.L, x0[: 3 * n], dt * (gen.bundle.Mmat @ src(t + k))
    else:
        k = 2.0 / 3.0 * dt
        G, g, forcing = gen.E, (4.0 * x0[: 3 * n] - prev0[: 3 * n]) / 3.0, k * (gen.bundle.Mmat @ src(t + dt))
    ru, rv, rw = (G @ g).reshape(3, n)
    rhs = rw + forcing + k * (gen.Lu @ (ru + k * rv)) + k * (gen.Lv @ rv)
    w = np.linalg.solve(stage_matrix(gen, k).toarray(), rhs)
    v = rv + k * w
    ref = np.concatenate([ru + k * v, v, w])
    assert np.abs(out[: 3 * n] - ref).max() <= 1e-13 * np.abs(ref).max()
    # the step writes scratch rows only: x's state, and midpoint's prev, are untouched
    assert np.array_equal(x[: 3 * n], x0[: 3 * n])
    if scheme == "implicit-midpoint":
        assert np.array_equal(prev, prev0)


@pytest.mark.parametrize("scheme, T", [("implicit-midpoint", 20.0), ("bdf2", 4.0)])
def test_dense_and_sparse_stages_give_the_same_trajectory(monkeypatch, scheme, T):
    # 10 000 midpoint or 2 000 BDF2 steps at n = 65, with a forcing
    scen = M.Scenario(M.load_config({"preset": "interval-1d-damped"}))
    n, x = scen.mesh.n_nodes, scen.mesh.nodes[:, 0]
    src = lambda t: np.cos(2.0 * x) * (np.sin(3.0 * t) + 0.5)
    run = dict(T=T, dt=2e-3, source=src, scheme=scheme)
    trajs = {}
    for solver in ("dense-lu", "sparse-lu"):
        _force_stage_solver(monkeypatch, n, solver)
        trajs[solver] = M.simulate(scen.bundle, scen.initial, **run)
        assert trajs[solver].meta["stage_solver"] == solver
    assert len(trajs["dense-lu"].times) == int(round(T / 2e-3)) + 1
    names = ("times", "E0", "E1", "E", "D_boundary", "D_interior", "work_rate")
    for name in names + ("u_L2", "z_L2", "zt_L2"):
        a, b = (getattr(trajs[solver], name) for solver in ("dense-lu", "sparse-lu"))
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name


@pytest.mark.parametrize("solver", ["dense-lu", "sparse-lu"])
def test_both_stage_forms_conserve_the_critical_energy(monkeypatch, solver):
    scen = M.Scenario(M.load_config({"preset": "interval-1d-conserved"}))
    _force_stage_solver(monkeypatch, scen.mesh.n_nodes, solver)
    traj = M.simulate(scen.bundle, scen.initial, T=10.0, dt=1e-3)
    assert traj.meta["stage_solver"] == solver
    assert np.abs(traj.E1 - traj.E1[0]).max() <= 1e-12 * traj.E1[0]


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("resolution", [16, 32, 64, 128])
def test_dense_stage_conserves_the_critical_energy(monkeypatch, resolution, dt):
    # 10^4 midpoint steps through the dense LU stage (cond(S) is about 4); bounds
    # fixed before the run
    cfg = M.preset("interval-1d-conserved")
    cfg["mesh"]["resolution"] = resolution
    scen = M.Scenario(M.load_config(cfg))
    _force_stage_solver(monkeypatch, scen.mesh.n_nodes, "dense-lu")
    traj = M.simulate(scen.bundle, scen.initial, T=1e4 * dt, dt=dt)
    assert traj.meta["stage_solver"] == "dense-lu" and len(traj.times) == 10001
    assert np.abs(traj.E1 - traj.E1[0]).max() <= 1e-12 * traj.E1[0]
    assert traj.meta["stage_residual"] <= 1e-14


COLUMNS = ("E0", "E1", "E", "D_boundary", "D_interior", "work_rate", "u_L2", "z_L2", "zt_L2")


def per_sample_columns(traj, states, bundle, source):
    """Trajectory columns evaluated one recorded state at a time."""
    params = bundle.params
    q, tau = params.q, params.tau
    rows = []
    for k, t in enumerate(traj.times):
        s = State(*states[:, k], float(t))
        z, zt = s.v + q * s.u, s.w + q * s.v
        e1 = M.energy_E1(M.m_transform(s, params), bundle)
        e0 = M.energy_E0(s, bundle)
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
    traj, states = simulate_with_states(scen.bundle, scen.initial, **run)
    assert len(traj.times) == n_samples
    assert traj.states is None and states.shape == (3, n_samples, scen.mesh.n_nodes)
    ref = per_sample_columns(traj, states, scen.bundle, src)
    for name, col in zip(COLUMNS, ref):
        got = getattr(traj, name)
        np.testing.assert_allclose(got, col, rtol=1e-12, atol=1e-300, err_msg=name)


@pytest.mark.parametrize("solver", ["dense-lu", "sparse-lu"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("scheme", ["implicit-midpoint", "bdf2"])
def test_simulate_matches_chained_steps_bit_for_bit(monkeypatch, scheme, stride, solver):
    # n = 17 and 500 steps; the budget gives chunks of 68 (dense) or 67
    # (sparse) samples, so both strides record across chunk boundaries
    scen = make_scenario(mesh={"resolution": 16}, initial={"kind": "robin-mode"})
    n, x = scen.mesh.n_nodes, scen.mesh.nodes[:, 0]
    _force_stage_solver(monkeypatch, n, solver)
    chunk = dynamics._CHUNK_ELEMENTS // n
    src = lambda t: np.cos(2.0 * x) * (np.sin(3.0 * t) + 0.5)
    dt, n_steps = 2e-3, 500
    stepper = M.Stepper(M.assemble_generator(scen.bundle, form="u"), dt, scheme, src)
    states = [scen.initial]
    for _ in range(n_steps):
        states.append(stepper.step(states[-1], states[-2] if len(states) > 1 else None))
    ref = [states[k] for k in sorted(set(range(0, n_steps + 1, stride)) | {n_steps})]
    assert len(ref) > chunk
    U, V, W = (np.array([getattr(s, name) for s in ref]) for name in "uvw")
    times = np.array([s.t for s in ref])
    # the columns of the same states, evaluated chunk by chunk as simulate does
    chunks = [slice(lo, lo + chunk) for lo in range(0, len(ref), chunk)]
    cols = np.hstack([dynamics._observables(U[c], V[c], W[c], times[c], scen.bundle, src, False) for c in chunks])
    run = dict(T=n_steps * dt, dt=dt, source=src, scheme=scheme, output_stride=stride)
    got = []
    traj, states = simulate_with_states(scen.bundle, scen.initial, on_chunk=got.append, **run)
    assert traj.meta["stage_solver"] == solver
    assert np.array_equal(traj.times, times)
    for name, col in zip(COLUMNS, cols):
        assert np.array_equal(getattr(traj, name), col), name
    # on_chunk saw each chunk's rows once, in order
    assert [len(c.times) for c in got] == [len(times[c]) for c in chunks]
    for name in ("times",) + COLUMNS:
        assert np.array_equal(np.concatenate([getattr(c, name) for c in got]), getattr(traj, name))
    assert np.array_equal(states, np.array([U, V, W]))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    scheme=st.sampled_from(["implicit-midpoint", "bdf2"]),
    stride=st.integers(1, 12),
    n_steps=st.integers(0, 300),
    resolution=st.integers(2, 40),
    sparse=st.booleans(),
    forced=st.booleans(),
    t0=st.floats(-100.0, 100.0),
)
def test_simulate_is_chained_steps_for_any_run(scheme, stride, n_steps, resolution, sparse, forced, t0):
    # simulate and Stepper.step run the same kernel: the same bits and rows for any
    # scheme, stride, length, stage storage (sparse forced through the budget),
    # forcing and start time
    scen = make_scenario(mesh={"resolution": resolution}, initial={"kind": "robin-mode"})
    n, x = scen.mesh.n_nodes, scen.mesh.nodes[:, 0]
    src = (lambda t: np.cos(2.0 * x) * (np.sin(3.0 * t) + 0.5)) if forced else None
    initial, dt = State(scen.initial.u, scen.initial.v, scen.initial.w, t0), 2e-3
    budget = 4 * n * n - 1 if sparse else dynamics._CHUNK_ELEMENTS
    with mock.patch.object(dynamics, "_CHUNK_ELEMENTS", budget):
        stepper = M.Stepper(M.assemble_generator(scen.bundle, form="u"), dt, scheme, src)
        states = [initial]
        for _ in range(n_steps):
            states.append(stepper.step(states[-1], states[-2] if len(states) > 1 else None))
        run = dict(T=n_steps * dt, dt=dt, source=src, scheme=scheme, output_stride=stride)
        traj, got = simulate_with_states(scen.bundle, initial, **run)
    ref = [states[k] for k in sorted(set(range(0, n_steps + 1, stride)) | {n_steps})]
    assert traj.meta["stage_solver"] == ("sparse-lu" if sparse else "dense-lu")
    assert len(traj.times) == len(ref) == dynamics.record_count(n_steps * dt, dt, stride)
    assert np.array_equal(traj.times, [s.t for s in ref])
    assert np.array_equal(got, [[getattr(s, name) for s in ref] for name in "uvw"])


@pytest.mark.parametrize(
    "preset, resolution, T, dt, solver",
    [
        # n = 65: chunks of 1008 samples, so 1101 samples end in a chunk of 93
        ("interval-1d-damped", 64, 1.1, 1e-3, "dense-lu"),
        # n = 171: chunks of 383 samples, so 401 samples end in a chunk of 18
        ("half-disk-2d", 4, 4.0, 1e-2, "sparse-lu"),
    ],
)
def test_recorded_chunks_reach_the_quadratic_forms_contiguous(monkeypatch, preset, resolution, T, dt, solver):
    # simulate records node-major, so every ``A @ x.T`` in the trajectory
    # columns multiplies a C-contiguous (n, samples) block, the last chunk's too
    cfg = M.preset(preset)
    cfg["mesh"]["resolution"] = resolution
    scen = M.Scenario(M.load_config(cfg))
    initial = scen.initial  # built lazily, with single-state energies
    seen, quad = [], energy._quad

    def spy(A, x):
        seen.append((x.shape[0], x.T.flags.c_contiguous))
        return quad(A, x)

    monkeypatch.setattr(energy, "_quad", spy)
    traj = M.simulate(scen.bundle, initial, T=T, dt=dt)
    chunk = dynamics._CHUNK_ELEMENTS // scen.mesh.n_nodes
    assert traj.meta["stage_solver"] == solver
    assert {m for m, _ in seen} == {chunk, len(traj.times) - chunk}
    assert all(contiguous for _, contiguous in seen)


def test_record_count_is_the_number_of_recorded_samples():
    # every stride-th step from step 0, and the last step
    scen = make_scenario(mesh={"resolution": 4})
    for n_steps in (0, 1, 6, 7, 12, 500):
        for stride in (1, 2, 7, 13, 600):
            expected = len(set(range(0, n_steps + 1, stride)) | {n_steps})
            assert dynamics.record_count(n_steps * 0.1, 0.1, stride) == expected
            if n_steps:
                run = dict(T=n_steps * 0.1, dt=0.1, output_stride=stride)
                assert len(M.simulate(scen.bundle, scen.initial, **run).times) == expected


# ---------------------------------------------------------- reconstruction


def test_reconstruction_matches_simulated_u():
    scen = make_scenario(mesh={"resolution": 32}, initial={"kind": "robin-mode"})
    dt = 5e-4
    traj, (u, ut, _) = simulate_with_states(scen.bundle, scen.initial, T=1.0, dt=dt)
    z = ut + scen.params.q * u
    u_rec = reconstruct_u_from_z(traj.times, z, u[0], scen.params)
    err = np.abs(u_rec - u).max()
    assert err < 5e-6, err


def test_output_stride_subsamples():
    scen = make_scenario(mesh={"resolution": 16})
    traj = M.simulate(scen.bundle, scen.initial, T=0.2, dt=1e-2, output_stride=4)
    np.testing.assert_allclose(np.diff(traj.times), 4e-2, rtol=1e-12)
