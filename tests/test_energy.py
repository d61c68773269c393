"""Energy functionals, the generator quadratic form, norm equivalence."""

import numpy as np
import pytest

import mgtstab as M
from mgtstab.dynamics import State
from mgtstab.errors import UndefinedWeightError

from conftest import interval_config


def make_scenario(**over):
    return M.Scenario(interval_config(**over))


def random_z_state(n, rng):
    return State(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)


def test_total_energy_matches_quadratic_form():
    rng = np.random.default_rng(11)
    scen = make_scenario(params={"tau": 0.8, "c": 1.1, "b": 1.7, "alpha": 2.3})
    Q = M.energy_quadratic_form(scen.bundle)
    n = scen.mesh.n_nodes
    for _ in range(5):
        s = State(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)
        phi = np.concatenate([s.u, s.v, s.w])
        direct = M.energy_E0(s, scen.bundle) + M.energy_E1(
            M.m_transform(s, scen.params), scen.bundle
        )
        np.testing.assert_allclose(phi @ (Q @ phi), direct, rtol=1e-12)


def test_e1_nonnegative_for_stable_weights():
    rng = np.random.default_rng(12)
    scen = make_scenario()
    for _ in range(20):
        s = random_z_state(scen.mesh.n_nodes, rng)
        assert M.energy_E1(s, scen.bundle) >= 0.0


def test_e1_rejects_negative_gamma_unless_asked():
    rng = np.random.default_rng(13)
    scen = make_scenario(params={"alpha": 0.5})  # gamma = -0.5
    s = random_z_state(scen.mesh.n_nodes, rng)
    with pytest.raises(UndefinedWeightError):
        M.energy_E1(s, scen.bundle)
    val = M.energy_E1(s, scen.bundle, allow_indefinite=True)
    assert np.isfinite(val)


def test_gamma_rounding_below_zero_is_not_negative():
    # gamma = -5e-13 is within the 1e-12 band that stability_classification
    # calls critical: the run and E1 both treat it as gamma = 0
    over = {"params": {"alpha": 1.0 - 5e-13}, "mesh": {"resolution": 16}, "time": {"T": 0.1}}
    scen = M.Scenario(M.load_config({"preset": "interval-1d-conserved", **over}))
    assert scen.params.gamma_field.max() < 0.0
    assert scen.params.stability_classification() == "critical"
    traj = M.simulate(scen.bundle, scen.initial, T=0.1, dt=1e-2)
    assert traj.meta["gamma_negative"] is False
    assert traj.meta["stability_classification"] == "critical"
    e1 = M.energy_E1(M.m_transform(scen.initial, scen.params), scen.bundle)
    assert e1 == pytest.approx(traj.E1[0], rel=1e-14)


def test_e0_is_positive_definite():
    rng = np.random.default_rng(14)
    scen = make_scenario()
    n = scen.mesh.n_nodes
    for _ in range(10):
        s = State(rng.standard_normal(n), rng.standard_normal(n), np.zeros(n), 0.0)
        assert M.energy_E0(s, scen.bundle) > 0.0
    zero = State(np.zeros(n), np.zeros(n), np.zeros(n), 0.0)
    assert M.energy_E0(zero, scen.bundle) == 0.0


def weighted_norm2(s, bundle):
    K, Mm = bundle.Ktilde, bundle.Mmat
    return float(s.u @ (K @ s.u) + s.v @ (K @ s.v) + s.w @ (Mm @ s.w))


def test_norm_equivalence_sandwich():
    rng = np.random.default_rng(15)
    scen = make_scenario(params={"tau": 0.9, "b": 1.3})
    c_low, c_high = M.norm_equivalence_constants(scen.bundle)
    assert 0 < c_low <= c_high
    n = scen.mesh.n_nodes
    for _ in range(25):
        s = State(rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n), 0.0)
        norm2 = weighted_norm2(s, scen.bundle)
        e = M.energy_E0(s, scen.bundle) + M.energy_E1(
            M.m_transform(s, scen.params), scen.bundle
        )
        assert c_low * norm2 <= e * (1 + 1e-12)
        assert e <= c_high * norm2 * (1 + 1e-12)


def test_norm_equivalence_is_attained():
    # both constants are extreme generalized eigenvalues; evaluate the
    # energy of the extremal eigenvectors through the direct functionals
    import scipy.linalg

    scen = make_scenario(mesh={"resolution": 8})
    c_low, c_high = M.norm_equivalence_constants(scen.bundle)
    n = scen.mesh.n_nodes
    K = scen.bundle.Ktilde.toarray()
    Mm = scen.bundle.Mmat.toarray()
    Z = np.zeros((n, n))
    H = np.block([[K, Z, Z], [Z, K, Z], [Z, Z, Mm]])
    Q = M.energy_quadratic_form(scen.bundle)
    lam, vec = scipy.linalg.eigh(Q, H)
    for idx, target in ((0, c_low), (-1, c_high)):
        phi = vec[:, idx]
        s = State(phi[:n], phi[n : 2 * n], phi[2 * n :], 0.0)
        e = M.energy_E0(s, scen.bundle) + M.energy_E1(
            M.m_transform(s, scen.params), scen.bundle
        )
        np.testing.assert_allclose(e / weighted_norm2(s, scen.bundle), target, rtol=1e-9)


def test_trajectory_total_energy_is_sum():
    scen = make_scenario(mesh={"resolution": 16}, initial={"kind": "robin-mode"})
    traj = M.simulate(scen.bundle, scen.initial, T=0.5, dt=1e-2)
    np.testing.assert_allclose(traj.E, traj.E0 + traj.E1, rtol=1e-12)


def test_fit_decay_rate_recovers_exact_exponential():
    t = np.linspace(0.0, 8.0, 400)
    E = 2.5 * np.exp(-0.7 * t)
    fit = M.fit_decay_rate(t, E)
    assert fit["omega"] == pytest.approx(0.7, abs=1e-10)
    assert fit["fit_residual"] < 1e-10
    assert fit["M"] >= 1.0


def test_fit_decay_rate_ignores_roundoff_plateau():
    t = np.linspace(0.0, 40.0, 2000)
    E = np.maximum(np.exp(-1.2 * t), 1e-15)
    fit = M.fit_decay_rate(t, E)
    assert fit["omega"] == pytest.approx(1.2, rel=1e-6)


def test_fit_decay_rate_needs_samples():
    with pytest.raises(ValueError):
        M.fit_decay_rate([0.0, 1.0], [1.0, 0.5])
