"""Spectral analysis: modal cubic, generator pencils, conjugacy.

With kappa1 = 0 the semi-discrete generator block-diagonalizes over the
discrete elliptic eigenpairs, so its full spectrum must equal the union
of modal-cubic root triples -- an exact structural oracle, no PDE
asymptotics involved.
"""

import numpy as np
import pytest
import scipy.linalg

import mgtstab as M
from mgtstab import dynamics, spectral

from conftest import interval_config, match_spectra


def make_scenario(**over):
    return M.Scenario(interval_config(**over))


# ------------------------------------------------------------ modal cubic


def test_gamma_zero_roots_factor_exactly():
    rng = np.random.default_rng(21)
    for _ in range(50):
        tau, b, c, mu = rng.uniform(0.2, 3.0, 4)
        alpha = tau * c**2 / b  # gamma = 0
        roots = M.modal_cubic_roots(mu, {"tau": tau, "alpha": alpha, "b": b, "c": c})
        expected = np.array(
            [-alpha / tau, 1j * np.sqrt(b * mu / tau), -1j * np.sqrt(b * mu / tau)]
        )
        assert match_spectra(roots, expected) <= 1e-9
        assert np.abs(roots.real).max() <= 1e-9 or np.isclose(
            roots.real.min(), -alpha / tau
        )


def test_routh_hurwitz_agrees_with_root_signs():
    rng = np.random.default_rng(22)
    for _ in range(300):
        while True:
            tau, alpha, b, c, mu = rng.uniform(0.1, 3.0, 5)
            if abs(alpha - tau * c**2 / b) > 1e-6:
                break
        roots = M.modal_cubic_roots(mu, {"tau": tau, "alpha": alpha, "b": b, "c": c})
        assert (roots.real.max() < 0) == M.routh_hurwitz_stable(tau, alpha, b, c, mu)


def test_gamma_parameter_sign_matches_classification():
    scen = make_scenario(params={"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0})
    assert M.gamma_parameter(1.0, 2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert scen.params.stability_classification() == "stable"
    assert M.Scenario(
        interval_config(params={"alpha": 1.0})
    ).params.stability_classification() == "critical"
    assert M.Scenario(
        interval_config(params={"alpha": 0.5})
    ).params.stability_classification() == "unstable"


def test_modal_cubic_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        M.modal_cubic_roots(-1.0, {"tau": 1, "alpha": 2, "b": 1, "c": 1})


# ------------------------------------------------------- generator spectra


def test_spectrum_is_union_of_modal_triples():
    # kappa1 = 0 decouples the semi-discrete system over the eigenpairs of
    # (Ktilde, M); each keeps exactly the three modal-cubic roots.  At
    # gamma = 0 (alpha = 1) the cubic factors as (lambda + c^2/b)(tau
    # lambda^2 + b mu), an exact oracle for the damped-wave block path.
    for alpha, method in ((2.0, "dense"), (1.0, "dense-wave-block")):
        scen = make_scenario(mesh={"resolution": 16}, params={"kappa1": 0.0, "alpha": alpha})
        gen = M.assemble_generator(scen.bundle, form="u")
        rep = M.spectrum(gen)
        assert rep.method == method
        mus = scipy.linalg.eigh(
            scen.bundle.Ktilde.toarray(), scen.bundle.Mmat.toarray(), eigvals_only=True
        )
        predicted = np.concatenate([M.modal_cubic_roots(mu, scen.params) for mu in mus])
        assert match_spectra(rep.eigenvalues, predicted) <= 1e-8, alpha


def _reference_eigs(gen):
    # the 3n dense eigensolve every gamma takes outside the critical case
    return spectral._sorted_eigvals(scipy.linalg.eigvals(gen.dense()))


@pytest.mark.parametrize(
    "cfg",
    [
        {"preset": "interval-1d-damped", "mesh": {"resolution": 16}, "params": {"alpha": 1.0}},
        {"preset": "transducer-2d", "mesh": {"resolution": 3}},
    ],
    ids=["interval-16", "transducer-3"],
)
def test_critical_wave_block_spectrum_matches_the_full_eigensolve(cfg):
    # gamma == 0 with kappa1 > 0: the damped-wave block plus -c^2/b n times
    scen = M.Scenario(M.load_config(cfg))
    assert scen.config["params"]["kappa1"] > 0 and scen.bundle.Mgamma.count_nonzero() == 0
    n = scen.mesh.n_nodes
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    ref = _reference_eigs(gen)
    assert rep.method == "dense-wave-block"
    assert (rep.form, len(rep.eigenvalues)) == ("u", 3 * n)
    assert match_spectra(rep.eigenvalues, ref) <= 1e-8
    assert abs(rep.abscissa - ref.real.max()) <= 1e-10
    assert np.count_nonzero(rep.eigenvalues == -scen.params.q) == n
    # a z-form input takes the same block and keeps its own form
    rep_z = M.spectrum(M.assemble_generator(scen.bundle, form="z"))
    assert rep_z.form == "z" and rep_z.method == rep.method
    np.testing.assert_array_equal(rep_z.eigenvalues, rep.eigenvalues)


def test_nearly_critical_gamma_takes_the_full_eigensolve():
    # gamma = 2**-50 is classified critical, but Mgamma is not exactly zero
    scen = make_scenario(mesh={"resolution": 8}, params={"alpha": 1.0 + 2.0**-50})
    assert scen.params.stability_classification() == "critical"
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    assert rep.method == "dense"
    np.testing.assert_array_equal(rep.eigenvalues, _reference_eigs(gen))


def test_noncritical_spectrum_assembles_no_z_form(monkeypatch):
    calls = []
    assemble = spectral.assemble_generator

    def recording(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(spectral, "assemble_generator", recording)
    monkeypatch.setattr(dynamics, "assemble_generator", recording)
    scen = make_scenario(mesh={"resolution": 8})  # gamma = 1
    rep = M.spectrum(assemble(scen.bundle, form="u"))
    assert rep.method == "dense"
    assert calls == []


def test_report_dict_carries_the_eigensolver_method():
    vals = np.array([-1.0 + 0j])
    out = spectral.SpectrumReport(vals, -1.0, True, method="dense").to_dict()
    assert (out["method"], out["partial"]) == ("dense", False)
    assert "converged" not in out


def test_spectrum_above_the_cap_is_a_config_error(monkeypatch):
    # the cap is read at call time, and nothing dense is built above it
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, form="u")
    assert gen.size == 27
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 26)
    monkeypatch.setattr(type(gen), "dense", lambda self: pytest.fail("dense() built"))
    with pytest.raises(M.ConfigError, match="3n = 27 exceeds the dense eigensolver cap 26"):
        M.spectrum(gen)
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "DENSE_EIG_CAP", 27)
    assert len(M.spectrum(gen).eigenvalues) == 27


def test_dense_spectrum_report_shape():
    scen = make_scenario(mesh={"resolution": 12})
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    n = scen.mesh.n_nodes
    assert len(rep.eigenvalues) == 3 * n
    assert rep.method == "dense"
    assert rep.abscissa == pytest.approx(rep.eigenvalues.real.max())
    assert rep.stable == (rep.abscissa < 0)
    assert rep.abscissa < 0  # damped configuration


def test_eigenvalues_satisfy_pencil():
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    E = gen.E.toarray()
    L = gen.L.toarray()
    scale = np.linalg.norm(L, 2)
    for lam in rep.eigenvalues[:: len(rep.eigenvalues) // 7]:
        sigma = np.linalg.svd(L - lam * E, compute_uv=False)
        assert sigma[-1] <= 1e-9 * scale


def test_unstable_spectrum_has_positive_abscissa():
    scen = make_scenario(mesh={"resolution": 16}, params={"alpha": 0.5, "kappa1": 0.0})
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    assert rep.abscissa > 0
    assert not rep.stable


def _wave_root(kappa0, kappa1, s, guess):
    # Newton on (lam + kappa1 kappa0 s^2) sinh(lam/s) + s (kappa0 + kappa1 lam) cosh(lam/s)
    lam = complex(guess)
    for _ in range(50):
        sh, ch = np.sinh(lam / s), np.cosh(lam / s)
        f = (lam + kappa1 * kappa0 * s**2) * sh + s * (kappa0 + kappa1 * lam) * ch
        df = (1.0 + kappa0 + kappa1 * lam) * sh
        df += ((lam + kappa1 * kappa0 * s**2) / s + s * kappa1) * ch
        lam -= f / df
    return lam


def test_critical_interval_spectrum_converges_to_the_exact_wave_roots():
    # At gamma = 0 in 1D the z-equation is z_tt = s^2 z_xx, s = sqrt(b/tau),
    # with -z_x + kappa0 z = 0 at x = 0 and z_x + kappa1 z_t = 0 at x = 1;
    # the equation in _wave_root is its characteristic function.  The discrete
    # low modes converge to its roots at O(h^2), while the plain abscissa
    # comes from the grid's top mode, which sees no boundary damping, and
    # collapses towards zero like h^2.
    root = _wave_root(1.0, 0.5, 1.0, -0.35 + 0.84j)
    assert abs(root - (-0.348164500 + 0.837917123j)) <= 1e-9
    dist, absc, low = [], [], []
    for res in (16, 32, 64, 128, 256):
        cfg = {"preset": "interval-1d-conserved", "mesh": {"resolution": res},
               "params": {"kappa1": 0.5}}
        scen = M.Scenario(M.load_config(cfg))
        rep = M.spectrum(M.assemble_generator(scen.bundle, form="u"))
        assert rep.method == "dense-wave-block"
        vals = rep.eigenvalues
        dist.append(np.abs(vals - root).min())
        absc.append(rep.abscissa)
        low.append(vals[np.abs(vals.imag) < 20].real.max())
    assert M.refinement_slope(dist) >= 1.9, dist
    ratios = np.array(absc[:-1]) / np.array(absc[1:])
    assert ((3.5 <= ratios) & (ratios <= 4.5)).all(), absc
    assert np.abs(np.array(low) - root.real).max() <= 2e-4, low


# ------------------------------------------------------------- conjugacy


def test_m_transform_conjugates_generators():
    scen = make_scenario(mesh={"resolution": 8}, params={"tau": 0.8, "c": 1.2, "b": 1.5})
    gen_u = M.assemble_generator(scen.bundle, form="u")
    gen_z = M.assemble_generator(scen.bundle, form="z")
    n = scen.mesh.n_nodes
    Au = np.linalg.solve(gen_u.E.toarray(), gen_u.L.toarray())
    Az = np.linalg.solve(gen_z.E.toarray(), gen_z.L.toarray())
    q = scen.params.q
    I, Z = np.eye(n), np.zeros((n, n))
    T = np.block([[I, Z, Z], [q * I, I, Z], [Z, q * I, I]])
    conj = T @ Au @ np.linalg.solve(T, np.eye(3 * n))
    rel = np.linalg.norm(Az - conj, 2) / np.linalg.norm(Az, 2)
    assert rel <= 1e-10, rel


def test_u_and_z_spectra_agree():
    scen = make_scenario(mesh={"resolution": 8})
    gen_u = M.assemble_generator(scen.bundle, form="u")
    gen_z = M.assemble_generator(scen.bundle, form="z")
    dist = match_spectra(M.spectrum(gen_u).eigenvalues, M.spectrum(gen_z).eigenvalues)
    assert dist <= 1e-8, dist


# ------------------------------------------------------------ diagnostics


def test_abscissa_vs_decay_on_exact_exponential():
    scen = make_scenario(mesh={"resolution": 8})
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    t = np.linspace(0.0, 10.0, 500)
    out = M.abscissa_vs_decay(rep, t, np.exp(2.0 * rep.abscissa * t))
    assert out["applicable"]
    assert out["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_abscissa_vs_decay_not_applicable_when_unstable():
    scen = make_scenario(mesh={"resolution": 8}, params={"alpha": 0.5, "kappa1": 0.0})
    gen = M.assemble_generator(scen.bundle, form="u")
    t = np.linspace(0.0, 5.0, 100)
    out = M.abscissa_vs_decay(M.spectrum(gen), t, np.exp(t))
    assert not out["applicable"]
    assert out["ratio"] is None


@pytest.mark.parametrize("factor, stable", [(-0.5, False), (-2.0, True)])
def test_stability_needs_the_abscissa_below_the_rounding_tolerance(monkeypatch, factor, stable):
    # a spectrum whose abscissa is within len * eps * max|lambda| of zero
    # is decided by rounding, so it is not reported stable
    scen = make_scenario(mesh={"resolution": 4})
    gen = M.assemble_generator(scen.bundle, form="u")
    vals = np.resize(np.array([-4.0e4, -3.0 - 20.0j, -3.0 + 20.0j, -1.0]), gen.size)
    tol = gen.size * np.finfo(float).eps * 4.0e4  # 1.3e-10, above a fixed 1e-12 cutoff
    vals[3] = factor * tol
    monkeypatch.setattr(spectral, "_sorted_eigvals", lambda _: vals)
    rep = M.spectrum(gen)
    assert rep.abscissa == factor * tol
    assert rep.stable is stable
    t = np.linspace(0.0, 10.0, 500)
    out = M.abscissa_vs_decay(rep, t, np.exp(-t))
    assert out["applicable"] is stable


def test_match_spectra_detects_permuted_noise():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    b = np.random.default_rng(24).permutation(a) + 1e-10
    assert match_spectra(a, b) <= 2e-10
    with pytest.raises(ValueError):
        match_spectra(a, a[:5])
