"""Spectral analysis: modal cubic, generator pencils, conjugacy.

With kappa1 = 0 the semi-discrete generator block-diagonalizes over the
discrete elliptic eigenpairs, so its full spectrum must equal the union
of modal-cubic root triples -- an exact structural oracle, no PDE
asymptotics involved.
"""

import dataclasses
import importlib.util
import os

import numpy as np
import pytest
import scipy.linalg

import mgtstab as M
from mgtstab import dynamics, spectral

from conftest import dispersion_root, dispersion_root_count, interval_config, match_spectra, pencil


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
        # Routh-Hurwitz: stable exactly when gamma = alpha - tau c^2 / b > 0
        assert (roots.real.max() < 0) == (alpha - tau * c**2 / b > 0)


def test_gamma_parameter_sign_matches_classification():
    scen = make_scenario(params={"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0})
    np.testing.assert_allclose(scen.params.gamma_field, 1.0)
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
        predicted = np.concatenate([M.modal_cubic_roots(mu, scen.config["params"]) for mu in mus])
        assert match_spectra(rep.eigenvalues, predicted) <= 1e-8, alpha


def _reference_eigs(gen):
    # the whole 3n dense eigensolve, with neither the wave-block nor the mirror reduction
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


def test_method_rests_on_the_nonzero_entries_of_mgamma():
    # Mgamma keeps its exact zeros on the element pattern: gamma vanishing on part
    # of the domain leaves it nonzero elsewhere (dense), gamma == 0 leaves it
    # stored entries that are all zero (the wave block, which a count of stored
    # entries would miss)
    scen = make_scenario(mesh={"resolution": 16})
    p = scen.params
    critical = p.tau * p.c**2 / p.b
    x = scen.mesh.nodes[:, 0]
    part = np.where(x < 0.5, critical, critical + 1.0)
    for alpha, method in ((part, "dense"), (np.full_like(x, critical), "dense-wave-block")):
        bundle = M.assemble_operators(scen.mesh, dataclasses.replace(p, alpha_field=alpha))
        Mg = bundle.Mgamma
        assert Mg.nnz == bundle.Mmat.nnz and Mg.count_nonzero() < Mg.nnz
        assert M.spectrum(M.assemble_generator(bundle, "u")).method == method


# ------------------------------------------------------------ mirror split


def _x_mirror(mesh):
    """The node map of the reflection of x about the bounding-box mid-plane,
    or None when it does not map the nodes onto nodes."""
    x = mesh.nodes
    y = x.copy()
    y[:, 0] = x[:, 0].min() + x[:, 0].max() - x[:, 0]
    order, mirrored = np.lexsort(x.T), np.lexsort(y.T)
    if not np.array_equal(x[order], y[mirrored]):
        return None
    P = np.empty(len(x), int)
    P[mirrored] = order
    return P


@pytest.mark.parametrize(
    "cfg",
    [
        {"preset": "transducer-2d", "mesh": {"resolution": 3}},
        {"preset": "transducer-2d", "mesh": {"resolution": 5}},
        {"preset": "half-disk-2d", "mesh": {"resolution": 4}},
    ],
    ids=["transducer-3", "transducer-5", "half-disk-4"],
)
def test_mirror_split_matches_the_full_eigensolve(cfg, monkeypatch):
    # both domains mirror in x about x = 0: the even fold keeps one node per
    # orbit, (n + a) / 2 of them with a on the axis, the odd fold (n - a) / 2
    scen = M.Scenario(M.load_config(cfg))
    n, a = scen.mesh.n_nodes, np.count_nonzero(scen.mesh.nodes[:, 0] == 0.0)
    assert _x_mirror(scen.mesh) is not None and (n - a) % 2 == 0
    gen = M.assemble_generator(scen.bundle, form="u")
    rep = M.spectrum(gen)
    ref = _reference_eigs(gen)
    monkeypatch.setattr(spectral, "_mirror", lambda gen: None)
    whole = M.spectrum(gen)
    fields = 2 if rep.method == "dense-wave-block" else 3
    assert rep.blocks == (fields * (n + a) // 2, fields * (n - a) // 2)
    assert whole.blocks == (fields * n,)
    assert (rep.method, rep.stable, len(rep.eigenvalues)) == (whole.method, whole.stable, 3 * n)
    assert match_spectra(rep.eigenvalues, ref) <= 1e-8
    assert abs(rep.abscissa - ref.real.max()) <= 1e-10
    if rep.method == "dense-wave-block":
        assert np.count_nonzero(rep.eigenvalues == -scen.params.q) == n
    else:
        assert cfg["preset"] == "half-disk-2d" and scen.params.gamma_field.min() == 0.5


def test_the_wave_block_path_neither_checks_nor_folds_lu(monkeypatch):
    # dense_vw reads Ew, Lv and Lw only; the z-form Lu is all zeros there
    scen = M.Scenario(M.load_config({"preset": "transducer-2d", "mesh": {"resolution": 3}}))
    seen, mirror = [], spectral._mirror
    monkeypatch.setattr(spectral, "_mirror", lambda gen: seen.append(gen) or mirror(gen))
    rep = M.spectrum(M.assemble_generator(scen.bundle, form="u"))
    assert rep.method == "dense-wave-block" and len(rep.blocks) == 2
    assert len(seen) == 1 and seen[0].Lu is None and seen[0].Lv is not None


def _pentagon():
    tool = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "artifact_diff.py")
    spec = importlib.util.spec_from_file_location("artifact_diff", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: geometry for name, geometry, _, _ in module.PATTERN_CASES}["pentagon"]


@pytest.mark.parametrize("case", ["interval", "interval-critical", "unit-square", "pentagon"])
def test_without_a_mirror_the_whole_generator_is_solved_bit_for_bit(case):
    # the interval's nodes mirror but its tagged end points do not; the unit
    # square's nodes and tags mirror about x = 1/2 but its one-diagonal
    # triangulation's mass matrix does not; the pentagon's nodes do not
    cfg = {"preset": "interval-1d-damped"}
    if case == "interval-critical":
        cfg["params"] = {"alpha": 1.0}
    elif case == "unit-square":
        cfg = {"preset": "half-disk-2d", "geometry": {"kind": "named", "name": "unit-square"}}
    elif case == "pentagon":
        cfg = {"preset": "half-disk-2d", "geometry": _pentagon(), "initial": {"kind": "zero"}}
    scen = M.Scenario(M.load_config(cfg))
    mesh, n = scen.mesh, scen.mesh.n_nodes
    P = _x_mirror(mesh)
    assert (P is None) == (case == "pentagon")
    if case == "unit-square":
        Mm = scen.bundle.Mmat
        assert abs(Mm[P][:, P] - Mm).max() > 0.1 * abs(Mm).max()
    gen = M.assemble_generator(scen.bundle, form="u")
    if case.startswith("interval"):
        # the tagged end points reject the mirror before any block is read
        assert spectral._mirror(dataclasses.replace(gen, Ew=None, Lu=None, Lv=None, Lw=None)) is None
    rep = M.spectrum(gen)
    if rep.method == "dense-wave-block":
        gz = M.assemble_generator(scen.bundle, form="z")
        wave = scipy.linalg.eigvals(gz.dense_vw())
        expected = spectral._sorted_eigvals(np.concatenate((np.full(n, gz.shift), wave)))
        assert (case, rep.blocks) == ("interval-critical", (2 * n,))
    else:
        expected = _reference_eigs(gen)
        assert rep.blocks == (3 * n,)
    np.testing.assert_array_equal(rep.eigenvalues, expected)


def test_a_block_off_mirror_by_1e_10_takes_the_whole_eigensolve():
    scen = M.Scenario(M.load_config({"preset": "half-disk-2d", "mesh": {"resolution": 4}}))
    gen = M.assemble_generator(scen.bundle, form="u")
    assert len(M.spectrum(gen).blocks) == 2
    i = int(np.flatnonzero(_x_mirror(scen.mesh) != np.arange(scen.mesh.n_nodes))[0])
    Lv = gen.Lv.copy()
    Lv[i, i] *= 1.0 + 1e-10  # its mirrored entry keeps its value
    bent = dataclasses.replace(gen, Lv=Lv)
    rep = M.spectrum(bent)
    assert rep.blocks == (bent.size,)
    np.testing.assert_array_equal(rep.eigenvalues, _reference_eigs(bent))


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
    E, L = (A.toarray() for A in pencil(gen))
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


def test_critical_interval_spectrum_converges_to_the_exact_wave_roots():
    # At gamma = 0 in 1D the z-equation is z_tt = s^2 z_xx, s = sqrt(b/tau),
    # with -z_x + kappa0 z = 0 at x = 0 and z_x + kappa1 z_t = 0 at x = 1;
    # there mu = lam^2 / s^2 and the dispersion relation is its
    # characteristic function.  The discrete low modes converge to its roots
    # at O(h^2), while the plain abscissa comes from the grid's top mode,
    # which sees no boundary damping, and collapses towards zero like h^2.
    cfg = {"preset": "interval-1d-conserved", "params": {"kappa1": 0.5}}
    root = dispersion_root(M.load_config(cfg)["params"], -0.35 + 0.84j)
    assert abs(root - (-0.348164500 + 0.837917123j)) <= 1e-9
    dist, absc, low = [], [], []
    for res in (16, 32, 64, 128, 256):
        scen = M.Scenario(M.load_config({**cfg, "mesh": {"resolution": res}}))
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


# (config, Newton start, pinned root) of the dispersion relation
PINNED_ROOTS = pytest.mark.parametrize(
    "cfg, guess, pinned",
    [
        ({"preset": "interval-1d-damped"}, -0.38 + 0.41j, -0.380694073 + 0.408446721j),
        ({"preset": "interval-1d-unstable"}, 0.25 + 9.55j, 0.247305883 + 9.55191084j),
        (
            {"preset": "interval-1d-damped", "params": {"alpha": 1.2, "kappa1": 0.5}},
            -0.35 + 0.74j,
            -0.346577310 + 0.742039506j,
        ),
    ],
    ids=["damped", "unstable", "damped-alpha-1.2-kappa1-0.5"],
)


@PINNED_ROOTS
def test_damped_interval_spectrum_converges_to_the_dispersion_root(cfg, guess, pinned):
    # the discrete eigenvalue nearest to an exact root of the dispersion
    # relation converges at O(h^2); interval-1d-damped's (gamma = 1) is
    # the preset's abscissa, interval-1d-unstable's (gamma = -0.5) a root
    # in the right half plane
    root = dispersion_root(M.load_config(cfg)["params"], guess)
    assert abs(root - pinned) <= 1e-9
    dist = []
    for res in (16, 32, 64, 128):
        scen = M.Scenario(M.load_config({**cfg, "mesh": {"resolution": res}}))
        vals = M.spectrum(M.assemble_generator(scen.bundle, form="u")).eigenvalues
        dist.append(np.abs(vals - root).min())
    assert M.refinement_slope(dist) >= 1.9, dist


# The certified window, fixed before the run: |Im lam| < 40, over four times the
# largest pinned |Im lam|, and Re lam < 20.  Beyond |Im lam| = 40 the claim rests
# on the high-root asymptote Re lam -> -gamma/(2 tau) + (s/2) ln|(1 - kappa1 s)/(1 + kappa1 s)|,
# s = sqrt(b/tau) the wave speed (-inf, +0.25 and -0.649 for the three rows),
# an assumption.
IM_MAX, RE_MAX = 40.0, 20.0


@PINNED_ROOTS
def test_no_dispersion_root_lies_right_of_the_pinned_roots(cfg, guess, pinned):
    # the argument principle counts what Newton cannot: the roots to the right
    # of each pinned root.  A rectangle that starts just left of the root counts
    # it and its conjugate.  interval-1d-unstable (kappa1 = 0, gamma = -0.5) is
    # the exception: its roots are the cubic's for mu = -omega_n^2, omega_n
    # tan(omega_n) = kappa0, with Re lam rising to -gamma/(2 tau) = 0.25 from
    # below, so the nine pairs with Im lam 12.66 ... 37.73 lie right of the
    # pinned one (Re 0.24846 ... 0.24982) and none right of 0.25
    params = M.load_config(cfg)["params"]
    root = dispersion_root(params, guess)
    right = dispersion_root_count(params, root.real + 1e-9, RE_MAX, IM_MAX)
    assert dispersion_root_count(params, root.real - 1e-3, RE_MAX, IM_MAX) == right + 2
    if cfg["preset"] == "interval-1d-unstable":
        assert right == 18
        assert dispersion_root_count(params, 0.25, RE_MAX, IM_MAX) == 0
    else:
        assert right == 0


# The two tests below pin facts about the current P1 scheme, not gates: its
# plain abscissa is a grid mode that sees no boundary feedback.  A scheme
# that mends this (a numerical viscosity) replaces these values with the
# exact abscissa instead of loosening them.


def test_matched_gain_abscissa_collapses_like_h_squared():
    # interval-1d-conserved (gamma = 0) at the matched gain kappa1 = 1/s = 1:
    # the z-block's one exact eigenvalue is -kappa0 s = -1 and the discrete
    # spectrum has it, but the plain abscissa falls towards zero by 16x per
    # 4x refinement (values measured on the current scheme)
    cfg = {"preset": "interval-1d-conserved", "params": {"kappa1": 1.0}}
    for res, pinned in ((16, -0.01849), (64, -0.00117), (256, -0.00007)):
        scen = M.Scenario(M.load_config({**cfg, "mesh": {"resolution": res}}))
        rep = M.spectrum(M.assemble_generator(scen.bundle, form="u"))
        assert rep.method == "dense-wave-block"
        assert abs(rep.abscissa - pinned) <= 5e-6, (res, rep.abscissa)
        assert np.abs(rep.eigenvalues + 1.0).min() <= 2e-3, res


def test_damped_interval_abscissa_drifts_to_the_interior_damping():
    # gamma = 0.2 (alpha = 1.2, kappa1 = 0.5): the exact abscissa is
    # -0.346577 (the dispersion root above), but the plain discrete one is
    # the top grid mode, at |Im lam| h = 2 sqrt(3) at every resolution, and
    # rises towards -gamma/(2 tau) = -0.1, the damping that mode keeps
    cfg = {"preset": "interval-1d-damped", "params": {"alpha": 1.2, "kappa1": 0.5}}
    params = M.load_config(cfg)["params"]
    limit = -(params["alpha"] - params["tau"] * params["c"] ** 2 / params["b"]) / (2 * params["tau"])
    assert abs(limit + 0.1) <= 1e-12
    absc = []
    for res, pinned in ((16, -0.1364), (32, -0.1093), (64, -0.1023), (128, -0.1006)):
        scen = M.Scenario(M.load_config({**cfg, "mesh": {"resolution": res}}))
        rep = M.spectrum(M.assemble_generator(scen.bundle, form="u"))
        top = rep.eigenvalues[np.argmax(rep.eigenvalues.real)]
        assert abs(rep.abscissa - pinned) <= 5e-5, (res, rep.abscissa)
        assert abs(abs(top.imag) * scen.mesh.mesh_size() - 3.46) <= 0.005, (res, top)
        absc.append(rep.abscissa)
    assert absc == sorted(absc) and absc[-1] < limit


# ------------------------------------------------------------- conjugacy


def test_m_transform_conjugates_generators():
    scen = make_scenario(mesh={"resolution": 8}, params={"tau": 0.8, "c": 1.2, "b": 1.5})
    gen_u = M.assemble_generator(scen.bundle, form="u")
    gen_z = M.assemble_generator(scen.bundle, form="z")
    n = scen.mesh.n_nodes
    Au = np.linalg.solve(*(A.toarray() for A in pencil(gen_u)))
    Az = np.linalg.solve(*(A.toarray() for A in pencil(gen_z)))
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
    out = M.abscissa_vs_decay(rep, M.fit_decay_rate(t, np.exp(2.0 * rep.abscissa * t))["omega"])
    assert out["applicable"]
    assert out["ratio"] == pytest.approx(1.0, abs=1e-8)


def test_abscissa_vs_decay_not_applicable_when_unstable():
    scen = make_scenario(mesh={"resolution": 8}, params={"alpha": 0.5, "kappa1": 0.0})
    gen = M.assemble_generator(scen.bundle, form="u")
    t = np.linspace(0.0, 5.0, 100)
    out = M.abscissa_vs_decay(M.spectrum(gen), M.fit_decay_rate(t, np.exp(t))["omega"])
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
    out = M.abscissa_vs_decay(rep, M.fit_decay_rate(t, np.exp(-t))["omega"])
    assert out["applicable"] is stable


def test_match_spectra_detects_permuted_noise():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    b = np.random.default_rng(24).permutation(a) + 1e-10
    assert match_spectra(a, b) <= 2e-10
    with pytest.raises(ValueError):
        match_spectra(a, a[:5])
