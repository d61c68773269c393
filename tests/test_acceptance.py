"""End-to-end verification battery at desk scale.

Each test measures one headline property of the toolkit against a fixed
numeric tolerance and prints a single PASS/FAIL line with the measured
value (visible with ``pytest -s``, or in the captured output on
failure). Tolerances are hard gates, not fuzzy expectations: the
conservation and conjugacy checks sit at solver roundoff, the
convergence checks at the quadrature order, and every randomized check
runs under a frozen seed.
"""

import json
import math
import os
from pathlib import Path
import time

import numpy as np
import scipy.linalg

import mgtstab as M
from mgtstab import cli

from conftest import match_spectra, pencil, reconstruct_u_from_z, simulate_with_states


def _line(num, name, ok, detail):
    print("[criterion %02d] %s %s: %s" % (num, "PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


def _scenario(preset_name, **over):
    cfg = dict({"preset": preset_name}, **over)
    return M.Scenario(M.load_config(cfg))


# --------------------------------------------------------------------------


def test_c01_critical_case_conserves_energy():
    scen = _scenario("interval-1d-conserved")
    t0 = time.perf_counter()
    traj = M.simulate(scen.bundle, scen.initial, T=10.0, dt=1e-3, output_stride=1)
    elapsed = time.perf_counter() - t0
    drift = float(np.abs(traj.E1 - traj.E1[0]).max() / traj.E1[0])
    ok = drift <= 1e-8 and elapsed <= 10.0
    _line(
        1,
        "conservation at gamma = 0",
        ok,
        "max relative E1 drift %.3e <= 1e-8 over 10^4 midpoint steps "
        "(runtime %.2fs <= 10s)" % (drift, elapsed),
    )


def test_c02_energy_identity_second_order():
    scen = _scenario("interval-1d-damped")
    residuals = []
    for div in (1, 2, 4):
        traj = M.simulate(scen.bundle, scen.initial, T=20.0, dt=1e-3 / div, output_stride=1)
        residuals.append(M.energy_identity_residual(traj))
    slope = M.refinement_slope(residuals)
    ok = residuals[0] <= 1e-4 and slope >= 1.9
    _line(
        2,
        "dissipation identity",
        ok,
        "residual %.3e <= 1e-4 at dt=1e-3; slope %.3f >= 1.9 over 3 dt levels %s"
        % (residuals[0], slope, ["%.2e" % r for r in residuals]),
    )


def test_c03_critical_decay_and_rate_crosscheck():
    scen2d = _scenario("transducer-2d")
    traj2d = M.simulate(scen2d.bundle, scen2d.initial, T=8.0, dt=4e-3, output_stride=4)
    fit = M.fit_decay_rate(traj2d.times, traj2d.E1)
    gen2d = M.assemble_generator(scen2d.bundle, form="u")
    absc2d = M.spectrum(gen2d).abscissa

    scen1d = _scenario("interval-1d-damped")
    traj1d = M.simulate(scen1d.bundle, scen1d.initial, T=20.0, dt=1e-3, output_stride=10)
    gen1d = M.assemble_generator(scen1d.bundle, form="u")
    omega1d = M.fit_decay_rate(traj1d.times, traj1d.E1)["omega"]
    versus = M.abscissa_vs_decay(M.spectrum(gen1d), omega1d)

    ok = (
        fit["omega"] > 0
        and absc2d < 0
        and versus["applicable"]
        and 0.9 <= versus["ratio"] <= 1.1
    )
    _line(
        3,
        "exponential decay, critical 2D case",
        ok,
        "transducer fitted omega %.4f > 0, abscissa %.3e < 0; 1D damped "
        "decay/abscissa ratio %.3f in [0.9, 1.1]" % (fit["omega"], absc2d, versus["ratio"]),
    )


def test_c04_instability_for_negative_gamma():
    scen = _scenario("interval-1d-unstable")
    gen = M.assemble_generator(scen.bundle, form="u")
    absc = M.spectrum(gen).abscissa
    traj = M.simulate(scen.bundle, scen.initial, T=50.0, dt=5e-3, output_stride=10)
    crossed = np.nonzero(traj.E > 10.0 * traj.E[0])[0]
    t_cross = float(traj.times[crossed[0]]) if len(crossed) else math.inf
    ok = absc > 0 and t_cross < 50.0
    _line(
        4,
        "instability at gamma < 0",
        ok,
        "abscissa %.5f > 0; E exceeds 10 E(0) at t = %.2f < 50" % (absc, t_cross),
    )


def test_c05_routh_hurwitz_dichotomy():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(1000):
        while True:
            tau, alpha, b, c, mu = rng.uniform(0.1, 3.0, 5)
            if abs(alpha - tau * c**2 / b) >= 1e-6:
                break
        roots = M.modal_cubic_roots(mu, {"tau": tau, "alpha": alpha, "b": b, "c": c})
        stable_roots = bool(roots.real.max() < 0)
        agree += int(stable_roots == (alpha - tau * c**2 / b > 0))  # Routh-Hurwitz: gamma > 0

    tau, b, c, mu = 0.7, 1.3, 1.1, 2.0
    alpha = tau * c**2 / b  # constructed equality case gamma = 0
    roots = M.modal_cubic_roots(mu, {"tau": tau, "alpha": alpha, "b": b, "c": c})
    expected = np.array(
        [-alpha / tau, 1j * np.sqrt(b * mu / tau), -1j * np.sqrt(b * mu / tau)]
    )
    root_err = match_spectra(roots, expected)
    max_real = float(roots.real.max())
    ok = agree == 1000 and max_real <= 1e-9 and root_err <= 1e-9
    _line(
        5,
        "Routh-Hurwitz dichotomy",
        ok,
        "sign of gamma predicted stability in %d/1000 draws; equality case "
        "max Re %.1e <= 1e-9, root match %.1e <= 1e-9" % (agree, max_real, root_err),
    )


def test_c06_adjoint_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for scen in (
        _scenario("interval-1d-damped"),
        _scenario("transducer-2d"),
    ):
        n = scen.mesh.n_nodes
        for _ in range(50):
            xi = rng.standard_normal(n)
            phi = rng.standard_normal(n)
            res = M.check_adjoint_identity(scen.bundle, xi, phi)
            worst = max(worst, res / (np.linalg.norm(xi) * np.linalg.norm(phi)))
    ok = worst <= 1e-12
    _line(
        6,
        "harmonic-extension adjoint identity",
        ok,
        "worst normalized residual %.3e <= 1e-12 over 100 random pairs "
        "(1D and 2D)" % worst,
    )


def test_c07_transform_conjugacy():
    scen = _scenario("interval-1d-damped", mesh={"resolution": 8})
    gen_u = M.assemble_generator(scen.bundle, form="u")
    gen_z = M.assemble_generator(scen.bundle, form="z")
    n = scen.mesh.n_nodes
    Au = np.linalg.solve(*(A.toarray() for A in pencil(gen_u)))
    Az = np.linalg.solve(*(A.toarray() for A in pencil(gen_z)))
    q = scen.params.q
    I, Z = np.eye(n), np.zeros((n, n))
    T = np.block([[I, Z, Z], [q * I, I, Z], [Z, q * I, I]])
    rel = np.linalg.norm(Az - T @ Au @ np.linalg.inv(T), 2) / np.linalg.norm(Az, 2)
    dist = match_spectra(M.spectrum(gen_u).eigenvalues, M.spectrum(gen_z).eigenvalues)
    ok = rel <= 1e-10 and dist <= 1e-8
    _line(
        7,
        "transform conjugacy of generators",
        ok,
        "relative conjugation defect %.3e <= 1e-10 (n = 8 mesh); u/z "
        "spectra match to %.3e <= 1e-8" % (rel, dist),
    )


def test_c08_multiplier_identities_converge():
    cfg = M.load_config({"preset": "interval-1d-damped", "mesh": {"resolution": 32}})
    geometry = M.Scenario(cfg).geometry
    free = M.trig_1d()
    bcf = M.bc_satisfying_1d()
    res = {"hgradz": [], "zdivh": [], "zmul": []}
    gamma0_max = 0.0
    for lvl in range(3):
        mesh = M.build_mesh(geometry, 32 * 2**lvl)
        h = M.build_vector_field_h(geometry, mesh, 0.5)
        times = np.linspace(0.0, 2.0, 40 * 2**lvl + 1)
        out = M.residual_hgradz(free, h, mesh, 1.0, times)
        res["hgradz"].append(out["residual"])
        gamma0_max = max(gamma0_max, out["gamma0_term"])
        res["zdivh"].append(M.residual_zdivh(free, h, mesh, 1.0, times)["residual"])
        res["zmul"].append(
            M.residual_zmul(
                bcf, mesh, 1.0, bcf.meta["kappa0"], bcf.meta["kappa1"], times
            )["residual"]
        )
    slopes = {k: M.refinement_slope(v) for k, v in res.items()}
    ok = all(s >= 1.9 for s in slopes.values()) and gamma0_max <= 1e-9
    _line(
        8,
        "multiplier identities",
        ok,
        "slopes hgradz %.2f / zdivh %.2f / zmul %.2f all >= 1.9 over 3 "
        "levels; gamma0 annihilation term %.1e <= 1e-9"
        % (slopes["hgradz"], slopes["zdivh"], slopes["zmul"], gamma0_max),
    )


def test_c09_transducer_geometry_certifies_at_fine_mesh():
    geometry = M.named_geometry("transducer")
    star = M.check_star_shaped(geometry)
    convex = M.check_convex_gamma0(geometry)
    # pick the resolution that brings the mesh size under 1/64
    probe = M.build_mesh(geometry, 6)
    r = int(np.ceil(6 * probe.mesh_size() * 64))
    mesh = M.build_mesh(geometry, r)
    while mesh.mesh_size() > 1.0 / 64.0:
        r += 2
        mesh = M.build_mesh(geometry, r)
    h = M.build_vector_field_h(geometry, mesh, 0.35)
    ok = (
        star["holds"]
        and convex["convex"]
        and h.certified_c0 > 0
        and h.max_normal_trace_on_gamma0 <= 1e-10
    )
    _line(
        9,
        "geometry certification",
        ok,
        "star-shape and convexity hold; c0 %.3f > 0 and max |h.nu| on "
        "gamma0 %.1e <= 1e-10 at mesh size %.4f <= 1/64"
        % (h.certified_c0, h.max_normal_trace_on_gamma0, mesh.mesh_size()),
    )


def test_c10_reconstruction_second_order_in_dt():
    scen = _scenario("interval-1d-damped")
    errors = []
    for div in (1, 2, 4):
        traj, (u, ut, _) = simulate_with_states(
            scen.bundle, scen.initial, T=2.0, dt=1e-3 / div, output_stride=1,
        )
        z = ut + scen.params.q * u
        u_rec = reconstruct_u_from_z(traj.times, z, u[0], scen.params)
        errors.append(float(np.abs(u_rec - u).max()))
    slope = M.refinement_slope(errors)
    ok = slope >= 1.9
    _line(
        10,
        "variation-of-parameters reconstruction",
        ok,
        "sup-in-time nodal error slope %.3f >= 1.9 over 3 dt levels %s"
        % (slope, ["%.2e" % e for e in errors]),
    )


def test_c11_full_runs_are_byte_identical(tmp_path):
    cfg = {"preset": "interval-1d-damped", "time": {"T": 4.0}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        code = cli.main(
            ["full", "--config", str(cfg_path), "--out", out, "--seed", "3"]
        )
        assert code == cli.EXIT_OK
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    mismatched = [
        name
        for name in names
        if Path(outs[0], name).read_bytes()
        != Path(outs[1], name).read_bytes()
    ]
    ok = not mismatched and len(names) >= 4
    _line(
        11,
        "deterministic artifacts",
        ok,
        "repeated `full` runs byte-identical across %d artifacts %s"
        % (len(names), names if not mismatched else "MISMATCH: %s" % mismatched),
    )
