"""Command-line front end: ``mgt-stab <subcommand> --config ... --out ...``.

Subcommands
-----------
simulate
    Time-step the scenario and write ``trajectory.csv`` + ``summary.json``.
spectrum
    Eigenvalues of the first-order generator, written to ``spectrum.json``.
certify-geometry
    Check the geometric hypotheses and certify the multiplier field
    (``certification.json``).
multiplier-check
    Quadrature verification of the integration-by-parts identities under
    refinement (``multiplier.json``).
full
    All of the above that apply, plus an adjoint-identity spot check.

Exit codes: 0 success, 2 configuration/schema error, 3 geometry
precondition failure, 4 numerical failure.  On failure an ``error.json``
with the category and message is left in the output directory.
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import multiplier as mult
from .config import Scenario, config_hash, load_config, load_config_file
from .discretization import build_mesh, check_adjoint_identity
from .dynamics import assemble_generator, simulate
from .energy import energy_identity_residual, fit_decay_rate
from .errors import (
    CertificationError,
    ConfigError,
    GeometryError,
    IllPosedMapError,
    MeshError,
    NumericalError,
)
from .geometry import build_vector_field_h, check_convex_gamma0, check_star_shaped
from .reporting import write_json, write_trajectory_csv
from .spectral import abscissa_vs_decay, spectrum

_LOGGER = logging.getLogger(__name__)

_MULT_DEFAULTS = {"t_final": 2.0, "window_cut": 0.25, "n_time": 81, "levels": 3}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_NUMERICAL = 4


def _certify(scen):
    """(certification payload, field or None, error or None)."""
    info = {
        "star_shaped": check_star_shaped(scen.geometry),
        "convex_gamma0": check_convex_gamma0(scen.geometry),
        "collar_width": scen.collar_width,
        "mesh_size": scen.mesh.mesh_size(),
        "n_nodes": scen.mesh.n_nodes,
        "n_gamma0_facets": int(len(scen.mesh.gamma0_facets)),
        "n_gamma1_facets": int(len(scen.mesh.gamma1_facets)),
    }
    try:
        h = build_vector_field_h(scen.geometry, scen.mesh, scen.collar_width)
    except CertificationError as exc:
        info.update(
            {
                "certified": False,
                "c0": exc.report["c0"],
                "max_normal_trace_on_gamma0": exc.report["max_normal_trace"],
                "reason": str(exc),
            }
        )
        return info, None, exc
    except GeometryError as exc:
        info.update({"certified": False, "reason": str(exc)})
        return info, None, exc
    info.update(
        {
            "certified": True,
            "c0": h.certified_c0,
            "max_normal_trace_on_gamma0": h.max_normal_trace_on_gamma0,
        }
    )
    return info, h, None


def _simulate(scen):
    t = scen.time
    traj = simulate(
        scen.bundle,
        scen.initial,
        t["T"],
        t["dt"],
        scheme=t["scheme"],
        output_stride=t["output_stride"],
        store_states=t["store_states"],
    )
    e1_0 = float(traj.E1[0])
    drift = float(np.max(np.abs(traj.E1 - e1_0)) / max(abs(e1_0), 1e-300))
    growth = float(traj.E[-1] / traj.E[0]) if traj.E[0] != 0 else None
    try:
        fit = {**fit_decay_rate(traj.times, traj.E1), "applicable": True}
    except ValueError:  # too few positive energy samples above the roundoff floor
        fit = dict.fromkeys(("omega", "M", "fit_residual", "n_points"), None)
        fit["applicable"] = False
    payload = {
        "energy": {
            "E1_initial": e1_0,
            "E1_final": float(traj.E1[-1]),
            "E_initial": float(traj.E[0]),
            "E_final": float(traj.E[-1]),
            "max_rel_E1_drift": drift,
            "identity_residual": energy_identity_residual(traj),
            "growth_factor": growth,
        },
        "decay_fit": fit,
        "compat": traj.compat,
        "meta": traj.meta,
    }
    return traj, payload


def _spectrum(scen):
    # the schema admits only the dense_cap / n_partial keyword arguments here
    gen = assemble_generator(scen.bundle, form="u")
    return spectrum(gen, **scen.config.get("spectrum", {}))


def _adjoint_spot_check(scen, seed, n_pairs=20):
    rng = np.random.default_rng(seed)
    n = scen.mesh.n_nodes
    worst = 0.0
    for _ in range(n_pairs):
        xi = rng.standard_normal(n)
        phi = rng.standard_normal(n)
        res = check_adjoint_identity(scen.bundle, xi, phi)
        rel = res / (np.linalg.norm(xi) * np.linalg.norm(phi))
        worst = max(worst, rel)
    return {"n_pairs": int(n_pairs), "max_relative_residual": float(worst)}


def _multiplier_check(scen):
    geometry = scen.geometry
    mcfg = {**_MULT_DEFAULTS, **scen.config.get("multiplier", {})}
    cut, t_final = mcfg["window_cut"], mcfg["t_final"]
    if not 0 <= cut < t_final / 2:
        raise ConfigError("multiplier window_cut must lie in [0, t_final/2)")
    base_res = scen.config["mesh"]["resolution"]
    b = scen.params.b

    levels = []
    for lvl in range(mcfg["levels"]):
        res = base_res * 2**lvl
        nt = (mcfg["n_time"] - 1) * 2**lvl + 1
        mesh = build_mesh(geometry, res)
        h = build_vector_field_h(geometry, mesh, scen.collar_width)
        if h.analytic is None:
            raise ConfigError(
                "identity quadrature needs closed-form field derivatives; "
                "the curved-cap field is only certified discretely -- use an "
                "interval or flat-gamma0 geometry for multiplier checks"
            )
        times = np.linspace(cut, t_final - cut, nt)
        row = {"resolution": int(res), "n_time": int(nt), "mesh_size": mesh.mesh_size()}
        if geometry.dimension == 1:
            free = mult.trig_1d()
            bcf = mult.bc_satisfying_1d()
            row["hgradz"] = mult.residual_hgradz(free, h, mesh, b, times)
            row["zdivh"] = mult.residual_zdivh(free, h, mesh, b, times)
            row["zmul"] = mult.residual_zmul(
                bcf, mesh, b, bcf.meta["kappa0"], bcf.meta["kappa1"], times
            )
        else:
            free = mult.trig_2d()
            row["hgradz"] = mult.residual_hgradz(free, h, mesh, b, times)
            row["zdivh"] = mult.residual_zdivh(free, h, mesh, b, times)
        levels.append(row)

    def slope(key):
        # null where no rate is defined: one level, or a residual exactly
        # zero or not finite
        residuals = [lv[key]["residual"] for lv in levels]
        try:
            return mult.refinement_slope(residuals) if len(levels) > 1 else None
        except ValueError:
            return None

    identities = [k for k in ("hgradz", "zdivh", "zmul") if k in levels[0]]
    return {
        "window": [cut, t_final - cut],
        "levels": levels,
        "slopes": {key: slope(key) for key in identities},
        "gamma0_term_max": max(lv["hgradz"]["gamma0_term"] for lv in levels),
    }


def run(config, subcommand, out_dir=None, seed=0):
    """Execute one subcommand; writes artifacts when ``out_dir`` is given.

    ``config`` may be a raw dict (presets are resolved and the schema
    validated here).  Returns the summary payload.  Raises the package
    error types; exit-code mapping is the caller's concern.
    """
    cfg = load_config(config)
    scen = Scenario(cfg)
    base = {
        "subcommand": subcommand,
        "seed": int(seed),
        "config_sha256": config_hash(cfg),
        "effective_config": cfg,
        "n_nodes": int(scen.mesh.n_nodes),
        "mesh_size": float(scen.mesh.mesh_size()),
        "classification": scen.params.stability_classification(),
    }

    def emit(name, payload):
        if out_dir is not None:
            write_json(os.path.join(out_dir, name), payload)

    # the stages, each with its artifact; `full` chains them
    def certified():
        info, h, err = _certify(scen)
        emit("certification.json", {**base, "certification": info})
        if err is not None:
            raise err
        return info, h

    def simulated():
        traj, sim = _simulate(scen)
        if out_dir is not None:
            write_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
        return traj, sim

    def spectral():
        rep = _spectrum(scen)
        emit("spectrum.json", {**base, "spectrum": rep.to_dict()})
        return rep

    def identities():
        mp = _multiplier_check(scen)
        emit("multiplier.json", {**base, "multiplier": mp})
        return mp

    if subcommand == "certify-geometry":
        return {**base, "certification": certified()[0]}

    if subcommand == "simulate":
        payload = {**base, **simulated()[1]}
        emit("summary.json", payload)
        return payload

    if subcommand == "spectrum":
        return {**base, "spectrum": spectral().to_dict()}

    if subcommand == "multiplier-check":
        return {**base, "multiplier": identities()}

    if subcommand == "full":
        info, h = certified()
        traj, sim = simulated()
        rep = spectral()
        adj = _adjoint_spot_check(scen, seed)
        versus = abscissa_vs_decay(rep, traj.times, traj.E1)
        payload = {
            **base,
            **sim,
            "certification": info,
            "spectral": {
                "abscissa": rep.abscissa,
                "stable": rep.stable,
                "partial": rep.partial,
                "n_eigenvalues": len(rep.eigenvalues),
                **rep.health(),
            },
            "abscissa_vs_decay": versus,
            "adjoint_check": adj,
        }
        if "multiplier" in cfg and h.analytic is not None:
            mp = identities()
            payload["multiplier"] = {
                "slopes": mp["slopes"],
                "gamma0_term_max": mp["gamma0_term_max"],
            }
        emit("summary.json", payload)
        return payload

    raise ConfigError("unknown subcommand %r" % subcommand)


def _classify_error(exc):
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, (GeometryError, MeshError)):
        return EXIT_GEOMETRY
    if isinstance(exc, (NumericalError, IllPosedMapError)):
        return EXIT_NUMERICAL
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mgt-stab",
        description="Simulation and stability analysis of the third-order "
        "acoustic model with partitioned boundary feedback.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("simulate", "time-step a scenario and record energy series"),
        ("spectrum", "eigenvalues of the first-order generator"),
        ("certify-geometry", "check hypotheses and certify the multiplier field"),
        ("multiplier-check", "verify the multiplier identities under refinement"),
        ("full", "run every applicable stage"),
    ):
        sp = subparsers.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON configuration")
        sp.add_argument("--out", required=True, help="output directory for artifacts")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config_file(args.config)
        run(cfg, args.subcommand, out_dir=args.out, seed=args.seed)
    except Exception as exc:  # noqa: BLE001 - single funnel to exit codes
        code = _classify_error(exc)
        if code == 1:
            raise
        write_json(
            os.path.join(args.out, "error.json"),
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
        )
        _LOGGER.error("%s: %s", type(exc).__name__, exc)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
