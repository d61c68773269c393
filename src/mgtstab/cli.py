"""Command-line front end: ``mgt-stab <subcommand> --config ... --out ...``.

Subcommands
-----------
simulate
    Time-step the scenario and write ``trajectory.csv`` + ``summary.json``.
    A table of more than ``dynamics._CHUNK_ELEMENTS`` values (rows times
    9 columns, known before the first step) is formatted by a forked
    writer process while the parent steps: each finished chunk of rows
    goes to it through shared memory, and it writes the file once the
    simulation has returned.  Smaller tables, and every table where
    ``os.fork`` does not exist, are written inline after stepping.
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
    The eigensolve runs in a forked worker process while the parent
    certifies and time-steps (inline where ``os.fork`` does not exist);
    the trajectory table is written as by ``simulate``.

Exit codes: 0 success, 2 configuration/schema error, 3 geometry
precondition failure, 4 numerical failure.  On failure an ``error.json``
with the category and message is left in the output directory.
"""

import argparse
import itertools
import logging
import mmap
import os
import pickle
import signal
import sys
import time

import numpy as np

from . import multiplier as mult
from .config import Scenario, config_hash, load_config, load_config_file
from .discretization import build_mesh, check_adjoint_identity
from .dynamics import _CHUNK_ELEMENTS, Trajectory, assemble_generator, record_count, simulate
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
from .reporting import write_csv_blocks, write_json, write_trajectory_csv
from .spectral import abscissa_vs_decay, check_dense_cap, spectrum

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


def _simulate(scen, on_chunk=None):
    t = scen.time
    traj = simulate(
        scen.bundle,
        scen.initial,
        t["T"],
        t["dt"],
        scheme=t["scheme"],
        output_stride=t["output_stride"],
        store_states=t["store_states"],
        on_chunk=on_chunk,
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


class _Worker:
    """``func`` run in a forked worker process while the parent goes on.

    ``collect()`` waits for the worker and returns ``(result, seconds)``,
    the value and wall time of ``func()``, or re-raises the exception it
    raised; a worker that exits without sending either is a
    ``RuntimeError`` naming its exit status.  A ``fed`` worker runs
    ``func(messages)`` instead, where ``messages`` yields the objects the
    parent passes to ``send()``, in order, and ends when ``collect()``
    marks the end of the input.

    ``kill()`` kills the worker before its channels are closed, so a fed
    worker never reads an end of input, and discards its outcome.  The
    worker is killed when a ``with`` block around it raises and when the
    parent is interrupted while ``collect()`` waits; on every path it is
    reaped.  Where ``os.fork`` does not exist, ``func`` runs inline when
    collected (a fed worker needs ``os.fork``).
    """

    def __init__(self, func, fed=False):
        self._func = func
        self._pid = self._result = self._feed = None
        if not hasattr(os, "fork"):
            return
        read_fd, write_fd = os.pipe()
        feed_read, feed_write = os.pipe() if fed else (None, None)
        # the only other threads are OpenBLAS's pool, which OpenBLAS joins
        # before a fork (pthread_atfork): no thread runs while memory is copied
        pid = os.fork()
        if pid == 0:  # the worker: send ("ok", value) or ("err", exception), never return
            status = 1
            try:
                os.close(read_fd)
                if fed:
                    os.close(feed_write)
                    args = (self._received(os.fdopen(feed_read, "rb")),)
                else:
                    args = ()
                try:
                    outcome = ("ok", self._timed(*args))
                except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                    outcome = ("err", exc)
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(outcome, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        if fed:
            os.close(feed_read)
        self._pid, self._result, self._feed = pid, read_fd, feed_write

    def _timed(self, *args):
        start = time.perf_counter()
        return self._func(*args), time.perf_counter() - start

    @staticmethod
    def _received(pipe):
        # the parent's messages up to its end marker; an end of input without
        # it (the parent is gone) raises EOFError, so nothing is written
        with pipe:
            while True:
                more, obj = pickle.load(pipe)
                if not more:
                    return
                yield obj

    def send(self, obj):
        self._post(True, obj)

    def _post(self, more, obj):
        data = pickle.dumps((more, obj))
        try:
            while data:
                data = data[os.write(self._feed, data) :]
        except BrokenPipeError:  # the worker has exited; collect() says how
            pass

    def collect(self):
        if self._result is None:
            return self._timed()
        try:
            if self._feed is not None:
                self._post(False, None)
            with os.fdopen(self._result, "rb", closefd=False) as pipe:
                data = pipe.read()
        except BaseException:  # interrupted while waiting: stop the worker too
            self.kill()
            raise
        status = self._reap()
        if status != 0 or not data:
            raise RuntimeError("worker exited without a result (exit status %d)" % status)
        kind, value = pickle.loads(data)
        if kind == "err":
            raise value
        return value

    def kill(self):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        # close the channels, then wait for the worker; its exit status
        for fd in (self._result, self._feed):
            if fd is not None:
                os.close(fd)
        status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        return status

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.kill()
        return False


def _stream_csv(path, n_rows):
    """A fed :class:`_Worker` that writes the ``n_rows``-row trajectory CSV
    at ``path``, and the ``on_chunk`` hook of ``simulate`` that feeds it.

    The hook copies each chunk's rows into an anonymous shared mapping made
    before the fork and sends the worker the number of rows filled; the
    worker formats the rows up to it with the inline writer's formatter,
    and writes the file once ``collect()`` ends its input.
    """
    width = len(Trajectory.CSV_COLUMNS)
    table = np.frombuffer(mmap.mmap(-1, 8 * n_rows * width), float).reshape(n_rows, width)

    def write(filled):
        blocks = (table[lo:hi] for lo, hi in itertools.pairwise(itertools.chain([0], filled)))
        write_csv_blocks(path, Trajectory.CSV_COLUMNS, blocks)

    worker = _Worker(write, fed=True)
    filled = 0

    def on_chunk(chunk):
        nonlocal filled
        rows = chunk.csv_rows()[1]
        table[filled : filled + len(rows)] = rows
        filled += len(rows)
        worker.send(filled)

    return worker, on_chunk


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
        if out_dir is None:
            return _simulate(scen)
        path, t = os.path.join(out_dir, "trajectory.csv"), scen.time
        n_rows = record_count(t["T"], t["dt"], t["output_stride"])
        # a fork round trip costs about what formatting 6000 values does,
        # so a table within the budget is written inline
        if n_rows * len(Trajectory.CSV_COLUMNS) <= _CHUNK_ELEMENTS or not hasattr(os, "fork"):
            traj, sim = _simulate(scen)
            write_trajectory_csv(traj, path)
            return traj, sim
        writer, on_chunk = _stream_csv(path, n_rows)
        with writer:
            traj, sim = _simulate(scen, on_chunk)
            writer.collect()
        return traj, sim

    def solve():
        return spectrum(assemble_generator(scen.bundle, form="u"))

    def spectral(rep):
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
        return {**base, "spectrum": spectral(solve()).to_dict()}

    if subcommand == "multiplier-check":
        return {**base, "multiplier": identities()}

    if subcommand == "full":
        # the cap depends on n alone, so it is checked before any stage;
        # the eigensolve then overlaps certification and stepping
        check_dense_cap(3 * scen.mesh.n_nodes)
        with _Worker(solve) as solver:
            info, h = certified()
            traj, sim = simulated()
            rep, seconds = solver.collect()
        _LOGGER.info(
            "spectral stage: generator size %d, method %s, %.3f s",
            len(rep.eigenvalues), rep.method, seconds,
        )
        spectral(rep)
        adj = _adjoint_spot_check(scen, seed)
        versus = abscissa_vs_decay(rep, traj.times, traj.E1)
        payload = {
            **base,
            **sim,
            "certification": info,
            "spectral": {
                "abscissa": rep.abscissa,
                "stable": rep.stable,
                # constant, kept for byte-identical artifacts; perfbench/workloads.py reads it
                "partial": False,
                "n_eigenvalues": len(rep.eigenvalues),
                "method": rep.method,
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
