"""Command-line front end: ``mgt-stab <subcommand> --config ... --out ...``.

Subcommands
-----------
simulate
    Time-step the scenario and write ``trajectory.csv`` + ``summary.json``.
    A table of more than ``dynamics._CHUNK_ELEMENTS`` values (rows times
    9 columns, known before the first step) is formatted by a
    :class:`_Worker` while the parent steps: each finished chunk of rows
    goes to it through the worker's pipe, and it writes the file once the
    simulation has returned.  A smaller table goes to the same writer
    run inline, which formats the chunks after stepping.
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
    The eigensolve runs in a :class:`_Worker` while the parent certifies
    and time-steps; the trajectory table is written as by ``simulate``.

A :class:`_Worker` is a forked process; where ``os.fork`` does not exist,
a pipe or the fork fails, or its caller asks for it, it runs inline when
collected, so every artifact is the same either way.

Exit codes: 0 success, 2 configuration/schema error, 3 geometry
precondition failure, 4 numerical failure.  On failure an ``error.json``
with the category and message is left in the output directory.
"""

import argparse
import logging
import os
import pickle
import signal
import sys
import time

import numpy as np

from . import multiplier as mult
from .config import MAX_STEPS, Scenario, config_hash, load_config, load_config_file
from .discretization import build_mesh, check_adjoint_identity, check_mesh_size
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
from .geometry import GAMMA0, GAMMA1, build_vector_field_h, check_convex_gamma0, check_star_shaped
from .reporting import write_json, write_trajectory_csv
from .spectral import abscissa_vs_decay, check_dense_cap, spectrum

_LOGGER = logging.getLogger(__name__)

_MULT_DEFAULTS = {"t_final": 2.0, "window_cut": 0.25, "n_time": 81, "levels": 3}
# why a geometry whose field has no closed form gets no multiplier check
_NO_CLOSED_FORM = (
    "identity quadrature needs closed-form field derivatives; the curved-cap "
    "field is only certified discretely -- use an interval or flat-gamma0 "
    "geometry for multiplier checks"
)

# every subcommand and its help text, in the order `mgt-stab --help` lists them
SUBCOMMANDS = {
    "simulate": "time-step a scenario and record energy series",
    "spectrum": "eigenvalues of the first-order generator",
    "certify-geometry": "check hypotheses and certify the multiplier field",
    "multiplier-check": "verify the multiplier identities under refinement",
    "full": "run every applicable stage",
}

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
    return {
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


def _adjoint_spot_check(scen, seed):
    rng = np.random.default_rng(seed)
    n, n_pairs = scen.mesh.n_nodes, 20
    worst = 0.0
    try:
        for _ in range(n_pairs):
            xi = rng.standard_normal(n)
            phi = rng.standard_normal(n)
            res = check_adjoint_identity(scen.bundle, xi, phi)
            rel = res / (np.linalg.norm(xi) * np.linalg.norm(phi))
            worst = max(worst, rel)
    except IllPosedMapError as exc:  # no Neumann map to check, e.g. gamma0 is empty
        return {"applicable": False, "reason": str(exc), "n_pairs": 0, "max_relative_residual": None}
    return {"n_pairs": int(n_pairs), "max_relative_residual": float(worst)}


def _multiplier_config(scen):
    """The multiplier section over its defaults, checked by arithmetic before
    anything is built: the window, every level's mesh size, and the finest
    level's time grid against ``MAX_STEPS``."""
    mcfg = {**_MULT_DEFAULTS, **scen.config.get("multiplier", {})}
    if not 0 <= mcfg["window_cut"] < mcfg["t_final"] / 2:
        raise ConfigError("multiplier window_cut must lie in [0, t_final/2)")
    # the mesh checks stop at the first level over the cap, however many
    # levels are asked for, so the power of two below stays a small int
    for lvl in range(mcfg["levels"]):
        check_mesh_size(scen.geometry, scen.config["mesh"]["resolution"] * 2**lvl)
    intervals = (mcfg["n_time"] - 1) * 2 ** (mcfg["levels"] - 1)
    if intervals > MAX_STEPS:
        raise ConfigError(
            "multiplier time grid has %d intervals at its finest level, above the budget of %d"
            % (intervals, MAX_STEPS)
        )
    return mcfg


def _multiplier_check(scen):
    geometry = scen.geometry
    mcfg = _multiplier_config(scen)
    cut, t_final = mcfg["window_cut"], mcfg["t_final"]
    base_res = scen.config["mesh"]["resolution"]
    b = scen.params.b
    # bc_satisfying_1d meets the Robin condition at x = 0 and the feedback
    # condition at x = 1: the z-multiplier identity holds for it only there
    zmul = (
        geometry.dimension == 1
        and np.array_equal(geometry.vertices, [0.0, 1.0])
        and np.array_equal(geometry.segment_tags, [GAMMA0, GAMMA1])
    )

    levels = []
    for lvl in range(mcfg["levels"]):
        res = base_res * 2**lvl
        nt = (mcfg["n_time"] - 1) * 2**lvl + 1
        mesh = build_mesh(geometry, res)
        h = build_vector_field_h(geometry, mesh, scen.collar_width)
        if h.analytic is None:
            raise ConfigError(_NO_CLOSED_FORM)
        times = np.linspace(cut, t_final - cut, nt)
        row = {"resolution": int(res), "n_time": int(nt), "mesh_size": mesh.mesh_size()}
        free = mult.trig_1d() if geometry.dimension == 1 else mult.trig_2d()
        row["hgradz"] = mult.residual_hgradz(free, h, mesh, b, times)
        row["zdivh"] = mult.residual_zdivh(free, h, mesh, b, times)
        if zmul:
            bcf = mult.bc_satisfying_1d()
            row["zmul"] = mult.residual_zmul(
                bcf, mesh, b, bcf.meta["kappa0"], bcf.meta["kappa1"], times
            )
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
    report = {
        "window": [cut, t_final - cut],
        "levels": levels,
        "slopes": {key: slope(key) for key in identities},
        "gamma0_term_max": max(lv["hgradz"]["gamma0_term"] for lv in levels),
    }
    if geometry.dimension == 1 and not zmul:
        report["not_applicable"] = {
            "zmul": "its manufactured field meets the Robin condition at x = 0 and the feedback "
            "condition at x = 1, so it needs the interval (0, 1) with gamma0 at x = 0"
        }
    return report


class _Worker:
    """``func(messages)`` run in a forked worker process while the parent goes on.

    ``messages`` yields the objects the parent passes to ``send()``, in
    order, and ends when ``collect()`` marks the end of the input; input
    that ends without the mark (the parent is gone) raises ``EOFError``
    in ``func``, so a writer writes nothing.  ``collect()`` waits for the
    worker and returns ``(result, seconds)``, the value and wall time of
    ``func``, or re-raises the exception it raised; a worker that exits
    without sending either is a ``RuntimeError`` naming its exit status.

    ``kill()`` kills the worker and discards its outcome; killed before
    ``collect()``, it never reads an end of input.  The worker is killed
    when a ``with`` block around it raises and when the parent is
    interrupted while ``collect()`` waits; on every path it is reaped.
    With ``fork=False``, and where ``os.fork`` does not exist or a pipe or
    the fork fails, no process is started: ``send()`` keeps the messages
    and ``collect()`` runs ``func`` inline on them.
    """

    def __init__(self, func, fork=True):
        self._func = func
        self._pid = self._result = self._feed = None
        self._kept = []  # the messages of an inline run; None once forked
        if not fork:
            return
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            # the only other threads are OpenBLAS's pool, which OpenBLAS joins
            # before a fork (pthread_atfork): no thread runs while memory is copied
            pid = os.fork()
        except (AttributeError, OSError):  # no os.fork, or no descriptor or process to spare: run inline
            for fd in fds:
                os.close(fd)
            return
        read_fd, write_fd, feed_read, feed_write = fds
        if pid == 0:  # the worker: send ("ok", value) or ("err", exception), never return
            status = 1
            try:
                os.close(read_fd)
                os.close(feed_write)
                # closed here, as func may never start the generator that reads it
                with os.fdopen(feed_read, "rb") as feed:
                    try:
                        outcome = ("ok", self._timed(self._received(feed)))
                    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                        outcome = ("err", exc)
                with os.fdopen(write_fd, "wb") as pipe:
                    pickle.dump(outcome, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        os.close(feed_read)
        self._pid, self._result, self._feed, self._kept = pid, read_fd, feed_write, None
        # one chunk of rows (72 KB at n = 65) overfills the default 64 KiB
        # pipe, and a send() that waits for the worker to drain it made runs
        # about 5 % slower; on Linux the pipe is widened to 1 MiB
        try:
            import fcntl

            fcntl.fcntl(feed_write, fcntl.F_SETPIPE_SZ, 1 << 20)
        except (ImportError, AttributeError, OSError):  # not Linux, or above the user's pipe limits
            pass

    def _timed(self, messages):
        start = time.perf_counter()
        return self._func(messages), time.perf_counter() - start

    @staticmethod
    def _received(pipe):
        # the parent's messages up to its end marker; an end of input without
        # it (the parent is gone) raises EOFError, so nothing is written
        while True:
            more, obj = pickle.load(pipe)
            if not more:
                return
            yield obj

    def send(self, obj):
        if self._kept is not None:
            self._kept.append(obj)
        else:
            self._post(True, obj)

    def _post(self, more, obj):
        # protocol 5 pickles an array's buffer without the copy that 4 makes
        data = pickle.dumps((more, obj), protocol=5)
        try:
            while data:
                data = data[os.write(self._feed, data) :]
        except BrokenPipeError:  # the worker has exited; collect() says how
            pass

    def collect(self):
        if self._kept is not None:
            return self._timed(self._kept)
        try:
            self._post(False, None)
            # the worker reads an end of input once no copy of this end is open
            os.close(self._feed)
            self._feed = None
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


def run(config, subcommand, out_dir=None, seed=0):
    """Execute one subcommand; writes artifacts when ``out_dir`` is given.

    ``config`` may be a raw dict (presets are resolved and the schema
    validated here).  Returns the summary payload.  Raises the package
    error types; exit-code mapping is the caller's concern.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("unknown subcommand %r" % subcommand)
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

    def emit(name, **fields):
        payload = {**base, **fields}
        if out_dir is not None:
            write_json(os.path.join(out_dir, name), payload)
        return payload

    def certified():
        info, h, err = _certify(scen)
        written = emit("certification.json", certification=info)
        if err is not None:
            raise err
        return written, h

    def simulated():
        if out_dir is None:
            return _simulate(scen)
        path, t = os.path.join(out_dir, "trajectory.csv"), scen.time
        n_rows = record_count(t["T"], t["dt"], t["output_stride"])
        # a fork round trip costs about what formatting 6000 values does,
        # so a table within the budget is written inline
        forked = n_rows * len(Trajectory.CSV_COLUMNS) > _CHUNK_ELEMENTS
        with _Worker(lambda blocks: write_trajectory_csv(blocks, path), fork=forked) as writer:
            sim = _simulate(scen, lambda chunk: writer.send(chunk.csv_rows()))
            start = time.perf_counter()
            writer.collect()
        if forked:
            _LOGGER.info("writer stage: %d rows, %.3f s waited for it", n_rows, time.perf_counter() - start)
        return sim

    def solve():
        return spectrum(assemble_generator(scen.bundle, form="u"))

    # each single-stage subcommand's stage, returning the artifact it wrote
    stages = {
        "simulate": lambda: emit("summary.json", **simulated()),
        "spectrum": lambda: emit("spectrum.json", spectrum=solve().to_dict()),
        "certify-geometry": lambda: certified()[0],
        "multiplier-check": lambda: emit("multiplier.json", multiplier=_multiplier_check(scen)),
    }

    def full():
        # the caps depend on the config alone, so they are checked before
        # any stage; the eigensolve then overlaps certification and stepping
        check_dense_cap(3 * scen.mesh.n_nodes)
        if "multiplier" in cfg:
            _multiplier_config(scen)
        with _Worker(lambda _: solve()) as solver:
            cert, h = certified()
            sim = simulated()
            rep, seconds = solver.collect()
        _LOGGER.info(
            "spectral stage: generator size %d, method %s, blocks %s, %.3f s",
            len(rep.eigenvalues), rep.method, "+".join(map(str, rep.blocks)), seconds,
        )
        spec = emit("spectrum.json", spectrum=rep.to_dict())["spectrum"]
        fields = {
            **sim,
            "certification": cert["certification"],
            "spectral": {
                **{key: spec[key] for key in ("abscissa", "stable", "partial", "method")},
                "n_eigenvalues": len(rep.eigenvalues),
            },
            "adjoint_check": _adjoint_spot_check(scen, seed),
            "abscissa_vs_decay": abscissa_vs_decay(rep, sim["decay_fit"]["omega"]),
        }
        if "multiplier" in cfg and h.analytic is None:
            fields["multiplier"] = {"applicable": False, "reason": _NO_CLOSED_FORM}
        elif "multiplier" in cfg:
            mp = stages["multiplier-check"]()["multiplier"]
            keys = ("slopes", "gamma0_term_max", "not_applicable")
            fields["multiplier"] = {key: mp[key] for key in keys if key in mp}
        return emit("summary.json", **fields)

    # `full` is not in the table: it reads the table, and a function in it
    # that reads it would keep the scenario alive in a reference cycle
    return full() if subcommand == "full" else stages[subcommand]()


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
    for name, help_text in SUBCOMMANDS.items():
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
