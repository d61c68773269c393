"""mgtstab benchmark: one workload, one seed, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interval-record --seed 1 --seconds 35 --trace 0

Every workload goes through the public entry point
``mgtstab.cli.run(config, subcommand, out_dir)``, with the package
imported from ``src/`` of the same checkout.  ``--trace 0`` reports the
end-to-end metrics ``run_s``, ``setup_s`` and ``peak_rss_mb``, the two
times scaled to the host's nominal speed (:func:`timed_at_nominal_speed`);
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of :mod:`layertrace`.  Every run's outputs are checked
(:func:`workloads.check_outputs`); a run that raises or fails a check is
a failed operation.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable report with the environment.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from layertrace import Tracer, metric_names, self_time_total, summarize
from workloads import WORKLOADS, check_outputs, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

# Fresh interpreters per setup_s measurement; the median is reported.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread (at most nproc): on a 2-vCPU host shared with other
# tenants, the dense QZ with 2 threads was both slower (5.2-7.5 s against
# 4.2-5.2 s per transducer run) and noisier.
BLAS_THREADS = 1


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(nproc):
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


def probe_setup(config):
    """Seconds from ``import mgtstab`` to a built Scenario, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, PROBE, SRC, json.dumps(config)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr)
    return float(proc.stdout.strip().splitlines()[-1])


def import_program():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mgtstab
    from mgtstab import cli

    if os.path.dirname(os.path.abspath(mgtstab.__file__)) != os.path.join(SRC, "mgtstab"):
        raise RuntimeError("mgtstab was imported from %s, not from %s" % (mgtstab.__file__, SRC))
    return cli


# Median time of reference_loop() on the machine the bounds were set on: a
# 2-vCPU Intel Xeon VM with Python 3.11.  Scaled times read as seconds at
# that machine's usual speed.
REF_NOMINAL_S = 0.032


def reference_loop():
    """Seconds of a fixed pure-Python loop, about 30 ms: a probe of the host's speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(500000):
        total += i
    return time.perf_counter() - t0


def timed_at_nominal_speed(call):
    """(seconds, seconds at nominal host speed) of ``call()``, which returns
    its own seconds, or None when it returns None.

    On a shared host the CPU speed changes by up to 1.5 times, in phases of
    10-30 s and in regimes of minutes (see README), more than a program
    change must be told apart from.  The call's time is scaled by
    ``REF_NOMINAL_S`` over the mean time of the reference loop just before
    and just after it.
    """
    before = reference_loop()
    seconds = call()
    after = reference_loop()
    if seconds is None:
        return None
    return seconds, seconds * REF_NOMINAL_S / (0.5 * (before + after))


def read_artifacts(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Runner:
    """Runs one workload repeatedly and counts attempted and failed operations.

    ``warm_config`` is the workload shrunk to a fraction of a second; one
    run of it loads every code path before timing starts.
    """

    def __init__(self, cli, name, config, warm_config, check_seed, tiny=False):
        self.cli = cli
        self.name = name
        self.config = config
        self.warm_config = warm_config
        self.check_seed = check_seed
        self.subcommand = WORKLOADS[name]["subcommand"]
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_once(self, out_dir, warm=False):
        """Seconds of one ``cli.run`` call, or None when it raised.

        A run that returns but fails an output check is timed and counted
        as failed.
        """
        config = self.warm_config if warm else self.config
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.cli.run(config, self.subcommand, out_dir=out_dir, seed=self.check_seed)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self.mark_failed("%s: %s" % (type(exc).__name__, exc))
            return None
        elapsed = time.perf_counter() - t0
        problems = check_outputs(self.name, out_dir, tiny=self.tiny or warm)
        if problems:
            self.mark_failed(*problems)
        return elapsed

    def mark_failed(self, *problems):
        self.failed += 1
        self.problems.extend(problems)


def repeat_for(seconds, step, between=None):
    """Call ``step`` at least once, and again while the next call should end
    within ``seconds`` of step time (judged by the previous call's duration).
    ``between`` runs after each call, outside the budget."""
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        spent += last
        if between is not None:
            between()
        if spent + last > seconds:
            return


def high_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(samples)[i]


def run_end_to_end(runner, seconds, work):
    runner.run_once(os.path.join(work, "warm"), warm=True)
    times, setup_samples = [], []  # (wall seconds, seconds at nominal host speed)

    def step():
        t = timed_at_nominal_speed(lambda: runner.run_once(os.path.join(work, "run")))
        if t is not None:
            times.append(t)

    def probe():
        setup_samples.append(timed_at_nominal_speed(lambda: probe_setup(runner.config)))

    def probe_when_due():
        # probes spread evenly over the window, so they see the same host
        # load as the runs; their number does not grow with the run count
        if len(setup_samples) < SETUP_REPEATS and sum(t for t, _ in times) >= len(setup_samples) * seconds / SETUP_REPEATS:
            probe()

    repeat_for(seconds, step, between=probe_when_due)
    while len(setup_samples) < SETUP_REPEATS:
        probe()
    if not times:
        raise RuntimeError("no run succeeded: %s" % runner.problems[:3])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    run_scaled = [scaled for _, scaled in times]
    metrics = {
        "run_s": (statistics.median(run_scaled), "s"),
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        "run_s samples: %s" % ", ".join("%.4f" % t for t in run_scaled),
        "run wall samples: %s" % ", ".join("%.4f" % t for t, _ in times),
        "run wall median %.4f s, mean %.4f s"
        % (statistics.median(t for t, _ in times), statistics.mean(t for t, _ in times)),
    ]
    high = high_percentile(run_scaled)
    if high is None:
        notes.append("run_s: %d samples, too few for a percentile with 10 beyond it" % len(times))
    else:
        notes.append("run_s p%.1f: %.4f s over %d samples" % (high[0], high[1], len(times)))
    notes += [
        "setup_s samples: %s" % ", ".join("%.4f" % t for _, t in setup_samples),
        "setup wall median %.4f s" % statistics.median(t for t, _ in setup_samples),
    ]
    return metrics, notes


def run_traced(runner, seconds, work):
    """Alternate untraced and traced runs; per-layer metrics of the median traced run."""
    tracer = Tracer()
    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    runner.run_once(os.path.join(work, "warm"), warm=True)
    plain, traced = [], []

    def step():
        t_plain = runner.run_once(plain_dir)
        tracer.reset()
        with tracer:
            t_traced = runner.run_once(traced_dir)
        if t_plain is None or t_traced is None:
            return
        if read_artifacts(plain_dir) != read_artifacts(traced_dir):
            runner.mark_failed("traced artifacts differ from untraced artifacts")
            return
        plain.append(t_plain)
        traced.append((t_traced, summarize(tracer.spans, tracer.extra)))

    repeat_for(seconds, step)
    if not traced:
        raise RuntimeError("no traced run succeeded: %s" % runner.problems[:3])
    traced.sort(key=lambda pair: pair[0])
    layer = traced[(len(traced) - 1) // 2][1]
    layer["trace.overhead_s"] = statistics.median(t for t, _ in traced) - statistics.median(plain)
    metrics = {name: (layer[name], unit) for name, unit in metric_names().items()}
    notes = [
        "traced pairs: %d; untraced median %.4f s" % (len(plain), statistics.median(plain)),
        "sum of layer self times %.6f s vs traced run_s %.6f s"
        % (self_time_total(layer), layer["trace.run_s"]),
        "absent targets: %s" % (", ".join(tracer.absent) or "none"),
    ]
    return metrics, notes, tracer.absent


def run_benchmark(name, seed, seconds, trace, tiny=False):
    """(result dict, report lines, absent targets) for one workload run."""
    nproc = pin_blas_threads()
    config, check_seed = make_inputs(name, seed, tiny=tiny)
    warm_config, _ = make_inputs(name, seed, tiny=True)
    cli = import_program()
    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(cli, name, config, warm_config, check_seed, tiny=tiny)
    absent = []
    try:
        if trace:
            metrics, notes, absent = run_traced(runner, seconds, work)
        else:
            metrics, notes = run_end_to_end(runner, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    report = [
        "workload %s seed %d: %s %s" % (name, seed, runner.subcommand, json.dumps(config, sort_keys=True)),
        "environment: %s" % json.dumps(environment(nproc), sort_keys=True),
    ]
    report += notes
    report += ["failed check: %s" % p for p in dict.fromkeys(runner.problems)]
    report += ["%-42s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mgtstab", "__init__.py")):
        print("error: no mgtstab sources under %s" % SRC, file=sys.stderr)
        return 2
    result, report, _absent = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
