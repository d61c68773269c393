"""Benchmark workloads: seeded configurations and output checks.

Each workload is a preset plus fixed overrides.  The seed draws only the
initial amplitude, the 2D bump centre (inside a small fixed box around
the preset's centre) and the seed of the adjoint spot check; resolution,
T and dt never depend on it.  The program receives only the resulting
configuration.

The reference values in the checks were measured at the commit that
introduced this benchmark.  Quantities that do not depend on the initial
data (the abscissa, amplitude-invariant ratios) are held to tight bands;
quantities that move with the bump centre are held to bands that cover
the whole centre box with margin.
"""

import csv
import json
import os
import random

# -- definitions --------------------------------------------------------------

WORKLOADS = {
    "interval-record": {
        "why": "recording-heavy midpoint integration: 10 000 steps at n = 65, "
        "every step recorded and written, plus 3 multiplier levels; negligible spectrum",
        "subcommand": "full",
        "config": {"preset": "interval-1d-damped", "time": {"dt": 2e-3, "output_stride": 1}},
        "bump_box": None,
        "artifacts": (
            "certification.json",
            "multiplier.json",
            "spectrum.json",
            "summary.json",
            "trajectory.csv",
        ),
        "csv_rows": 10001,
    },
    "transducer-spectrum": {
        "why": "spectrum-heavy run: dense QZ of size 633 twice plus the curved-cap "
        "discrete certification; stepping is a small share",
        "subcommand": "full",
        "config": {"preset": "transducer-2d", "mesh": {"resolution": 5}},
        "bump_box": ((-0.04, 0.04), (0.51, 0.59)),
        "artifacts": ("certification.json", "spectrum.json", "summary.json", "trajectory.csv"),
        "csv_rows": 501,
    },
    "halfdisk-bdf2": {
        "why": "solve-heavy BDF2 stepping (400 steps) with a large sparse factorization "
        "(n = 5101) and the largest assembly; no spectrum",
        "subcommand": "simulate",
        "config": {
            "preset": "half-disk-2d",
            "mesh": {"resolution": 24},
            "time": {"scheme": "bdf2", "T": 2.0, "output_stride": 20},
        },
        "bump_box": ((-0.04, 0.04), (0.41, 0.49)),
        "artifacts": ("summary.json", "trajectory.csv"),
        "csv_rows": 21,
    },
}

# Overrides that shrink every workload to a fraction of a second, for the
# warm-up run before timing and for the self-test.  Never timed.
TINY = {
    "interval-record": {
        "mesh": {"resolution": 16},
        "time": {"T": 2.0, "dt": 1e-2},
        "multiplier": {"levels": 2, "n_time": 21},
    },
    "transducer-spectrum": {"mesh": {"resolution": 3}, "time": {"T": 1.0, "dt": 2e-2}},
    "halfdisk-bdf2": {"mesh": {"resolution": 6}, "time": {"T": 1.0, "dt": 2e-2, "output_stride": 2}},
}


def _merge(base, override):
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def make_inputs(name, seed, tiny=False):
    """(config dict, adjoint-check seed) for one workload and seed."""
    spec = WORKLOADS[name]
    rng = random.Random("%s/%d" % (name, seed))
    initial = {"amplitude": round(rng.uniform(0.5, 2.0), 6)}
    if spec["bump_box"] is not None:
        (x0, x1), (y0, y1) = spec["bump_box"]
        initial["center"] = [round(rng.uniform(x0, x1), 6), round(rng.uniform(y0, y1), 6)]
    check_seed = rng.randrange(2**31)
    cfg = _merge(spec["config"], {"initial": initial})
    if tiny:
        cfg = _merge(cfg, TINY[name])
    return cfg, check_seed


# -- output checks ------------------------------------------------------------

# Values at the commit that introduced the benchmark.  ``abscissa`` does not
# depend on the initial data; the ``*_band`` entries are [low, high].
REFERENCE = {
    "interval-record": {
        "abscissa": -0.38069549909224054,
        "e1_ratio": 5.643545111550366e-08 / 0.17125828877133217,
        "ratio_band": (0.9, 1.1),
        "identity_residual_max": 1e-6,
        "c0": 1.0,
    },
    "transducer-spectrum": {
        "abscissa": -0.0003168488448227283,
        "e1_ratio_band": (5.0e-5, 1.6e-4),
        "ratio_band": (650.0, 1600.0),
        "identity_residual_max": 1e-3,
        "c0": 0.9910106331063655,
    },
    "halfdisk-bdf2": {
        "e1_ratio_band": (1.9e-3, 3.6e-3),
        "omega_band": (4.3, 5.5),
        "identity_residual_max": 5e-3,
    },
}

_ABSCISSA_TOL = 1e-6  # absolute, on abscissas of size <= 1
_RATIO_RTOL = 1e-6  # amplitude-invariant quantities on the interval
_SLOPE_MIN = 1.9  # ROADMAP gate on the multiplier refinement slopes
_ADJOINT_MAX = 1e-10


def _within(value, band):
    return value is not None and band[0] <= value <= band[1]


def check_outputs(name, out_dir, tiny=False):
    """List of failed checks (empty when the run is correct)."""
    spec = WORKLOADS[name]
    problems = []
    present = set(os.listdir(out_dir))
    missing = [a for a in spec["artifacts"] if a not in present]
    if missing:
        problems.append("missing artifacts %s" % missing)
    if "error.json" in present:
        problems.append("error.json written")
    if problems or tiny:
        return problems

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "trajectory.csv")) as fh:
        n_rows = sum(1 for _ in csv.reader(fh)) - 1
    if n_rows != spec["csv_rows"]:
        problems.append("trajectory.csv has %d rows, expected %d" % (n_rows, spec["csv_rows"]))

    ref = REFERENCE[name]
    energy = summary["energy"]
    e1_ratio = energy["E1_final"] / energy["E1_initial"]
    if "e1_ratio" in ref:
        if abs(e1_ratio / ref["e1_ratio"] - 1.0) > _RATIO_RTOL:
            problems.append("E1_final/E1_initial %.12g vs %.12g" % (e1_ratio, ref["e1_ratio"]))
    elif not _within(e1_ratio, ref["e1_ratio_band"]):
        problems.append("E1_final/E1_initial %.6g outside %s" % (e1_ratio, ref["e1_ratio_band"]))
    if not energy["identity_residual"] <= ref["identity_residual_max"]:
        problems.append(
            "identity residual %r above %g" % (energy["identity_residual"], ref["identity_residual_max"])
        )

    if "omega_band" in ref and not _within(summary["decay_fit"]["omega"], ref["omega_band"]):
        problems.append("decay rate %r outside %s" % (summary["decay_fit"]["omega"], ref["omega_band"]))

    if spec["subcommand"] == "full":
        cert = summary["certification"]
        if cert["certified"] is not True:
            problems.append("geometry not certified")
        elif abs(cert["c0"] - ref["c0"]) > 1e-9:
            problems.append("certified c0 %r vs %r" % (cert["c0"], ref["c0"]))
        absc = summary["spectral"]["abscissa"]
        if summary["spectral"]["partial"] or abs(absc - ref["abscissa"]) > _ABSCISSA_TOL:
            problems.append("abscissa %r vs %r" % (absc, ref["abscissa"]))
        versus = summary["abscissa_vs_decay"]
        if versus["applicable"] is not True or not _within(versus["ratio"], ref["ratio_band"]):
            problems.append(
                "abscissa_vs_decay applicable=%r ratio=%r outside %s"
                % (versus["applicable"], versus["ratio"], ref["ratio_band"])
            )
        if not summary["adjoint_check"]["max_relative_residual"] <= _ADJOINT_MAX:
            problems.append("adjoint residual %r" % summary["adjoint_check"]["max_relative_residual"])

    if "multiplier.json" in spec["artifacts"]:
        slopes = summary["multiplier"]["slopes"]
        low = {k: v for k, v in slopes.items() if v is None or v < _SLOPE_MIN}
        if low:
            problems.append("multiplier slopes below %.1f: %s" % (_SLOPE_MIN, low))
    return problems

