"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

Run from the repository root: ``python3 perfbench/selftest.py``.  It
checks that

* every end-to-end and per-layer metric named in the benchmark's
  definition is emitted with a unit, and BENCHMARK.json declares them;
* the traced run leaves the artifacts byte-identical and the wrapped
  functions restored, and its layers' self times add up to the traced
  run time;
* a target that no longer exists is reported as absent, with its
  metrics at zero, without failing the run.

Exits 0 when every check passes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")

# The per-layer metrics the benchmark promises, layer by layer.
PER_LAYER = (
    "dynamics.step_s", "dynamics.step_calls", "dynamics.stepper_init_s",
    "dynamics.simulate_s", "dynamics.simulate_self_s", "dynamics.check_compatibility_s",
    "dynamics.assemble_generator_calls",
    "energy.energy_E1_s", "energy.energy_E0_s", "energy.record_calls",
    "energy.identity_residual_s", "energy.fit_decay_rate_s",
    "spectral.spectrum_s", "spectral.spectrum_calls", "spectral.generator_size",
    "spectral.abscissa_vs_decay_s",
    "multiplier.residual_s", "multiplier.residual_calls",
    "reporting.write_trajectory_csv_s", "reporting.write_json_s", "reporting.bytes_written",
    "config.load_config_s", "config.scenario_s", "discretization.build_mesh_s",
    "discretization.assemble_operators_s", "discretization.check_adjoint_identity_s",
    "discretization.n_nodes",
    "geometry.build_vector_field_h_s", "geometry.checks_s",
    "cli.run_self_s", "trace.overhead_s",
)


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics(result, names):
    check(result["correct"] and result["failed"] == 0, "failed operations: %s" % result)
    check(result["attempted"] >= 1, "nothing attempted")
    for name in names:
        metric = result["metrics"].get(name)
        check(metric is not None, "metric %s missing" % name)
        check(isinstance(metric["value"], (int, float)), "%s has no number" % name)
        check(isinstance(metric["unit"], str) and metric["unit"], "%s has no unit" % name)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workload list differs")
    declared = {m["name"] for m in bench["end_to_end"]}
    check(declared == set(END_TO_END), "end_to_end differs: %s" % declared)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(declared == layertrace.metric_names(), "per_layer differs from layertrace.metric_names()")
    check(set(PER_LAYER) <= set(declared), "per_layer lacks %s" % (set(PER_LAYER) - set(declared)))


def check_wrappers_restored():
    import mgtstab.cli as cli
    import mgtstab.dynamics as dyn

    before = (cli.run, cli.simulate, dyn.Stepper.__dict__["step"], dyn.Stepper.__dict__["__init__"])
    tracer = layertrace.Tracer()
    with tracer:
        check(dyn.Stepper.__dict__["step"] is not before[2], "Stepper.step not wrapped")
        check(cli.simulate is not before[1], "cli.simulate alias not wrapped")
    after = (cli.run, cli.simulate, dyn.Stepper.__dict__["step"], dyn.Stepper.__dict__["__init__"])
    check(all(a is b for a, b in zip(before, after)), "wrappers not removed")


def check_absent_target():
    saved = layertrace.TARGETS
    layertrace.TARGETS = saved + (("dynamics", "mgtstab.dynamics", "Stepper.no_such", "no_such"),)
    try:
        result, _report, absent = run.run_benchmark(
            "halfdisk-bdf2", seed=1, seconds=0.1, trace=1, tiny=True
        )
    finally:
        layertrace.TARGETS = saved
    check(absent == ["mgtstab.dynamics.Stepper.no_such"], "absent: %s" % absent)
    check_metrics(result, PER_LAYER + ("dynamics.no_such_s",))


def main():
    check_benchmark_json()
    for name in WORKLOADS:
        result, _report, _absent = run.run_benchmark(name, seed=1, seconds=0.1, trace=0, tiny=True)
        check_metrics(result, END_TO_END)
        result, _report, absent = run.run_benchmark(name, seed=1, seconds=0.1, trace=1, tiny=True)
        check(absent == [], "absent targets: %s" % absent)
        check_metrics(result, PER_LAYER)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = layertrace.self_time_total(m)
        check(abs(self_sum - m["trace.run_s"]) <= 1e-9 * max(1.0, m["trace.run_s"]),
              "self times %r do not add up to %r" % (self_sum, m["trace.run_s"]))
        check(m["dynamics.simulate_calls"] == 1 and m["dynamics.step_calls"] > 0, "stepping not traced")
        print("ok %s (%d attempted)" % (name, result["attempted"]))
    check_wrappers_restored()
    check_absent_target()
    print("selftest passed")


if __name__ == "__main__":
    main()
