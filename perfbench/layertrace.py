"""Outside-in tracing: time calls into each layer's public functions.

The wrappers live only in the benchmark process.  ``Tracer.install``
replaces each target function (or method) in every ``mgtstab`` module
that holds it, so calls made through ``from .x import f`` aliases are
caught too, and ``Tracer.remove`` puts the originals back.  A target
that no longer exists is reported as absent instead of failing the run.

Spans are kept in memory as ``[metric, layer, start, end, parent]``.  A
layer's self time is the time of its spans minus the part covered by
their child spans, so the layers' self times add up to the root span,
``cli.run``.
"""

import functools
import os
import sys
import time

# (layer, module, attribute path, metric stem).  Several targets may share a
# stem; their times and calls add up.
TARGETS = (
    ("cli", "mgtstab.cli", "run", "run"),
    ("config", "mgtstab.config", "load_config", "load_config"),
    ("config", "mgtstab.config", "Scenario.__init__", "scenario"),
    ("discretization", "mgtstab.discretization", "build_mesh", "build_mesh"),
    ("discretization", "mgtstab.discretization", "assemble_operators", "assemble_operators"),
    ("discretization", "mgtstab.discretization", "check_adjoint_identity", "check_adjoint_identity"),
    ("geometry", "mgtstab.geometry", "build_vector_field_h", "build_vector_field_h"),
    ("geometry", "mgtstab.geometry", "check_star_shaped", "checks"),
    ("geometry", "mgtstab.geometry", "check_convex_gamma0", "checks"),
    ("geometry", "mgtstab.geometry", "verify_field_properties", "checks"),
    ("dynamics", "mgtstab.dynamics", "simulate", "simulate"),
    ("dynamics", "mgtstab.dynamics", "Stepper.__init__", "stepper_init"),
    ("dynamics", "mgtstab.dynamics", "Stepper.step", "step"),
    ("dynamics", "mgtstab.dynamics", "check_compatibility", "check_compatibility"),
    ("dynamics", "mgtstab.dynamics", "assemble_generator", "assemble_generator"),
    ("energy", "mgtstab.energy", "energy_E1", "energy_E1"),
    ("energy", "mgtstab.energy", "energy_E0", "energy_E0"),
    ("energy", "mgtstab.energy", "energy_identity_residual", "identity_residual"),
    ("energy", "mgtstab.energy", "fit_decay_rate", "fit_decay_rate"),
    ("spectral", "mgtstab.spectral", "spectrum", "spectrum"),
    ("spectral", "mgtstab.spectral", "abscissa_vs_decay", "abscissa_vs_decay"),
    ("multiplier", "mgtstab.multiplier", "residual_hgradz", "residual"),
    ("multiplier", "mgtstab.multiplier", "residual_zdivh", "residual"),
    ("multiplier", "mgtstab.multiplier", "residual_zmul", "residual"),
    ("reporting", "mgtstab.reporting", "write_json", "write_json"),
    ("reporting", "mgtstab.reporting", "write_trajectory_csv", "write_trajectory_csv"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# Counts read from the arguments and results of traced calls.
DERIVED_COUNTS = {
    "energy.record_calls": "count",
    "spectral.generator_size": "count",
    "reporting.bytes_written": "B",
    "discretization.n_nodes": "count",
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer, _mod, _attr, stem in TARGETS:
        if (layer, stem) == ("cli", "run"):
            continue
        out["%s.%s_s" % (layer, stem)] = "s"
        out["%s.%s_calls" % (layer, stem)] = "count"
    for layer in LAYERS:
        if layer != "cli":
            out["%s.self_s" % layer] = "s"
    out.update(DERIVED_COUNTS)
    out.update({"dynamics.simulate_self_s": "s", "cli.run_self_s": "s"})
    out.update({"trace.run_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})
    return out


def _resolve(module_name, attr_path):
    """(owner object, attribute name, original) or None if absent."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if not callable(orig):
        return None
    return owner, parts[-1], orig


class Tracer:
    """Wraps the targets, records spans, and restores the originals."""

    def __init__(self):
        self.absent = []
        self._patched = []  # (owner, name, original)
        self.reset()

    def reset(self):
        self.spans = []
        self._stack = []
        self.extra = {name: 0 for name in DERIVED_COUNTS}

    def install(self):
        for layer, module_name, attr_path, stem in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append("%s.%s" % (module_name, attr_path))
                continue
            owner, name, orig = found
            wrapper = self._wrap(orig, "%s.%s" % (layer, stem), layer, attr_path)
            if isinstance(owner, type):
                self._patch(owner, name, orig, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "mgtstab" and vars(module).get(name) is orig:
                    self._patch(module, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, orig))

    def remove(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, func, metric, layer, attr_path):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [metric, layer, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            self._observe(attr_path, parent, args, result)
            return result

        return wrapper

    def _parent_metric(self, parent):
        return None if parent is None else self.spans[parent][0]

    def _observe(self, attr_path, parent, args, result):
        extra = self.extra
        if attr_path == "energy_E1" and self._parent_metric(parent) == "dynamics.simulate":
            extra["energy.record_calls"] += 1
        elif attr_path == "spectrum":
            extra["spectral.generator_size"] = max(extra["spectral.generator_size"], args[0].size)
        elif attr_path == "write_json":
            extra["reporting.bytes_written"] += os.path.getsize(args[0])
        elif attr_path == "write_trajectory_csv":
            extra["reporting.bytes_written"] += os.path.getsize(args[1])
        elif attr_path == "build_mesh" and self._parent_metric(parent) == "config.scenario":
            extra["discretization.n_nodes"] = result.n_nodes


def self_time_total(metrics):
    """Sum of every layer's self time; equals ``trace.run_s``."""
    layers = sum(metrics["%s.self_s" % layer] for layer in LAYERS if layer != "cli")
    return metrics["cli.run_self_s"] + layers


def summarize(spans, extra):
    """Per-layer metrics of one traced ``cli.run`` call."""
    out = {name: 0 for name in metric_names()}
    child_time = [0.0] * len(spans)
    for metric, _layer, t0, t1, parent in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    for i, (metric, layer, t0, t1, parent) in enumerate(spans):
        self_time = (t1 - t0) - child_time[i]
        if metric == "cli.run":
            out["cli.run_self_s"] += self_time
            out["trace.run_s"] += t1 - t0
            continue
        out["%s.self_s" % layer] += self_time
        if metric == "dynamics.simulate":
            out["dynamics.simulate_self_s"] += self_time
        out[metric + "_calls"] += 1
        # a call nested inside a call of the same target is already timed
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != metric:
            ancestor = spans[ancestor][4]
        if ancestor is None:
            out[metric + "_s"] += t1 - t0
    out.update(extra)
    out["trace.spans"] = len(spans)
    return out
