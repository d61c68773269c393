"""Scenario configuration: schema, validation, hashing and instantiation.

A configuration is a plain JSON-compatible dictionary.  It may name a
preset (``{"preset": "interval-1d-damped", ...}``), in which case the
preset is loaded first and the remaining keys are deep-merged on top.
Validation is strict: unknown keys anywhere are rejected, so typos fail
loudly instead of silently running defaults.
"""

import copy
import hashlib
import json

import jsonschema
import numpy as np

from . import presets
from .discretization import MaterialParams, assemble_operators, build_mesh
from .dynamics import m_transform
from .energy import energy_E0, energy_E1
from .errors import ConfigError
from .geometry import Geometry

SCHEMA_VERSION = 1

# Largest step count ``round(T / dt)`` a run may take (the presets use at
# most 2e4); ``simulate`` keeps its recording schedule per step.  It also
# bounds the intervals of the multiplier's finest time grid.  The mesh's
# cap is ``discretization.MAX_LATTICE_POINTS``.
MAX_STEPS = 10**7

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "preset": {"type": "string"},
        "label": {"type": "string"},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["interval", "polygon", "named"]},
                "x_left": _NUMBER,
                "x_right": _NUMBER,
                "gamma0_end": {"enum": ["left", "right", None]},
                "x0": {
                    "oneOf": [
                        _NUMBER,
                        {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                    ]
                },
                "vertices": {
                    "type": "array",
                    "items": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                    "minItems": 3,
                },
                "segment_tags": {"type": "array", "items": {"enum": ["gamma0", "gamma1"]}},
                "name": {"type": "string"},
            },
            "required": ["kind"],
        },
        "mesh": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"resolution": {"type": "integer", "minimum": 2}},
            "required": ["resolution"],
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau": _POSITIVE,
                "c": _POSITIVE,
                "b": _POSITIVE,
                "alpha": {"type": "number", "minimum": 0},
                "kappa0": {"type": "number", "minimum": 0},
                "kappa1": {"type": "number", "minimum": 0},
            },
            "required": ["tau", "c", "b", "alpha", "kappa0", "kappa1"],
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["zero", "robin-mode", "gaussian-bump"]},
                "amplitude": _NUMBER,
                "center": {
                    "oneOf": [
                        _NUMBER,
                        {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": 2},
                    ]
                },
                "width": _POSITIVE,
            },
            "required": ["kind"],
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "T": _POSITIVE,
                "dt": _POSITIVE,
                "scheme": {"enum": ["implicit-midpoint", "bdf2"]},
                "output_stride": {"type": "integer", "minimum": 1},
            },
            "required": ["T", "dt"],
        },
        "collar_width": _POSITIVE,
        "multiplier": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_final": _POSITIVE,
                "window_cut": {"type": "number", "minimum": 0},
                "n_time": {"type": "integer", "minimum": 3},
                "levels": {"type": "integer", "minimum": 1},
            },
        },
    },
}

# Built once: ``jsonschema.validate`` would re-check SCHEMA against the
# meta-schema on every call (the tests check it once).
_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _non_finite(obj, path):
    """Paths to the non-finite numbers (NaN, +-inf) in a JSON-like value."""
    if isinstance(obj, dict):
        return [p for key, val in obj.items() for p in _non_finite(val, path + [str(key)])]
    if isinstance(obj, list):
        return [p for i, val in enumerate(obj) for p in _non_finite(val, path + [str(i)])]
    return [path] if isinstance(obj, float) and not np.isfinite(obj) else []


def load_config(obj):
    """Resolve presets and validate; returns the effective config dict."""
    if not isinstance(obj, dict):
        raise ConfigError("configuration must be a JSON object")
    if "preset" in obj:
        base = presets.preset(obj["preset"])
        kind, geometry = base["geometry"]["kind"], obj.get("geometry")
        if isinstance(geometry, dict) and geometry.get("kind", kind) != kind:
            del base["geometry"]  # a geometry of another kind replaces the preset's whole section
        merged = _merge(base, {k: v for k, v in obj.items() if k != "preset"})
        merged["preset"] = obj["preset"]
    else:
        merged = copy.deepcopy(obj)
    merged.setdefault("schema_version", SCHEMA_VERSION)
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(merged))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError("invalid configuration at %s: %s" % (path, exc.message))
    # json.load accepts NaN and Infinity, and the schema's "number" lets them through
    bad = _non_finite(merged, [])
    if bad:
        raise ConfigError("invalid configuration at %s: not a finite number" % "/".join(bad[0]))
    for section in ("geometry", "mesh", "params", "time"):
        if section not in merged:
            raise ConfigError("configuration is missing the %r section" % section)
    if merged["time"]["T"] < merged["time"]["dt"]:
        raise ConfigError("time.T must be at least time.dt (one step)")
    # round(T / dt) > MAX_STEPS, also when T / dt overflows to inf
    if merged["time"]["T"] / merged["time"]["dt"] > MAX_STEPS + 0.5:
        raise ConfigError("time.T / time.dt exceeds the budget of %d steps" % MAX_STEPS)
    return merged


def load_config_file(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("configuration file is not valid JSON: %s" % exc)
    except OSError as exc:
        raise ConfigError("cannot read configuration: %s" % exc)
    return load_config(obj)


def canonical_json(obj):
    """Canonical serialized form (sorted keys, minimal separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def build_geometry(config):
    g = config["geometry"]
    if g["kind"] == "interval":
        return Geometry.interval(
            g.get("x_left", 0.0),
            g.get("x_right", 1.0),
            gamma0_end=g.get("gamma0_end", "left"),
            x0=g.get("x0"),
        )
    if g["kind"] == "polygon":
        if "vertices" not in g or "segment_tags" not in g or "x0" not in g:
            raise ConfigError("polygon geometry needs 'vertices', 'segment_tags' and 'x0'")
        return Geometry.polygon(g["vertices"], g["segment_tags"], g["x0"])
    if g["kind"] == "named":
        if "name" not in g:
            raise ConfigError("named geometry needs 'name'")
        return presets.named_geometry(g["name"])
    raise ConfigError("unknown geometry kind %r" % g["kind"])


class Scenario:
    """Everything instantiated from one validated configuration."""

    def __init__(self, config):
        self.config = config
        self.geometry = build_geometry(config)
        self.mesh = build_mesh(self.geometry, config["mesh"]["resolution"])
        p = config["params"]
        try:
            self.params = MaterialParams.constant(
                self.mesh, p["tau"], p["c"], p["b"], p["alpha"], p["kappa0"], p["kappa1"]
            )
            self.bundle = assemble_operators(self.mesh, self.params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._initial = None

    @property
    def initial(self):
        """The u-form initial state; data whose energy E0 or E1 is not
        finite are a :class:`ConfigError`."""
        if self._initial is None:
            spec = self.config.get("initial", {"kind": "zero"})
            state = presets.initial_state(spec, self.mesh, self.params)
            with np.errstate(over="ignore", invalid="ignore"):
                E0 = energy_E0(state, self.bundle)
                E1 = energy_E1(m_transform(state, self.params), self.bundle, allow_indefinite=True)
            if not np.isfinite(E0 + E1):
                raise ConfigError("the energy of the initial data is not finite")
            self._initial = state
        return self._initial

    @property
    def time(self):
        t = dict(self.config["time"])
        t.setdefault("scheme", "implicit-midpoint")
        t.setdefault("output_stride", 1)
        return t

    @property
    def collar_width(self):
        return float(self.config.get("collar_width", 0.25 * self.geometry.diameter()))
