"""Ready-made geometries, parameter sets and scenario configurations.

Scenario presets are plain config dictionaries (see :mod:`mgtstab.config`
for the schema).  They cover the standard study cases: an interval with
one Robin end run at the conservative tuning ``gamma = 0`` with no
boundary absorption, the same interval with uniform damping, an unstable
tuning ``gamma < 0``, and a curved-cap 2D domain shaped like a
transducer cross-section whose Robin part is a circular arc.
"""

import math

import numpy as np

from .errors import ConfigError
from .geometry import Geometry


# -- initial profiles --------------------------------------------------------


def robin_mode_frequency(kappa0):
    """First positive root of ``omega tan(omega) = kappa0``.

    ``cos(omega x) + (kappa0/omega) sin(omega x)`` is then the lowest
    eigenfunction of the 1D Robin(0)/Neumann(1) Laplacian, so nodal data
    built from it satisfy both boundary compatibility conditions (with
    zero initial velocity) at once.
    """
    kappa0 = float(kappa0)
    if kappa0 <= 0:
        raise ValueError("robin mode needs kappa0 > 0")
    # g increases on [0, pi/2] from -kappa0; bisect down to adjacent doubles.
    g = lambda w: w * math.sin(w) - kappa0 * math.cos(w)
    lo, hi = 0.0, math.pi / 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    return min((lo, hi), key=lambda w: abs(g(w)))


def robin_mode_profile(x, kappa0, amplitude=1.0):
    """The compatible 1D mode sampled at coordinates ``x``."""
    w = robin_mode_frequency(kappa0)
    x = np.asarray(x, float).reshape(-1)
    return amplitude * (np.cos(w * x) + (kappa0 / w) * np.sin(w * x))


def gaussian_bump(x, center, width, amplitude=1.0):
    x = np.atleast_2d(np.asarray(x, float))
    c = np.atleast_1d(np.asarray(center, float))
    r2 = np.sum((x - c) ** 2, axis=1)
    return amplitude * np.exp(-r2 / (2.0 * float(width) ** 2))


def initial_state(spec, mesh, params):
    """Build a u-form :class:`~mgtstab.dynamics.State` from an initial spec dict.

    The bump centre must have one coordinate per mesh dimension, and the
    data must be finite; either failure is a :class:`ConfigError`.
    """
    from .dynamics import State

    n = mesh.n_nodes
    kind = spec.get("kind", "zero")
    amp = float(spec.get("amplitude", 1.0))
    if kind == "zero":
        u0 = np.zeros(n)
    elif kind == "robin-mode":
        if mesh.dim != 1:
            raise ConfigError("the robin-mode profile is one-dimensional")
        k0 = float(np.max(params.kappa0_field))
        try:
            u0 = robin_mode_profile(mesh.nodes[:, 0], k0, amp)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif kind == "gaussian-bump":
        if "center" not in spec or "width" not in spec:
            raise ConfigError("gaussian-bump initial data need 'center' and 'width'")
        if np.size(spec["center"]) != mesh.dim:
            raise ConfigError("initial.center needs one coordinate per mesh dimension")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u0 = gaussian_bump(mesh.nodes, spec["center"], spec["width"], amp)
    else:
        raise ConfigError("unknown initial profile %r" % kind)
    if not np.isfinite(u0).all():
        raise ConfigError("the initial data are not finite")
    return State(u0, np.zeros(n), np.zeros(n), 0.0)


# -- geometries ---------------------------------------------------------------


def transducer_geometry():
    """Dome-shaped 2D section with a circular-arc Robin cap at the bottom.

    The cap (gamma0) is eight chords of a circle of radius 2 centered at
    (0, 1.8); the rest of the boundary (gamma1) is a six-segment dome.
    ``x0 = (0, -1)`` sits below the cap, so ``(x - x0) . nu <= 0`` holds
    along it with margin ~0.58.
    """
    R, cy = 2.0, 1.8
    theta_max = np.arcsin(0.385)
    th = np.linspace(-theta_max, theta_max, 9)
    cap = np.column_stack([R * np.sin(th), cy - R * np.cos(th)])
    dome = np.array([[0.85, 0.6], [0.55, 1.1], [0.0, 1.3], [-0.55, 1.1], [-0.85, 0.6]])
    vertices = np.vstack([cap, dome])
    tags = ["gamma0"] * 8 + ["gamma1"] * 6
    return Geometry.polygon(vertices, tags, x0=(0.0, -1.0))


def half_disk_geometry():
    """Upper half disk: flat diameter gamma0, polygonal arc gamma1 of 16 segments."""
    n_arc = 16
    th = np.linspace(0.0, np.pi, n_arc + 1)
    arc = np.column_stack([np.cos(th), np.sin(th)])
    tags = ["gamma1"] * n_arc + ["gamma0"]
    return Geometry.polygon(arc, tags, x0=(0.0, -0.75))


def unit_square_geometry():
    """Unit square with the bottom side as gamma0."""
    vertices = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    tags = ["gamma0", "gamma1", "gamma1", "gamma1"]
    return Geometry.polygon(vertices, tags, x0=(0.5, -0.7))


_NAMED_GEOMETRIES = {
    "transducer": transducer_geometry,
    "half-disk": half_disk_geometry,
    "unit-square": unit_square_geometry,
}


def named_geometry(name):
    try:
        return _NAMED_GEOMETRIES[name]()
    except KeyError:
        raise ConfigError(
            "unknown geometry %r (have: %s)" % (name, ", ".join(sorted(_NAMED_GEOMETRIES)))
        )


# -- scenario presets ---------------------------------------------------------

_INTERVAL_GEOM = {"kind": "interval", "x_left": 0.0, "x_right": 1.0, "gamma0_end": "left"}

_SCENARIOS = {
    # gamma = alpha - tau c^2 / b = 0 and no gamma1 absorption: every
    # quadratic invariant is conserved, which the midpoint scheme must
    # reproduce to solver precision.
    "interval-1d-conserved": {
        "schema_version": 1,
        "geometry": dict(_INTERVAL_GEOM),
        "mesh": {"resolution": 128},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 1.0, "kappa0": 1.0, "kappa1": 0.0},
        "initial": {"kind": "robin-mode", "amplitude": 1.0},
        "time": {"T": 10.0, "dt": 1e-3, "scheme": "implicit-midpoint", "output_stride": 10},
        "collar_width": 0.5,
        "multiplier": {"t_final": 2.0, "window_cut": 0.25, "n_time": 81, "levels": 3},
    },
    # gamma = 1 > 0 plus boundary absorption: exponential decay.  T spans
    # a few periods of the slowest mode so the tail fit of the decay rate
    # is not biased by the energy oscillation.
    "interval-1d-damped": {
        "schema_version": 1,
        "geometry": dict(_INTERVAL_GEOM),
        "mesh": {"resolution": 64},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 2.0, "kappa0": 1.0, "kappa1": 1.0},
        "initial": {"kind": "robin-mode", "amplitude": 1.0},
        "time": {"T": 20.0, "dt": 1e-3, "scheme": "implicit-midpoint", "output_stride": 10},
        "collar_width": 0.5,
        "multiplier": {"t_final": 2.0, "window_cut": 0.25, "n_time": 81, "levels": 3},
    },
    # gamma = -1/2 < 0: the dissipativity structure fails and the energy
    # grows exponentially.
    "interval-1d-unstable": {
        "schema_version": 1,
        "geometry": dict(_INTERVAL_GEOM),
        "mesh": {"resolution": 64},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 0.5, "kappa0": 1.0, "kappa1": 0.0},
        "initial": {"kind": "robin-mode", "amplitude": 1.0},
        "time": {"T": 50.0, "dt": 5e-3, "scheme": "implicit-midpoint", "output_stride": 10},
        "collar_width": 0.5,
    },
    # critical tuning on the curved-cap domain: decay must come entirely
    # from the gamma1 feedback plus the geometry.
    "transducer-2d": {
        "schema_version": 1,
        "geometry": {"kind": "named", "name": "transducer"},
        "mesh": {"resolution": 6},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 1.0, "kappa0": 1.0, "kappa1": 1.0},
        "initial": {"kind": "gaussian-bump", "center": [0.0, 0.55], "width": 0.18},
        "time": {"T": 8.0, "dt": 4e-3, "scheme": "implicit-midpoint", "output_stride": 4},
        "collar_width": 0.35,
    },
    # strictly stable tuning on the half disk (flat gamma0).
    "half-disk-2d": {
        "schema_version": 1,
        "geometry": {"kind": "named", "name": "half-disk"},
        "mesh": {"resolution": 8},
        "params": {"tau": 1.0, "c": 1.0, "b": 1.0, "alpha": 1.5, "kappa0": 1.0, "kappa1": 1.0},
        "initial": {"kind": "gaussian-bump", "center": [0.0, 0.45], "width": 0.15},
        "time": {"T": 6.0, "dt": 5e-3, "scheme": "implicit-midpoint", "output_stride": 4},
        "collar_width": 0.3,
    },
}


def preset(name):
    """Deep copy of a named scenario configuration."""
    import copy

    try:
        return copy.deepcopy(_SCENARIOS[name])
    except KeyError:
        raise ConfigError(
            "unknown preset %r (have: %s)" % (name, ", ".join(sorted(_SCENARIOS)))
        )

