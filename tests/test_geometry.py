"""Geometry checks and multiplier-field certification.

The certification contract: h tangential on gamma0 (|h.nu| below a hard
tolerance after the facet trace correction) and c0 > 0 for the symmetric
part of the discrete Jacobian.
"""

import dataclasses

import numpy as np
import pytest

import mgtstab as M
from mgtstab.errors import CertificationError, GeometryError
from mgtstab.geometry import FlatCollarField, RadialField, _ddpsi, _dpsi, _psi


def interval_geometry(gamma0_end="left"):
    cfg = M.load_config(
        {
            "geometry": {"kind": "interval", "x_left": 0.0, "x_right": 1.0, "gamma0_end": gamma0_end},
            "mesh": {"resolution": 4},
            "params": {"tau": 1, "c": 1, "b": 1, "alpha": 2, "kappa0": 1, "kappa1": 1},
            "time": {"T": 1, "dt": 0.1},
        }
    )
    from mgtstab.config import build_geometry

    return build_geometry(cfg)


# ---------------------------------------------------------------- checks


def test_interval_star_shaped():
    geo = interval_geometry()
    rep = M.check_star_shaped(geo)
    assert rep["holds"]
    # default x0 sits on the gamma0 endpoint, so the margin is exactly 0
    assert rep["max_violation"] <= 0


def test_interval_star_margin_keeps_its_signed_zero():
    # (a - x0) nu = 0 * (-1) = -0.0, which the interval certification.json records
    rep = M.check_star_shaped(interval_geometry())
    assert rep["max_violation"] == 0.0 and np.signbit(rep["max_violation"])


def test_star_shape_fails_when_x0_right_of_gamma0():
    # gamma0 = left endpoint with outward normal -1, so (x - x0).nu = x0 - x_left
    # turns positive as soon as x0 moves into the interior
    geo = interval_geometry()
    geo.x0 = np.array([0.5])
    rep = M.check_star_shaped(geo)
    assert not rep["holds"]
    assert rep["max_violation"] == pytest.approx(0.5)


def test_square_convexity_and_star_shape():
    geo = M.named_geometry("unit-square")
    assert M.check_star_shaped(geo)["holds"]
    assert M.check_convex_gamma0(geo)["convex"]


def test_transducer_cap_is_convex():
    geo = M.named_geometry("transducer")
    rep = M.check_convex_gamma0(geo)
    assert rep["convex"]
    assert rep["min_turn"] >= 0
    assert M.check_star_shaped(geo)["holds"]


def test_nonconvex_gamma0_detected():
    # a dented bottom chain: the middle vertex pokes into the domain
    verts = np.array(
        [[0.0, 0.0], [0.5, 0.2], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    tags = np.array([M.GAMMA0, M.GAMMA0, M.GAMMA1, M.GAMMA1, M.GAMMA1])
    geo = M.Geometry(2, verts, tags, np.array([0.5, 0.6]))
    assert not M.check_convex_gamma0(geo)["convex"]


def square_with_tags(tags, x0=(0.5, 0.5)):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return M.Geometry(2, verts, np.array(tags), np.array(x0))


def test_noncontiguous_gamma0_raises():
    geo = square_with_tags([M.GAMMA0, M.GAMMA1, M.GAMMA0, M.GAMMA1])
    with pytest.raises(GeometryError, match="contiguous"):
        geo.gamma0_chain()
    with pytest.raises(GeometryError, match="contiguous"):
        M.check_convex_gamma0(geo)


def test_gamma0_run_wrapping_past_the_last_segment_is_ccw_ordered():
    # gamma0 = segments 4 and 0: the bottom side, bent down at (0.5, -0.1)
    # or straight, split at its midpoint vertex
    tags = [M.GAMMA0, M.GAMMA1, M.GAMMA1, M.GAMMA1, M.GAMMA0]
    for dip in (-0.1, 0.0):
        verts = np.array([[0.5, dip], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        geo = M.Geometry(2, verts, np.array(tags), np.array([0.5, -1.0]))
        rep = M.check_convex_gamma0(geo)
        # edges (0.5, dip) and (0.5, -dip): cross -dip over squared length 0.25 + dip^2
        assert rep["convex"]
        assert rep["min_turn"] == pytest.approx(-dip / (0.25 + dip**2), abs=1e-15)
    # the straight run is one flat segment from (0, 0) to (1, 0)
    h = M.build_vector_field_h(geo, M.build_mesh(geo, 4), collar_width=0.3)
    np.testing.assert_array_equal(h.analytic.a, [0.0, 0.0])
    np.testing.assert_array_equal(h.analytic.b, [1.0, 0.0])


def test_self_intersecting_polygon_with_positive_area_raises():
    # the side (2, 2) -> (1, -1) crosses the side (0, 0) -> (2, 0)
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, -1.0], [0.0, 2.0]])
    tags = np.array([M.GAMMA1] * 5)
    x, y = verts.T
    assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) == 1.0
    with pytest.raises(GeometryError, match="self-intersecting"):
        M.Geometry(2, verts, tags, np.array([1.0, 1.0]))


def test_star_shape_violation_in_2d_is_exact():
    # gamma0 = bottom and right sides; (x - x0) . nu is 0.5 on the bottom
    # (nu = (0, -1)) and 0.75 on the right (nu = (1, 0))
    geo = square_with_tags([M.GAMMA0, M.GAMMA0, M.GAMMA1, M.GAMMA1], x0=(0.25, 0.5))
    assert M.check_star_shaped(geo) == {"holds": False, "max_violation": 0.75}


# The per-segment loops that the segment table replaced, as references.


def reference_normal(geo, i):
    if geo.dimension == 1:
        return np.array([-1.0]) if i == 0 else np.array([1.0])
    a, b = geo.vertices[i], geo.vertices[(i + 1) % len(geo.vertices)]
    nu = np.array([b[1] - a[1], -(b[0] - a[0])])
    return nu / np.linalg.norm(nu)


def reference_star_violation(geo):
    worst = -np.inf
    for i in np.flatnonzero(geo.segment_tags == M.GAMMA0):
        nu = reference_normal(geo, i)
        if geo.dimension == 1:
            vals = [(geo.vertices[i] - geo.x0[0]) * nu[0]]
        else:
            a, b = geo.vertices[i], geo.vertices[(i + 1) % len(geo.vertices)]
            vals = [(a - geo.x0) @ nu, (b - geo.x0) @ nu]
        worst = max(worst, float(max(vals)))
    return worst


def reference_min_turn(chain):
    edges = np.diff(chain, axis=0)
    min_turn = np.inf
    for k in range(len(edges) - 1):
        e0, e1 = edges[k], edges[k + 1]
        cr = (e0[0] * e1[1] - e0[1] * e1[0]) / (np.linalg.norm(e0) * np.linalg.norm(e1))
        min_turn = min(min_turn, float(cr))
    return min_turn


def reference_self_intersecting(verts):
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    n = len(verts)
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if (j - i) % n == n - 1:
                continue
            (p1, p2), (q1, q2) = segs[i], segs[j]
            o = (orient(p1, p2, q1), orient(p1, p2, q2), orient(q1, q2, p1), orient(q1, q2, p2))
            if o[0] != o[1] and o[2] != o[3] and 0 not in o:
                return True
    return False


def test_vectorized_checks_match_the_segment_loops():
    # the dot products and norms of the references run through BLAS one
    # segment at a time, so they may differ from the table's in the last bit
    geos = [M.named_geometry(name) for name in ("unit-square", "half-disk", "transducer")]
    geos += [interval_geometry(end) for end in ("left", "right")]
    rng = np.random.default_rng(7)
    n_simple = n_crossing = 0
    for _ in range(300):
        n = int(rng.integers(4, 9))
        th = np.sort(rng.uniform(0, 2 * np.pi, n))
        verts = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 1.5, (n, 1))
        if rng.random() < 0.5:  # swap two vertices: often a crossing
            i, j = rng.choice(n, 2, replace=False)
            verts[[i, j]] = verts[[j, i]]
        x, y = verts.T
        if 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) <= 0:
            continue
        k = int(rng.integers(1, n))  # a gamma0 run of k segments from a random start
        tags = np.roll(np.arange(n) < k, int(rng.integers(n)))
        tags = np.where(tags, M.GAMMA0, M.GAMMA1)
        if reference_self_intersecting(verts):
            n_crossing += 1
            with pytest.raises(GeometryError, match="self-intersecting"):
                M.Geometry(2, verts, tags, rng.normal(size=2))
            continue
        n_simple += 1
        geos.append(M.Geometry(2, verts, tags, rng.normal(size=2)))
    assert n_simple > 50 and n_crossing > 50
    for geo in geos:
        star = M.check_star_shaped(geo)["max_violation"]
        np.testing.assert_allclose(star, reference_star_violation(geo), rtol=1e-15, atol=1e-15)
        run = geo.gamma0_chain()
        if geo.dimension == 2 and len(run):
            chain = np.vstack([geo.vertices[run], geo.vertices[(run[-1] + 1) % len(geo.vertices)]])
            turn = M.check_convex_gamma0(geo)["min_turn"]
            np.testing.assert_allclose(turn, reference_min_turn(chain), rtol=1e-15, atol=1e-15)


# ---------------------------------------------------------------- fields


def test_interval_field_certifies(damped_1d):
    scen = damped_1d
    h = M.build_vector_field_h(scen.geometry, scen.mesh, collar_width=0.5)
    assert h.certified
    assert h.certified_c0 > 0
    assert h.max_normal_trace_on_gamma0 <= 1e-10
    assert h.analytic is not None


def test_interval_field_vanishes_on_gamma0(damped_1d):
    scen = damped_1d
    h = M.build_vector_field_h(scen.geometry, scen.mesh, collar_width=0.5)
    # tangential on a 0-dimensional gamma0 means h = 0 at the endpoint
    assert abs(h.nodal_values[0, 0]) <= 1e-14
    # away from the collar it is the radial field x - x0
    x = scen.mesh.nodes[:, 0]
    far = x - scen.geometry.x0[0] > 0.5 * 1.01
    np.testing.assert_allclose(
        h.nodal_values[far, 0], x[far] - scen.geometry.x0[0], atol=1e-14
    )


@pytest.mark.parametrize("end, x0", [("left", -0.3), ("right", 1.4)])
def test_interval_collar_bend_vanishes_on_gamma0_and_certifies(end, x0):
    # x0 off the gamma0 endpoint, so beta = (a - x0) nu != 0 and the bend is active
    geo = M.Geometry.interval(0.0, 1.0, gamma0_end=end, x0=x0)
    mesh = M.build_mesh(geo, 16)
    h = M.build_vector_field_h(geo, mesh, collar_width=0.5)
    assert h.analytic.beta0 != 0
    assert h.certified
    assert h.certified_c0 > 0
    end_node = 0 if end == "left" else mesh.n_nodes - 1
    assert h.nodal_values[end_node, 0] == 0.0
    assert np.all(h.gamma0_facet_values == 0.0)
    # the collar spans half the interval; beyond it h is the radial field
    x = mesh.nodes[:, 0]
    far = np.abs(x - x[end_node]) > 0.5
    np.testing.assert_array_equal(h.nodal_values[far, 0], x[far] - x0)


def test_square_field_certifies(square_2d):
    scen = square_2d
    h = M.build_vector_field_h(scen.geometry, scen.mesh, collar_width=0.3)
    assert h.certified
    assert h.certified_c0 > 0
    assert h.max_normal_trace_on_gamma0 <= 1e-10
    rep = M.verify_field_properties(h, scen.mesh)
    assert rep["c0"] == h.certified_c0


def test_transducer_field_certifies_without_closed_form():
    geo = M.named_geometry("transducer")
    mesh = M.build_mesh(geo, 8)
    h = M.build_vector_field_h(geo, mesh, collar_width=0.35)
    assert h.certified
    assert h.certified_c0 > 0
    assert h.max_normal_trace_on_gamma0 <= 1e-10
    # curved cap: only nodal/discrete data, no closed-form derivatives
    assert h.analytic is None


def test_collar_width_validation(damped_1d):
    scen = damped_1d
    with pytest.raises(GeometryError):
        M.build_vector_field_h(scen.geometry, scen.mesh, collar_width=0.0)
    with pytest.raises(GeometryError):
        M.build_vector_field_h(scen.geometry, scen.mesh, collar_width=5.0)


def test_star_shape_failure_blocks_field(damped_1d):
    scen = damped_1d
    geo = interval_geometry()
    geo.x0 = np.array([2.0])
    with pytest.raises(GeometryError):
        M.build_vector_field_h(geo, scen.mesh, collar_width=0.5)


def test_certified_requires_a_tangential_gamma0_trace():
    # c0 > 0 alone does not certify: a normal trace above 1e-10 on gamma0
    # is refused by the property and by the identity quadrature it gates
    geo = interval_geometry()
    mesh = M.build_mesh(geo, 16)
    h = M.build_vector_field_h(geo, mesh, collar_width=0.5)
    assert h.certified and h.certified_c0 > 0
    leaky = dataclasses.replace(h, max_normal_trace_on_gamma0=1e-3)
    assert not leaky.certified
    with pytest.raises(CertificationError):
        M.residual_hgradz(M.trig_1d(), leaky, mesh, 1.0, np.linspace(0.0, 1.0, 11))


# ------------------------------------------------- analytic backends


def collar_1d(end):
    # the 1D gamma0 endpoint as a zero-length flat segment, x0 off it
    a, nu, x0 = (0.0, -1.0, -0.3) if end == "left" else (1.0, 1.0, 1.4)
    return FlatCollarField(np.array([x0]), np.array([a]), np.array([a]), np.array([nu]), 0.5)


def fd_jacobian(field, x, eps=1e-6):
    d = len(x)
    J = np.zeros((d, d))
    for j in range(d):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        J[:, j] = (field(xp[None, :])[0] - field(xm[None, :])[0]) / (2 * eps)
    return J


@pytest.mark.parametrize(
    "field,x",
    [
        (RadialField(np.array([0.2, -0.4])), np.array([0.7, 0.9])),
        (
            FlatCollarField(
                np.array([0.5, -0.7]),
                np.array([0.0, 0.0]),
                np.array([1.0, 0.0]),
                np.array([0.0, -1.0]),
                0.3,
            ),
            np.array([0.4, 0.12]),
        ),
        (
            FlatCollarField(
                np.array([0.0]), np.array([0.0]), np.array([0.0]), np.array([-1.0]), 0.5
            ),
            np.array([0.2]),
        ),
        (collar_1d("left"), np.array([0.2])),
        (collar_1d("right"), np.array([0.7])),
    ],
)
def test_closed_form_jacobian_matches_finite_differences(field, x):
    J = field.jacobian(x[None, :])[0]
    np.testing.assert_allclose(J, fd_jacobian(field, x), atol=1e-8)


def test_flat_collar_grad_div_matches_finite_differences():
    field = FlatCollarField(
        np.array([0.5, -0.7]),
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, -1.0]),
        0.3,
    )
    x = np.array([0.33, 0.21])
    eps = 1e-5

    def div(p):
        return field.divergence(p[None, :])[0]

    g = np.array(
        [
            (div(x + eps * np.eye(2)[j]) - div(x - eps * np.eye(2)[j])) / (2 * eps)
            for j in range(2)
        ]
    )
    np.testing.assert_allclose(field.grad_divergence(x[None, :])[0], g, atol=1e-6)
    np.testing.assert_allclose(
        div(x), np.trace(field.jacobian(x[None, :])[0]), atol=1e-13
    )


@pytest.mark.parametrize("end, x", [("left", 0.13), ("right", 0.71)])
def test_1d_collar_grad_div_matches_finite_differences(end, x):
    field = collar_1d(end)
    eps = 1e-5
    div = lambda p: field.divergence(np.array([[p]]))[0]
    fd = (div(x + eps) - div(x - eps)) / (2 * eps)
    np.testing.assert_allclose(field.grad_divergence(np.array([[x]]))[0, 0], fd, atol=1e-6)
    assert field.grad_divergence(np.array([[x]]))[0, 0] != 0
    np.testing.assert_allclose(div(x), field.jacobian(np.array([[x]]))[0, 0, 0], atol=1e-13)


class ReferenceIntervalCollarField:
    """The separate 1D collar field that the flat field replaced, verbatim."""

    dim = 1

    def __init__(self, x0, anchor, nu, delta):
        self.x0 = float(np.atleast_1d(x0)[0])
        self.anchor = float(np.atleast_1d(anchor)[0])
        self.nu = float(nu)
        self.delta = float(delta)
        self.beta = (self.anchor - self.x0) * self.nu

    def _d(self, x):
        return -self.nu * (x - self.anchor)

    def __call__(self, x):
        x = np.asarray(x, float).reshape(-1)
        d = self._d(x)
        h = (x - self.x0) - _psi(d / self.delta) * self.beta * self.nu
        return h[:, None]

    def jacobian(self, x):
        x = np.asarray(x, float).reshape(-1)
        d = self._d(x)
        hp = 1.0 + (self.beta / self.delta) * _dpsi(d / self.delta)
        return hp[:, None, None]

    def divergence(self, x):
        return self.jacobian(x)[:, 0, 0]

    def grad_divergence(self, x):
        x = np.asarray(x, float).reshape(-1)
        d = self._d(x)
        gd = -(self.beta / self.delta**2) * _ddpsi(d / self.delta) * self.nu
        return gd[:, None]


@pytest.mark.parametrize("end", ["left", "right"])
def test_1d_flat_collar_is_the_reference_interval_field(end):
    field = collar_1d(end)
    ref = ReferenceIntervalCollarField(field.x0, field.a, field.nu[0], field.delta)
    assert ref.beta != 0
    # in-domain points: the endpoints, both sides of the collar edge, random
    rng = np.random.default_rng(3)
    x = np.concatenate([np.linspace(0.0, 1.0, 101), rng.uniform(0.0, 1.0, 400)])[:, None]
    values, expected = field(x), ref(x)
    assert values.shape == expected.shape
    assert values.tobytes() == expected.tobytes()
    for name in ("jacobian", "divergence", "grad_divergence"):
        np.testing.assert_allclose(
            getattr(field, name)(x), getattr(ref, name)(x), rtol=1e-15, atol=0, err_msg=name
        )


def test_cutoff_is_c2_at_collar_edge():
    # grad(div h) must be continuous where the collar blend ends, else the
    # identity quadrature degrades to first order on elements crossing it
    field = FlatCollarField(
        np.array([0.5, -0.7]),
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, -1.0]),
        0.3,
    )
    inside = np.array([[0.4, 0.3 - 1e-9]])
    outside = np.array([[0.4, 0.3 + 1e-9]])
    np.testing.assert_allclose(
        field.grad_divergence(inside)[0], field.grad_divergence(outside)[0], atol=1e-5
    )
    np.testing.assert_allclose(
        field.jacobian(inside)[0], field.jacobian(outside)[0], atol=1e-6
    )
