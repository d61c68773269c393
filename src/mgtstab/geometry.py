"""Spatial domains with partitioned boundaries and multiplier vector fields.

The boundary of the domain is split into an undissipated Robin part
(``gamma0``) and an absorbing velocity-feedback part (``gamma1``).  This
module validates domain descriptions, checks the two geometric hypotheses
required by the boundary-multiplier machinery (star-shape of gamma0 with
respect to a reference point ``x0``, and discrete convexity of the gamma0
chain), and constructs a bent radial vector field ``h``: equal to
``x - x0`` away from gamma0 and corrected inside a collar so that its
trace on gamma0 is tangential while the symmetric part of its Jacobian
stays uniformly positive definite.

Every consumer reads one boundary-segment table, ``Geometry.segments()``
(start points, end points and outward normals of all segments; a 1D
endpoint is a zero-length segment).  The field is ``x - x0`` for empty
gamma0, one :class:`FlatCollarField` for a 1D endpoint or a flat 2D
chain, and a curved collar field otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, GeometryError

GAMMA0 = 0
GAMMA1 = 1

_TAG_NAMES = {"gamma0": GAMMA0, "gamma1": GAMMA1}

# largest |h . nu| on gamma0 that a certified multiplier field may have
_TRACE_TOL = 1e-10

# Largest |coordinate| of a vertex: squared distances between vertices (the
# diameter, the mesh size) stay below 1e301, well inside the float range.
MAX_COORDINATE = 1e150


def _as_tag(value):
    if isinstance(value, str):
        try:
            return _TAG_NAMES[value.lower()]
        except KeyError:
            raise GeometryError("unknown boundary tag %r" % (value,))
    if value in (GAMMA0, GAMMA1):
        return int(value)
    raise GeometryError("unknown boundary tag %r" % (value,))


@dataclass
class Geometry:
    """Domain description: interval (1D) or closed ccw polygon (2D).

    Attributes
    ----------
    dimension : int
        1 or 2.
    vertices : ndarray
        1D: the two interval endpoints ``[x_left, x_right]``.
        2D: polygon vertices, shape ``(n, 2)``, counterclockwise; segment
        ``i`` joins vertex ``i`` to vertex ``(i + 1) % n``.
    segment_tags : ndarray of int
        Tag (GAMMA0 or GAMMA1) per boundary segment.  1D: per endpoint.
    x0 : ndarray
        Reference point for the star-shape condition.
    """

    dimension: int
    vertices: np.ndarray
    segment_tags: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if not np.all(np.abs(self.vertices) <= MAX_COORDINATE):
            raise GeometryError(
                "vertex coordinates must lie within [-%g, %g]" % (MAX_COORDINATE, MAX_COORDINATE)
            )
        self.segment_tags = np.asarray(
            [_as_tag(t) for t in np.atleast_1d(self.segment_tags)], dtype=np.int8
        )
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.dimension == 1:
            if self.vertices.shape != (2,):
                raise GeometryError("1D geometry needs exactly two endpoints")
            if not self.vertices[0] < self.vertices[1]:
                raise GeometryError("interval endpoints must be increasing")
            if self.segment_tags.shape != (2,):
                raise GeometryError("1D geometry needs one tag per endpoint")
            if self.x0.shape != (1,):
                raise GeometryError("x0 must be a single coordinate in 1D")
        elif self.dimension == 2:
            if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
                raise GeometryError("2D vertices must have shape (n, 2)")
            n = len(self.vertices)
            if n < 3:
                raise GeometryError("polygon needs at least three vertices")
            if self.segment_tags.shape != (n,):
                raise GeometryError("need one tag per polygon segment")
            if self.x0.shape != (2,):
                raise GeometryError("x0 must be a point in the plane")
            edges = np.roll(self.vertices, -1, axis=0) - self.vertices
            lengths = np.linalg.norm(edges, axis=1)
            if np.any(lengths < 1e-12):
                raise GeometryError("polygon has a degenerate segment")
            x, y = self.vertices[:, 0], self.vertices[:, 1]
            if 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) <= 0:  # shoelace area
                raise GeometryError("polygon must be counterclockwise (signed area > 0)")
            self._check_simple()
        else:
            raise GeometryError("dimension must be 1 or 2")
        if not np.any(self.segment_tags == GAMMA1):
            raise GeometryError("gamma1 must be nonempty")

    # -- constructors ------------------------------------------------------

    @classmethod
    def interval(cls, x_left, x_right, gamma0_end="left", x0=None):
        """Interval domain with one endpoint tagged gamma0.

        ``gamma0_end`` is ``"left"``, ``"right"`` or ``None`` (no Robin
        end; both endpoints absorbing).
        """
        tags = [GAMMA1, GAMMA1]
        if gamma0_end == "left":
            tags[0] = GAMMA0
        elif gamma0_end == "right":
            tags[1] = GAMMA0
        elif gamma0_end is not None:
            raise GeometryError("gamma0_end must be 'left', 'right' or None")
        if x0 is None:
            x0 = x_left if gamma0_end == "left" else x_right
        return cls(1, np.array([x_left, x_right], float), np.array(tags), np.array([x0], float))

    @classmethod
    def polygon(cls, vertices, segment_tags, x0):
        return cls(2, np.asarray(vertices, float), np.asarray(segment_tags), np.asarray(x0, float))

    # -- basic queries -----------------------------------------------------

    def _check_simple(self):
        a, b, _ = self.segments()

        def orient(p, q, r):  # sign of the turn p -> q -> r, 0 within 1e-14
            u, w = q - p, r - p
            v = u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]
            return np.where(np.abs(v) < 1e-14, 0, np.sign(v))

        # every pair (i, j) of segments; a segment shares endpoints with
        # itself and its neighbours, where the orientation is exactly 0
        p1, p2, q1, q2 = a[:, None], b[:, None], a[None], b[None]
        o = [orient(p1, p2, q1), orient(p1, p2, q2), orient(q1, q2, p1), orient(q1, q2, p2)]
        if np.any((o[0] != o[1]) & (o[2] != o[3]) & np.all(o, axis=0)):
            raise GeometryError("polygon is self-intersecting")

    @property
    def n_segments(self):
        return len(self.vertices)

    def segments(self):
        """The boundary-segment table ``(a, b, nu)``.

        Start points ``a``, end points ``b`` and outward unit normals
        ``nu`` of all segments, each of shape ``(n_segments, dim)``.  A 1D
        endpoint is the degenerate segment ``a == b`` with ``nu = -1``
        (left) or ``+1`` (right).
        """
        if self.dimension == 1:
            a = self.vertices[:, None]
            return a, a, np.array([[-1.0], [1.0]])
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        d = b - a
        # interior lies to the left of the ccw traversal, so the outward
        # normal is the right-hand rotation of the edge direction
        nu = np.column_stack([d[:, 1], -d[:, 0]])
        return a, b, nu / np.linalg.norm(nu, axis=1)[:, None]

    def diameter(self):
        v = self.vertices.reshape(len(self.vertices), -1)
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def gamma0_chain(self):
        """Indices of the gamma0 segments in boundary order.

        Raises if gamma0 is present but not a single contiguous run of
        segments; empty for empty gamma0.  gamma1 is nonempty, so the run
        never closes on itself.
        """
        in_g0 = self.segment_tags == GAMMA0
        starts = np.flatnonzero(in_g0 & ~np.roll(in_g0, 1))
        if len(starts) > 1:
            raise GeometryError("gamma0 is not a contiguous chain of segments")
        if len(starts) == 0:
            return starts
        return (starts[0] + np.arange(np.count_nonzero(in_g0))) % len(in_g0)


# -- hypothesis checks -----------------------------------------------------


def check_star_shaped(geometry):
    """Check ``(x - x0) . nu <= 0`` on gamma0, up to 1e-12.

    Returns ``{"holds": bool, "max_violation": float}`` where the
    violation is the maximum of ``(x - x0) . nu`` over gamma0 (the
    expression is linear per segment, so segment endpoints suffice).
    Empty gamma0 holds trivially with ``max_violation = -inf``.
    """
    a, b, nu = geometry.segments()
    # initial=-0.0 is the additive identity that keeps the sign of a zero
    # margin (a 1D gamma0 endpoint at x0)
    margin = [np.sum((p - geometry.x0) * nu, axis=1, initial=-0.0) for p in (a, b)]
    gamma0 = geometry.segment_tags == GAMMA0
    worst = float(np.max(np.maximum(*margin)[gamma0], initial=-np.inf))
    return {"holds": worst <= 1e-12, "max_violation": worst}


def _gamma0_turns(geometry):
    """Sines of the turns between consecutive gamma0 segments.

    Normalized cross products of consecutive edges along the ccw chain:
    positive where the chain turns left, zero where it is straight.  Empty
    for a single segment or a 1D endpoint.
    """
    a, b, _ = geometry.segments()
    e = (b - a)[geometry.gamma0_chain()]
    if len(e) < 2:
        return np.empty(0)
    e0, e1 = e[:-1], e[1:]
    cross = e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0]
    return cross / (np.linalg.norm(e0, axis=1) * np.linalg.norm(e1, axis=1))


def check_convex_gamma0(geometry):
    """Discrete convexity of the gamma0 chain (turn-sign test).

    Along the ccw-ordered chain every pair of consecutive edges must turn
    left (cross product >= 0 up to 1e-12), i.e. gamma0 bulges away from
    the domain interior.  Flat (single-segment) chains and 1D endpoints
    are convex by convention.
    """
    min_turn = float(np.min(_gamma0_turns(geometry), initial=np.inf))
    return {"convex": min_turn >= -1e-12, "min_turn": min_turn}


# -- analytic field backends ----------------------------------------------


# cubic cutoff: C^2 across the collar edge t = 1 (so grad(div h) stays
# continuous, which keeps low-order quadrature of the identities at
# second order), with psi'(0) != 0 so the trace correction is active.
def _psi(t):
    t = np.asarray(t, float)
    return np.where(t < 1.0, (1.0 - t) ** 3, 0.0)


def _dpsi(t):
    t = np.asarray(t, float)
    return np.where(t < 1.0, -3.0 * (1.0 - t) ** 2, 0.0)


def _ddpsi(t):
    t = np.asarray(t, float)
    return np.where(t < 1.0, 6.0 * (1.0 - t), 0.0)


class RadialField:
    """``h(x) = x - x0``: identity Jacobian, constant divergence."""

    def __init__(self, x0):
        self.x0 = np.atleast_1d(np.asarray(x0, float))
        self.dim = len(self.x0)

    def __call__(self, x):
        return np.atleast_2d(np.asarray(x, float)) - self.x0

    def jacobian(self, x):
        n = len(np.atleast_2d(x))
        return np.broadcast_to(np.eye(self.dim), (n, self.dim, self.dim)).copy()

    def divergence(self, x):
        return np.full(len(np.atleast_2d(x)), float(self.dim))

    def grad_divergence(self, x):
        return np.zeros((len(np.atleast_2d(x)), self.dim))


class FlatCollarField:
    """Bent radial field for a flat gamma0: a straight segment ``[a, b]``.

    In 2D the segment is a collinear gamma0 chain; in 1D it is the
    gamma0 endpoint, a zero-length segment ``a == b`` whose tangent is
    zero.  Inside the strip over the segment the correction is
    ``psi(d / delta) * beta0 * nu`` with constant ``beta0 = (a - x0) . nu``
    (``<= 0`` under the star-shape condition), so ``h . nu = 0`` on the
    segment; past the segment ends the foot point clamps to the end
    vertex and the correction freezes.  All derivatives are closed-form.
    """

    def __init__(self, x0, a, b, nu, delta):
        self.x0 = np.atleast_1d(np.asarray(x0, float))
        self.a = np.atleast_1d(np.asarray(a, float))
        self.b = np.atleast_1d(np.asarray(b, float))
        self.nu = np.atleast_1d(np.asarray(nu, float))
        self.dim = len(self.a)
        self.delta = float(delta)
        t = self.b - self.a
        self.length = float(np.linalg.norm(t))
        self.tangent = t / self.length if self.length > 0 else t
        self.beta0 = float((self.a - self.x0) @ self.nu)

    def _project(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        s = (x - self.a) @ self.tangent
        s_cl = np.clip(s, 0.0, self.length)
        p = self.a + s_cl[:, None] * self.tangent
        dvec = x - p
        d = np.linalg.norm(dvec, axis=1)
        # unit direction from foot point; fall back to -nu on the chain itself
        u = np.where(d[:, None] > 1e-14, dvec / np.maximum(d, 1e-300)[:, None], -self.nu)
        interior = (s > 0.0) & (s < self.length) & (d > 1e-14)
        return x, d, u, interior

    def __call__(self, x):
        x, d, _, _ = self._project(x)
        return (x - self.x0) - _psi(d / self.delta)[:, None] * self.beta0 * self.nu

    def jacobian(self, x):
        x, d, u, _ = self._project(x)
        # grad d = u (exact for the distance to a convex segment)
        coef = (_dpsi(d / self.delta) / self.delta) * self.beta0
        return np.eye(self.dim) - coef[:, None, None] * self.nu[:, None] * u[:, None, :]

    def divergence(self, x):
        x, d, u, _ = self._project(x)
        return self.dim - (_dpsi(d / self.delta) / self.delta) * self.beta0 * (u @ self.nu)

    def grad_divergence(self, x):
        x, d, u, interior = self._project(x)
        out = np.zeros_like(x)
        dp = _dpsi(d / self.delta)
        ddp = _ddpsi(d / self.delta)
        nu_u = u @ self.nu
        # first piece: -(beta0 / delta^2) psi'' (nu . grad d) grad d
        out += -(self.beta0 / self.delta**2) * (ddp * nu_u)[:, None] * u
        # second piece: -(beta0 / delta) psi' hess(d) nu ; hess(d) vanishes in
        # the strip (d is linear there) and is (I - u u^T)/d in the end fans
        # (zero in 1D, where u = -nu)
        fan = ~interior & (d > 1e-14)
        if np.any(fan):
            hn = (self.nu - nu_u[fan, None] * u[fan]) / d[fan, None]
            out[fan] += -(self.beta0 / self.delta) * dp[fan, None] * hn
        return out


class _CurvedCollarField:
    """Bent radial field over a curved gamma0 polyline (values only).

    Uses the nearest point on the chain and arclength-interpolated vertex
    normals, so the correction is continuous across the foot-point
    bisector rays; derivatives are certified discretely, not in closed
    form.
    """

    dim = 2

    def __init__(self, x0, chain, facet_nu, delta):
        self.x0 = np.asarray(x0, float)
        self.chain = np.asarray(chain, float)
        self.delta = float(delta)
        # vertex normals: the facet normal at the chain ends, the normalized
        # mean of the two adjacent facet normals in between
        mean = facet_nu[:-1] + facet_nu[1:]
        mean /= np.linalg.norm(mean, axis=1)[:, None]
        self.vertex_nu = np.vstack([facet_nu[:1], mean, facet_nu[-1:]])

    def _foot(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        a = self.chain[:-1]
        e = np.diff(self.chain, axis=0)
        ee = np.sum(e * e, axis=1)
        # (nq, nfacet) local coordinates of the per-facet projections
        theta = np.clip(((x[:, None, :] - a) * e).sum(-1) / ee, 0.0, 1.0)
        p = a + theta[:, :, None] * e
        d2 = np.sum((x[:, None, :] - p) ** 2, axis=-1)
        j = np.argmin(d2, axis=1)
        rows = np.arange(len(x))
        return p[rows, j], np.sqrt(d2[rows, j]), theta[rows, j], j

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        p, d, theta, j = self._foot(x)
        nu = (1.0 - theta)[:, None] * self.vertex_nu[j] + theta[:, None] * self.vertex_nu[j + 1]
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        beta = np.sum((p - self.x0) * nu, axis=1)
        return (x - self.x0) - (_psi(d / self.delta) * beta)[:, None] * nu


# -- the certified field ---------------------------------------------------


@dataclass
class VectorFieldH:
    """Multiplier vector field with its certification data.

    ``nodal_values`` carry the field over the mesh; gamma0 facet
    quadrature values are stored separately with the facet-normal
    component removed exactly, which is what the tangentiality
    certificate is measured on.  ``analytic`` (when present) provides
    closed-form ``jacobian`` / ``divergence`` / ``grad_divergence``
    callables for quadrature-based identity checks.  The field is
    ``certified`` when ``c0 > 0`` and ``max |h . nu| <= _TRACE_TOL``
    (1e-10) on gamma0.
    """

    nodal_values: np.ndarray
    gamma0_facet_index: np.ndarray
    gamma0_facet_values: np.ndarray
    analytic: object = None
    certified_c0: float = field(default=None)
    max_normal_trace_on_gamma0: float = field(default=None)

    @property
    def certified(self):
        c0, trace = self.certified_c0, self.max_normal_trace_on_gamma0
        return c0 is not None and trace is not None and c0 > 0 and trace <= _TRACE_TOL


def verify_field_properties(h, mesh):
    """Measure the two certified properties of a multiplier field.

    Returns ``{"c0": ..., "max_normal_trace": ...}`` where ``c0`` is the
    minimum over elements of the smallest eigenvalue of the symmetric
    part of the discrete (per-element) Jacobian of the nodal values, and
    the trace is the maximum of ``|h . nu|`` over gamma0 facet quadrature
    points.
    """
    vals = h.nodal_values
    J = np.einsum("eai,eak->eik", mesh.element_gradients, vals[mesh.elements])
    if mesh.dim == 1:
        c0 = float(J[:, 0, 0].min())
    else:
        a, b, c = J[:, 0, 0], 0.5 * (J[:, 0, 1] + J[:, 1, 0]), J[:, 1, 1]
        lam = 0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b**2)
        c0 = float(lam.min())
    if len(h.gamma0_facet_index) == 0:
        trace = 0.0
    else:
        nu = mesh.facet_normals[h.gamma0_facet_index]
        trace = float(np.abs(np.einsum("fqi,fi->fq", h.gamma0_facet_values, nu)).max())
    return {"c0": c0, "max_normal_trace": trace}


def build_vector_field_h(geometry, mesh, collar_width):
    """Construct and certify the bent radial multiplier field.

    The field equals ``x - x0`` outside a collar of width
    ``collar_width`` around gamma0; inside, the component along the
    (interpolated) gamma0 normal at the foot point is blended out with a
    ``(1 - t)^3`` cutoff in the distance to gamma0, so the trace on
    gamma0 is tangential.  Gamma0 facet quadrature values additionally
    have the exact facet-normal component removed.

    Raises ``GeometryError`` if the star-shape or convexity hypothesis
    fails and ``CertificationError`` if the built field is not
    ``certified``.
    """
    star = check_star_shaped(geometry)
    if not star["holds"]:
        raise GeometryError(
            "gamma0 is not star-shaped with respect to x0 "
            "(max violation %.3e)" % star["max_violation"]
        )
    convex = check_convex_gamma0(geometry)
    if not convex["convex"]:
        raise GeometryError("gamma0 chain is not convex (min turn %.3e)" % convex["min_turn"])
    if not 0 < collar_width < geometry.diameter():
        raise GeometryError("collar_width must lie in (0, domain diameter)")

    a, b, seg_nu = geometry.segments()
    run = geometry.gamma0_chain()
    if len(run) == 0:
        fld = RadialField(geometry.x0)
    elif np.all(np.abs(_gamma0_turns(geometry)) <= 1e-12):
        fld = FlatCollarField(geometry.x0, a[run[0]], b[run[-1]], seg_nu[run[0]], collar_width)
    else:
        chain = np.vstack([a[run], b[run[-1:]]])
        fld = _CurvedCollarField(geometry.x0, chain, seg_nu[run], collar_width)

    nodal = fld(mesh.nodes)
    g0 = mesh.gamma0_facets
    qp, _ = mesh.facet_quadrature()
    v = fld(qp[g0].reshape(-1, mesh.dim)).reshape(qp[g0].shape)
    nu = mesh.facet_normals[g0]
    facet_vals = v - (v @ nu[:, :, None]) * nu[:, None, :]

    analytic = fld if not isinstance(fld, _CurvedCollarField) else None
    out = VectorFieldH(nodal, g0.copy(), facet_vals, analytic)
    report = verify_field_properties(out, mesh)
    out.certified_c0 = report["c0"]
    out.max_normal_trace_on_gamma0 = report["max_normal_trace"]
    if not out.certified:
        raise CertificationError(
            "field certification failed: c0=%.6e, max |h.nu| on gamma0=%.3e"
            % (report["c0"], report["max_normal_trace"]),
            report=report,
        )
    return out
