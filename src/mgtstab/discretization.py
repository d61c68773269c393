"""Meshes, finite-element operator assembly and the harmonic-extension map.

Piecewise-linear conforming elements on interval or triangle meshes.  The
assembled bundle realizes the Laplacian with a Robin condition
(coefficient ``kappa0``) on gamma0 and a Neumann condition on gamma1:
``Ktilde = K + B0`` is the discrete form of that operator, so that
``x^T Ktilde y = (grad x, grad y) + int_{gamma0} kappa0 x y`` exactly for
nodal data.  All local integrals of piecewise-linear weights are done
with closed simplex formulas, so there is no quadrature error at this
polynomial degree.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import IllPosedMapError, MeshError
from .geometry import GAMMA0, GAMMA1

# Most lattice points a mesh may have before shared ones merge (1D: the
# nodes), checked before anything is allocated; 190 times the 5 525 of the
# largest preset or benchmark mesh (half disk, resolution 24).
MAX_LATTICE_POINTS = 2**20

# Local vertices of the edges of a simplex with 1, 2 or 3 vertices, and of
# the faces of an interval or a triangle.  A triangle's edges are its faces
# and run cyclically, so a boundary edge keeps its element's ccw orientation.
_EDGES = {
    1: np.empty((0, 2), np.int64),
    2: np.array([[0, 1]]),
    3: np.array([[0, 1], [1, 2], [2, 0]]),
}
_FACES = {1: np.array([[0], [1]]), 2: _EDGES[3]}

# The distinct sub-simplices (edges or faces) of a set of cells: their keys
# ``min * n + max`` over their vertices, increasing; ``ids[e, j]``, the one
# that local sub-simplex ``j`` of cell ``e`` is; how many cells use each.
SimplexTable = namedtuple("SimplexTable", "keys ids counts")


def _table(cells, n, local):
    """The :class:`SimplexTable` of the sub-simplices ``cells[:, local]`` (one
    or two vertices each) in a mesh of ``n`` nodes: one sort per table."""
    sub = cells[:, local]
    key = sub.min(axis=2) * n + sub.max(axis=2)
    keys, ids, counts = np.unique(key.ravel(), return_inverse=True, return_counts=True)
    return SimplexTable(keys, ids.reshape(key.shape), counts)


class Mesh:
    """Conforming simplex mesh with tagged boundary facets.

    Attributes
    ----------
    dim : int
    nodes : ndarray, shape (n_nodes, dim)
    elements : ndarray of int, shape (n_elements, dim + 1)
    facets : ndarray of int, shape (n_facets, dim)
        Boundary facets (points in 1D, edges in 2D, stored in boundary
        traversal order).
    facet_tags : ndarray of int
        GAMMA0 / GAMMA1 per facet.
    faces : SimplexTable
        The face table: the elements' faces (nodes in 1D, edges in 2D),
        each element's faces as rows of ``faces.ids`` and each face's use
        count; a face used once is a boundary facet.  Sorted once, in the
        constructor or by :func:`build_mesh`, which passes it in.  Read
        off it: :meth:`mesh_size`, :attr:`face_elements`, :attr:`facet_elements`
        and, in 2D, the operators' CSR pattern (:func:`assemble_operators`).
    """

    def __init__(self, dim, nodes, elements, facets, facet_tags, facet_normals=None, faces=None):
        self.dim = int(dim)
        self.nodes = np.asarray(nodes, float).reshape(-1, self.dim)
        self.elements = np.asarray(elements, dtype=np.int64).reshape(-1, self.dim + 1)
        self.facets = np.asarray(facets, dtype=np.int64).reshape(-1, self.dim)
        self.facet_tags = np.asarray(facet_tags, dtype=np.int8)
        if faces is None:
            faces = _table(self.elements, self.n_nodes, _FACES[self.dim])
        self.faces = faces
        self._setup_geometry(facet_normals)

    def _setup_geometry(self, facet_normals):
        x = self.nodes[self.elements]
        if self.dim == 1:
            h = x[:, 1, 0] - x[:, 0, 0]
            if np.any(h <= 0):
                raise MeshError("1D elements must be positively oriented")
            self.element_volumes = h
            g = np.empty((len(self.elements), 2, 1))
            g[:, 0, 0] = -1.0 / h
            g[:, 1, 0] = 1.0 / h
            self.element_gradients = g
        else:
            d1 = x[:, 1] - x[:, 0]
            d2 = x[:, 2] - x[:, 0]
            det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
            if np.any(det <= 0):
                raise MeshError("triangles must be positively oriented")
            self.element_volumes = 0.5 * det
            # gradients of the three barycentric basis functions
            g = np.empty((len(self.elements), 3, 2))
            g[:, 1, 0] = d2[:, 1] / det
            g[:, 1, 1] = -d2[:, 0] / det
            g[:, 2, 0] = -d1[:, 1] / det
            g[:, 2, 1] = d1[:, 0] / det
            g[:, 0] = -g[:, 1] - g[:, 2]
            self.element_gradients = g
        if self.dim == 1:
            self.facet_measures = np.ones(len(self.facets))
            if facet_normals is None:
                raise MeshError("1D meshes need explicit facet normals")
            self.facet_normals = np.asarray(facet_normals, float).reshape(-1, 1)
        else:
            a = self.nodes[self.facets[:, 0]]
            b = self.nodes[self.facets[:, 1]]
            e = b - a
            L = np.linalg.norm(e, axis=1)
            if np.any(L < 1e-14):
                raise MeshError("degenerate boundary facet")
            self.facet_measures = L
            self.facet_normals = np.column_stack([e[:, 1], -e[:, 0]]) / L[:, None]

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def gamma0_facets(self):
        return np.flatnonzero(self.facet_tags == GAMMA0)

    @property
    def gamma1_facets(self):
        return np.flatnonzero(self.facet_tags == GAMMA1)

    def nodes_on(self, tag):
        return np.unique(self.facets[self.facet_tags == tag])

    def mesh_size(self):
        """Maximum element diameter: the longest edge of any simplex, each
        edge measured once (the faces in 2D, the elements in 1D)."""
        ends = self.elements
        if self.dim == 2:
            ends = np.column_stack(np.divmod(self.faces.keys, self.n_nodes))
        return float(np.linalg.norm(self.nodes[ends[:, 0]] - self.nodes[ends[:, 1]], axis=-1).max())

    @cached_property
    def face_elements(self):
        """The lowest- and highest-numbered element of each face of
        :attr:`faces`, shape ``(n_faces, 2)``: the two elements that share an
        interior face, or a boundary face's one element twice."""
        ids = self.faces.ids
        cell = np.repeat(np.arange(len(ids)), ids.shape[1])
        first, last = np.full(len(self.faces.keys), len(ids)), np.full(len(self.faces.keys), -1)
        np.minimum.at(first, ids.ravel(), cell)
        np.maximum.at(last, ids.ravel(), cell)
        return np.column_stack([first, last])

    @cached_property
    def facet_elements(self):
        """The element each boundary facet belongs to."""
        key = self.facets.min(axis=1) * self.n_nodes + self.facets.max(axis=1)
        return self.face_elements[np.searchsorted(self.faces.keys, key), 0]

    def facet_quadrature(self):
        """Two-point Gauss points per facet: (points, weights).

        Points have shape ``(n_facets, nq, dim)``; in 1D each facet is a
        single point with weight one.
        """
        if self.dim == 1:
            pts = self.nodes[self.facets[:, 0]][:, None, :]
            w = np.ones((len(self.facets), 1))
            return pts, w
        a = self.nodes[self.facets[:, 0]]
        b = self.nodes[self.facets[:, 1]]
        t0 = 0.5 - 0.5 / np.sqrt(3.0)
        t1 = 0.5 + 0.5 / np.sqrt(3.0)
        pts = np.stack([a + t0 * (b - a), a + t1 * (b - a)], axis=1)
        w = 0.5 * self.facet_measures[:, None] * np.ones((1, 2))
        return pts, w

    def element_quadrature(self, rule="vertex"):
        """Element quadrature points/weights for closed-form integrands.

        ``vertex`` (order 2, any dimension): ``|S| / (d + 1)`` at each
        vertex, the trapezoid rule in 1D.  ``simpson`` (order 4): 1D only.
        """
        x = self.nodes[self.elements]
        vol = self.element_volumes
        if rule == "vertex":
            return x, np.repeat(vol[:, None] / (self.dim + 1), self.dim + 1, axis=1)
        if rule == "simpson" and self.dim == 1:
            mid = 0.5 * (x[:, 0] + x[:, 1])
            pts = np.stack([x[:, 0], mid, x[:, 1]], axis=1)
            w = np.column_stack([vol / 6, 4 * vol / 6, vol / 6])
            return pts, w
        raise ValueError("unknown %dD rule %r" % (self.dim, rule))


def _coarse_triangles(verts, ahead):
    # the coarse ccw triangles (P, A, B) of a polygon: an axis-aligned
    # rectangle's two on its sw-ne diagonal, otherwise the centroid fan
    sides = ahead - verts
    if len(verts) == 4 and (np.abs(sides).min(axis=1) < 1e-14).all():
        (x0, y0), (x1, y1) = verts.min(axis=0), verts.max(axis=0)
        P = np.array([[x0, y0], [x0, y0]])
        A = np.array([[x1, y0], [x1, y1]])
        B = np.array([[x1, y1], [x0, y1]])
        return P, A, B
    return np.broadcast_to(verts.mean(axis=0), verts.shape), verts, ahead


def check_mesh_size(geometry, resolution):
    """Raise ``MeshError`` where ``build_mesh(geometry, resolution)`` would
    reject the resolution: below 2, or with more than ``MAX_LATTICE_POINTS``
    lattice points (``r + 1`` in 1D, ``(r + 1)(r + 2)/2`` per coarse triangle
    in 2D).  Nothing is allocated."""
    r = int(resolution)
    if r < 2:
        raise MeshError("resolution must be at least 2")
    points = r + 1
    if geometry.dimension == 2:
        points = len(_coarse_triangles(*geometry.segments()[:2])[0]) * (r + 1) * (r + 2) // 2
    if points > MAX_LATTICE_POINTS:
        raise MeshError(
            "resolution %d gives %d lattice points, above the cap of %d"
            % (r, points, MAX_LATTICE_POINTS)
        )


def build_mesh(geometry, resolution):
    """Mesh a validated geometry.

    1D: ``resolution`` uniform elements.  2D: one lattice builder for
    every polygon.  The polygon is split into coarse ccw triangles: an
    axis-aligned rectangle into the two on its sw-ne diagonal (so the
    result is the ``resolution x resolution`` tensor grid cut along its
    cell diagonals), any other polygon into the fan from its vertex
    centroid, which must see every edge counterclockwise.  Each coarse
    triangle ``(P, A, B)`` is refined into ``r^2`` similar children
    (``r = resolution``) on the lattice ``P + i/r (A - P) + j/r (B - P)``,
    ``i + j <= r``.
    Nodes shared between coarse triangles are merged on their coordinates
    rounded to 12 decimals and numbered by first appearance.  Boundary
    facets are the element edges used once, oriented as in their element
    and ordered along the polygon segments, so each segment contributes
    exactly ``resolution`` facets.  :func:`check_mesh_size` bounds
    ``resolution`` first.
    """
    check_mesh_size(geometry, resolution)
    resolution = int(resolution)
    verts, ahead, normals = geometry.segments()
    if geometry.dimension == 1:
        xl, xr = geometry.vertices
        nodes = np.linspace(xl, xr, resolution + 1)[:, None]
        elements = np.column_stack([np.arange(resolution), np.arange(1, resolution + 1)])
        facets = np.array([[0], [resolution]])
        tags = geometry.segment_tags.copy()
        return Mesh(1, nodes, elements, facets, tags, facet_normals=normals)

    sides = ahead - verts
    P, A, B = _coarse_triangles(verts, ahead)
    cross = (A[:, 0] - P[:, 0]) * (B[:, 1] - P[:, 1]) - (A[:, 1] - P[:, 1]) * (B[:, 0] - P[:, 0])
    if np.any(cross <= 0):
        raise MeshError("polygon is not star-shaped about its vertex centroid")

    # lattice points (i, j), i + j <= r, with i outer; local[i, j] numbers them
    r = resolution
    i, j = np.triu_indices(r + 1)
    j = j - i
    local = np.zeros((r + 1, r + 1), dtype=np.int64)
    local[i, j] = np.arange(len(i))
    # cell (i, j) has an "up" child and, when i + j + 1 < r, a "down" child
    ci, cj = np.triu_indices(r)
    cj = cj - ci
    di, dj = np.array([[0, 1, 0], [1, 1, 0]]), np.array([[0, 0, 1], [0, 1, 1]])
    children = local[ci[:, None, None] + di, cj[:, None, None] + dj]
    children = children[(ci + cj)[:, None] + np.arange(2) < r]

    s, t = (i / r)[None, :, None], (j / r)[None, :, None]
    points = P[:, None] + s * (A - P)[:, None] + t * (B - P)[:, None]
    points = np.round(points.reshape(-1, 2), 12)
    # as x + iy, so that one sort of a flat array orders the points by (x, y)
    key = points.view(complex)[:, 0]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    nodes = points[first[order]]
    node_of_point = np.argsort(order)[inverse.reshape(-1)]
    offsets = len(i) * np.arange(len(P))[:, None, None]
    elements = node_of_point[(children[None] + offsets).reshape(-1, 3)]

    faces = _table(elements, len(nodes), _FACES[2])
    facets = elements[:, _FACES[2]][faces.counts[faces.ids] == 1]
    # the polygon segment each facet midpoint lies on, and where along it
    rel = nodes[facets].mean(axis=1)[:, None] - verts
    along = (rel * sides).sum(axis=2) / (sides * sides).sum(axis=1)
    off = np.abs(rel[..., 0] * sides[:, 1] - rel[..., 1] * sides[:, 0])
    segment = np.where((along > 0) & (along < 1), off, np.inf).argmin(axis=1)
    walk = np.lexsort((along[np.arange(len(facets)), segment], segment))
    return Mesh(2, nodes, elements, facets[walk], geometry.segment_tags[segment[walk]], faces=faces)


# -- material data ---------------------------------------------------------


@dataclass
class MaterialParams:
    """Coefficients of the third-order model, sampled at mesh nodes.

    ``gamma_field = alpha_field - tau * c^2 / b`` is the stability
    parameter; its sign is reported, not enforced (negative values are
    supported on purpose for instability studies).
    """

    tau: float
    c: float
    b: float
    alpha_field: np.ndarray
    kappa0_field: np.ndarray
    kappa1_field: np.ndarray

    def __post_init__(self):
        for name in ("tau", "c", "b"):
            if not getattr(self, name) > 0:
                raise ValueError("%s must be strictly positive" % name)
        c2 = self.c * self.c
        derived = [c2, c2 / self.b, self.tau * c2 / self.b, self.b / self.tau, c2 / self.tau]
        if not np.isfinite(derived).all():
            raise ValueError("c^2, c^2/b, tau c^2/b, b/tau and c^2/tau must be finite")
        self.alpha_field = np.asarray(self.alpha_field, float)
        self.kappa0_field = np.asarray(self.kappa0_field, float)
        self.kappa1_field = np.asarray(self.kappa1_field, float)
        if np.any(self.alpha_field < 0):
            raise ValueError("alpha must be nonnegative")
        if np.any(self.kappa1_field < 0):
            raise ValueError("kappa1 must be nonnegative")

    @classmethod
    def constant(cls, mesh, tau, c, b, alpha, kappa0, kappa1):
        n = mesh.n_nodes
        return cls(
            float(tau),
            float(c),
            float(b),
            np.full(n, float(alpha)),
            np.full(n, float(kappa0)),
            np.full(n, float(kappa1)),
        )

    @property
    def gamma_field(self):
        return self.alpha_field - self.tau * self.c**2 / self.b

    @property
    def q(self):
        """The transform ratio c^2 / b (unchanged by tau-normalization)."""
        return self.c**2 / self.b

    def stability_classification(self):
        g, tol = self.gamma_field, 1e-12
        if np.all(g > tol):
            return "stable"
        if np.all(np.abs(g) <= tol):
            return "critical"
        if np.any(g < -tol):
            return "unstable"
        return "marginal"


# -- assembly --------------------------------------------------------------


def _pattern(cells, n, edges=None):
    """The CSR pattern ``(slot, indices, indptr)`` that the local matrices of
    ``cells`` sum into, in an n x n matrix: ``slot`` is the position in it of
    each local entry, ordered ``(a, b, e)`` for row ``cells[e, a]`` and column
    ``cells[e, b]``.

    Read off the cells' edge table ``edges`` (sorted here unless given) by
    counting: row ``i`` holds its lower neighbours, ``i`` and its upper
    neighbours, each in increasing order; the table's keys order the upper
    ones, one stable sort of its edges by their higher node the lower ones.
    The index arrays are int32, which scipy keeps: matrices share them."""
    k = cells.shape[1]
    if edges is None:
        edges = _table(cells, n, _EDGES[k])
    lo, hi = np.divmod(edges.keys, n)
    used = np.zeros(n, np.int64)
    used[cells] = 1
    below, above = np.bincount(hi, minlength=n), np.bincount(lo, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(below + used + above)))
    diag = indptr[:-1] + below
    rank = np.arange(len(lo))
    upper = diag[lo] + 1 + rank - (np.cumsum(above) - above)[lo]
    by_hi = np.argsort(hi, kind="stable")
    lower = np.empty_like(upper)
    lower[by_hi] = indptr[hi[by_hi]] + rank - (np.cumsum(below) - below)[hi[by_hi]]
    indices = np.empty(indptr[-1], np.int64)
    nodes = np.flatnonzero(used)
    indices[diag[nodes]], indices[upper], indices[lower] = nodes, hi, lo
    slot = np.empty((k, k, len(cells)), np.int64)
    for a in range(k):
        slot[a, a] = diag[cells[:, a]]
    for j, (a, b) in enumerate(_EDGES[k]):
        e, up = edges.ids[:, j], cells[:, a] < cells[:, b]
        slot[a, b], slot[b, a] = np.where(up, upper[e], lower[e]), np.where(up, lower[e], upper[e])
    return slot.ravel(), indices.astype(np.int32), indptr.astype(np.int32)


def _facet_slots(pattern, facets, n):
    """The element ``pattern`` with the slots of ``facets``' local entries, as
    :func:`_pattern` orders them, found by their keys ``row * n + column``."""
    _, indices, indptr = pattern
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    local = (facets.T[:, None] * n + facets.T[None]).ravel()
    slot = np.searchsorted(keys, local)
    if not np.array_equal(keys[np.minimum(slot, len(keys) - 1)], local):
        raise MeshError("boundary facets must be faces of elements")
    return slot, indices, indptr


def _scatter(pattern, loc):
    """Sum the local matrices ``loc[e]`` onto the ``pattern`` of their cells: one CSR matrix."""
    slot, indices, indptr = pattern
    data = np.bincount(slot, weights=loc.transpose(1, 2, 0).ravel(), minlength=len(indices))
    # dtype: over an empty boundary part np.bincount returns integers
    return sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2, dtype=float)


def _mass(pattern, cells, measures, weights):
    """Mass matrix with a P1 nodal weight over simplices of any dimension d.

    Exact: ``int_S la lb lc = |S| d! m_a! m_b! m_c! / (d + 3)!`` for the
    barycentric coordinates, where ``m`` counts how often each index
    occurs in ``(a, b, c)``; the factorial product is 6 when all three
    coincide, 2 when two do and 1 otherwise.  For d = 0 (a boundary point
    in 1D) this is the point mass ``w``.
    """
    d = cells.shape[1] - 1
    a, b, c = np.indices((d + 1,) * 3)
    table = np.where((a == b) & (b == c), 6.0, np.where((a == b) | (b == c) | (a == c), 2.0, 1.0))
    loc = np.einsum("abc,ec->eab", table, weights[cells])
    loc *= (measures / ((d + 1) * (d + 2) * (d + 3)))[:, None, None]
    return _scatter(pattern, loc)


@dataclass
class OperatorBundle:
    """All assembled matrices for one mesh/material pair.

    ``Ktilde = Kmat + B0`` realizes the Robin-Neumann elliptic operator;
    ``T0`` and ``T1`` are the unweighted gamma0 and gamma1 facet masses,
    used by the harmonic-extension load, boundary traces and the
    compatibility residuals.  All share the element CSR pattern's index
    arrays (never written in place), with explicit zeros where an operator
    vanishes: a facet mass off its boundary part, ``Malpha`` where alpha = 0.
    """

    mesh: Mesh
    params: MaterialParams
    Mmat: sp.csr_matrix
    Kmat: sp.csr_matrix
    B0: sp.csr_matrix
    B1: sp.csr_matrix
    Malpha: sp.csr_matrix
    Mgamma: sp.csr_matrix
    T0: sp.csr_matrix
    T1: sp.csr_matrix
    Ktilde: sp.csr_matrix
    _ktilde_lu: object = field(default=None, repr=False)

    def ktilde_solve(self, rhs):
        if self._ktilde_lu is None:
            if self.B0.count_nonzero() == 0:
                raise IllPosedMapError(
                    "Ktilde is singular: no Robin mass on gamma0 (gamma0 empty "
                    "or kappa0 identically zero there)"
                )
            K = self.Ktilde.tocsc()
            K.eliminate_zeros()  # so SuperLU factors Ktilde's nonzero structure only
            try:
                self._ktilde_lu = splu(K)
            except RuntimeError as exc:
                raise IllPosedMapError("Ktilde factorization failed: %s" % exc)
        return self._ktilde_lu.solve(rhs)


def assemble_operators(mesh, params):
    """Assemble the full operator bundle (exact local quadrature).

    Each operator is one ``np.bincount`` of its local matrices onto the
    element CSR pattern (from the mesh's face table in 2D, whose faces are
    the element edges), facets at their entries' places in it.  Raises
    ``ValueError`` when an assembled matrix holds a non-finite entry, as
    coefficients near the float range make them overflow.
    """
    n = mesh.n_nodes
    ones = np.ones(n)
    cells = mesh.elements
    pattern = _pattern(cells, n, mesh.faces if mesh.dim == 2 else None)

    def element_mass(weights):
        return _mass(pattern, cells, mesh.element_volumes, weights)

    def boundary_masses(tag, weights):
        # the part's weighted and unweighted facet masses
        on = mesh.facet_tags == tag
        facets, measures = mesh.facets[on], mesh.facet_measures[on]
        part = _facet_slots(pattern, facets, n)
        return (_mass(part, facets, measures, w) for w in (weights, ones))

    stiffness = np.einsum(
        "eai,ebi,e->eab", mesh.element_gradients, mesh.element_gradients, mesh.element_volumes
    )
    Mmat = element_mass(ones)
    Kmat = _scatter(pattern, stiffness)
    B0, T0 = boundary_masses(GAMMA0, params.kappa0_field)
    B1, T1 = boundary_masses(GAMMA1, params.kappa1_field)
    Malpha = element_mass(params.alpha_field)
    Mgamma = element_mass(params.gamma_field)
    Ktilde = sp.csr_matrix((Kmat.data + B0.data, Kmat.indices, Kmat.indptr), shape=Kmat.shape)
    bundle = OperatorBundle(mesh, params, Mmat, Kmat, B0, B1, Malpha, Mgamma, T0, T1, Ktilde)
    bad = [k for k, A in vars(bundle).items() if sp.issparse(A) and not np.isfinite(A.data).all()]
    if bad:
        raise ValueError("assembled matrices %s are not finite" % ", ".join(bad))
    return bundle


# -- harmonic extension (discrete Neumann map) -------------------------------


def solve_neumann_map(bundle, phi):
    """Discrete harmonic extension of gamma1 boundary data.

    Solves ``Ktilde psi = T1 phi`` for a full-length nodal vector ``phi``
    (values off gamma1 are ignored by the load).  This is the weak form
    of: Laplace equation in the domain, normal derivative ``phi`` on
    gamma1, homogeneous Robin condition on gamma0.
    """
    phi = np.asarray(phi, float)
    load = bundle.T1 @ phi
    return bundle.ktilde_solve(load)


def check_adjoint_identity(bundle, xi, phi):
    """Residual of the extension adjoint identity for one pair.

    Returns ``|xi^T Ktilde N(phi) - int_{gamma1} xi phi|``, which is zero
    up to linear-solver accuracy by construction of the discrete map.
    """
    psi = solve_neumann_map(bundle, phi)
    lhs = float(xi @ (bundle.Ktilde @ psi))
    rhs = float(xi @ (bundle.T1 @ phi))
    return abs(lhs - rhs)
