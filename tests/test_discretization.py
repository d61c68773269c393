"""Assembly and elliptic-solve checks against closed-form references.

P1 mass/stiffness matrices integrate products of piecewise-linear
functions exactly, so interpolants of low-order polynomials give exact
quadratic forms; those are the sharpest cheap oracles available.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import mgtstab as M
from mgtstab.discretization import MaterialParams, Mesh
from mgtstab.errors import IllPosedMapError, MeshError

from conftest import interval_config


def interval_bundle(n=16, **params):
    p = dict(tau=1.0, c=1.0, b=1.0, alpha=2.0, kappa0=1.0, kappa1=1.0)
    p.update(params)
    cfg = interval_config(mesh={"resolution": n}, params=p)
    return M.Scenario(cfg).bundle


def square_bundle(n=8, **params):
    p = dict(tau=1.0, c=1.0, b=1.0, alpha=2.0, kappa0=1.0, kappa1=1.0)
    p.update(params)
    geo = M.named_geometry("unit-square")
    mesh = M.build_mesh(geo, n)
    mat = MaterialParams.constant(mesh, **p)
    return M.assemble_operators(mesh, mat)


# ---------------------------------------------------------------- meshes


def test_interval_mesh_structure():
    geo = M.named_geometry("unit-square")
    mesh = M.build_mesh(geo, 8)
    assert mesh.n_nodes == 81
    assert mesh.n_elements == 128
    np.testing.assert_allclose(mesh.element_volumes.sum(), 1.0, rtol=1e-14)
    np.testing.assert_allclose(
        np.linalg.norm(mesh.facet_normals, axis=1), 1.0, rtol=1e-14
    )
    np.testing.assert_allclose(mesh.facet_measures.sum(), 4.0, rtol=1e-14)
    # boundary facets partition into the two tagged families
    assert len(mesh.gamma0_facets) + len(mesh.gamma1_facets) == len(mesh.facets)


def test_fan_mesh_covers_half_disk():
    geo = M.named_geometry("half-disk")
    mesh = M.build_mesh(geo, 16)
    assert (mesh.element_volumes > 0).all()
    # inscribed polygon area below pi/2, converging from below
    area = mesh.element_volumes.sum()
    assert 0.95 * np.pi / 2 < area < np.pi / 2


def reference_fan(geometry, r):
    """The loop-and-dictionary fan builder the lattice builder replaced.

    ``round`` acts on ``np.float64`` coordinates here, so it is numpy's
    rounding (Python-float ``round`` differs in the last bit on a few
    half-disk nodes).
    """
    verts = geometry.vertices
    P = verts.mean(axis=0)
    node_ids, nodes = {}, []

    def nid(p):
        key = (round(p[0], 12), round(p[1], 12))
        if key not in node_ids:
            node_ids[key] = len(nodes)
            nodes.append([key[0], key[1]])
        return node_ids[key]

    elements, facets, tags = [], [], []
    n = len(verts)
    for k in range(n):
        A, B = verts[k], verts[(k + 1) % n]
        ids = {}
        for i in range(r + 1):
            for j in range(r + 1 - i):
                ids[(i, j)] = nid(P + (i / r) * (A - P) + (j / r) * (B - P))
        for i in range(r):
            for j in range(r - i):
                elements.append([ids[(i, j)], ids[(i + 1, j)], ids[(i, j + 1)]])
                if i + j < r - 1:
                    elements.append([ids[(i + 1, j)], ids[(i + 1, j + 1)], ids[(i, j + 1)]])
        chain = [ids[(r - m, m)] for m in range(r + 1)]
        for m in range(r):
            facets.append([chain[m], chain[m + 1]])
            tags.append(geometry.segment_tags[k])
    return Mesh(2, np.array(nodes), np.array(elements), np.array(facets), np.array(tags))


def reference_grid(geometry, n):
    """Tensor grid of a rectangle, cells cut along their sw-ne diagonal."""
    (x0, y0), (x1, y1) = geometry.vertices.min(axis=0), geometry.vertices.max(axis=0)
    X, Y = np.meshgrid(np.linspace(x0, x1, n + 1), np.linspace(y0, y1, n + 1))
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    elements = []
    for j in range(n):
        for i in range(n):
            sw, se, ne, nw = j * (n + 1) + i + np.array([0, 1, n + 2, n + 1])
            elements += [[sw, se, ne], [sw, ne, nw]]
    # boundary ring counterclockwise from the corner at vertex 0
    ring = np.concatenate(
        [np.arange(n), n + (n + 1) * np.arange(n), (n + 1) ** 2 - 1 - np.arange(n),
         (n + 1) * (n - np.arange(n))]
    )
    ring = np.roll(ring, -np.flatnonzero((nodes[ring] == geometry.vertices[0]).all(axis=1))[0])
    facets = np.column_stack([ring, np.roll(ring, -1)])
    tags = np.repeat(geometry.segment_tags, n)
    return Mesh(2, nodes, np.array(elements), facets, tags)


@pytest.mark.parametrize(
    "name, r",
    [("half-disk", r) for r in (2, 3, 8, 24)] + [("transducer", r) for r in (2, 3, 8)],
)
def test_lattice_fan_is_bitwise_the_reference_fan(name, r):
    geo = M.named_geometry(name)
    mesh, ref = M.build_mesh(geo, r), reference_fan(geo, r)
    for attr in ("nodes", "elements", "facets", "facet_tags"):
        got, want = getattr(mesh, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and got.shape == want.shape, attr
        assert got.tobytes() == want.tobytes(), attr


@pytest.mark.parametrize("r", [2, 3, 8])
def test_lattice_square_is_the_tensor_grid(r):
    geo = M.named_geometry("unit-square")
    mesh, ref = M.build_mesh(geo, r), reference_grid(geo, r)
    # the same node set, renumbered: match every node to its nearest grid node
    dist = np.linalg.norm(mesh.nodes[:, None] - ref.nodes[None], axis=2)
    match = dist.argmin(axis=1)
    assert dist.min(axis=1).max() <= 5e-13
    assert np.array_equal(np.sort(match), np.arange(ref.n_nodes))

    def triangles(elements):
        # each ccw triangle rotated to start at its smallest grid node
        start = elements.argmin(axis=1)[:, None]
        return {tuple(row) for row in np.take_along_axis(elements, (start + np.arange(3)) % 3, axis=1)}

    assert len(mesh.elements) == len(ref.elements)
    assert triangles(match[mesh.elements]) == triangles(ref.elements)
    np.testing.assert_allclose(mesh.nodes[mesh.facets], ref.nodes[ref.facets], rtol=0, atol=5e-13)
    np.testing.assert_array_equal(mesh.facet_tags, ref.facet_tags)


def test_mesh_rejects_polygon_not_star_shaped_about_its_centroid():
    # a U whose vertex centroid (1.5, 1.5) lies in the notch, outside it
    verts = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
    geo = M.Geometry.polygon(verts, [M.GAMMA0] + [M.GAMMA1] * 7, (1.5, 0.0))
    with pytest.raises(MeshError, match="not star-shaped"):
        M.build_mesh(geo, 2)


def test_mesh_rejects_bad_resolution():
    geo = M.named_geometry("unit-square")
    with pytest.raises(MeshError):
        M.build_mesh(geo, 0)


# -------------------------------------------------------------- assembly


def test_interval_mass_and_stiffness_exact():
    bundle = interval_bundle(n=16)
    n = bundle.mesh.n_nodes
    x = bundle.mesh.nodes[:, 0]
    ones = np.ones(n)
    # integral of 1 and of x^2 (P1-exact since x is its own interpolant)
    np.testing.assert_allclose(ones @ bundle.Mmat @ ones, 1.0, rtol=1e-14)
    np.testing.assert_allclose(x @ bundle.Mmat @ x, 1.0 / 3.0, rtol=1e-13)
    # stiffness annihilates constants; |u'|^2 of u = x integrates to 1
    np.testing.assert_allclose(bundle.Kmat @ ones, 0.0, atol=1e-14)
    np.testing.assert_allclose(x @ bundle.Kmat @ x, 1.0, rtol=1e-13)


def test_boundary_matrices_are_endpoint_masses():
    bundle = interval_bundle(n=8, kappa0=2.0, kappa1=3.0)
    n = bundle.mesh.n_nodes
    B0 = bundle.B0.toarray()
    B1 = bundle.B1.toarray()
    expected0 = np.zeros((n, n))
    expected0[0, 0] = 2.0  # kappa0-weighted point mass on the left end
    expected1 = np.zeros((n, n))
    expected1[-1, -1] = 3.0
    np.testing.assert_allclose(B0, expected0, atol=1e-15)
    np.testing.assert_allclose(B1, expected1, atol=1e-15)
    T1 = bundle.T1.toarray()
    assert T1[-1, -1] == pytest.approx(1.0)
    assert np.abs(T1).sum() == pytest.approx(1.0)


def test_weighted_masses():
    bundle = interval_bundle(n=8, tau=0.5, c=2.0, b=3.0, alpha=1.7)
    Ma = bundle.Malpha.toarray()
    Mg = bundle.Mgamma.toarray()
    Mm = bundle.Mmat.toarray()
    np.testing.assert_allclose(Ma, 1.7 * Mm, rtol=1e-14)
    gamma = 1.7 - 0.5 * 4.0 / 3.0
    np.testing.assert_allclose(Mg, gamma * Mm, rtol=1e-13)


def test_nonconstant_weight_masses_exact():
    # a P1 weight w = 1 + x + 2y is its own interpolant, so 1^T M_w 1 and
    # x^T M_w 1 integrate w and w x exactly, inside and on both boundary parts
    mesh = M.build_mesh(M.named_geometry("unit-square"), 6)
    x, y = mesh.nodes.T
    w = 1.0 + x + 2.0 * y
    bundle = M.assemble_operators(mesh, MaterialParams(1.0, 1.0, 1.0, w, w, w))
    ones = np.ones(mesh.n_nodes)
    # interior; gamma0 = bottom side; gamma1 = right, top and left sides
    for mat, int_w, int_wx in (
        (bundle.Malpha, 2.5, 4.0 / 3.0),
        (bundle.B0, 1.5, 5.0 / 6.0),
        (bundle.B1, 3.0 + 3.5 + 2.0, 3.0 + 11.0 / 6.0),
    ):
        np.testing.assert_allclose(ones @ mat @ ones, int_w, rtol=1e-14)
        np.testing.assert_allclose(x @ mat @ ones, int_wx, rtol=1e-14)


def test_ktilde_is_stiffness_plus_robin():
    bundle = square_bundle(n=6, kappa0=1.3)
    diff = (bundle.Ktilde - (bundle.Kmat + bundle.B0)).toarray()
    assert np.abs(diff).max() == 0.0


def test_square_boundary_measures():
    bundle = square_bundle(n=6, kappa0=2.0)
    ones = np.ones(bundle.mesh.n_nodes)
    # bottom edge carries gamma0, the other three sides gamma1
    np.testing.assert_allclose(ones @ bundle.B0 @ ones, 2.0, rtol=1e-14)
    np.testing.assert_allclose(ones @ bundle.T1 @ ones, 3.0, rtol=1e-14)
    np.testing.assert_allclose(ones @ bundle.Mmat @ ones, 1.0, rtol=1e-14)
    np.testing.assert_allclose(bundle.Kmat @ ones, 0.0, atol=1e-13)


def test_operators_are_symmetric():
    bundle = square_bundle(n=5)
    for A in (bundle.Mmat, bundle.Kmat, bundle.B0, bundle.B1, bundle.T1, bundle.Ktilde):
        assert sp.issparse(A)
        assert abs(A - A.T).max() < 1e-14


# ------------------------------------------------------------ neumann map


def test_neumann_map_exact_for_linear_solution():
    # -psi'' = 0, psi'(0) = kappa0 psi(0), psi'(1) = 3 with kappa0 = 2
    # has the exact P1-representable solution psi = 3x + 1.5
    bundle = interval_bundle(n=16, kappa0=2.0)
    phi = np.zeros(bundle.mesh.n_nodes)
    phi[-1] = 3.0
    psi = M.solve_neumann_map(bundle, phi)
    x = bundle.mesh.nodes[:, 0]
    np.testing.assert_allclose(psi, 3.0 * x + 1.5, rtol=1e-12)


def harmonic_cubic_data(mesh):
    """Harmonic reference with flux data continuous at the top corners.

    psi = 3x^2 y - y^3 + 3x^2 - 3y^2 - 3xy - 3x + 15y + 15 satisfies the
    Robin condition d_nu psi + psi = 0 on the bottom edge identically.
    """
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    psi = 3 * x**2 * y - y**3 + 3 * x**2 - 3 * y**2 - 3 * x * y - 3 * x + 15 * y + 15
    phi = np.zeros(mesh.n_nodes)
    on_left = np.isclose(x, 0.0)
    on_right = np.isclose(x, 1.0)
    on_top = np.isclose(y, 1.0)
    phi[on_left | on_right] = 3 * y[on_left | on_right] + 3
    phi[on_top] = 3 * x[on_top] ** 2 - 3 * x[on_top] + 6
    return psi, phi


def test_neumann_map_second_order_in_2d():
    errs = []
    for n in (8, 16, 32):
        bundle = square_bundle(n=n, kappa0=1.0)
        psi_ref, phi = harmonic_cubic_data(bundle.mesh)
        psi = M.solve_neumann_map(bundle, phi)
        e = psi - psi_ref
        errs.append(float(np.sqrt(e @ bundle.Mmat @ e)))
    slope = M.refinement_slope(errs)
    assert slope >= 1.8, slope


def test_neumann_map_requires_robin_mass():
    bundle = interval_bundle(n=8, kappa0=0.0)
    phi = np.zeros(bundle.mesh.n_nodes)
    phi[-1] = 1.0
    with pytest.raises(IllPosedMapError):
        M.solve_neumann_map(bundle, phi)


# ------------------------------------------------------------- adjointness


def test_adjoint_identity_1d_and_2d():
    rng = np.random.default_rng(7)
    worst = 0.0
    for bundle in (interval_bundle(n=13, kappa0=1.5), square_bundle(n=6, kappa0=0.8)):
        n = bundle.mesh.n_nodes
        for _ in range(20):
            xi = rng.standard_normal(n)
            phi = rng.standard_normal(n)
            worst = max(worst, M.check_adjoint_identity(bundle, xi, phi))
    assert worst <= 1e-12, worst
