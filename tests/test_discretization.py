"""Assembly and elliptic-solve checks against closed-form references.

P1 mass/stiffness matrices integrate products of piecewise-linear
functions exactly, so interpolants of low-order polynomials give exact
quadratic forms; those are the sharpest cheap oracles available.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import mgtstab as M
from mgtstab import discretization
from mgtstab.discretization import MaterialParams, Mesh
from mgtstab.errors import IllPosedMapError, MeshError

from conftest import interval_config, preset_names


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


@pytest.mark.parametrize(
    "geo, coarse",
    [
        (M.Geometry.interval(0.0, 1.0), None),
        (M.named_geometry("unit-square"), 2),  # the two halves of the rectangle
        (M.named_geometry("half-disk"), None),  # the fan, one triangle a segment
        (M.named_geometry("transducer"), None),
    ],
    ids=["interval", "unit-square", "half-disk", "transducer"],
)
def test_mesh_size_cap_is_checked_before_anything_is_built(geo, coarse):
    # by arithmetic alone: the largest resolution within the cap passes the
    # check and the next one fails it; only a far larger one is built
    cap = discretization.MAX_LATTICE_POINTS
    if geo.dimension == 1:
        largest = cap - 1
    else:
        per = (coarse or len(geo.vertices)) / 2
        largest = int((math.sqrt(1 + 4 * cap / per) - 3) / 2)
        assert per * (largest + 1) * (largest + 2) <= cap < per * (largest + 2) * (largest + 3)
    discretization.check_mesh_size(geo, largest)
    with pytest.raises(MeshError, match="above the cap of %d" % cap):
        discretization.check_mesh_size(geo, largest + 1)
    with pytest.raises(MeshError, match="above the cap"):
        M.build_mesh(geo, 2**40)


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


def coo_reference(cells, loc, n):
    """The local matrices ``loc[e]`` of ``cells[e]`` summed by a COO -> CSR conversion."""
    k = cells.shape[1]
    rows, cols = np.repeat(cells.T, k, axis=0), np.tile(cells.T, (k, 1))
    return sp.coo_matrix((loc.transpose(1, 2, 0).ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def assembly_case(name):
    """A preset's mesh and material, or the half disk with varying alpha, kappa0 and kappa1."""
    if name in preset_names():
        scen = M.Scenario(M.load_config(M.preset(name)))
        return scen.mesh, scen.params
    mesh = M.build_mesh(M.named_geometry("half-disk"), 8)
    x, y = mesh.nodes.T
    return mesh, MaterialParams(0.8, 1.2, 1.5, 1.0 + x**2, 1.0 + y, 2.0 + np.sin(3 * x))


@pytest.mark.parametrize("name", preset_names() + ["half-disk-varying"])
def test_assembly_matches_a_coo_reference(monkeypatch, name):
    # each scattered operator against the COO sum of the very local matrices
    # it was given, read on the element pattern (zero where the reference
    # has no entry); the reference sums duplicates in another order, so 2D
    # entries may differ in the last bits (bound fixed before the run), 1D
    # entries (at most two terms) not at all
    mesh, params = assembly_case(name)
    n = mesh.n_nodes
    cells_of, made = [], []
    pattern, facet_slots, scatter = (
        discretization._pattern, discretization._facet_slots, discretization._scatter
    )

    def spy_pattern(cells, *args):
        cells_of.append((pattern(cells, *args), cells))
        return cells_of[-1][0]

    def spy_facet_slots(pat, facets, n):
        cells_of.append((facet_slots(pat, facets, n), facets))
        return cells_of[-1][0]

    def spy_scatter(pat, loc):
        cells = next(c for p, c in cells_of if p is pat)
        made.append((scatter(pat, loc), coo_reference(cells, loc, n)))
        return made[-1][0]

    monkeypatch.setattr(discretization, "_pattern", spy_pattern)
    monkeypatch.setattr(discretization, "_facet_slots", spy_facet_slots)
    monkeypatch.setattr(discretization, "_scatter", spy_scatter)
    bundle = discretization.assemble_operators(mesh, params)
    ref = {}
    for op in ("Mmat", "Kmat", "B0", "B1", "Malpha", "Mgamma", "T0", "T1"):
        ref[op] = next(r for A, r in made if A is getattr(bundle, op))
    ref["Ktilde"] = ref["Kmat"] + ref["B0"]
    assert len(made) == 8
    # the element pattern: every local (row, column) key of the elements, increasing
    cells = mesh.elements
    keys = np.unique((cells.T[:, None] * n + cells.T[None]).ravel())
    rows, cols = np.divmod(keys, n)
    for op, R in ref.items():
        A = getattr(bundle, op)
        assert np.array_equal(A.indptr, np.searchsorted(keys, n * np.arange(n + 1))), op
        assert np.array_equal(A.indices, cols), op
        want = np.asarray(R[rows, cols]).ravel()
        if mesh.dim == 1:
            assert np.array_equal(A.data, want), op
        else:
            assert np.abs(A.data - want).max() <= 1e-15 * np.abs(want).max(), op


def pattern_case(name):
    """:func:`assembly_case`, the unit square at alpha = 0 or a five-sided polygon."""
    if name == "unit-square-alpha-0":
        mesh = M.build_mesh(M.named_geometry("unit-square"), 8)
        return mesh, MaterialParams.constant(mesh, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    if name == "polygon":
        mesh = face_table_mesh(name)
        return mesh, MaterialParams.constant(mesh, 1.0, 1.2, 1.5, 2.0, 1.0, 0.5)
    return assembly_case(name)


def scipy_blocks(bundle, form):
    """The generator blocks ``(Ew, Lu, Lv, Lw)`` as sparse expressions in the operators."""
    params = bundle.params
    tau, b, c2, q = params.tau, params.b, params.c**2, params.q
    K, B1 = bundle.Ktilde, bundle.B1
    if form == "u":
        return tau * bundle.Mmat, -c2 * K, -(b * K + c2 * B1), -(bundle.Malpha + b * B1)
    Mgam = bundle.Mgamma / tau
    return bundle.Mmat, -(q**2) * Mgam, q * Mgam - (b / tau) * K, -((b / tau) * B1 + Mgam)


@pytest.mark.parametrize(
    "name", preset_names() + ["half-disk-varying", "unit-square-alpha-0", "polygon"]
)
def test_every_operator_and_block_shares_the_element_pattern(name):
    mesh, params = pattern_case(name)
    for tau in (params.tau, 0.8):
        bundle = M.assemble_operators(mesh, dataclasses.replace(params, tau=tau))
        ops = [A for A in vars(bundle).values() if sp.issparse(A)]
        assert len(ops) == 9
        for form in ("u", "z"):
            gen = M.assemble_generator(bundle, form)
            blocks = (gen.Ew, gen.Lu, gen.Lv, gen.Lw)
            ops += blocks
            # entry for entry the sparse expression, bit for bit (its dropped zeros read as 0)
            for A, R in zip(blocks, scipy_blocks(bundle, form)):
                assert A.toarray().tobytes() == R.toarray().tobytes(), (form, tau)
        first = bundle.Mmat
        for A in ops:
            assert np.shares_memory(A.indices, first.indices) and np.shares_memory(A.indptr, first.indptr)
            assert A.indices.size == first.indices.size and A.indptr.size == first.indptr.size


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


# ------------------------------------------------------------- face table


def face_table_mesh(name):
    """A preset's mesh, or a five-sided polygon's (the fan of a non-rectangle)."""
    if name in preset_names():
        return M.Scenario(M.load_config(M.preset(name))).mesh
    verts = [(0, 0), (2, 0), (2.5, 1), (1, 1.8), (-0.3, 1.1)]
    geo = M.Geometry.polygon(verts, [M.GAMMA0] + [M.GAMMA1] * 4, (1.0, -3.0))
    return M.build_mesh(geo, 9)


@pytest.mark.parametrize("name", preset_names() + ["polygon"])
def test_facet_elements_match_a_per_facet_search(name):
    mesh = face_table_mesh(name)
    dim = mesh.dim
    for f, facet in enumerate(mesh.facets):
        holds = np.flatnonzero(np.isin(mesh.elements, facet).sum(axis=1) == dim)
        assert holds.tolist() == [mesh.facet_elements[f]], f
    # the boundary facets are the faces used once
    faces = np.sort(mesh.elements[:, discretization._FACES[dim]], axis=2).reshape(-1, dim)
    keys, counts = np.unique(faces, axis=0, return_counts=True)
    assert {tuple(k) for k in keys[counts == 1]} == {tuple(f) for f in np.sort(mesh.facets, axis=1)}


def sorted_face_pairs(mesh):
    """The element pairs that share a face, found by sorting every element face's key."""
    n, dim = mesh.n_nodes, mesh.dim
    faces = mesh.elements[:, list(itertools.combinations(range(dim + 1), dim))]
    face_keys = np.ravel_multi_index(np.sort(faces, axis=2).reshape(-1, dim).T, (n,) * dim)
    order = np.argsort(face_keys)
    shared = np.flatnonzero(face_keys[order][1:] == face_keys[order][:-1])
    return order[shared] // (dim + 1), order[shared + 1] // (dim + 1)


@pytest.mark.parametrize("name", preset_names() + ["polygon"])
def test_interior_faces_match_the_sorted_face_keys(name):
    mesh = face_table_mesh(name)
    assert mesh.faces.counts.max() <= 2
    pairs = mesh.face_elements[mesh.faces.counts == 2]
    a, b = sorted_face_pairs(mesh)
    ref = sorted(zip(np.minimum(a, b), np.maximum(a, b)))
    assert sorted(map(tuple, np.sort(pairs, axis=1))) == ref


@pytest.mark.parametrize("name", preset_names() + ["polygon"])
def test_mesh_size_is_the_per_element_formula_bitwise(name):
    mesh = face_table_mesh(name)
    x = mesh.nodes[mesh.elements]
    i, j = np.triu_indices(mesh.dim + 1, 1)
    ref = float(np.linalg.norm(x[:, i] - x[:, j], axis=-1).max())
    assert mesh.mesh_size().hex() == ref.hex()


@pytest.mark.parametrize("name", preset_names() + ["polygon"])
def test_pattern_matches_the_sorted_local_keys(name):
    # the counted CSR pattern against one np.unique of every local (row, column) key
    mesh = face_table_mesh(name)
    n = mesh.n_nodes
    for cells in (mesh.elements, mesh.facets[mesh.facet_tags == M.GAMMA0], mesh.facets):
        keys, slot = np.unique((cells.T[:, None] * n + cells.T[None]).ravel(), return_inverse=True)
        ref = slot, keys % n, np.searchsorted(keys, n * np.arange(n + 1))
        for got, want in zip(discretization._pattern(cells, n), ref):
            assert np.array_equal(got, want)
