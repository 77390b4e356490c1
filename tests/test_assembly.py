from math import factorial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import example, given, settings, strategies as st

from gaugefem import (
    EdgeCirculation,
    EmptyProblemError,
    GaugeFieldSpec,
    HermitianSparse,
    MeshGeometryError,
    TransportTable,
    apply_gauge_to_circulation,
    assemble_scalar_problem,
    build_box_mesh,
    circulate,
    covariant_mass,
    covariant_stiffness,
    eliminate_dirichlet,
    export_matrix,
    make_mesh,
    potential_matrix,
    random_gauge,
    standard_galerkin,
    transports,
    unit_transports,
)

import gaugefem.assembly as assembly
from gaugefem.assembly import (_CELL_ENTRIES, _CHUNK, _cell_pass, _covariant_kinetic,
                               _galerkin_kinetic, _monomial_table)
from gaugefem.cli import main

from conftest import perturbed_box_mesh, random_vertex_order, shuffled_cells
from oracles import (
    cell_blocks,
    covariant_mass_dense,
    covariant_stiffness_dense,
    delaunay_cloud,
    edge_lookup,
    local_covariant_stiffness_dual,
    magnetic_galerkin_dense,
    p1_local_stiffness,
    p1_mass_dense,
    p1_stiffness_dense,
    potential_dense,
    ring_disk,
    simplex_quadrature,
    barycentric_values,
)


def _one_cell_mesh(coords):
    """The mesh of one cell, its vertices in the order of ``coords``."""
    coords = np.asarray(coords, dtype=np.float64)
    return make_mesh(coords.shape[1], coords, np.arange(coords.shape[0])[None])


def _reference_cell(dim):
    return _one_cell_mesh(np.vstack([np.zeros(dim), np.eye(dim)]))


def _random_cell(dim, seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, (dim + 1, dim))
    while abs(np.linalg.det(coords[1:] - coords[0])) < 1e-2:
        coords = rng.uniform(-1.0, 1.0, (dim + 1, dim))
    return _one_cell_mesh(coords)


# ---------------------------------------------------------------------------
# one cell's mass


def test_local_mass_closed_form_values():
    mesh = _reference_cell(3)
    m3 = covariant_mass(unit_transports(mesh)).to_csr().toarray()
    assert np.allclose(np.diag(m3), 1 / 60, rtol=1e-15)
    off = m3[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1 / 120, rtol=1e-15)

    mesh = _reference_cell(2)
    m2 = covariant_mass(unit_transports(mesh)).to_csr().toarray()
    assert np.allclose(np.diag(m2), 1 / 12, rtol=1e-15)
    assert np.allclose(m2[0, 1], 1 / 24, rtol=1e-15)


def test_local_mass_row_sums():
    for dim in (2, 3):
        mesh = _random_cell(dim, seed=40 + dim)
        m = covariant_mass(unit_transports(mesh)).to_csr().toarray()
        assert np.allclose(m.sum(axis=1), mesh.volumes[0] / (dim + 1), rtol=1e-14)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("dim", [2, 3])
def test_local_mass_matches_quadrature(dim):
    mesh = _random_cell(dim, seed=dim)
    pts, w = simplex_quadrature(mesh.vertices)
    lam = barycentric_values(mesh.vertices, pts)
    reference = np.einsum("q,qa,qb->ab", w, lam, lam)
    m = covariant_mass(unit_transports(mesh)).to_csr().toarray()
    assert np.allclose(m, reference, rtol=1e-13)


# ---------------------------------------------------------------------------
# cell geometry and the shared pattern


@pytest.mark.parametrize("dim,n", [(2, 6), (3, 3)])
def test_closed_form_geometry_matches_lapack(dim, n):
    mesh = perturbed_box_mesh(dim, n, seed=11 + dim)
    coords = mesh.vertices[mesh.cells]
    span = (coords[:, 1:, :] - coords[:, :1, :]).transpose(0, 2, 1)
    inv = np.linalg.inv(span)
    assert mesh.gradients.shape == (dim, dim + 1, mesh.n_cells)
    grads = mesh.gradients.transpose(2, 1, 0)  # (nc, m, d), as the rows of inv
    scale = np.abs(inv).max(axis=(1, 2))
    assert np.all(np.abs(grads[:, 1:, :] - inv) <= 1e-14 * scale[:, None, None])
    assert np.all(np.abs(grads[:, 0, :] + inv.sum(axis=1)) <= 1e-14 * scale[:, None])
    vols = np.abs(np.linalg.det(span)) / factorial(dim)
    assert np.all(np.abs(mesh.volumes - vols) <= 1e-14 * vols)


def test_closed_form_gradients_reject_a_degenerate_cell():
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    make_mesh(3, vertices[:4], np.array([[0, 1, 2, 3]]))
    with pytest.raises(MeshGeometryError):
        make_mesh(3, vertices, np.array([[0, 1, 2, 3], [0, 1, 2, 4]]))  # flat
    with pytest.raises(MeshGeometryError):
        make_mesh(3, vertices[[0, 1, 2, 4]], np.array([[0, 1, 2, 3]]))


@pytest.mark.parametrize("dim,lengths,b", [
    (2, (1.0, 1.7), (0.0, 0.0, 3.0)),
    (3, (1.0, 1.7, 0.6), (1.0, -2.0, 3.0)),
])
def test_orthogonal_kuhn_pairs_are_stored_exact_zeros(dim, lengths, b):
    # On a box, the hat gradients of the two ends of an edge that steps
    # along more than one axis are orthogonal in every Kuhn cell around the
    # edge.  Their stiffness entries must come out as exact zeros, which
    # the solver drops from the pattern it factors at sigma = 0, and they
    # must stay stored, so every assembled matrix keeps one pattern.
    mesh = build_box_mesh(dim, 4, lengths)
    circ = circulate(GaugeFieldSpec((0.2,) * dim, b), mesh)
    k = covariant_stiffness(transports(circ))
    assert k.to_csr().nnz == mesh.n_vertices + 2 * mesh.n_edges
    lo, hi = mesh.edges.T
    step = np.abs(mesh.vertices[hi] - mesh.vertices[lo]) > 1e-12
    diagonal = np.count_nonzero(step, axis=1) > 1
    assert diagonal.sum() > 0
    dense = k.to_csr().toarray()
    assert np.all(dense[lo[diagonal], hi[diagonal]] == 0.0)
    assert np.all(dense[lo[~diagonal], hi[~diagonal]] != 0.0)
    reference = p1_stiffness_dense(mesh.vertices, mesh.cells)
    assert np.abs(reference[lo[diagonal], hi[diagonal]]).max() < 1e-12

    problem = assemble_scalar_problem(circ)
    stored = problem.stiffness.to_csr()
    assert stored.nnz == problem.mass.to_csr().nnz
    assert np.count_nonzero(stored.data) < stored.nnz


def _relabelled(mesh, seed):
    """``mesh`` with its vertices renumbered and its cells listed at random."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    return make_mesh(mesh.dim, vertices, rng.permutation(label[mesh.cells]))


def _layout(nv, lo, hi):
    """indptr and indices of the canonical CSR matrix on nv vertices that
    stores the diagonal and both directions of every edge (lo, hi)."""
    keys = np.sort(np.concatenate([np.arange(nv) * (nv + 1), lo * nv + hi, hi * nv + lo]))
    return np.searchsorted(keys, np.arange(nv + 1) * nv), keys % nv


@pytest.mark.parametrize("build", [
    lambda: build_box_mesh(2, 5),
    lambda: build_box_mesh(3, 3),
    lambda: perturbed_box_mesh(2, 5, seed=3),
    lambda: perturbed_box_mesh(3, 3, seed=4),
    lambda: shuffled_cells(_relabelled(perturbed_box_mesh(2, 5, seed=5), 6), seed=7),
    lambda: shuffled_cells(_relabelled(perturbed_box_mesh(3, 3, seed=8), 9), seed=10),
    lambda: make_mesh(2, *ring_disk(0.25)[:2]),
    lambda: make_mesh(2, *delaunay_cloud(2, 40, 11)[:2]),
    lambda: make_mesh(3, *delaunay_cloud(3, 40, 12)[:2]),
], ids=["box-2d", "box-3d", "perturbed-2d", "perturbed-3d", "shuffled-2d", "shuffled-3d",
        "ring-disk-2d", "delaunay-2d", "delaunay-3d"])
def test_csr_layout_on_unstructured_meshes(build):
    # Every assembled matrix stores, in canonical CSR (columns ascending in
    # each row, no duplicates), its diagonal and both directions of every
    # edge, and its lower triangle is the exact conjugate of the upper.  The
    # export and the SpMV summation orders follow these rows.  So the
    # stiffness and the mass of one pass, on all vertices or on the interior
    # problem of either method, have one indptr and one indices.
    mesh = build()
    rng = np.random.default_rng(13)
    circ = EdgeCirculation(mesh, rng.uniform(-1.0, 1.0, mesh.n_edges))
    potential = rng.uniform(-1.0, 1.0, mesh.n_vertices)
    stiffness, mass, _, _ = covariant_stiffness(transports(circ), potential, with_mass=True)
    lo, hi = mesh.edges.T
    interior = ~mesh.boundary_vertex
    index = np.cumsum(interior) - 1
    inner = interior[lo] & interior[hi]
    layouts = [(_layout(mesh.n_vertices, lo, hi), (stiffness, mass))]
    for method in ("covariant", "baseline"):
        problem = assemble_scalar_problem(circ, potential, method)
        layouts.append((_layout(problem.n, index[lo[inner]], index[hi[inner]]),
                        (problem.stiffness, problem.mass)))
    for (indptr, indices), pencil in layouts:
        for matrix in pencil:
            csr = matrix.to_csr()
            assert csr.has_canonical_format
            assert np.array_equal(csr.indptr, indptr)
            assert np.array_equal(csr.indices, indices)
            mirror = csr.conj().T.tocsr()
            mirror.sort_indices()
            assert np.array_equal(mirror.indptr, csr.indptr)
            assert np.array_equal(mirror.indices, csr.indices)
            assert np.array_equal(mirror.data, csr.data)


def _constant_kernel(block):
    """A kinetic kernel that gives every cell the diagonal and upper pairs
    of ``block``."""
    entries = _CELL_ENTRIES[block.shape[0]]
    column = block[entries.rows, entries.cols][:, None]
    return lambda rows, grads, vols, u: np.broadcast_to(column, (column.size, vols.size))


def test_cell_pass_sums_the_upper_half_and_rejects_an_imaginary_diagonal():
    # the stored matrix is the cell sum's real diagonal and upper triangle,
    # with the lower triangle its exact conjugate
    mesh = build_box_mesh(2, 2)
    rng = np.random.default_rng(40)
    skew = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.fill_diagonal(skew, rng.standard_normal(3))  # real diagonal, not Hermitian
    skew[1, 1] += 1e-15j  # within DIAG_IMAG_TOL summed over the cells, dropped
    table = unit_transports(mesh)
    stiffness = _cell_pass(table, _constant_kernel(skew), None)[0]
    reference = np.zeros((mesh.n_vertices,) * 2, dtype=complex)
    for cell in mesh.cells:
        reference[np.ix_(cell, cell)] += skew
    upper = np.triu(reference, 1)
    expected = upper + upper.conj().T + np.diag(reference.diagonal().real)
    dense = stiffness.to_csr().toarray()
    assert np.allclose(dense, expected, rtol=0, atol=1e-14)
    assert np.array_equal(dense, dense.conj().T)

    bent = skew.copy()
    bent[1, 1] += 1e-10j  # beyond DIAG_IMAG_TOL
    with pytest.raises(ValueError, match="diagonal imaginary part"):
        _cell_pass(table, _constant_kernel(bent), None)


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_assembly_is_bit_identical_for_cells_in_any_vertex_order(dim, n):
    mesh = perturbed_box_mesh(dim, n, seed=60 + dim)
    rng = np.random.default_rng(60 + dim)
    circ = EdgeCirculation(mesh, rng.uniform(-np.pi, np.pi, mesh.n_edges))
    potential = rng.uniform(-5.0, 5.0, mesh.n_vertices)
    forms = [
        covariant_stiffness(transports(EdgeCirculation(m, circ.values)), potential,
                            with_mass=True)
        for m in (mesh, shuffled_cells(mesh, seed=dim))
    ]
    for a, b in zip(forms[0][:2], forms[1][:2]):
        _assert_same_csr(a, b)
    assert np.array_equal(forms[0][2], forms[1][2])


@pytest.mark.parametrize("method", ["covariant", "baseline"])
def test_the_cell_pass_gathers_transports_through_local_values(method, monkeypatch):
    # one TransportTable.local_values call per chunk of cells: the method is
    # the pass's only transport gather, so a trace of it sees the whole gather
    mesh = build_box_mesh(3, 10)  # 6,000 cells, two chunks
    calls = []
    original = TransportTable.local_values

    def spy(self, rows):
        calls.append(rows)
        return original(self, rows)

    monkeypatch.setattr(TransportTable, "local_values", spy)
    spec = GaugeFieldSpec((0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
    assemble_scalar_problem(circulate(spec, mesh), method=method)
    assert calls == [slice(lo, lo + _CHUNK) for lo in range(0, mesh.n_cells, _CHUNK)]
    assert len(calls) == 2


def _assert_same_csr(a, b):
    # byte for byte, so that -0.0 does not pass for 0.0, nor int64 for int32
    a, b = a.to_csr(), b.to_csr()
    assert a.shape == b.shape
    assert a.has_canonical_format and b.has_canonical_format
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_one_pass_equals_the_single_forms(dim, n):
    mesh = perturbed_box_mesh(dim, n, seed=30 + dim)
    rng = np.random.default_rng(31)
    circ = EdgeCirculation(mesh, rng.uniform(-np.pi, np.pi, mesh.n_edges))
    table = transports(circ)
    # a spherical well of depth -5 and radius 0.3 around the box center
    well = np.where(np.linalg.norm(mesh.vertices - 0.5, axis=1) <= 0.3, -5.0, 0.0)
    assert 0 < np.count_nonzero(well) < mesh.n_vertices

    stiffness, mass, floor, deficit = covariant_stiffness(table, well, with_mass=True)
    _assert_same_csr(stiffness, covariant_stiffness(table, well))
    _assert_same_csr(mass, covariant_mass(table))
    # the floor does not depend on the potential
    assert np.array_equal(floor, covariant_stiffness(table, with_mass=True)[2])

    interior = ~mesh.boundary_vertex
    problem = assemble_scalar_problem(circ, well)
    _assert_same_csr(problem.stiffness, eliminate_dirichlet(stiffness, interior))
    _assert_same_csr(problem.mass, eliminate_dirichlet(mass, interior))
    assert problem.mass_floor == floor[interior].min()
    assert np.array_equal(problem.interior, interior)
    f, d = floor[interior], deficit[interior]
    s = -5.0 - np.max(d / f) if f.min() > 0.0 else -np.inf
    assert problem.spectrum_floor == s


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["box", "perturbed", "shuffled"]),
    dim=st.sampled_from([2, 3]),
    method=st.sampled_from(["covariant", "baseline"]),
    field=st.booleans(),
    with_potential=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(kind="box", dim=3, method="covariant", field=False, with_potential=False, seed=0)
@example(kind="shuffled", dim=2, method="baseline", field=True, with_potential=True, seed=1)
def test_the_problem_is_assembled_straight_onto_the_interior(kind, dim, method, field,
                                                             with_potential, seed):
    # The pass keeps only the entries between interior vertices, renumbered
    # in ascending order, and gives eliminate_dirichlet's reduction of the
    # full-vertex forms byte for byte, also where the interior vertices are
    # scattered over the labels (shuffled) and where a zero field leaves
    # exact zeros stored.
    n = 5 if dim == 2 else 3
    if kind == "box":
        mesh = build_box_mesh(dim, n)
    elif kind == "perturbed":
        mesh = perturbed_box_mesh(dim, n, seed)
    else:
        mesh = shuffled_cells(_relabelled(perturbed_box_mesh(dim, n, seed), seed + 1),
                              seed + 2)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-np.pi, np.pi, mesh.n_edges) if field else np.zeros(mesh.n_edges)
    circ = EdgeCirculation(mesh, values)
    potential = rng.uniform(-5.0, 5.0, mesh.n_vertices) if with_potential else None
    if method == "covariant":
        full = covariant_stiffness(transports(circ), potential, with_mass=True)
    else:
        full = _cell_pass(unit_transports(mesh), _galerkin_kinetic(circ), potential)
    interior = ~mesh.boundary_vertex
    problem = assemble_scalar_problem(circ, potential, method)
    _assert_same_csr(problem.stiffness, eliminate_dirichlet(full[0], interior))
    _assert_same_csr(problem.mass, eliminate_dirichlet(full[1], interior))
    assert problem.mass_floor == full[2][interior].min()


def test_a_problem_without_interior_vertices_runs_no_cell_pass(monkeypatch, capsys):
    passes = []
    original = assembly._cell_pass

    def spy(*args, **kwargs):
        passes.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, "_cell_pass", spy)
    mesh = build_box_mesh(2, 1)
    circ = circulate(GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    for method in ("covariant", "baseline"):
        with pytest.raises(EmptyProblemError, match="no interior vertices"):
            assemble_scalar_problem(circ, method=method)
    assert passes == []
    assert main(["solve", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gaugefem: no interior vertices: nothing to solve for\n"
    assert passes == []


# ---------------------------------------------------------------------------
# covariant mass


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_covariant_mass_reduces_to_p1_mass(dim, n):
    mesh = build_box_mesh(dim, n)
    dense = covariant_mass(unit_transports(mesh)).to_csr().toarray()
    reference = p1_mass_dense(mesh.vertices, mesh.cells)
    assert np.allclose(dense, reference, rtol=0, atol=1e-14)
    assert np.max(np.abs(dense.imag)) == 0.0


def test_covariant_mass_single_edge_phase():
    # one reference tetrahedron, transport exp(i pi) on the edge (0, 1):
    # <e0, e1>_U = (1/120) * exp(i pi) = -1/120
    mesh = _reference_cell(3)
    values = np.zeros(mesh.n_edges)
    values[np.all(mesh.edges == (0, 1), axis=1)] = np.pi
    circ = EdgeCirculation(mesh, values)
    dense = covariant_mass(transports(circ)).to_csr().toarray()
    assert dense[0, 1] == pytest.approx(-1 / 120, rel=1e-13)
    assert dense[0, 0] == pytest.approx(1 / 60, rel=1e-13)


def test_covariant_mass_hermitian_pairing():
    mesh = build_box_mesh(2, 3)
    circ = circulate(GaugeFieldSpec([0.1, -0.4], [0.0, 0.0, 2.0]), mesh)
    m = covariant_mass(transports(circ)).to_csr().toarray()
    assert np.array_equal(m, m.conj().T)

    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    assert np.vdot(u, m @ v) == pytest.approx(np.conj(np.vdot(v, m @ u)), rel=1e-14)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_covariant_mass_positive_definite(dim, n):
    mesh = build_box_mesh(dim, n)
    rng = np.random.default_rng(8)
    values = rng.uniform(-1.0, 1.0, mesh.n_edges)  # |A_xy| <= 1 per edge
    circ = EdgeCirculation(mesh, values)
    dense = covariant_mass(transports(circ)).to_csr().toarray()
    assert np.linalg.eigvalsh(dense).min() > 0.0


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 1)])
def test_covariant_mass_matches_quadrature_in_any_cell_order(dim, n):
    mesh = perturbed_box_mesh(dim, n, seed=dim)
    rng = np.random.default_rng(dim)
    circ = EdgeCirculation(mesh, rng.uniform(-1.0, 1.0, mesh.n_edges))
    table = transports(circ)
    dense = covariant_mass(table).to_csr().toarray()
    reference = covariant_mass_dense(
        mesh.vertices, random_vertex_order(mesh.cells, seed=3),
        edge_lookup(table, np.conj, 1.0)
    )
    assert np.allclose(dense, reference, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# covariant stiffness


@pytest.mark.parametrize("dim", [2, 3])
def test_local_stiffness_zero_field_is_p1(dim):
    mesh = _random_cell(dim, seed=10 + dim)
    k = covariant_stiffness(unit_transports(mesh)).to_csr().toarray()
    assert np.allclose(k, p1_local_stiffness(mesh.vertices), rtol=0, atol=1e-13)
    assert np.allclose(k @ np.ones(dim + 1), 0.0, atol=1e-13)


def test_local_stiffness_reference_tet_entry():
    mesh = _reference_cell(3)
    k = covariant_stiffness(unit_transports(mesh)).to_csr().toarray()
    assert k[0, 0] == pytest.approx(0.5, rel=1e-14)  # |T| |grad lam_0|^2


def _upper_columns(blocks):
    """The diagonal and upper pairs of (nc, m, m) blocks, one row per entry."""
    entries = _CELL_ENTRIES[blocks.shape[1]]
    return blocks[:, entries.rows, entries.cols].T


def _lower_conjugate_columns(blocks):
    """The conjugated diagonal and lower pairs of (nc, m, m) blocks, in the
    entry order of :func:`_upper_columns`."""
    return _upper_columns(blocks.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("dim", [2, 3])
def test_local_stiffness_hermitian(dim):
    # the cell pass stores only the kernels' diagonal and upper pairs and
    # mirrors them, so the assembled matrix is Hermitian whatever the kernels
    # return; the columns must be the upper half of Hermitian blocks, which
    # is the conjugated lower half of an independent block of the same form
    mesh = perturbed_box_mesh(dim, 2, seed=20 + dim)
    rng = np.random.default_rng(4)
    theta = rng.uniform(-np.pi, np.pi, mesh.n_edges)
    rows = slice(0, mesh.n_cells)
    table = TransportTable(mesh, np.exp(1j * theta))
    u = cell_blocks(table, np.conj, 1.0)
    columns = _covariant_kinetic(rows, mesh.gradients, mesh.volumes,
                                 table.values[mesh.cell_edges.T])
    reference = _lower_conjugate_columns(_covariant_blocks(mesh, u))
    assert np.abs(columns - reference).max() <= 1e-14 * np.abs(reference).max()

    circ = EdgeCirculation(mesh, theta)
    flat = unit_transports(mesh).values[mesh.cell_edges.T]
    columns = _galerkin_kinetic(circ)(rows, mesh.gradients, mesh.volumes, flat)
    circulation_of = edge_lookup(circ, np.negative, 0.0)
    blocks = np.array([
        magnetic_galerkin_dense(mesh.vertices, [cell], circulation_of)[np.ix_(cell, cell)]
        for cell in mesh.cells
    ])
    reference = _lower_conjugate_columns(blocks)
    assert np.abs(columns - reference).max() <= 1e-12 * np.abs(reference).max()


def _covariant_blocks(mesh, u, potential=None):
    """The covariant stiffness blocks in their m x m form, the oracle of the
    column kernels: (grad lambda_y . grad lambda_t) c |T| o U^2 (I + U),
    plus the potential blocks |T| (sum_z V_z int lambda_x lambda_y
    lambda_z / |T|) U_xy.  ``u`` holds the (nc, m, m) transport blocks."""
    m = mesh.dim + 1
    grads = mesh.gradients.transpose(2, 1, 0)
    geo = grads @ grads.transpose(0, 2, 1)
    geo *= (mesh.volumes / (m * (m + 1)))[:, None, None]
    blocks = u @ u @ (np.eye(m) + u) * geo
    if potential is not None:
        cubic = _monomial_table(mesh.dim, 3)
        weights = np.einsum("cz,xyz->cxy", potential[mesh.cells], cubic)
        blocks += weights * mesh.volumes[:, None, None] * u
    return blocks


def _cell_sum(mesh, blocks):
    """The dense matrix summed from (nc, m, m) cell blocks."""
    out = np.zeros((mesh.n_vertices,) * 2, dtype=complex)
    m = mesh.dim + 1
    np.add.at(out, (np.repeat(mesh.cells, m, axis=1), np.tile(mesh.cells, m)),
              blocks.reshape(mesh.n_cells, m * m))
    return out


@pytest.mark.parametrize("dim,n", [(2, 6), (3, 3)])
def test_cell_columns_match_the_block_forms(dim, n):
    # uniform random phases: many cells fall below the Weyl floor and take
    # the eigvalsh path, which forms their m x m blocks from the columns
    mesh = perturbed_box_mesh(dim, n, seed=70 + dim)
    rng = np.random.default_rng(70 + dim)
    m = dim + 1
    table = transports(EdgeCirculation(mesh, rng.uniform(-np.pi, np.pi, mesh.n_edges)))
    potential = rng.uniform(-5.0, 5.0, mesh.n_vertices)
    u = cell_blocks(table, np.conj, 1.0)
    a = np.eye(m) + u

    columns = _covariant_kinetic(slice(None), mesh.gradients, mesh.volumes,
                                 table.values[mesh.cell_edges.T])
    reference = _upper_columns(_covariant_blocks(mesh, u))
    assert np.abs(columns - reference).max() <= 1e-14 * np.abs(reference).max()

    stiffness, mass, floor, deficit = covariant_stiffness(table, potential,
                                                          with_mass=True)
    scaled = mesh.volumes / (m * (m + 1))
    for got, blocks in ((stiffness, _covariant_blocks(mesh, u, potential)),
                        (mass, scaled[:, None, None] * a)):
        reference = _cell_sum(mesh, blocks)
        error = np.abs(got.to_csr().toarray() - reference).max()
        assert error <= 1e-14 * np.abs(reference).max()

    # the floor and deficit of the block forms, cell by cell: the face
    # holonomies through vertex 0 and Weyl's 1 - delta_T, with eigvalsh
    # where that, less the roundoff margin, is negative
    x, y = (p[m - 1:] for p in np.triu_indices(m, 1))
    h = u[:, 0, x] * u[:, x, y] * u[:, y, 0]
    delta = np.sqrt(2.0 * np.sum((h.real - 1.0) ** 2 + h.imag ** 2, axis=1))
    margin = 8 * m * (m + 1) * np.finfo(float).eps
    lam = 1.0 - delta
    low = np.flatnonzero(lam < margin)
    assert 0 < low.size < mesh.n_cells
    lam[low] = np.linalg.eigvalsh(a[low])[:, 0]
    lam -= margin
    cubic = _monomial_table(dim, 3)
    v_min = min(0.0, potential.min())
    top = (cubic[np.arange(m), np.arange(m)] @ (potential[mesh.cells] - v_min).T).max(axis=0)
    drop = np.where(lam < 0.0, np.inf, delta * mesh.volumes * top)
    cells = mesh.cells.ravel()
    assert np.array_equal(floor, np.bincount(cells, np.repeat(scaled * lam, m),
                                             mesh.n_vertices))
    assert np.array_equal(deficit, np.bincount(cells, np.repeat(drop, m), mesh.n_vertices))


def test_global_stiffness_zero_field_is_p1():
    for mesh in (build_box_mesh(2, 2), perturbed_box_mesh(2, 4, seed=1)):
        dense = covariant_stiffness(unit_transports(mesh)).to_csr().toarray()
        reference = p1_stiffness_dense(mesh.vertices, mesh.cells)
        assert np.allclose(dense, reference, rtol=0, atol=1e-14)
        assert np.allclose(dense @ np.ones(mesh.n_vertices), 0.0, atol=1e-13)
        assert np.linalg.eigvalsh(dense).min() >= -1e-12


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_stiffness_matches_dual_basis_form(dim, n):
    # arbitrary (non-flat) edge phases on a perturbed mesh; the local forms
    # and the oracle take each cell's vertices in random order
    mesh = perturbed_box_mesh(dim, n, seed=5 + dim)
    rng = np.random.default_rng(30 + dim)
    circ = EdgeCirculation(mesh, rng.uniform(-np.pi, np.pi, mesh.n_edges))
    table = transports(circ)
    transport_of = edge_lookup(table, np.conj, 1.0)

    cells = random_vertex_order(mesh.cells, seed=dim)
    for cell in cells:
        one = _one_cell_mesh(mesh.vertices[cell])
        u_loc = np.array([[transport_of(i, j) for j in cell] for i in cell])
        lo, hi = one.edges.T
        k = covariant_stiffness(TransportTable(one, u_loc[lo, hi])).to_csr().toarray()
        reference = local_covariant_stiffness_dual(one.vertices, u_loc)
        assert np.abs(k - reference).max() <= 1e-13 * np.abs(reference).max()

    dense = covariant_stiffness(table).to_csr().toarray()
    reference = covariant_stiffness_dense(mesh.vertices, cells, transport_of)
    assert np.abs(dense - reference).max() <= 1e-13 * np.abs(reference).max()


def test_gauge_transform_conjugates_assembled_matrices():
    mesh = build_box_mesh(2, 3)
    circ = circulate(GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.3]), mesh)
    gauge = random_gauge(mesh, np.pi, seed=3)
    gauged = apply_gauge_to_circulation(circ, gauge)
    d = np.diag(np.exp(1j * gauge))

    for assemble in (covariant_stiffness, covariant_mass):
        original = assemble(transports(circ)).to_csr().toarray()
        twin = assemble(transports(gauged)).to_csr().toarray()
        assert np.allclose(twin, d @ original @ d.conj().T, rtol=0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(2, 3),
    scale=st.sampled_from([0.0, 0.2, "cloud"]),
    mesh_seed=st.integers(0, 2**16),
    a0=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    b=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    gauge_seed=st.integers(0, 2**16),
)
def test_gauge_transform_conjugates_over_meshes_and_fields(dim, n, scale, mesh_seed,
                                                           a0, b, gauge_seed):
    # A -> A - d(alpha) turns stiffness, mass and potential into D (.) D^H, on
    # the box mesh (scale 0), on perturbed ones and on a Delaunay point cloud
    if scale == "cloud":
        mesh = make_mesh(dim, *delaunay_cloud(dim, (n + 1)**dim, mesh_seed)[:2])
    else:
        mesh = perturbed_box_mesh(dim, n, mesh_seed, scale=scale)
    b = (0.0, 0.0, b[2]) if dim == 2 else b
    circ = circulate(GaugeFieldSpec(a0[:dim], b), mesh)
    gauge = random_gauge(mesh, np.pi, gauge_seed)
    gauged = apply_gauge_to_circulation(circ, gauge)
    d = np.exp(1j * gauge)
    values = np.random.default_rng(mesh_seed).standard_normal(mesh.n_vertices)

    forms = (
        covariant_stiffness,
        covariant_mass,
        lambda table: potential_matrix(table, values),
    )
    for assemble in forms:
        original = assemble(transports(circ)).to_csr().toarray()
        twin = assemble(transports(gauged)).to_csr().toarray()
        conjugated = d[:, None] * original * d.conj()[None, :]
        # a cloud's sliver cells reach entries of 1e3, so its bound
        # scales with the largest entry
        size = max(1.0, np.abs(original).max()) if scale == "cloud" else 1.0
        assert np.abs(twin - conjugated).max() <= 1e-13 * size


# ---------------------------------------------------------------------------
# scalar potential term


def test_potential_constant_is_scaled_mass():
    mesh = build_box_mesh(2, 3)
    u = unit_transports(mesh)
    c = 2.75
    left = potential_matrix(u, np.full(mesh.n_vertices, c)).to_csr().toarray()
    right = c * covariant_mass(u).to_csr().toarray()
    assert np.allclose(left, right, rtol=0, atol=1e-14)


def test_potential_zero_is_zero_matrix():
    mesh = build_box_mesh(2, 2)
    for values in (np.zeros(mesh.n_vertices), None):  # both mean no potential
        out = potential_matrix(unit_transports(mesh), values)
        assert np.all(out.to_csr().toarray() == 0.0)


def test_potential_reference_tet_cubic_integral():
    # V = lam_0 makes entry (0,0) = int lam_0^3 = (1/6) 3! 3! / 6! = 1/120
    mesh = _reference_cell(3)
    values = np.array([1.0, 0.0, 0.0, 0.0])
    dense = potential_matrix(unit_transports(mesh), values).to_csr().toarray()
    assert dense[0, 0] == pytest.approx(1 / 120, rel=1e-14)


def test_potential_matches_quadrature_with_transports():
    mesh = build_box_mesh(2, 2)
    rng = np.random.default_rng(14)
    values = rng.standard_normal(mesh.n_vertices)
    circ = circulate(GaugeFieldSpec([0.3, -0.2], [0.0, 0.0, 0.9]), mesh)
    table = transports(circ)
    dense = potential_matrix(table, values).to_csr().toarray()
    reference = potential_dense(
        mesh.vertices, mesh.cells, values, edge_lookup(table, np.conj, 1.0)
    )
    assert np.allclose(dense, reference, rtol=0, atol=1e-13)


def test_potential_validates_samples():
    mesh = build_box_mesh(2, 1)
    u = unit_transports(mesh)
    with pytest.raises(ValueError):
        potential_matrix(u, np.zeros(3))
    with pytest.raises(ValueError):
        potential_matrix(u, np.full(mesh.n_vertices, np.nan))


# ---------------------------------------------------------------------------
# conventional baseline


def test_standard_galerkin_zero_field_equals_covariant():
    mesh = build_box_mesh(2, 3)
    circ = EdgeCirculation(mesh, np.zeros(mesh.n_edges))
    k_std, m_std = standard_galerkin(circ)
    u = unit_transports(mesh)
    assert np.allclose(
        k_std.to_csr().toarray(), covariant_stiffness(u).to_csr().toarray(),
        rtol=0, atol=1e-14,
    )
    assert np.allclose(
        m_std.to_csr().toarray(), covariant_mass(u).to_csr().toarray(), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 1)])
def test_standard_galerkin_matches_quadrature(dim, n):
    mesh = build_box_mesh(dim, n)
    rng = np.random.default_rng(dim)
    circ = EdgeCirculation(mesh, rng.uniform(-1.0, 1.0, mesh.n_edges))
    k_std, m_std = standard_galerkin(circ)
    reference = magnetic_galerkin_dense(
        mesh.vertices, mesh.cells, edge_lookup(circ, np.negative, 0.0)
    )
    assert np.allclose(k_std.to_csr().toarray(), reference, rtol=0, atol=1e-13)
    assert np.allclose(
        m_std.to_csr().toarray(), p1_mass_dense(mesh.vertices, mesh.cells),
        rtol=0, atol=1e-14,
    )


def test_standard_galerkin_hermitian():
    mesh = build_box_mesh(2, 3)
    rng = np.random.default_rng(2)
    circ = EdgeCirculation(mesh, rng.uniform(-2.0, 2.0, mesh.n_edges))
    k_std, _ = standard_galerkin(circ)
    dense = k_std.to_csr().toarray()
    assert np.array_equal(dense, dense.conj().T)


@pytest.mark.parametrize("dim", [2, 3])
def test_covariant_standard_difference_is_first_order(dim):
    # On one cell the two stiffness matrices differ by O(eps) with a nonzero
    # leading coefficient: the max-entry difference divided by eps settles to
    # a finite limit (ratios within 10% while eps drops 100x).
    mesh = (
        build_box_mesh(2, 1)
        if dim == 2
        else _reference_cell(3)
    )
    rng = np.random.default_rng(6)
    pattern = rng.uniform(-1.0, 1.0, mesh.n_edges)

    rates = []
    for eps in (1e-2, 1e-3, 1e-4):
        circ = EdgeCirculation(mesh, eps * pattern)
        k_cov = covariant_stiffness(transports(circ)).to_csr().toarray()
        k_std = standard_galerkin(circ)[0].to_csr().toarray()
        rates.append(np.max(np.abs(k_cov - k_std)) / eps)
    assert rates[0] > 0.0
    assert abs(rates[1] / rates[0] - 1.0) < 0.1
    assert abs(rates[2] / rates[1] - 1.0) < 0.1


# ---------------------------------------------------------------------------
# HermitianSparse bookkeeping


def test_hermitian_sparse_restrict():
    # eliminate_dirichlet takes the principal submatrix on the interior
    # vertices, here of a dense random Hermitian matrix
    mesh = build_box_mesh(2, 3)
    rng = np.random.default_rng(23)
    n = mesh.n_vertices
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = HermitianSparse(sparse.csr_matrix(f + f.conj().T))
    keep = np.flatnonzero(~mesh.boundary_vertex)
    sub = eliminate_dirichlet(h, ~mesh.boundary_vertex)
    assert np.array_equal(sub.to_csr().toarray(), h.to_csr().toarray()[np.ix_(keep, keep)])


def test_export_matrix_writes_the_upper_triangle_row_major(tmp_path):
    mesh = perturbed_box_mesh(2, 4, seed=14)
    circ = circulate(GaugeFieldSpec((0.2, 0.1), (0.0, 0.0, 3.0)), mesh)
    h = covariant_stiffness(transports(circ), np.linspace(-1.0, 1.0, mesh.n_vertices))
    path = tmp_path / "stiffness.txt"
    export_matrix(h, path)
    header, *lines = path.read_text().splitlines()
    assert header == f"{h.n} {h.nnz}"
    assert len(lines) == h.nnz
    rows, cols = np.array([line.split()[:2] for line in lines], dtype=np.int64).T
    assert np.all(rows <= cols)
    # row-major: rows ascending, columns ascending within a row
    assert np.all(np.diff(rows * h.n + cols) > 0)
    values = [complex(float(part[2]), float(part[3])) for part in map(str.split, lines)]
    assert np.array_equal(values, h.to_csr().toarray()[rows, cols])


# ---------------------------------------------------------------------------
# Dirichlet elimination and problem assembly


def test_eliminate_dirichlet_single_interior_vertex():
    mesh = build_box_mesh(3, 2)  # 27 vertices, 1 interior
    n = mesh.n_vertices
    eye = HermitianSparse(sparse.identity(n, format="csr", dtype=complex))
    reduced = eliminate_dirichlet(eye, ~mesh.boundary_vertex)
    assert reduced.n == 1
    assert np.allclose(reduced.to_csr().toarray(), [[1.0]], atol=0)


def test_eliminate_dirichlet_no_interior():
    mesh = build_box_mesh(3, 1)
    eye = HermitianSparse(
        sparse.identity(mesh.n_vertices, format="csr", dtype=complex)
    )
    with pytest.raises(EmptyProblemError):
        eliminate_dirichlet(eye, ~mesh.boundary_vertex)


def test_eliminate_dirichlet_preserves_interior_quadratic_form():
    mesh = build_box_mesh(2, 3)
    circ = circulate(GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    k = covariant_stiffness(transports(circ))
    reduced = eliminate_dirichlet(k, ~mesh.boundary_vertex)
    assert reduced.n == int((~mesh.boundary_vertex).sum())
    dense = reduced.to_csr().toarray()
    assert np.array_equal(dense, dense.conj().T)

    rng = np.random.default_rng(4)
    interior = np.flatnonzero(~mesh.boundary_vertex)
    u = np.zeros(mesh.n_vertices, dtype=np.complex128)
    u[interior] = rng.standard_normal(interior.size) + 1j * rng.standard_normal(
        interior.size
    )
    full_form = np.vdot(u, k.to_csr().toarray() @ u)
    reduced_form = np.vdot(u[interior], dense @ u[interior])
    assert reduced_form == pytest.approx(full_form, rel=1e-13)


def test_eliminate_dirichlet_rejects_other_sizes():
    mesh = build_box_mesh(2, 2)
    for size in (2 * mesh.n_vertices, 3 * mesh.n_vertices):
        eye = HermitianSparse(sparse.identity(size, format="csr", dtype=complex))
        with pytest.raises(ValueError):
            eliminate_dirichlet(eye, ~mesh.boundary_vertex)


def test_assemble_scalar_problem_shapes():
    mesh = build_box_mesh(2, 4)
    circ = circulate(GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    problem = assemble_scalar_problem(circ)
    n_int = int((~mesh.boundary_vertex).sum())
    assert problem.n == problem.stiffness.n == n_int
    assert problem.mass.n == n_int
    assert type(problem.mass_floor) is float
    assert np.array_equal(problem.interior, ~mesh.boundary_vertex)

    # an all-zero potential is the same as none
    zero_v = assemble_scalar_problem(circ, potential=np.zeros(mesh.n_vertices))
    assert np.array_equal(zero_v.stiffness.to_csr().data, problem.stiffness.to_csr().data)

    with_v = assemble_scalar_problem(
        circ, potential=np.full(mesh.n_vertices, 1.0)
    )
    # V = 1 adds exactly the (interior-reduced) covariant mass matrix
    diff = with_v.stiffness.to_csr().toarray() - problem.stiffness.to_csr().toarray()
    assert np.allclose(diff, problem.mass.to_csr().toarray(), rtol=0, atol=1e-15)

    baseline = assemble_scalar_problem(circ, method="baseline")
    assert baseline.stiffness.n == n_int
    with pytest.raises(ValueError):
        assemble_scalar_problem(circ, method="lumped")


def test_export_matrix_round_trip(tmp_path):
    mesh = build_box_mesh(2, 2)
    circ = circulate(GaugeFieldSpec([0.2, 0.1], [0.0, 0.0, 1.0]), mesh)
    h = covariant_mass(transports(circ))
    path = tmp_path / "mass.txt"
    export_matrix(h, path)

    lines = path.read_text().strip().split("\n")
    n, nnz = (int(tok) for tok in lines[0].split())
    assert n == h.n
    assert nnz == h.nnz
    assert len(lines) == 1 + nnz

    back = np.zeros((n, n), dtype=np.complex128)
    for line in lines[1:]:
        r, c, re, im = line.split()
        r, c = int(r), int(c)
        assert r <= c
        back[r, c] = float(re) + 1j * float(im)
    full = back + back.conj().T - np.diag(np.diag(back))
    assert np.array_equal(full, h.to_csr().toarray())  # repr precision is exact


def _weyl_floor(u):
    """Weyl's 1 - delta_T for (nc, m, m) cell blocks u: delta_T =
    ||U_T - J||_F in the tree gauge at the first vertex, where the entries
    are U_0x U_xy U_y0."""
    return 1.0 - np.linalg.norm(u[:, 0, :, None] * u * u[:, None, :, 0] - 1.0, axis=(1, 2))


@settings(max_examples=12, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(2, 4),
    mesh_seed=st.integers(0, 2**16),
    b=st.tuples(*[st.floats(-90.0, 90.0)] * 3),
    gauge_seed=st.integers(0, 2**16),
)
# 3D fields that give every cell, some cells and no cell a negative Weyl
# floor; the middle one also leaves cells with 1 - delta_T in [0, 0.5) and
# above 0.5; 2D fields that give every triangle and half the triangles one
@example(dim=3, n=3, mesh_seed=5, b=(0.3, 0.2, 1.0), gauge_seed=6)
@example(dim=3, n=3, mesh_seed=7, b=(3.0, -2.0, 8.0), gauge_seed=8)
@example(dim=3, n=2, mesh_seed=9, b=(60.0, -40.0, 90.0), gauge_seed=10)
@example(dim=2, n=2, mesh_seed=1, b=(0.0, 0.0, 10.0), gauge_seed=2)
@example(dim=2, n=3, mesh_seed=1, b=(0.0, 0.0, 13.0), gauge_seed=3)
def test_mass_floor_certifies_the_mass(dim, n, mesh_seed, b, gauge_seed):
    mesh = perturbed_box_mesh(dim, n, mesh_seed)
    b = (0.0, 0.0, b[2]) if dim == 2 else b
    circ = circulate(GaugeFieldSpec((0.3,) * dim, b), mesh)
    table = transports(circ)
    floor = covariant_stiffness(table, with_mass=True)[2]
    m = covariant_mass(table).to_csr().toarray()
    scale = np.abs(m).max()

    def cell_sum(per_cell):
        out = np.zeros(mesh.n_vertices)
        np.add.at(out, mesh.cells, (mesh.volumes * per_cell)[:, None])
        return out / ((dim + 1) * (dim + 2))

    # f_v sums a lower bound on lambda_min(I + U_T) over the cells around v:
    # Weyl's 1 - delta_T where it is nonnegative, and the exact value on the
    # cells where it is negative
    u = cell_blocks(table, np.conj, 1.0)
    exact = np.linalg.eigvalsh(np.eye(dim + 1) + u)[:, 0]
    weyl = _weyl_floor(u)
    assert np.all(weyl <= exact + 1e-13)
    margin = 8 * (dim + 1) * (dim + 2) * np.finfo(float).eps
    expected = np.where(weyl < margin, exact, weyl)
    assert np.allclose(floor, cell_sum(expected), rtol=0, atol=1e-13 * scale)
    assert np.all(floor <= cell_sum(exact) + 1e-13 * scale)
    # M - diag(f) is PSD, whatever the sign of f
    assert np.linalg.eigvalsh(m - np.diag(floor))[0] >= -1e-13 * scale

    problem = assemble_scalar_problem(circ)
    for mass, mu in ((m, floor.min()), (problem.mass.to_csr().toarray(),
                                        problem.mass_floor)):
        if mu > 0.0:
            np.linalg.cholesky(mass)
            assert np.linalg.eigvalsh(mass)[0] >= mu * (1.0 - 1e-12)

    gauged = apply_gauge_to_circulation(circ, random_gauge(mesh, np.pi, gauge_seed))
    moved = covariant_stiffness(transports(gauged), with_mass=True)[2]
    assert np.allclose(moved, floor, rtol=0, atol=1e-13 * scale)

    # the plain P1 mass: every cell block has lambda_min = vol / ((d+1)(d+2))
    plain = covariant_stiffness(unit_transports(mesh), with_mass=True)[2]
    assert plain.min() > 0.0
    assert np.allclose(plain, cell_sum(np.ones(mesh.n_cells)), rtol=1e-13, atol=0)


def test_eigvalsh_takes_exactly_the_cells_weyl_leaves_uncertified(monkeypatch):
    # random circulations put the cells of this 3D box and this 2D box in all
    # three bands of 1 - delta_T: negative, in [0, 0.5) and above 0.5; in
    # either dimension only a negative Weyl floor needs the exact
    # lambda_min(I + U_T)
    for dim, n, amplitude in ((3, 4, 0.3), (2, 6, 0.6)):
        mesh = perturbed_box_mesh(dim, n, seed=3)
        rng = np.random.default_rng(3)
        circulations = rng.uniform(-amplitude, amplitude, mesh.n_edges)
        table = transports(EdgeCirculation(mesh, circulations))
        u = cell_blocks(table, np.conj, 1.0)
        weyl = _weyl_floor(u)
        low = weyl < 0.0
        assert np.any(low) and np.any((weyl >= 0.0) & (weyl < 0.5)) and np.any(weyl >= 0.5)

        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        covariant_mass(table)
        monkeypatch.undo()
        assert np.array_equal(np.concatenate(calls), np.eye(dim + 1) + u[low])


def _lowest_eigenvalue(problem):
    h, m = problem.stiffness.to_csr().toarray(), problem.mass.to_csr().toarray()
    return scipy.linalg.eigh(h, m, eigvals_only=True, subset_by_index=[0, 0])[0]


@settings(max_examples=16, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(2, 4),
    mesh_seed=st.integers(0, 2**16),
    b=st.tuples(*[st.floats(-60.0, 60.0)] * 3),
    depth=st.floats(1.0, 200.0),
    bias=st.floats(-1.0, 1.0),
    gauge_seed=st.integers(0, 2**16),
)
# weak and medium fields under a deep random-sign potential, and a field
# strong enough that the certificate fails
@example(dim=2, n=4, mesh_seed=1, b=(0.0, 0.0, 0.5), depth=200.0, bias=-0.5,
         gauge_seed=2)
@example(dim=3, n=3, mesh_seed=3, b=(1.5, -1.0, 4.0), depth=150.0, bias=0.0,
         gauge_seed=4)
@example(dim=3, n=2, mesh_seed=5, b=(60.0, -40.0, 50.0), depth=80.0, bias=0.2,
         gauge_seed=6)
def test_spectrum_floor_bounds_the_lowest_eigenvalue(dim, n, mesh_seed, b, depth,
                                                    bias, gauge_seed):
    mesh = perturbed_box_mesh(dim, 2 * n if dim == 2 else n, mesh_seed)
    b = (0.0, 0.0, b[2]) if dim == 2 else b
    rng = np.random.default_rng(mesh_seed)
    potential = depth * (rng.uniform(-1.0, 1.0, mesh.n_vertices) + bias)
    v_min = min(0.0, potential.min())
    circ = circulate(GaugeFieldSpec((0.3,) * dim, b), mesh)
    problem = assemble_scalar_problem(circ, potential)
    s = problem.spectrum_floor
    assert s <= v_min
    if np.isfinite(s):
        assert problem.mass_floor > 0.0
        assert s <= _lowest_eigenvalue(problem)

    # gauge invariant, to roundoff on the scale of the potential
    gauged = apply_gauge_to_circulation(circ, random_gauge(mesh, np.pi, gauge_seed))
    moved = assemble_scalar_problem(gauged, potential).spectrum_floor
    if np.isfinite(s):
        assert abs(moved - s) <= 1e-12 * max(abs(s), np.abs(potential).max())
    else:
        assert moved == -np.inf

    # U = 1 exactly: no deficit, s = v_min
    flat = GaugeFieldSpec((0.0,) * dim, (0.0, 0.0, 0.0))
    zero_field = assemble_scalar_problem(circulate(flat, mesh), potential)
    assert zero_field.spectrum_floor == v_min
    assert v_min <= _lowest_eigenvalue(zero_field)


def test_spectrum_floor_is_minus_infinity_without_a_certificate():
    # flux pi through every triangle of the 2D box: lambda_min(I + U_T) = 0,
    # and the certificate rounds below it; in 3D, B = 100 on the n=4 cube
    # leaves no vertex with a positive mass floor
    rng = np.random.default_rng(70)
    for dim, n, b in ((2, 6, (0.0, 0.0, 2.0 * np.pi * 36)), (3, 4, (0.0, 0.0, 100.0))):
        mesh = build_box_mesh(dim, n)
        potential = rng.uniform(-50.0, 50.0, mesh.n_vertices)
        circ = circulate(GaugeFieldSpec((0.0,) * dim, b), mesh)
        assert assemble_scalar_problem(circ, potential).spectrum_floor == -np.inf
        assert assemble_scalar_problem(circ).spectrum_floor == -np.inf
    # the baseline on the last (3D) problem: its kinetic form is PSD on every
    # cell and its mass plain P1, so s = v_min where the covariant one fails
    baseline = assemble_scalar_problem(circ, potential, method="baseline")
    assert baseline.spectrum_floor == min(0.0, potential.min())
