import dataclasses
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from gaugefem import (
    GaugeFieldSpec,
    MeshGeometryError,
    assemble_scalar_problem,
    build_box_mesh,
    circulate,
    make_mesh,
    reconstruct_field,
    solve_hermitian_gevp,
)

from conftest import perturbed_box_mesh, shuffled_cells
from oracles import delaunay_cloud, ring_disk, structured_box_cells, structured_box_edges


def test_box_mesh_counts_2d():
    mesh = build_box_mesh(2, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert mesh.n_edges == 5


def test_box_mesh_counts_3d():
    mesh = build_box_mesh(3, 1)
    assert mesh.n_vertices == 8
    assert mesh.n_cells == 6
    assert mesh.n_edges == 19

    mesh2 = build_box_mesh(3, 2)
    assert mesh2.n_vertices == 27
    assert mesh2.n_cells == 48


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_edges_match_independent_enumeration(dim, n):
    mesh = build_box_mesh(dim, n)
    got = {(int(i), int(j)) for i, j in mesh.edges}
    assert got == structured_box_edges(dim, n)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_match_walked_kuhn_cells(dim, n):
    mesh = build_box_mesh(dim, n)
    assert np.array_equal(mesh.cells, structured_box_cells(dim, n))


def _assert_cell_edges_join_cell_pairs(mesh):
    pairs = [
        [sorted((int(cell[a]), int(cell[b]))) for a in range(len(cell))
         for b in range(a + 1, len(cell))]
        for cell in mesh.cells
    ]
    assert mesh.cell_edges.shape == (mesh.n_cells, len(pairs[0]))
    assert np.array_equal(mesh.edges[mesh.cell_edges], pairs)


def test_cell_edges_join_cell_pairs():
    for dim in (2, 3):
        _assert_cell_edges_join_cell_pairs(build_box_mesh(dim, 3))
        _assert_cell_edges_join_cell_pairs(perturbed_box_mesh(dim, 3, seed=dim))
    # make_mesh on cells that list their vertices in random order stores
    # them ascending, and derives the same mesh
    for dim in (2, 3):
        mesh = build_box_mesh(dim, 2)
        shuffled = shuffled_cells(mesh, seed=6)
        assert np.all(np.diff(shuffled.cells, axis=1) > 0)
        for name in ("cells", "edges", "cell_edges", "volumes"):
            assert np.array_equal(getattr(shuffled, name), getattr(mesh, name)), name
        _assert_cell_edges_join_cell_pairs(shuffled)


def test_edge_ordering_invariants():
    mesh = build_box_mesh(3, 2)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    keys = mesh.edges[:, 0] * mesh.n_vertices + mesh.edges[:, 1]
    assert np.all(np.diff(keys) > 0)  # sorted and unique


def test_cell_volumes_tile_the_box():
    mesh = build_box_mesh(2, 3)
    assert np.allclose(mesh.volumes.sum(), 1.0, rtol=1e-12, atol=0)

    mesh = build_box_mesh(3, 2, lengths=(1.5, 1.0, 2.0))
    vols = mesh.volumes
    assert np.all(vols > 0)
    assert np.allclose(vols.sum(), 3.0, rtol=1e-12, atol=0)


def test_h_halves_exactly_under_doubling():
    for dim in (2, 3):
        coarse = build_box_mesh(dim, 2)
        fine = build_box_mesh(dim, 4)
        assert fine.h == 0.5 * coarse.h
        assert coarse.h == pytest.approx(np.sqrt(dim) / 2, rel=1e-15)


def test_boundary_classification():
    mesh = build_box_mesh(2, 4)
    assert mesh.n_vertices == 25
    assert int((~mesh.boundary_vertex).sum()) == 9

    mesh = build_box_mesh(3, 2)
    assert int((~mesh.boundary_vertex).sum()) == 1
    center = np.flatnonzero(~mesh.boundary_vertex)[0]
    assert np.allclose(mesh.vertices[center], 0.5)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), npoints=st.integers(5, 60),
       seed=st.integers(0, 2**16))
def test_boundary_of_a_delaunay_cloud_is_its_convex_hull(dim, npoints, seed):
    vertices, cells, on_hull = delaunay_cloud(dim, npoints, seed)
    mesh = make_mesh(dim, vertices, cells)
    assert np.array_equal(mesh.boundary_vertex, on_hull)


def test_disk_boundary_is_the_circle_and_a_pure_gauge_converges_at_second_order():
    # A = a0 is a pure gauge, so the spectrum is the Dirichlet Laplacian's on
    # the disk, j_mk^2: j_01, j_11 twice, j_21; the inscribed polygon adds
    # only O(h^2)
    zeros = scipy.special.jn_zeros
    exact = np.array([zeros(0, 1)[0], zeros(1, 1)[0], zeros(1, 1)[0], zeros(2, 1)[0]])**2
    spec = GaugeFieldSpec((0.3, -0.2), (0.0, 0.0, 0.0))
    errors = []
    for h in (0.1, 0.05, 0.025):
        vertices, cells, on_circle = ring_disk(h)
        mesh = make_mesh(2, vertices, cells)
        assert np.array_equal(mesh.boundary_vertex, on_circle)
        problem = assemble_scalar_problem(circulate(spec, mesh))
        eigenvalues = solve_hermitian_gevp(problem, k=4).eigenvalues
        errors.append(np.abs(eigenvalues - exact) / exact)
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((orders >= 1.9) & (orders <= 2.1)), orders


def test_interior_mask_is_the_non_boundary_vertices():
    for dim, n in ((2, 4), (3, 3)):
        mesh = build_box_mesh(dim, n)
        spec = GaugeFieldSpec((0.0,) * dim, (0.0, 0.0, 1.0))
        problem = assemble_scalar_problem(circulate(spec, mesh))
        assert problem.interior.dtype == bool
        assert np.array_equal(problem.interior, ~mesh.boundary_vertex)
        assert problem.n == np.count_nonzero(problem.interior) == (n - 1) ** dim
        # DOF i is the i-th interior vertex in ascending vertex order
        dofs = np.arange(1.0, problem.n + 1)
        field = reconstruct_field(dofs, problem.interior)
        assert np.array_equal(np.flatnonzero(field), np.flatnonzero(problem.interior))
        assert np.array_equal(field[problem.interior], dofs)


def test_mesh_volumes_match_cell_volumes():
    mesh = build_box_mesh(3, 1)
    vols = mesh.volumes
    assert vols.shape == (mesh.n_cells,)
    for c in range(mesh.n_cells):
        coords = mesh.vertices[mesh.cells[c]]
        assert vols[c] == pytest.approx(1 / 6, rel=1e-14)
        assert vols[c] == pytest.approx(abs(np.linalg.det(coords[1:] - coords[0])) / 6,
                                        rel=1e-14)


def test_make_mesh_rejects_repeated_vertex():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshGeometryError):
        make_mesh(2, vertices, np.array([[0, 1, 1]]))


def test_make_mesh_rejects_degenerate_cell():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(MeshGeometryError):
        make_mesh(2, vertices, np.array([[0, 1, 2]]))


def test_make_mesh_rejects_a_facet_in_three_cells():
    # a duplicated corner cell puts its boundary edge in two cells and its
    # two inner edges in three
    mesh = build_box_mesh(2, 2)
    with pytest.raises(MeshGeometryError, match="more than two cells"):
        make_mesh(2, mesh.vertices, np.vstack([mesh.cells, mesh.cells[:1]]))


def test_make_mesh_rejects_a_vertex_in_no_cell():
    # a free vertex would become a DOF with a zero mass row
    mesh = build_box_mesh(2, 6)
    free = np.array([[0.51, 0.52]])
    with pytest.raises(MeshGeometryError, match="^vertex 49 lies in no cell$"):
        make_mesh(2, np.vstack([mesh.vertices, free]), mesh.cells)
    # with two free vertices the error names the first
    with pytest.raises(MeshGeometryError, match="^vertex 0 lies in no cell$"):
        make_mesh(2, np.vstack([free, mesh.vertices, free]), mesh.cells + 1)


def test_a_mesh_and_its_arrays_are_read_only():
    # one mesh may be shared by many problems, so nothing may write into it
    for mesh in (build_box_mesh(2, 4), build_box_mesh(3, 2)):
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.5
        for name, value in vars(mesh).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.h = 1.0


def test_make_mesh_leaves_the_callers_arrays_writeable():
    box = build_box_mesh(2, 3)
    vertices, cells = np.array(box.vertices), np.array(box.cells)
    mesh = make_mesh(2, vertices, cells)
    assert vertices.flags.writeable and cells.flags.writeable
    vertices[5] += 0.1  # moves an interior vertex of the caller's copy only
    assert np.array_equal(mesh.vertices, box.vertices)


def test_make_mesh_argument_errors():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    with pytest.raises(ValueError):
        make_mesh(4, vertices, cells)
    with pytest.raises(ValueError):
        make_mesh(2, vertices, np.array([[0, 1, 5]]))  # index out of range
    with pytest.raises(ValueError):
        make_mesh(2, vertices[:, :1], cells)  # wrong coordinate count
    with pytest.raises(ValueError):
        make_mesh(2, vertices, cells[:0])  # no cells


def test_build_box_mesh_argument_errors():
    with pytest.raises(ValueError):
        build_box_mesh(2, 0)
    with pytest.raises(ValueError):
        build_box_mesh(2, 2, lengths=(1.0,))
    with pytest.raises(ValueError):
        build_box_mesh(3, 2, lengths=(1.0, -1.0, 1.0))
    # refused before the grid is spaced, so no RuntimeWarning comes first
    with pytest.raises(ValueError, match="finite and positive"):
        build_box_mesh(2, 4, lengths=(np.inf, 1.0))
    # sides of 1e300 overflow the cell volumes and h, a 1e-300 side the
    # squared gradients: one error, and no RuntimeWarning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lengths in ((1e300, 1e300), (1e-300, 1.0)):
            with pytest.raises(MeshGeometryError, match="overflow"):
                build_box_mesh(2, 4, lengths=lengths)

