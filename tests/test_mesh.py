import numpy as np
import pytest

from gaugefem import (
    MeshGeometryError,
    build_box_mesh,
    interior_dof_map,
    make_mesh,
)

from conftest import perturbed_box_mesh, shuffled_cells
from oracles import structured_box_cells, structured_box_edges


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
    # make_mesh on cells that list their vertices in random order
    shuffled = shuffled_cells(build_box_mesh(3, 2), seed=6)
    assert np.any(shuffled.cells[:, 0] > shuffled.cells[:, 1])
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


def test_interior_dof_map_is_a_contiguous_bijection():
    mesh = build_box_mesh(2, 4)
    dof = interior_dof_map(mesh)
    assert dof.shape == (mesh.n_vertices,)
    assert np.all(dof[mesh.boundary_vertex] == -1)
    interior = dof[~mesh.boundary_vertex]
    assert np.array_equal(interior, np.arange(interior.size))


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

