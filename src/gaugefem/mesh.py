"""Simplicial meshes of axis-aligned boxes in two and three dimensions.

Boxes are triangulated with the Kuhn (Freudenthal) subdivision: every grid
cell is cut into d! simplices along its main diagonal, one per permutation of
the coordinate axes.  The family is nested under uniform refinement, so the
mesh parameter h exactly halves when the resolution n doubles -- convenient
for convergence studies because log2(e(h)/e(h/2)) is then a clean observed
order.
"""

import itertools

from dataclasses import dataclass
from math import factorial

import numpy as np

__all__ = [
    "BOUNDARY_TOL",
    "CELL_PAIRS",
    "MeshGeometryError",
    "SimplicialMesh",
    "make_mesh",
    "build_box_mesh",
    "interior_dof_map",
]

# Absolute tolerance for classifying a vertex as lying on the bounding box.
BOUNDARY_TOL = 1e-12

# A cell's vertex pairs x < y, ``np.triu_indices(m, 1)``, by vertex count m.
CELL_PAIRS = {m: np.triu_indices(m, 1) for m in (3, 4)}


class MeshGeometryError(ValueError):
    """Raised when a cell is degenerate (zero or negative volume)."""


@dataclass
class SimplicialMesh:
    """Simplicial mesh with derived edge set and boundary classification.

    Attributes
    ----------
    dim : int
        Ambient (and topological) dimension, 2 or 3.
    vertices : (nv, dim) float ndarray
        Vertex coordinates.
    cells : (nc, dim+1) int ndarray
        Triangles or tetrahedra as vertex index tuples, each row in
        ascending vertex order.
    edges : (ne, 2) int ndarray
        Every 1-subsimplex exactly once, stored lower index first and
        sorted lexicographically.
    cell_edges : (nc, m(m-1)/2) int ndarray
        Row of ``edges`` joining each vertex pair (a, b), a < b, of each cell
        (m = dim+1 vertices), pairs in ``CELL_PAIRS[m]`` order; the
        cell rows ascend, so every pair runs along its edge lower index
        first.
    boundary_vertex : (nv,) bool ndarray
        True where the vertex lies on the bounding box of the mesh.
    h : float
        Length of the longest edge.
    volumes : (nc,) float ndarray
        Cell volumes, all strictly positive.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_vertex: np.ndarray
    h: float
    volumes: np.ndarray

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]


def make_mesh(dim, vertices, cells):
    """Build a validated mesh from raw vertex and cell arrays.

    Edges, boundary flags, h and cell volumes are derived, and each cell is
    stored with its vertices in ascending order.  Cells must reference
    distinct, in-range vertices and span strictly positive volume; the
    boundary is the bounding box of the vertex cloud (coordinates compared
    with absolute tolerance ``BOUNDARY_TOL``).
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != dim:
        raise ValueError(f"vertices must have shape (nv, {dim})")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    if cells.ndim != 2 or cells.shape[1] != dim + 1:
        raise ValueError(f"cells must have shape (nc, {dim + 1})")
    nv = vertices.shape[0]
    if cells.size and (cells.min() < 0 or cells.max() >= nv):
        raise ValueError("cell vertex index out of range")
    # ascending rows, which must hold distinct vertices
    cells = np.sort(cells, axis=1)
    if cells.size and np.any(cells[:, 1:] == cells[:, :-1]):
        raise MeshGeometryError("cell with repeated vertex index")
    if cells.shape[0] == 0:
        raise ValueError("mesh needs at least one cell")

    det, _ = _span_adjugate(vertices[cells])
    vols = np.abs(det) / factorial(dim)
    if np.any(vols <= 0.0):
        worst = int(np.argmin(vols))
        raise MeshGeometryError(
            f"cell {worst} is degenerate (volume {vols[worst]:.3e})"
        )

    # Key each vertex pair a < b of a cell as a * nv + b: the sorted unique
    # keys are the lexicographically sorted edges, and the inverse is the
    # incidence.
    a, b = CELL_PAIRS[dim + 1]
    keys = cells[:, a] * nv + cells[:, b]
    keys, cell_edges = np.unique(keys, return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    cell_edges = cell_edges.reshape(cells.shape[0], a.size)
    evec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    h = float(np.sqrt((evec**2).sum(axis=1)).max())

    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    on_face = (np.abs(vertices - lo) <= BOUNDARY_TOL) | (
        np.abs(vertices - hi) <= BOUNDARY_TOL
    )
    boundary = on_face.any(axis=1)

    return SimplicialMesh(dim, vertices, cells, edges, cell_edges, boundary, h, vols)


def _span_adjugate(coords):
    """Signed determinant and adjugate of each cell's edge span, in closed form.

    ``coords`` is (nc, d+1, d).  With e_k = p_k - p_0 the span S has the e_k
    as columns; row k-1 of the returned (nc, d, d) adjugate is det(S) times
    row k-1 of S^-1, which is det(S) grad lambda_k.  In 3D those rows are the
    cross products e2 x e3, e3 x e1, e1 x e2 and det(S) = e1 . (e2 x e3); in
    2D they are (e2y, -e2x), (-e1y, e1x).  Products with a zero coordinate
    stay exact, so gradients that are orthogonal in exact arithmetic (the
    axis-aligned Kuhn cells) have an exactly zero dot product.
    """
    e = coords[:, 1:, :] - coords[:, :1, :]
    if coords.shape[2] == 3:
        adj = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])
        det = np.einsum("ci,ci->c", e[:, 0], adj[:, 0])
    else:
        adj = np.empty_like(e)
        adj[:, 0, 0], adj[:, 0, 1] = e[:, 1, 1], -e[:, 1, 0]
        adj[:, 1, 0], adj[:, 1, 1] = -e[:, 0, 1], e[:, 0, 0]
        det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    return det, adj


def build_box_mesh(dim, n, lengths=None):
    """Kuhn triangulation of the box [0, L1] x ... x [0, Ld].

    The grid has n subdivisions per axis, (n+1)^d vertices, and n^d * d!
    simplices.  Refining n -> 2n nests the mesh and exactly halves h.

    Parameters
    ----------
    dim : int
        2 or 3.
    n : int
        Subdivisions per axis, >= 1.
    lengths : sequence of float, optional
        Box side lengths, default all ones.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if lengths is None:
        lengths = np.ones(dim)
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.shape != (dim,):
        raise ValueError(f"lengths must have {dim} entries")
    if not np.all(lengths > 0.0):
        raise ValueError("box side lengths must be positive")

    axes = [np.linspace(0.0, L, n + 1) for L in lengths]
    grid = np.meshgrid(*axes, indexing="ij")
    vertices = np.stack(grid, axis=-1).reshape(-1, dim)

    # A Kuhn cell walks from a grid corner one axis step at a time, in the
    # order of one axis permutation; in row-major vertex numbering each step
    # adds that axis's stride.  Cells are ordered corner-major, then by
    # permutation in itertools order.
    strides = (n + 1) ** np.arange(dim - 1, -1, -1)
    corners = np.indices((n,) * dim).reshape(dim, -1).T @ strides
    walks = np.array(
        [np.cumsum([0, *strides[list(perm)]])
         for perm in itertools.permutations(range(dim))]
    )
    cells = (corners[:, None, None] + walks[None]).reshape(-1, dim + 1)

    return make_mesh(dim, vertices, cells)


def interior_dof_map(mesh):
    """Contiguous numbering of the interior (non-boundary) vertices.

    Returns an int array of length n_vertices: entry v is the interior index
    of vertex v in ascending vertex order, or -1 if v is on the boundary.
    """
    dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    interior = np.flatnonzero(~mesh.boundary_vertex)
    dof[interior] = np.arange(interior.size)
    return dof
