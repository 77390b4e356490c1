"""Simplicial meshes in two and three dimensions, and Kuhn meshes of boxes.

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
    "MeshGeometryError",
    "SimplicialMesh",
    "make_mesh",
    "build_box_mesh",
]

# A cell's vertex pairs x < y, ``np.triu_indices(m, 1)``, by vertex count m.
CELL_PAIRS = {m: np.triu_indices(m, 1) for m in (3, 4)}


class MeshGeometryError(ValueError):
    """Raised when a cell is degenerate (zero or negative volume), cells
    overlap, a vertex lies in no cell, or the geometry leaves the
    floating-point range."""


@dataclass(frozen=True)
class SimplicialMesh:
    """Simplicial mesh with derived edge set and boundary classification.

    A mesh is immutable: its fields cannot be reassigned and
    :func:`make_mesh` stores every array read-only, so one mesh can be
    shared by any number of problems.  It holds geometry and topology only:
    how the assembled matrices store their vertex and edge entries is
    :mod:`gaugefem.assembly`'s concern.

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
        True where the vertex lies on a boundary facet: an edge (2D) or a
        triangle (3D) of exactly one cell.
    h : float
        Length of the longest edge.
    volumes : (nc,) float ndarray
        Cell volumes, all strictly positive.
    gradients : (dim, dim+1, nc) float ndarray
        Barycentric gradients, one column per axis and cell vertex:
        ``gradients[i, k]`` is d lambda_k / d x_i on every cell.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_vertex: np.ndarray
    h: float
    volumes: np.ndarray
    gradients: np.ndarray

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

    Edges, boundary flags, h, cell volumes and barycentric gradients are
    derived, and each cell is stored with its vertices in ascending order.
    Every stored array is read-only and the mesh's own: the vertices are
    copied, so the caller's array stays writeable.
    Any simplicial mesh is accepted: cells must reference distinct, in-range
    vertices, span strictly positive volume with finite volumes, h and
    squared barycentric gradients, and meet at most two to a facet; every
    vertex must lie in a cell.  The boundary vertices are those of the
    facets that lie in exactly one cell.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    vertices = np.array(vertices, dtype=np.float64, order="C")
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != dim:
        raise ValueError(f"vertices must have shape (nv, {dim})")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")
    if cells.ndim != 2 or cells.shape[1] != dim + 1:
        raise ValueError(f"cells must have shape (nc, {dim + 1})")
    if cells.shape[0] == 0:
        raise ValueError("mesh needs at least one cell")
    nv = vertices.shape[0]
    if cells.min() < 0 or cells.max() >= nv:
        raise ValueError("cell vertex index out of range")
    # ascending rows, which must hold distinct vertices
    cells = np.sort(cells, axis=1)
    if np.any(cells[:, 1:] == cells[:, :-1]):
        raise MeshGeometryError("cell with repeated vertex index")
    in_cell = np.bincount(cells.ravel(), minlength=nv) > 0
    if not in_cell.all():
        raise MeshGeometryError(f"vertex {int(np.argmin(in_cell))} lies in no cell")

    # Key each vertex pair a < b of a cell as a * nv + b: the sorted unique
    # keys are the lexicographically sorted edges, and the inverse is the
    # incidence.
    a, b = CELL_PAIRS[dim + 1]
    keys = cells[:, a] * nv + cells[:, b]
    keys, cell_edges = np.unique(keys, return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    cell_edges = cell_edges.reshape(cells.shape[0], a.size)

    # overflow shows as a non-finite volume, h or |grad lambda|^2, checked
    # below without a warning
    with np.errstate(all="ignore"):
        det, adj = _span_adjugate(vertices.T[:, cells.T])
        vols = np.abs(det) / factorial(dim)
        if np.any(vols <= 0.0):
            worst = int(np.argmin(vols))
            raise MeshGeometryError(
                f"cell {worst} is degenerate (volume {vols[worst]:.3e})"
            )
        grads = np.empty((dim, dim + 1, cells.shape[0]))
        grads[:, 1:] = adj / det
        grads[:, 0] = -grads[:, 1:].sum(axis=1)  # the partition of unity
        evec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
        h = float(np.sqrt((evec**2).sum(axis=1)).max())
        grad_sq = (grads**2).sum(axis=0)
    if not (np.isfinite(h) and np.isfinite(vols).all() and np.isfinite(grad_sq).all()):
        raise MeshGeometryError("cell volumes, h or |grad lambda|^2 overflow")

    # Boundary facets lie in one cell, inner ones in two.  A facet p < q [< r]
    # is keyed by the CELL_PAIRS columns of its edges (p, q), (p, r); r = q in 2D.
    ne = edges.shape[0]
    pq, pr = ([0, 1, 2], [0, 1, 2]) if dim == 2 else ([0, 0, 1, 3], [1, 2, 2, 4])
    keys, counts = np.unique(cell_edges[:, pq] * ne + cell_edges[:, pr], return_counts=True)
    if counts.max() > 2:
        raise MeshGeometryError("a facet lies in more than two cells: cells overlap")
    outer = keys[counts == 1]
    boundary = np.zeros(nv, dtype=bool)
    boundary[edges[[outer // ne, outer % ne]]] = True

    for array in (vertices, cells, edges, cell_edges, boundary, vols, grads):
        array.setflags(write=False)
    return SimplicialMesh(dim, vertices, cells, edges, cell_edges, boundary, h, vols,
                          grads)


def _span_adjugate(coords):
    """Signed determinant and adjugate of each cell's edge span, in closed form.

    ``coords`` holds per-axis coordinate columns, shape (d, d+1, nc):
    ``coords[i, k]`` is axis i of vertex k of every cell.  With
    e_k = p_k - p_0 the span S has the e_k as columns; row k-1 of S^-1 is
    grad lambda_k, and the returned (d, d, nc) adjugate holds det(S) times it
    at ``[:, k-1]``.  In 3D those rows are the cross products e2 x e3,
    e3 x e1, e1 x e2 and det(S) = e1 . (e2 x e3); in 2D they are
    (e2y, -e2x), (-e1y, e1x).  Products with a zero coordinate stay exact,
    so gradients that are orthogonal in exact arithmetic (the axis-aligned
    Kuhn cells) have an exactly zero dot product.
    """
    e = coords[:, 1:] - coords[:, :1]  # e[i, k-1]: axis i of e_k
    if coords.shape[0] == 3:
        # a x b for the pairs (e2, e3), (e3, e1), (e1, e2), axis by axis
        a, b = e[:, [1, 2, 0]], e[:, [2, 0, 1]]
        adj = a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]
        det = (e[0, 0] * adj[0, 0] + e[2, 0] * adj[2, 0]) + e[1, 0] * adj[1, 0]
    else:
        adj = np.array([[e[1, 1], -e[1, 0]], [-e[0, 1], e[0, 0]]])
        det = e[0, 0] * e[1, 1] - e[1, 0] * e[0, 1]
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
    if not np.all(np.isfinite(lengths) & (lengths > 0.0)):
        raise ValueError("box side lengths must be finite and positive")

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

