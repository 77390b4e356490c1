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
    "MeshGeometryError",
    "SimplicialMesh",
    "make_mesh",
    "build_box_mesh",
    "cell_geometry",
    "cell_volumes",
    "interior_dof_map",
    "write_mesh_file",
    "read_mesh_file",
]

# Absolute tolerance for classifying a vertex as lying on the bounding box.
BOUNDARY_TOL = 1e-12


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
        Triangles or tetrahedra as vertex index tuples.
    edges : (ne, 2) int ndarray
        Every 1-subsimplex exactly once, stored lower index first and
        sorted lexicographically.
    cell_edges : (nc, m(m-1)/2) int ndarray
        Row of ``edges`` joining each vertex pair (a, b), a < b, of each cell
        (m = dim+1 vertices), pairs in ``np.triu_indices(m, 1)`` order.
    boundary_vertex : (nv,) bool ndarray
        True where the vertex lies on the bounding box of the mesh.
    h : float
        Length of the longest edge.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    boundary_vertex: np.ndarray
    h: float

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

    Edges, boundary flags and h are derived.  Cells must reference distinct,
    in-range vertices and span strictly positive volume; the boundary is the
    bounding box of the vertex cloud (coordinates compared with absolute
    tolerance ``BOUNDARY_TOL``).
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
    # distinct vertices within each cell
    sorted_cells = np.sort(cells, axis=1)
    if cells.size and np.any(sorted_cells[:, 1:] == sorted_cells[:, :-1]):
        raise MeshGeometryError("cell with repeated vertex index")
    if cells.shape[0] == 0:
        raise ValueError("mesh needs at least one cell")

    vols = _volumes(dim, vertices, cells)
    if np.any(vols <= 0.0):
        worst = int(np.argmin(vols))
        raise MeshGeometryError(
            f"cell {worst} is degenerate (volume {vols[worst]:.3e})"
        )

    # Key each vertex pair as lo * nv + hi: the sorted unique keys are the
    # lexicographically sorted edges, and the inverse is the incidence.
    a, b = np.triu_indices(dim + 1, 1)
    ends = cells[:, a], cells[:, b]
    keys = np.minimum(*ends) * nv + np.maximum(*ends)
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

    return SimplicialMesh(dim, vertices, cells, edges, cell_edges, boundary, h)


def _volumes(dim, vertices, cells):
    span = vertices[cells[:, 1:]] - vertices[cells[:, :1]]  # (nc, d, d)
    return np.abs(np.linalg.det(span)) / factorial(dim)


def cell_volumes(mesh):
    """Volumes of all cells, shape (nc,)."""
    return _volumes(mesh.dim, mesh.vertices, mesh.cells)


def cell_geometry(mesh, cell_index):
    """Return (volume, vertex coordinates) of one cell."""
    idx = mesh.cells[cell_index]
    coords = mesh.vertices[idx]
    span = coords[1:] - coords[0]
    vol = abs(np.linalg.det(span)) / factorial(mesh.dim)
    return float(vol), coords


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


def write_mesh_file(mesh, path):
    """Write a mesh in the plain-text exchange format.

    Layout: ``dim d`` / ``vertices m`` followed by m coordinate lines /
    ``cells k`` followed by k lines of 0-based vertex indices.  Coordinates
    are written with full repr precision so a round trip is exact.
    """
    lines = [f"dim {mesh.dim}", f"vertices {mesh.n_vertices}"]
    for row in mesh.vertices:
        lines.append(" ".join(repr(float(c)) for c in row))
    lines.append(f"cells {mesh.n_cells}")
    for row in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh_file(path):
    """Read a mesh written by :func:`write_mesh_file` and validate it."""
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def take(expect=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"truncated mesh file {path}")
        tok = tokens[pos]
        pos += 1
        if expect is not None and tok != expect:
            raise ValueError(f"malformed mesh file {path}: expected {expect!r}, got {tok!r}")
        return tok

    take("dim")
    dim = int(take())
    take("vertices")
    nv = int(take())
    vertices = np.empty((nv, dim))
    for i in range(nv):
        for j in range(dim):
            vertices[i, j] = float(take())
    take("cells")
    nc = int(take())
    cells = np.empty((nc, dim + 1), dtype=np.int64)
    for i in range(nc):
        for j in range(dim + 1):
            cells[i, j] = int(take())
    if pos != len(tokens):
        raise ValueError(f"trailing data in mesh file {path}")
    return make_mesh(dim, vertices, cells)
