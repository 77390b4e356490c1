"""Gauge potentials, edge circulations, parallel transports and gauge maps.

The continuum data is a vector potential A; the discretization keeps only its
circulations A_ij = integral of A along the edge (i -> j), which are exactly
the degrees of freedom of the lowest-order edge (Whitney 1-form) space.  The
corresponding parallel transports U_ij = exp(i A_ij) are the unitary link
variables the covariant assembly consumes.

A discrete gauge transform is a vertex field alpha; it shifts circulations by
finite differences, A'_ij = A_ij - (alpha_j - alpha_i), and rotates states by
u_j -> exp(i alpha_j) u_j.  Everything downstream is built so that this pair
of substitutions conjugates the assembled matrices exactly.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import CELL_PAIRS

__all__ = [
    "UNIT_MODULUS_TOL",
    "TransportConsistencyError",
    "GaugeFieldSpec",
    "EdgeCirculation",
    "TransportTable",
    "GaugeTransform",
    "circulate",
    "transports",
    "unit_transports",
    "apply_gauge_to_circulation",
    "apply_gauge_to_state",
    "random_gauge",
]

UNIT_MODULUS_TOL = 1e-14


class TransportConsistencyError(ValueError):
    """An edge table does not cover the edges a computation needs."""


@dataclass
class GaugeFieldSpec:
    """Uniform-field potential A(x) = a0 + (1/2) B x x.

    In 2D only the out-of-plane component b3 acts and
    A(x) = a0 + (b3/2) (-x2, x1).  This family is closed under the exactness
    properties used downstream: straight-edge midpoint circulation is exact,
    and the Whitney interpolant of A reproduces A itself.

    Parameters
    ----------
    a0 : sequence of float
        Constant offset, length 2 or 3 (fixes the dimension).
    b : sequence of float
        Magnetic field (b1, b2, b3); in 2D b1 = b2 = 0 is required.
    """

    a0: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a0 = np.asarray(self.a0, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a0.shape not in ((2,), (3,)):
            raise ValueError("a0 must have 2 or 3 components")
        if self.b.shape != (3,):
            raise ValueError("b must have 3 components")
        if not (np.all(np.isfinite(self.a0)) and np.all(np.isfinite(self.b))):
            raise ValueError("field components must be finite")
        if self.dim == 2 and (self.b[0] != 0.0 or self.b[1] != 0.0):
            raise ValueError("in 2D the field must be out of plane: b1 = b2 = 0")

    @property
    def dim(self):
        return self.a0.shape[0]

    def evaluate(self, points):
        """A at one point or a batch of points, shape (..., dim)."""
        points = np.asarray(points, dtype=np.float64)
        if points.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} components")
        if self.dim == 3:
            return self.a0 + 0.5 * np.cross(np.broadcast_to(self.b, points.shape), points)
        out = np.empty_like(points)
        out[..., 0] = self.a0[0] - 0.5 * self.b[2] * points[..., 1]
        out[..., 1] = self.a0[1] + 0.5 * self.b[2] * points[..., 0]
        return out


class _EdgeTable:
    """Shared machinery: values attached to canonically oriented edges.

    Cells read their edge values through the mesh's cell -> edge incidence.
    Mesh cells list their vertices in ascending order, so a pair x < y of a
    cell reads the stored value, y -> x reads it through the subclass's
    orientation rule ``_reverse``, and a vertex reads ``_diagonal`` against
    itself.
    """

    def __init__(self, n_vertices, edges, values):
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (ne, 2)")
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge vertex index out of range")
        if np.any(edges[:, 0] >= edges[:, 1]):
            raise ValueError("edges must be stored lower index first")
        values = np.asarray(values)
        if values.shape != (edges.shape[0],):
            raise ValueError("one value per edge required")
        keys = edges[:, 0] * n_vertices + edges[:, 1]
        if np.any(np.diff(keys) <= 0):
            raise ValueError("edges must be sorted lexicographically and unique")
        self.n_vertices = int(n_vertices)
        self.edges = edges
        self.values = values

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def check_mesh(self, mesh):
        """Raise TransportConsistencyError unless the table is on the mesh's
        edge set, so that ``values[mesh.cell_edges]`` are the cells' values."""
        if self.n_vertices != mesh.n_vertices or not np.array_equal(
            self.edges, mesh.edges
        ):
            raise TransportConsistencyError(
                f"{type(self).__name__} does not match the mesh edge set"
            )

    def local_values(self, mesh, rows):
        """(nc, m, m) array of the values along x -> y between the vertices
        of each cell of ``mesh.cells[rows]`` (``rows`` a slice).

        Raises TransportConsistencyError if the table is not on the mesh's
        edge set.
        """
        self.check_mesh(mesh)
        m = mesh.dim + 1
        a, b = CELL_PAIRS[m]
        val = self.values[mesh.cell_edges[rows]]
        out = np.full((val.shape[0], m, m), self._diagonal, dtype=val.dtype)
        out[:, a, b] = val
        out[:, b, a] = self._reverse(val)
        return out


class EdgeCirculation(_EdgeTable):
    """Real circulations A_ij on canonical edges (i < j), antisymmetric.

    A_ji = -A_ij; A_ii = 0.
    """

    _reverse = np.negative
    _diagonal = 0.0

    def __init__(self, n_vertices, edges, values):
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("circulations must be finite")
        super().__init__(n_vertices, edges, values)


class TransportTable(_EdgeTable):
    """Unit-modulus parallel transports U_ij on canonical edges (i < j).

    U_ji = conj(U_ij) and U_ii = 1.  Moduli are checked against 1 with
    tolerance ``UNIT_MODULUS_TOL`` at construction.
    """

    _reverse = np.conj
    _diagonal = 1.0

    def __init__(self, n_vertices, edges, values):
        values = np.asarray(values, dtype=np.complex128)
        if not np.all(np.isfinite(values)):
            raise ValueError("transports must be finite")
        drift = np.abs(np.abs(values) - 1.0)
        if values.size and drift.max() > UNIT_MODULUS_TOL:
            raise ValueError(
                f"transport modulus drifts from 1 by {drift.max():.3e}"
            )
        super().__init__(n_vertices, edges, values)


@dataclass
class GaugeTransform:
    """Vertex phase field alpha defining the discrete gauge map."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.ndim != 1:
            raise ValueError("alpha must be a flat per-vertex array")
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("alpha must be finite")


def circulate(spec, mesh):
    """Edge circulations of a uniform-field potential on a mesh.

    The potential is affine along each straight edge, so the midpoint rule
    A(midpoint) . (x_j - x_i) integrates it exactly.
    """
    if spec.dim != mesh.dim:
        raise ValueError(
            f"field is {spec.dim}-dimensional but mesh is {mesh.dim}-dimensional"
        )
    vi = mesh.vertices[mesh.edges[:, 0]]
    vj = mesh.vertices[mesh.edges[:, 1]]
    mid = 0.5 * (vi + vj)
    values = np.einsum("ed,ed->e", spec.evaluate(mid), vj - vi)
    return EdgeCirculation(mesh.n_vertices, mesh.edges, values)


def transports(circulation):
    """Parallel transports U_ij = exp(i A_ij) of a circulation table."""
    return TransportTable(
        circulation.n_vertices,
        circulation.edges,
        np.exp(1j * circulation.values),
    )


def unit_transports(mesh):
    """The trivial table U = 1 on every edge (zero potential)."""
    return TransportTable(
        mesh.n_vertices, mesh.edges, np.ones(mesh.n_edges, dtype=np.complex128)
    )


def apply_gauge_to_circulation(circulation, gauge):
    """Gauge-shifted circulations A'_ij = A_ij - (alpha_j - alpha_i)."""
    alpha = gauge.alpha
    if alpha.shape != (circulation.n_vertices,):
        raise ValueError("gauge transform and circulation sizes differ")
    i = circulation.edges[:, 0]
    j = circulation.edges[:, 1]
    return EdgeCirculation(
        circulation.n_vertices,
        circulation.edges,
        circulation.values - (alpha[j] - alpha[i]),
    )


def apply_gauge_to_state(u, gauge):
    """Pointwise rotation u_x -> exp(i alpha_x) u_x of a vertex state."""
    u = np.asarray(u)
    if u.shape[-1] != gauge.alpha.shape[0]:
        raise ValueError("state and gauge transform sizes differ")
    return np.exp(1j * gauge.alpha) * u


def random_gauge(mesh, amplitude, seed):
    """Uniform random vertex phases alpha_x ~ U[-amplitude, amplitude]."""
    if not 0.0 <= amplitude < np.inf:
        raise ValueError("amplitude must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    return GaugeTransform(rng.uniform(-amplitude, amplitude, mesh.n_vertices))
