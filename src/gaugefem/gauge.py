"""Gauge potentials, edge circulations, parallel transports and gauge maps.

The continuum data is a vector potential A; the discretization keeps only its
circulations A_ij = integral of A along the edge (i -> j), which are exactly
the degrees of freedom of the lowest-order edge (Whitney 1-form) space.  The
corresponding parallel transports U_ij = exp(i A_ij) are the unitary link
variables the covariant assembly consumes.

A discrete gauge is a vertex phase array alpha; it shifts circulations by
finite differences, A'_ij = A_ij - (alpha_j - alpha_i), and rotates states by
u_j -> exp(i alpha_j) u_j.  Everything downstream is built so that this pair
of substitutions conjugates the assembled matrices exactly.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaugeFieldSpec",
    "EdgeCirculation",
    "TransportTable",
    "circulate",
    "transports",
    "unit_transports",
    "apply_gauge_to_circulation",
    "random_gauge",
]

UNIT_MODULUS_TOL = 1e-14


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
    """One value per row of ``mesh.edges``, on the mesh it was built for.

    The pair x < y of a cell runs along its edge lower index first (mesh
    cells ascend), so the cell reads the stored values as they are.
    """

    def __init__(self, mesh, values):
        if values.shape != (mesh.n_edges,):
            raise ValueError("one value per mesh edge required")
        self.mesh = mesh
        self.values = values

    @property
    def n_edges(self):
        return self.values.shape[0]

    def local_values(self, rows):
        """Upper columns: row p holds the values along x -> y for pair p of
        ``gaugefem.mesh.CELL_PAIRS[m]`` in each cell of ``self.mesh.cells[rows]``.
        """
        return self.values[self.mesh.cell_edges[rows].T]


class EdgeCirculation(_EdgeTable):
    """Real circulations A_ij on the mesh edges (i < j); A_ji = -A_ij."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("circulations must be finite")
        super().__init__(mesh, values)


class TransportTable(_EdgeTable):
    """Unit-modulus parallel transports U_ij on the mesh edges (i < j);
    U_ji = conj(U_ij).  Moduli are checked against 1 with tolerance
    ``UNIT_MODULUS_TOL`` at construction.
    """

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=np.complex128)
        super().__init__(mesh, values)
        if not np.all(np.isfinite(values)):
            raise ValueError("transports must be finite")
        drift = np.abs(np.abs(values) - 1.0)
        if drift.max() > UNIT_MODULUS_TOL:
            raise ValueError(
                f"transport modulus drifts from 1 by {drift.max():.3e}"
            )


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
    return EdgeCirculation(mesh, values)


def transports(circulation):
    """Parallel transports U_ij = exp(i A_ij) of a circulation table."""
    return TransportTable(circulation.mesh, np.exp(1j * circulation.values))


def unit_transports(mesh):
    """The trivial table U = 1 on every edge (zero potential)."""
    return TransportTable(mesh, np.ones(mesh.n_edges, dtype=np.complex128))


def apply_gauge_to_circulation(circulation, alpha):
    """Gauge-shifted circulations A'_ij = A_ij - (alpha_j - alpha_i) for the
    vertex phases ``alpha``."""
    mesh = circulation.mesh
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (mesh.n_vertices,):
        raise ValueError("gauge needs one phase per vertex")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("gauge phases must be finite")
    i, j = mesh.edges.T
    return EdgeCirculation(mesh, circulation.values - (alpha[j] - alpha[i]))


def random_gauge(mesh, amplitude, seed):
    """Uniform random vertex phases alpha_x ~ U[-amplitude, amplitude]."""
    if not 0.0 <= amplitude <= np.finfo(float).max / 2:
        raise ValueError("amplitude must be nonnegative, with a finite range 2 * amplitude")
    rng = np.random.default_rng(seed)
    return rng.uniform(-amplitude, amplitude, mesh.n_vertices)
