"""Galerkin assembly of the covariant (gauge-invariant) forms.

Scalar states are P1 vertex fields.  The covariant bilinear forms weight
every pairing of basis functions at different vertices by the parallel
transport along the connecting edge:

* covariant mass      <u, v>_U  = sum_xy  conj(u_x) M_xy U_xy v_y,
* covariant stiffness a(u, v)   = per-cell sum over vertex pairs (x,y), (z,t)
  of conj(U_xy u_y - u_x) U_xz (U_zt v_t - v_z) (mu_xy . mu_zt) M_xz,

where M is the P1 mass matrix and mu_xy is the basis dual to the tangents
y - x at vertex x.  On a cell that dual basis is mu_xy = grad lambda_y
(grad lambda_y . (p_z - p_x) = delta_yz for y, z != x), and the gradients
sum to zero, so the stiffness of a cell T is the plain P1 stiffness times a
Hadamard factor:

    K_T = (grad lambda_y . grad lambda_t)_yt  o  U_T (M_T o U_T) U_T,

with U_T the transports between the cell's vertices and o the entrywise
product.  Substituting U_xy -> exp(i a_x) U_xy exp(-i a_y) and
u -> exp(i a) u conjugates both matrices by the diagonal phase matrix, which
is what makes the discrete spectra exactly gauge invariant.

A conventional (non-invariant) P1 discretization of |grad u + i A u|^2 with
A interpolated from the same edge circulations is provided as a baseline;
its matrix elements agree with the covariant ones to first order in the
field strength but transform inhomogeneously under gauge maps.

All barycentric integrals use the closed form
    int_T prod_i lambda_i^{a_i} = d! |T| prod_i a_i! / (d + sum_i a_i)!
so no quadrature error enters anywhere in this module.
"""

import itertools

from dataclasses import dataclass, field
from math import factorial
from numbers import Real

import numpy as np
import scipy.sparse as sparse

from .gauge import unit_transports
from .gauge import transports as make_transports
from .mesh import MeshGeometryError, cell_volumes, interior_dof_map

__all__ = [
    "DIAG_IMAG_TOL",
    "EmptyProblemError",
    "HermitianSparse",
    "AssembledProblem",
    "local_mass",
    "covariant_mass",
    "mass_floor",
    "local_covariant_stiffness",
    "covariant_stiffness",
    "potential_matrix",
    "standard_galerkin",
    "eliminate_dirichlet",
    "assemble_scalar_problem",
    "export_matrix",
]

# Assembled diagonals must be real; larger imaginary parts indicate a bug
# upstream rather than roundoff, so they raise instead of being dropped.
DIAG_IMAG_TOL = 1e-13

# Cells per vectorized assembly batch; bounds the cell kernels' scratch arrays.
_CHUNK = 4096


class EmptyProblemError(ValueError):
    """The problem has no degrees of freedom (e.g. no interior vertices)."""


def _triplet_sum(n, parts):
    """CSR sum of (data, rows, cols) triplet parts.

    Unlike a scipy sparse sum, which drops every 0 + 0, this keeps exact
    zeros, so assembled matrices and their sums keep every vertex pair that
    shares a cell in their pattern.
    """
    data, rows, cols = (np.concatenate(p) for p in zip(*parts))
    return sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


class HermitianSparse:
    """Sparse Hermitian matrix stored as its full CSR matrix.

    Construction symmetrizes: the stored entries are (H_xy + conj(H_yx)) / 2,
    so the stored matrix is exactly H = H^dagger.  Diagonal imaginary parts
    beyond ``DIAG_IMAG_TOL`` raise.  Sums, differences, real multiples and
    principal submatrices stay exactly Hermitian, so they are not
    re-symmetrized.
    """

    def __init__(self, n, full):
        self.n = int(n)
        self._full = full.tocsr()
        self._full.sum_duplicates()

    @classmethod
    def from_entries(cls, n, rows, cols, vals):
        """Accumulate duplicate (row, col, value) triplets and symmetrize."""
        full = sparse.coo_matrix(
            (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(n, n)
        ).tocsr()
        return cls.from_csr(full)

    @classmethod
    def from_csr(cls, full):
        n = full.shape[0]
        if full.shape != (n, n):
            raise ValueError("matrix must be square")
        diag_imag = np.abs(full.diagonal().imag)
        if diag_imag.size and diag_imag.max() > DIAG_IMAG_TOL:
            raise ValueError(
                f"diagonal imaginary part {diag_imag.max():.3e} exceeds "
                f"{DIAG_IMAG_TOL:.0e}"
            )
        # each entry plus its mirror: the diagonal becomes exactly real
        coo = sparse.csr_matrix(full, dtype=np.complex128, copy=True).tocoo()
        herm = _triplet_sum(
            n, [(coo.data, coo.row, coo.col), (coo.data.conj(), coo.col, coo.row)]
        )
        return cls(n, herm * 0.5)

    @property
    def nnz(self):
        """Entry count of the upper triangle (what :func:`export_matrix` writes)."""
        full = self._full
        rows = np.repeat(np.arange(self.n), np.diff(full.indptr))
        return int(np.count_nonzero(full.indices >= rows))

    def to_csr(self):
        """Full Hermitian matrix as CSR (the stored matrix; do not modify)."""
        return self._full

    def to_dense(self):
        return self._full.toarray()

    def upper_coo(self):
        """Upper triangle as (rows, cols, values) in row-major order."""
        coo = sparse.triu(self._full, format="csr").tocoo()
        return coo.row, coo.col, coo.data

    def restrict(self, keep):
        """Principal submatrix on the (ascending) index list ``keep``."""
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size and np.any(np.diff(keep) <= 0):
            raise ValueError("keep indices must be strictly ascending")
        return HermitianSparse(keep.size, self._full[keep][:, keep])

    def _combine(self, other, sign):
        if not isinstance(other, HermitianSparse) or other.n != self.n:
            return NotImplemented
        a, b = self._full.tocoo(), other._full.tocoo()
        parts = [(a.data, a.row, a.col), (sign * b.data, b.row, b.col)]
        return HermitianSparse(self.n, _triplet_sum(self.n, parts))

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            raise TypeError("only real scalars keep the matrix Hermitian")
        return HermitianSparse(self.n, self._full * float(scalar))

    __rmul__ = __mul__


@dataclass
class AssembledProblem:
    """Interior-eliminated stiffness/mass pair ready for the eigensolver.

    ``mass_floor`` holds, per interior DOF, the floor f of :func:`mass_floor`
    with ``mass`` - diag(f) PSD; min f > 0 proves ``mass`` positive definite.
    """

    stiffness: HermitianSparse
    mass: HermitianSparse
    dof_map: np.ndarray
    metadata: dict = field(default_factory=dict)
    mass_floor: np.ndarray = None


# ---------------------------------------------------------------------------
# barycentric integral tables


def _pair_factor(dim):
    """int_T lambda_x lambda_y / |T| = (1 + delta_xy) / ((d+1)(d+2))."""
    m = dim + 1
    c = np.full((m, m), 1.0)
    np.fill_diagonal(c, 2.0)
    return c / ((dim + 1) * (dim + 2))


def _monomial_table(dim, arity):
    """int_T lambda_{i1} ... lambda_{i_arity} / |T| for all index tuples."""
    m = dim + 1
    out = np.empty((m,) * arity)
    for idx in itertools.product(range(m), repeat=arity):
        mult = 1
        for v in set(idx):
            mult *= factorial(idx.count(v))
        out[idx] = factorial(dim) * mult / factorial(dim + arity)
    return out


def local_mass(volume, dim):
    """P1 mass matrix of one cell: volume * (1 + delta_xy) / ((d+1)(d+2))."""
    if volume <= 0:
        raise MeshGeometryError(f"cell volume must be positive, got {volume}")
    return volume * _pair_factor(dim)


# ---------------------------------------------------------------------------
# geometry kernels


def _barycentric_gradients(coords):
    """Gradients of the barycentric coordinates, shape (nc, m, d).

    Rows k >= 1 of the inverse of the span matrix [p_k - p_0] are grad
    lambda_k; grad lambda_0 closes the partition of unity.
    """
    nc, m, d = coords.shape
    span = (coords[:, 1:, :] - coords[:, :1, :]).transpose(0, 2, 1)  # columns
    det = np.linalg.det(span)
    if np.any(np.abs(det) == 0.0):
        raise MeshGeometryError("degenerate cell: singular coordinate span")
    inv = np.linalg.inv(span)
    grads = np.empty((nc, m, d))
    grads[:, 1:, :] = inv
    grads[:, 0, :] = -inv.sum(axis=1)
    return grads


def _assemble(mesh, table, kernel):
    """Sum per-cell matrices into one HermitianSparse over all vertices.

    ``kernel(rows, local)`` returns the (chunk, m, m) cell matrices of the
    cells ``mesh.cells[rows]``, given ``local = table.local_values(mesh,
    rows)``; chunks of ``_CHUNK`` cells bound its scratch arrays.
    """
    cells = mesh.cells
    m = cells.shape[1]
    local = np.empty((mesh.n_cells, m, m), dtype=np.complex128)
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        local[rows] = kernel(rows, table.local_values(mesh, rows))
    return HermitianSparse.from_entries(
        mesh.n_vertices,
        np.repeat(cells, m, axis=1).ravel(),
        np.tile(cells, (1, m)).ravel(),
        local.ravel(),
    )


# ---------------------------------------------------------------------------
# covariant forms


def covariant_mass(mesh, transports):
    """Transport-weighted mass matrix, entries M_xy U_xy.

    Reduces to the classical P1 mass matrix when U = 1 and is Hermitian by
    the reversal symmetry U_yx = conj(U_xy).
    """
    mass = cell_volumes(mesh)[:, None, None] * _pair_factor(mesh.dim)
    return _assemble(mesh, transports, lambda rows, u: mass[rows] * u)


def mass_floor(mesh, transports=None):
    """Per-vertex floor f of the (covariant) mass matrix: M - diag(f) is PSD.

    M is a sum of cell blocks B_T = vol_T (I + U_T) / ((d+1)(d+2)), with U_T
    the transports between the cell's vertices (all ones for the plain P1
    mass, ``transports=None``).  Each block dominates lambda_min(B_T) times
    the identity on its cell's vertices, so summing gives M >= diag(f) with
    f_v the sum of lambda_min(B_T) over the cells around v, whatever their
    signs.  So min f > 0 proves M positive definite with lambda_min(M) >=
    min f, and the Dirichlet-reduced mass, a principal submatrix, is bounded
    by f on the kept vertices.  A gauge change conjugates each U_T by a
    diagonal unitary, so f is gauge invariant.  The bound is sufficient, not
    necessary: f_v <= 0 where the cells around v have lambda_min(I + U_T)
    <= 0 (in 2D: flux pi through each of them) or where v is in no cell.
    """
    m = mesh.dim + 1
    lam = np.ones(mesh.n_cells)
    if transports is not None:
        eye = np.eye(m)
        for lo in range(0, mesh.n_cells, _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            u = transports.local_values(mesh, rows)
            if m == 3:
                # I + U_T has the eigenvalues 2 + 2 cos((phi + 2 pi j) / 3),
                # j = 0, 1, 2, for the cell holonomy phi in [-pi, pi]; the
                # smallest is 2 + 2 cos((2 pi + |phi|) / 3)
                phi = np.abs(np.angle(u[:, 0, 1] * u[:, 1, 2] * u[:, 2, 0]))
                lam[rows] = 2.0 + 2.0 * np.cos((2.0 * np.pi + phi) / 3.0)
            else:
                lam[rows] = np.linalg.eigvalsh(eye + u)[:, 0]
        # both err by a small multiple of m eps ||I + U_T||_2, and the norm
        # is at most m + 1
        lam -= 8 * m * (m + 1) * np.finfo(float).eps
    per_cell = cell_volumes(mesh) * lam / (m * (m + 1))
    return np.bincount(mesh.cells.ravel(), weights=np.repeat(per_cell, m),
                       minlength=mesh.n_vertices)


def _covariant_stiffness_local(coords, u_loc, vols):
    """Covariant stiffness matrices of a batch of cells.

    With mu_xy = grad lambda_y the quadratic form of the module docstring
    sums to (grad lambda_y . grad lambda_t) [U (M o U) U]_yt, by
    U_xy = conj(U_yx) and sum_y grad lambda_y = 0 (which drops the -u_x and
    -v_z terms).
    """
    grads = _barycentric_gradients(coords)
    mass = vols[:, None, None] * _pair_factor(coords.shape[1] - 1)
    geo = np.einsum("cji,cli->cjl", grads, grads)
    return geo * (u_loc @ (mass * u_loc) @ u_loc)


def local_covariant_stiffness(coords, transports_local):
    """Covariant stiffness matrix of a single cell.

    Parameters
    ----------
    coords : (d+1, d) array
        Cell vertex coordinates.
    transports_local : (d+1, d+1) complex array
        Transports between the cell's vertices: Hermitian (U_yx =
        conj(U_xy)) with ones on the diagonal, which the Hadamard form of
        the stiffness relies on.
    """
    coords = np.asarray(coords, dtype=np.float64)
    m, d = coords.shape
    if m != d + 1:
        raise ValueError("coords must be (d+1, d)")
    u_loc = np.asarray(transports_local, dtype=np.complex128)
    if u_loc.shape != (m, m):
        raise ValueError("transports_local must be (d+1, d+1)")
    if not (np.allclose(u_loc, u_loc.conj().T) and np.allclose(np.diag(u_loc), 1.0)):
        raise ValueError("transports_local must be Hermitian with a unit diagonal")
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / factorial(d)
    if vol == 0.0:
        raise MeshGeometryError("degenerate cell: zero volume")
    return _covariant_stiffness_local(coords[None], u_loc[None], np.asarray([vol]))[0]


def covariant_stiffness(mesh, transports):
    """Assembled covariant stiffness matrix on all vertices."""
    vols = cell_volumes(mesh)
    coords = mesh.vertices[mesh.cells]
    return _assemble(
        mesh, transports,
        lambda rows, u: _covariant_stiffness_local(coords[rows], u, vols[rows]),
    )


def potential_matrix(mesh, transports, values):
    """Transport-weighted scalar potential term.

    The potential is the P1 interpolant of its vertex samples ``values``;
    entries are sum_z V_z (int_T lambda_x lambda_y lambda_z) U_xy, with the
    cubic integrals evaluated exactly.  For constant V and U = 1 this is
    exactly V times the mass matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("potential needs one sample per vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("potential samples must be finite")
    weights = np.einsum("cz,xyz->cxy", values[mesh.cells], _monomial_table(mesh.dim, 3))
    weights *= cell_volumes(mesh)[:, None, None]
    return _assemble(mesh, transports, lambda rows, u: weights[rows] * u)


# ---------------------------------------------------------------------------
# conventional baseline


def standard_galerkin(mesh, circulation):
    """Conventional P1 pair (stiffness, mass) for |grad u + i A u|^2.

    A is the Whitney 1-form interpolant of the edge circulations, which on a
    cell is A = sum_m lambda_m w_m with w_m = sum_b A_mb grad lambda_b.  The
    quadratic |A|^2 term makes the integrand quartic in the barycentric
    coordinates; everything is integrated exactly.  This discretization is
    consistent but NOT gauge invariant: discrete gauge maps do not conjugate
    it, which is the behaviour the covariant assembly exists to fix.
    """
    vols = cell_volumes(mesh)
    coords = mesh.vertices[mesh.cells]
    pair = _pair_factor(mesh.dim)
    quartic = _monomial_table(mesh.dim, 4)

    def kernel(rows, a_loc):
        v = vols[rows, None, None]
        grads = _barycentric_gradients(coords[rows])
        w = np.einsum("cmb,cbi->cmi", a_loc, grads)
        gw = np.einsum("cxi,cmi->cxm", grads, w)
        pm = pair[None] * v  # int lambda_y lambda_m
        local = (np.einsum("cxi,cyi->cxy", grads, grads) * v).astype(np.complex128)
        local += 1j * np.einsum("cxm,cym->cxy", gw, pm)
        local -= 1j * np.einsum("cym,cxm->cxy", gw, pm)
        local += np.einsum("cmi,cli,xyml->cxy", w, w, quartic) * v
        return local

    stiffness = _assemble(mesh, circulation, kernel)
    return stiffness, covariant_mass(mesh, unit_transports(mesh))


# ---------------------------------------------------------------------------
# boundary conditions and problem assembly


def eliminate_dirichlet(matrix, dof_map):
    """Drop boundary rows/columns (homogeneous Dirichlet condition).

    ``dof_map`` is the vertex -> interior-index array from
    :func:`gaugefem.mesh.interior_dof_map`; ``matrix`` has one row per vertex.
    """
    dof_map = np.asarray(dof_map)
    nv = dof_map.shape[0]
    keep = np.flatnonzero(dof_map >= 0)
    if keep.size == 0:
        raise EmptyProblemError("no interior vertices: nothing to solve for")
    if matrix.n != nv:
        raise ValueError(f"matrix size {matrix.n} does not match {nv} vertices")
    return matrix.restrict(keep)


def assemble_scalar_problem(mesh, circulation, potential=None, method="covariant",
                            metadata=None):
    """Assemble and Dirichlet-reduce the scalar eigenvalue problem.

    Parameters
    ----------
    mesh : SimplicialMesh
    circulation : EdgeCirculation
        Gauge data; use ``circulate(spec, mesh)`` for uniform fields.
    potential : (nv,) array, optional
        Vertex samples of a scalar potential V.
    method : {"covariant", "baseline"}
        Gauge-invariant assembly or the conventional Galerkin baseline.
    """
    if method == "covariant":
        u = make_transports(circulation)
        stiffness = covariant_stiffness(mesh, u)
        mass = covariant_mass(mesh, u)
        floor = mass_floor(mesh, u)
        u_pot = u
    elif method == "baseline":
        stiffness, mass = standard_galerkin(mesh, circulation)
        floor = mass_floor(mesh)
        u_pot = unit_transports(mesh)
    else:
        raise ValueError(f"unknown method {method!r}")

    if potential is not None:
        potential = np.asarray(potential, dtype=np.float64)
        if np.any(potential != 0.0):
            stiffness = stiffness + potential_matrix(mesh, u_pot, potential)

    dof = interior_dof_map(mesh)
    info = {
        "method": method,
        "dim": mesh.dim,
        "n_vertices": mesh.n_vertices,
        "n_cells": mesh.n_cells,
        "h": mesh.h,
        "has_potential": potential is not None and bool(np.any(potential != 0.0)),
    }
    if metadata:
        info.update(metadata)
    return AssembledProblem(
        eliminate_dirichlet(stiffness, dof),
        eliminate_dirichlet(mass, dof),
        dof,
        info,
        floor[dof >= 0],
    )


def export_matrix(matrix, path):
    """Write the upper triangle in coordinate text form.

    First line ``n nnz``; then one ``row col re im`` line per stored entry in
    row-major order, 0-based indices.
    """
    rows, cols, vals = matrix.upper_coo()
    lines = [f"{matrix.n} {rows.size}"]
    for r, c, v in zip(rows, cols, vals):
        lines.append(f"{int(r)} {int(c)} {repr(float(v.real))} {repr(float(v.imag))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
