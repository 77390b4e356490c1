"""Galerkin assembly of the covariant (gauge-invariant) forms.

Scalar states are P1 vertex fields.  The covariant bilinear forms weight
every pairing of basis functions at different vertices by the parallel
transport along the connecting edge:

* covariant mass      <u, v>_U  = sum_xy  conj(u_x) M_xy U_xy v_y,
* covariant stiffness a(u, v)   = per-cell sum over vertex pairs (x,y), (z,t)
  of conj(U_xy u_y - u_x) U_xz (U_zt v_t - v_z) (mu_xy . mu_zt) M_xz,

where M is the P1 mass matrix and mu_xy is the basis dual to the tangents
y - x at vertex x.  Substituting U_xy -> exp(i a_x) U_xy exp(-i a_y) and
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

# Cells per vectorized assembly batch; bounds the (chunk, m, m, m, m) scratch.
_CHUNK = 4096


class EmptyProblemError(ValueError):
    """The problem has no degrees of freedom (e.g. no interior vertices)."""


class HermitianSparse:
    """Sparse Hermitian matrix stored as its upper triangle.

    Construction symmetrizes: the stored entry is (H_xy + conj(H_yx)) / 2,
    so reconstructing the full matrix gives exactly H = H^dagger.  Diagonal
    imaginary parts beyond ``DIAG_IMAG_TOL`` raise.
    """

    def __init__(self, n, upper):
        self.n = int(n)
        self._upper = upper.tocsr()
        self._upper.sum_duplicates()

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
        herm = (full + full.conj().T) * 0.5  # diagonal becomes exactly real
        upper = sparse.triu(herm, k=0).tocsr()
        upper.eliminate_zeros()
        return cls(n, upper)

    @property
    def nnz(self):
        """Stored (upper-triangle) entry count."""
        return self._upper.nnz

    def to_csr(self):
        """Full Hermitian matrix as CSR."""
        upper = self._upper
        diag = sparse.diags(upper.diagonal(), format="csr", dtype=np.complex128)
        return upper + upper.conj().T - diag

    def to_dense(self):
        return self.to_csr().toarray()

    def upper_coo(self):
        """Stored triangle as (rows, cols, values) in row-major order."""
        coo = self._upper.tocoo()
        return coo.row, coo.col, coo.data

    def restrict(self, keep):
        """Principal submatrix on the (ascending) index list ``keep``."""
        keep = np.asarray(keep, dtype=np.int64)
        if keep.size and np.any(np.diff(keep) <= 0):
            raise ValueError("keep indices must be strictly ascending")
        sub = self._upper[keep][:, keep].tocsr()
        return HermitianSparse(keep.size, sub)

    def __add__(self, other):
        if not isinstance(other, HermitianSparse) or other.n != self.n:
            return NotImplemented
        return HermitianSparse(self.n, self._upper + other._upper)

    def __sub__(self, other):
        if not isinstance(other, HermitianSparse) or other.n != self.n:
            return NotImplemented
        return HermitianSparse(self.n, self._upper - other._upper)

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            raise TypeError("only real scalars keep the matrix Hermitian")
        return HermitianSparse(self.n, self._upper * float(scalar))

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


def _dual_tangent_basis(coords):
    """Per-vertex dual basis mu, shape (nc, m, m, d).

    mu[c, x, y] is dual to the tangents tau_xy = p_y - p_x at vertex x:
    mu[c, x, y] . tau_xz = delta_yz for y, z != x.  The diagonal mu[c, x, x]
    is zero, which conveniently kills the y = x terms of the covariant sums.
    """
    nc, m, d = coords.shape
    tau = coords[:, None, :, :] - coords[:, :, None, :]  # tau[c, x, y] = p_y - p_x
    mats = np.empty((nc, m, d, d))
    others = [[y for y in range(m) if y != x] for x in range(m)]
    for x in range(m):
        mats[:, x] = tau[:, x, others[x], :].transpose(0, 2, 1)  # tangent columns
    det = np.linalg.det(mats)
    if np.any(np.abs(det) == 0.0):
        raise MeshGeometryError("degenerate cell: singular tangent basis")
    inv = np.linalg.inv(mats.reshape(-1, d, d)).reshape(nc, m, d, d)
    mu = np.zeros((nc, m, m, d))
    for x in range(m):
        mu[:, x, others[x], :] = inv[:, x, :, :]
    return mu


def _scatter(cells, local):
    """(rows, cols, values) triplets of (nc, m, m) cell matrices."""
    m = cells.shape[1]
    rows = np.repeat(cells, m, axis=1).ravel()
    cols = np.tile(cells, (1, m)).ravel()
    return rows, cols, local.reshape(-1)


def _accumulate(n, pieces):
    rows = np.concatenate([p[0] for p in pieces])
    cols = np.concatenate([p[1] for p in pieces])
    vals = np.concatenate([p[2] for p in pieces])
    return HermitianSparse.from_entries(n, rows, cols, vals)


# ---------------------------------------------------------------------------
# covariant forms


def covariant_mass(mesh, transports):
    """Transport-weighted mass matrix, entries M_xy U_xy.

    Reduces to the classical P1 mass matrix when U = 1 and is Hermitian by
    the reversal symmetry U_yx = conj(U_xy).
    """
    vols = cell_volumes(mesh)
    factor = _pair_factor(mesh.dim)
    pieces = []
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        u_loc = transports.local_values(mesh, rows)
        local = vols[rows, None, None] * factor * u_loc
        pieces.append(_scatter(mesh.cells[rows], local))
    return _accumulate(mesh.n_vertices, pieces)


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

    Expands the quadratic form
        sum_{x, y != x} sum_{z, t != z} conj(U_xy u_y - u_x) U_xz
            (U_zt v_t - v_z) (mu_xy . mu_zt) M_xz(T)
    into its four u/v matrix contributions.  The diagonal of mu is zero, so
    the y = x and t = z exclusions are automatic.
    """
    m = coords.shape[1]
    mu = _dual_tangent_basis(coords)
    mass = vols[:, None, None] * _pair_factor(m - 1)
    geo = np.einsum("cxyi,czti->cxyzt", mu, mu)
    core = geo * (mass * u_loc)[:, :, None, :, None]  # (mu.mu) M_xz U_xz
    ub = u_loc.conj()
    k = np.einsum("cxyzt,cxy,czt->cyt", core, ub, u_loc)
    k -= np.einsum("cxyzt,cxy->cyz", core, ub)
    k -= np.einsum("cxyzt,czt->cxt", core, u_loc)
    k += np.einsum("cxyzt->cxz", core)
    return k


def local_covariant_stiffness(coords, transports_local):
    """Covariant stiffness matrix of a single cell.

    Parameters
    ----------
    coords : (d+1, d) array
        Cell vertex coordinates.
    transports_local : (d+1, d+1) complex array
        Transports between the cell's vertices (ones on the diagonal).
    """
    coords = np.asarray(coords, dtype=np.float64)
    m, d = coords.shape
    if m != d + 1:
        raise ValueError("coords must be (d+1, d)")
    u_loc = np.asarray(transports_local, dtype=np.complex128)
    if u_loc.shape != (m, m):
        raise ValueError("transports_local must be (d+1, d+1)")
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / factorial(d)
    if vol == 0.0:
        raise MeshGeometryError("degenerate cell: zero volume")
    return _covariant_stiffness_local(coords[None], u_loc[None], np.asarray([vol]))[0]


def covariant_stiffness(mesh, transports):
    """Assembled covariant stiffness matrix on all vertices."""
    vols = cell_volumes(mesh)
    coords = mesh.vertices[mesh.cells]
    pieces = []
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        u_loc = transports.local_values(mesh, rows)
        local = _covariant_stiffness_local(coords[rows], u_loc, vols[rows])
        pieces.append(_scatter(mesh.cells[rows], local))
    return _accumulate(mesh.n_vertices, pieces)


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
    vols = cell_volumes(mesh)
    cubic = _monomial_table(mesh.dim, 3)
    pieces = []
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cells = mesh.cells[rows]
        u_loc = transports.local_values(mesh, rows)
        weights = np.einsum("cz,xyz->cxy", values[cells], cubic)
        local = vols[rows, None, None] * weights * u_loc
        pieces.append(_scatter(cells, local))
    return _accumulate(mesh.n_vertices, pieces)


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
    nv = mesh.n_vertices

    k_pieces = []
    m_pieces = []
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cells = mesh.cells[rows]
        v = vols[rows]
        grads = _barycentric_gradients(coords[rows])
        a_loc = circulation.local_values(mesh, rows)
        w = np.einsum("cmb,cbi->cmi", a_loc, grads)

        local = np.einsum("cxi,cyi->cxy", grads, grads) * v[:, None, None]
        gw = np.einsum("cxi,cmi->cxm", grads, w)
        pm = pair[None] * v[:, None, None]  # int lambda_y lambda_m
        local = local.astype(np.complex128)
        local += 1j * np.einsum("cxm,cym->cxy", gw, pm)
        local -= 1j * np.einsum("cym,cxm->cxy", gw, pm)
        local += np.einsum("cmi,cli,xyml->cxy", w, w, quartic) * v[:, None, None]
        k_pieces.append(_scatter(cells, local))
        m_pieces.append(_scatter(cells, pm))

    return _accumulate(nv, k_pieces), _accumulate(nv, m_pieces)


# ---------------------------------------------------------------------------
# boundary conditions and problem assembly


def eliminate_dirichlet(matrix, dof_map):
    """Drop boundary rows/columns (homogeneous Dirichlet condition).

    ``dof_map`` is the vertex -> interior-index array from
    :func:`gaugefem.mesh.interior_dof_map`.  Scalar matrices (one row per
    vertex) and 2x2 spinor block matrices (two rows per vertex, all spin-up
    then all spin-down) are both handled.
    """
    dof_map = np.asarray(dof_map)
    nv = dof_map.shape[0]
    keep = np.flatnonzero(dof_map >= 0)
    if keep.size == 0:
        raise EmptyProblemError("no interior vertices: nothing to solve for")
    if matrix.n == nv:
        return matrix.restrict(keep)
    if matrix.n == 2 * nv:
        return matrix.restrict(np.concatenate([keep, keep + nv]))
    raise ValueError(
        f"matrix size {matrix.n} matches neither {nv} vertices nor spinor blocks"
    )


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
    lines = [f"{matrix.n} {matrix.nnz}"]
    for r, c, v in zip(rows, cols, vals):
        lines.append(f"{int(r)} {int(c)} {repr(float(v.real))} {repr(float(v.imag))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
