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
product.  U_T has a unit diagonal, so M_T o U_T = c |T| A_T with
A_T = I + U_T and c = 1 / ((d+1)(d+2)), and U_T (M_T o U_T) U_T =
c |T| U_T^2 A_T.  Substituting U_xy -> exp(i a_x) U_xy exp(-i a_y) and
u -> exp(i a) u conjugates both matrices by the diagonal phase matrix, which
is what makes the discrete spectra exactly gauge invariant.

Every form comes out of one pass over the cells (:func:`_cell_pass`).  Per
chunk of cells it computes the closed-form barycentric gradients, gathers
U_T once and forms A_T, and from them the stiffness (plus potential) block,
the mass block c |T| A_T and the mass floor lambda_min(A_T).  The blocks are
summed by ``np.bincount`` straight into the data of one CSR pattern per mesh
(:class:`_CellPattern`): the diagonal and both directions of every edge,
which is every vertex pair that shares a cell.  Entries that vanish exactly,
such as the stiffness of an orthogonal Kuhn pair, stay stored, so every
assembled matrix has that same pattern and one selection eliminates the
Dirichlet rows and columns of all of them.

A conventional (non-invariant) P1 discretization of |grad u + i A u|^2 with
A interpolated from the same edge circulations is provided as a baseline;
its matrix elements agree with the covariant ones to first order in the
field strength but transform inhomogeneously under gauge maps.

All barycentric integrals use the closed form
    int_T prod_i lambda_i^{a_i} = d! |T| prod_i a_i! / (d + sum_i a_i)!
so no quadrature error enters anywhere in this module.
"""

import itertools

from dataclasses import dataclass
from math import factorial

import numpy as np
import scipy.sparse as sparse

from .gauge import transports as make_transports
from .mesh import MeshGeometryError, _span_adjugate, interior_dof_map

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


def _check_diagonal(diag):
    diag_imag = np.abs(diag.imag)
    if diag_imag.size and diag_imag.max() > DIAG_IMAG_TOL:
        raise ValueError(
            f"diagonal imaginary part {diag_imag.max():.3e} exceeds "
            f"{DIAG_IMAG_TOL:.0e}"
        )


def _principal_selection(full, keep):
    """Stored entries of the CSR matrix ``full`` in the rows and columns
    ``keep`` (ascending): (entry positions, column indices, row pointer) of
    the principal submatrix, stored zeros included."""
    index = np.full(full.shape[0], -1, dtype=np.int64)
    index[keep] = np.arange(keep.size)
    rows = np.repeat(index, np.diff(full.indptr))
    cols = index[full.indices]
    entries = np.flatnonzero((rows >= 0) & (cols >= 0))
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[entries], minlength=keep.size), out=indptr[1:])
    return entries, cols[entries], indptr


class HermitianSparse:
    """Sparse Hermitian matrix stored as its full CSR matrix.

    Construction symmetrizes: the stored entries are (H_xy + conj(H_yx)) / 2,
    so the stored matrix is exactly H = H^dagger.  Diagonal imaginary parts
    beyond ``DIAG_IMAG_TOL`` raise.  Principal submatrices stay exactly
    Hermitian, so they are not re-symmetrized.
    """

    def __init__(self, n, full):
        self.n = int(n)
        self._full = full.tocsr()
        self._full.sum_duplicates()

    @classmethod
    def from_csr(cls, full):
        """The Hermitian part (F + F^dagger) / 2 of a square sparse matrix F."""
        n = full.shape[0]
        if full.shape != (n, n):
            raise ValueError("matrix must be square")
        _check_diagonal(full.diagonal())
        full = sparse.csr_matrix(full, dtype=np.complex128)
        # each entry plus its mirror: the diagonal becomes exactly real
        return cls(n, (full + full.conj().T) * 0.5)

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

    def _take(self, selection):
        """Submatrix from a :func:`_principal_selection` of this pattern."""
        entries, indices, indptr = selection
        n = indptr.size - 1
        data = self._full.data[entries]
        return HermitianSparse(n, sparse.csr_matrix((data, indices, indptr), shape=(n, n)))


@dataclass
class AssembledProblem:
    """Interior-eliminated stiffness/mass pair ready for the eigensolver.

    ``mass_floor`` holds, per interior DOF, the floor f of :func:`mass_floor`
    with ``mass`` - diag(f) PSD; min f > 0 proves ``mass`` positive definite.
    """

    stiffness: HermitianSparse
    mass: HermitianSparse
    dof_map: np.ndarray
    mass_floor: np.ndarray


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
# the cell pass


def _barycentric_gradients(coords):
    """Gradients of the barycentric coordinates, shape (nc, m, d).

    grad lambda_k for k >= 1 is row k-1 of the span adjugate over the span
    determinant (:func:`gaugefem.mesh._span_adjugate`); grad lambda_0 closes
    the partition of unity.
    """
    det, adj = _span_adjugate(coords)
    if np.any(det == 0.0):
        raise MeshGeometryError("degenerate cell: singular coordinate span")
    grads = np.empty(coords.shape)
    grads[:, 1:, :] = adj / det[:, None, None]
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads


class _CellPattern:
    """The CSR pattern every assembled matrix of a mesh shares.

    Row x holds x itself and both directions of every edge at x, which are
    exactly the vertices sharing a cell with x.  ``diag``, ``up`` and ``down``
    are the data positions of (v, v), (lo, hi) and (hi, lo) for each vertex v
    and edge (lo, hi); ``mirror`` maps the position of (x, y) to that of
    (y, x).
    """

    def __init__(self, mesh):
        nv, ne = mesh.n_vertices, mesh.n_edges
        lo, hi = mesh.edges.T
        verts = np.arange(nv)
        rows = np.concatenate([verts, lo, hi])
        cols = np.concatenate([verts, hi, lo])
        order = np.argsort(rows * nv + cols)
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        partner = np.concatenate([verts, np.arange(nv + ne, nv + 2 * ne),
                                  np.arange(nv, nv + ne)])
        self.n = nv
        self.indices = cols[order]
        self.indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=self.indptr[1:])
        self.diag = position[:nv]
        self.up = position[nv:nv + ne]
        self.down = position[nv + ne:]
        self.mirror = position[partner[order]]

    def slots(self, mesh, rows):
        """Data positions of the (nc, m, m) blocks of ``mesh.cells[rows]``."""
        cells = mesh.cells[rows]
        m = cells.shape[1]
        a, b = np.triu_indices(m, 1)
        edges = mesh.cell_edges[rows]
        ascending = cells[:, a] < cells[:, b]
        up, down = self.up[edges], self.down[edges]
        out = np.empty(cells.shape + (m,), dtype=np.int64)
        out[:, a, b] = np.where(ascending, up, down)
        out[:, b, a] = np.where(ascending, down, up)
        out[:, np.arange(m), np.arange(m)] = self.diag[cells]
        return out

    def matrix(self, data):
        """The HermitianSparse (H + H^dagger) / 2 of summed cell entries ``data``."""
        _check_diagonal(data[self.diag])
        data = 0.5 * (data + data[self.mirror].conj())
        return HermitianSparse(
            self.n, sparse.csr_matrix((data, self.indices, self.indptr),
                                      shape=(self.n, self.n))
        )


def _scatter_add(out, slots, block):
    """out[slots] += block for complex ``out``, duplicates summed."""
    n = out.size
    out.real += np.bincount(slots, block.real.ravel(), n)
    if np.iscomplexobj(block):
        out.imag += np.bincount(slots, block.imag.ravel(), n)


def _covariant_kinetic(rows, grads, vols, u, a):
    """Covariant stiffness blocks c |T| (grad lambda_y . grad lambda_t) o U^2 A."""
    m = grads.shape[1]
    geo = grads @ grads.transpose(0, 2, 1)
    geo *= (vols / (m * (m + 1)))[:, None, None]
    block = u @ u @ a
    block *= geo
    return block


def _galerkin_kinetic(mesh, circulation):
    """Stiffness blocks of the conventional P1 baseline (:func:`standard_galerkin`)."""
    pair = _pair_factor(mesh.dim)
    quartic = _monomial_table(mesh.dim, 4)

    def kinetic(rows, grads, vols, u, a):
        v = vols[:, None, None]
        a_loc = circulation.local_values(mesh, rows)
        w = np.einsum("cmb,cbi->cmi", a_loc, grads)
        gw = np.einsum("cxi,cmi->cxm", grads, w)
        pm = pair[None] * v  # int lambda_y lambda_m
        local = (np.einsum("cxi,cyi->cxy", grads, grads) * v).astype(np.complex128)
        local += 1j * np.einsum("cxm,cym->cxy", gw, pm)
        local -= 1j * np.einsum("cym,cxm->cxy", gw, pm)
        local += np.einsum("cmi,cli,xyml->cxy", w, w, quartic) * v
        return local

    return kinetic


def _floor_eigenvalue(u, a):
    """Lower bound on lambda_min(A_T) per cell, A_T = I + U_T: exact in 2D,
    ``eigvalsh`` in 3D, less a roundoff margin."""
    m = a.shape[1]
    if m == 3:
        # A_T has the eigenvalues 2 + 2 cos((phi + 2 pi j) / 3), j = 0, 1, 2,
        # for the cell holonomy phi in [-pi, pi]; the smallest is
        # 2 + 2 cos((2 pi + |phi|) / 3)
        phi = np.abs(np.angle(u[:, 0, 1] * u[:, 1, 2] * u[:, 2, 0]))
        lam = 2.0 + 2.0 * np.cos((2.0 * np.pi + phi) / 3.0)
    else:
        lam = np.linalg.eigvalsh(a)[:, 0]
    # both err by a small multiple of m eps ||A_T||_2, and the norm is at
    # most m + 1
    return lam - 8 * m * (m + 1) * np.finfo(float).eps


def _potential_samples(mesh, values):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("potential needs one sample per vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("potential samples must be finite")
    return values


def _cell_pass(mesh, table, kinetic, potential):
    """Assemble the stiffness, the mass and the mass floor in one pass over
    the cells.

    Per chunk of ``_CHUNK`` cells: the gradients (only for ``kinetic``), one
    gather of U_T from the TransportTable ``table`` (all ones for ``None``,
    the plain P1 forms) and A_T = I + U_T.  From them come the stiffness
    blocks ``kinetic(rows, grads, vols, U_T, A_T)`` (none for ``None``) plus
    the potential blocks |T| (sum_z V_z int lambda_x lambda_y lambda_z / |T|)
    U_xy for the vertex samples ``potential`` (none for ``None``), the mass
    blocks c |T| A_T, and the floor lambda_min(A_T) of :func:`mass_floor`.

    Returns (stiffness, mass, floor): HermitianSparse matrices on the
    mesh's :class:`_CellPattern` and the per-vertex floor.
    """
    pattern = _CellPattern(mesh)
    m = mesh.dim + 1
    nnz, nv = pattern.indices.size, mesh.n_vertices
    eye = np.eye(m)
    cubic = None if potential is None else _monomial_table(mesh.dim, 3)
    k_data = np.zeros(nnz, np.complex128)
    m_data = np.zeros(nnz, np.complex128)
    f = np.zeros(nv)
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cells, vols = mesh.cells[rows], mesh.volumes[rows]
        scaled = vols / (m * (m + 1))  # c |T|
        if table is None:
            u = np.ones((cells.shape[0], m, m))
        else:
            u = table.local_values(mesh, rows)
        a = eye + u
        slots = pattern.slots(mesh, rows).ravel()
        if kinetic is None:
            block = np.zeros_like(a)
        else:
            grads = _barycentric_gradients(mesh.vertices[cells])
            block = kinetic(rows, grads, vols, u, a)
        if cubic is not None:
            weights = np.einsum("cz,xyz->cxy", potential[cells], cubic)
            block = block + weights * vols[:, None, None] * u
        _scatter_add(k_data, slots, block)
        _scatter_add(m_data, slots, scaled[:, None, None] * a)
        # the plain P1 block I + ones has lambda_min = 1 exactly
        lam = 1.0 if table is None else _floor_eigenvalue(u, a)
        f += np.bincount(cells.ravel(), np.repeat(scaled * lam, m), nv)
    return pattern.matrix(k_data), pattern.matrix(m_data), f


# ---------------------------------------------------------------------------
# covariant forms: single-form entries into the cell pass


def covariant_mass(mesh, transports):
    """Transport-weighted mass matrix, entries M_xy U_xy.

    Reduces to the classical P1 mass matrix when U = 1 and is Hermitian by
    the reversal symmetry U_yx = conj(U_xy).
    """
    return _cell_pass(mesh, transports, None, None)[1]


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
    return _cell_pass(mesh, transports, None, None)[2]


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
    grads = _barycentric_gradients(coords[None])
    vol = abs(_span_adjugate(coords[None])[0]) / factorial(d)
    return _covariant_kinetic(None, grads, vol, u_loc[None], np.eye(m) + u_loc[None])[0]


def covariant_stiffness(mesh, transports, potential=None, *, with_mass=False):
    """Assembled covariant stiffness matrix on all vertices.

    With vertex samples ``potential`` the matrix includes the potential term
    of :func:`potential_matrix`.  With ``with_mass`` the same pass over the
    cells also gives the covariant mass and the floor of :func:`mass_floor`,
    and the result is the triple (stiffness, mass, floor).
    """
    if potential is not None:
        potential = _potential_samples(mesh, potential)
    forms = _cell_pass(mesh, transports, _covariant_kinetic, potential)
    return forms if with_mass else forms[0]


def potential_matrix(mesh, transports, values):
    """Transport-weighted scalar potential term.

    The potential is the P1 interpolant of its vertex samples ``values``;
    entries are sum_z V_z (int_T lambda_x lambda_y lambda_z) U_xy, with the
    cubic integrals evaluated exactly.  For constant V and U = 1 this is
    exactly V times the mass matrix.
    """
    values = _potential_samples(mesh, values)
    return _cell_pass(mesh, transports, None, values)[0]


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
    kinetic = _galerkin_kinetic(mesh, circulation)
    return _cell_pass(mesh, None, kinetic, None)[:2]


# ---------------------------------------------------------------------------
# boundary conditions and problem assembly


def _interior(dof_map):
    keep = np.flatnonzero(np.asarray(dof_map) >= 0)
    if keep.size == 0:
        raise EmptyProblemError("no interior vertices: nothing to solve for")
    return keep


def eliminate_dirichlet(matrix, dof_map):
    """Drop boundary rows/columns (homogeneous Dirichlet condition).

    ``dof_map`` is the vertex -> interior-index array from
    :func:`gaugefem.mesh.interior_dof_map`; ``matrix`` has one row per vertex.
    """
    nv = np.asarray(dof_map).shape[0]
    keep = _interior(dof_map)
    if matrix.n != nv:
        raise ValueError(f"matrix size {matrix.n} does not match {nv} vertices")
    return matrix._take(_principal_selection(matrix.to_csr(), keep))


def assemble_scalar_problem(mesh, circulation, potential=None, method="covariant"):
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
    if method not in ("covariant", "baseline"):
        raise ValueError(f"unknown method {method!r}")
    if potential is not None:
        potential = _potential_samples(mesh, potential)
        if not np.any(potential):
            potential = None

    if method == "covariant":
        stiffness, mass, floor = covariant_stiffness(
            mesh, make_transports(circulation), potential, with_mass=True
        )
    else:
        stiffness, mass, floor = _cell_pass(
            mesh, None, _galerkin_kinetic(mesh, circulation), potential
        )
    dof = interior_dof_map(mesh)
    # stiffness and mass share the pattern, so one selection reduces both
    selection = _principal_selection(stiffness.to_csr(), _interior(dof))
    return AssembledProblem(
        stiffness._take(selection), mass._take(selection), dof, floor[dof >= 0]
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
