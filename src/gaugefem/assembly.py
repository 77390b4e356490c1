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
the mass block c |T| A_T and the mass floor lambda_min(A_T).  Every matrix
is Hermitian, so ``np.bincount`` sums each block's diagonal and upper pairs
x < y (mesh cells list their vertices in ascending order) into one slot per
vertex and one per edge.  One CSR pattern per mesh (:class:`_CellPattern`),
the diagonal and both directions of every edge, gathers the slots, the lower
triangle as exact conjugates.  Entries that vanish exactly, such as the
stiffness of an orthogonal Kuhn pair, stay stored in that shared pattern.

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

from .gauge import transports as make_transports, unit_transports
from .mesh import CELL_PAIRS, MeshGeometryError, _span_adjugate

__all__ = [
    "DIAG_IMAG_TOL",
    "EmptyProblemError",
    "HermitianSparse",
    "AssembledProblem",
    "covariant_mass",
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

# 3D cells whose Weyl floor 1 - delta_T is below this take the exact
# lambda_min(I + U_T) from ``eigvalsh`` instead (:func:`_floor_eigenvalue`).
_WEYL_FLOOR_MIN = 0.5


class EmptyProblemError(ValueError):
    """The problem has no degrees of freedom (e.g. no interior vertices)."""


def _check_diagonal(diag):
    diag_imag = np.abs(diag.imag)
    if diag_imag.size and diag_imag.max() > DIAG_IMAG_TOL:
        raise ValueError(
            f"diagonal imaginary part {diag_imag.max():.3e} exceeds "
            f"{DIAG_IMAG_TOL:.0e}"
        )


class HermitianSparse:
    """Sparse Hermitian matrix stored as its full CSR matrix.

    The stored matrix is exactly H = H^dagger: the cell pass stores its lower
    triangle as the exact conjugate of the upper, and :meth:`from_csr`
    stores (H_xy + conj(H_yx)) / 2.  Diagonal imaginary parts beyond
    ``DIAG_IMAG_TOL`` raise.  Principal submatrices stay exactly Hermitian,
    so they are not re-symmetrized.
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


@dataclass
class AssembledProblem:
    """Interior-eliminated stiffness/mass pair ready for the eigensolver.

    ``interior`` is the vertex mask ``~mesh.boundary_vertex``; the n DOFs
    are its interior vertices in ascending order.

    ``mass_floor`` holds, per interior DOF, the cell pass's floor f with
    ``mass`` - diag(f) PSD; min f > 0 proves ``mass`` positive definite.

    ``spectrum_floor`` is a proven lower bound s on the smallest eigenvalue
    of the pencil: s = v_min - max_v d_v / f_v over the interior vertices,
    with v_min = min(0, min V) and d the potential deficit of the cell pass
    (H - v_min M >= -diag(d)).  Then H - s M >= diag((v_min - s) f - d) >= 0.
    It is -inf when the certificate fails: some cell at an interior vertex
    has a negative floor lambda_min(I + U_T), or min f <= 0.  With U = 1
    (the baseline, or a zero field) d = 0 and s = v_min.

    A pencil without certificates has ``mass_floor`` None and
    ``spectrum_floor`` -inf.
    """

    stiffness: HermitianSparse
    mass: HermitianSparse
    interior: np.ndarray
    mass_floor: np.ndarray
    spectrum_floor: float

    @property
    def n(self):
        """The interior DOF count."""
        return self.stiffness.n


# ---------------------------------------------------------------------------
# barycentric integral tables


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
    exactly the vertices sharing a cell with x.  The cell pass sums one slot
    per vertex v (slot v) and per edge e = (lo, hi) (slot nv + e);
    ``source`` is the slot of each stored entry and ``lower`` marks the
    (hi, lo) entries, which read their slot conjugated.
    """

    def __init__(self, mesh):
        nv, ne = mesh.n_vertices, mesh.n_edges
        lo, hi = mesh.edges.T
        verts = np.arange(nv)
        rows = np.concatenate([verts, lo, hi])
        cols = np.concatenate([verts, hi, lo])
        order = np.argsort(rows * nv + cols)
        edge_slots = np.arange(nv, nv + ne)
        self.n = nv
        self.source = np.concatenate([verts, edge_slots, edge_slots])[order]
        self.lower = order >= nv + ne
        self.indices = cols[order]
        self.indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=self.indptr[1:])

    def matrix(self, acc):
        """The HermitianSparse matrix of the summed slots ``acc``."""
        diag = acc[:self.n]
        _check_diagonal(diag)
        diag.imag = 0.0
        data = acc[self.source]
        np.conjugate(data, out=data, where=self.lower)
        return HermitianSparse(
            self.n, sparse.csr_matrix((data, self.indices, self.indptr),
                                      shape=(self.n, self.n))
        )


def _scatter_add(out, slots, values):
    """out[slots] += values for complex ``out``, duplicates summed."""
    n = out.size
    out.real += np.bincount(slots, values.real.ravel(), n)
    if np.iscomplexobj(values):
        out.imag += np.bincount(slots, values.imag.ravel(), n)


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
    pair = _monomial_table(mesh.dim, 2)
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


def _face_holonomies(u):
    """Face holonomies through each cell's first vertex, and delta_T.

    h_xy = U_0x U_xy U_y0 for 1 <= x < y, shape (nc, d(d-1)/2): one face in
    2D, three in 3D.  Conjugating U_T by diag(U_0x) (the tree gauge at
    vertex 0) gives J + E_T, with J all ones and E_T holding h_xy - 1 at
    (x, y) and its conjugate at (y, x).  Returns (h, delta_T) with
    delta_T = ||E_T||_F = sqrt(2 sum |h - 1|^2), which is gauge invariant
    and 0 exactly when the transports are flat.
    """
    m = u.shape[1]
    x, y = (p[m - 1:] for p in CELL_PAIRS[m])  # skip the m - 1 pairs (0, y)
    h = u[:, 0, x] * u[:, x, y] * u[:, y, 0]
    # |h - 1|^2 from its parts: a SIMD complex np.abs may round differently
    # from scalar abs(), and delta_T reaches the shift through the floors
    return h, np.sqrt(2.0 * np.sum((h.real - 1.0) ** 2 + h.imag ** 2, axis=1))


def _floor_eigenvalue(a, holonomy, delta):
    """Lower bound on lambda_min(A_T) per cell, A_T = I + U_T, less a
    roundoff margin.

    2D: the exact closed form in the cell holonomy.  3D: A_T is unitarily
    similar to I + J + E_T (:func:`_face_holonomies`) and I + J has
    lambda_min = 1, so Weyl's inequality gives lambda_min(A_T) >= 1 - delta_T;
    only cells where that falls below ``_WEYL_FLOOR_MIN`` run ``eigvalsh``,
    so strong fields keep the exact floor.
    """
    m = a.shape[1]
    if m == 3:
        # A_T has the eigenvalues 2 + 2 cos((phi + 2 pi j) / 3), j = 0, 1, 2,
        # for the cell holonomy phi in [-pi, pi]; the smallest is
        # 2 + 2 cos((2 pi + |phi|) / 3)
        phi = np.abs(np.angle(holonomy[:, 0]))
        lam = 2.0 + 2.0 * np.cos((2.0 * np.pi + phi) / 3.0)
    else:
        lam = 1.0 - delta
        low = np.flatnonzero(lam < _WEYL_FLOOR_MIN)
        if low.size:
            lam[low] = np.linalg.eigvalsh(a[low])[:, 0]
    # all three err by a small multiple of m eps ||A_T||_2, and the norm is
    # at most m + 1
    return lam - 8 * m * (m + 1) * np.finfo(float).eps


def _potential_samples(mesh, values):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("potential needs one sample per vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("potential samples must be finite")
    return values


def _cell_pass(mesh, table, kinetic, potential):
    """Assemble the stiffness, the mass, the mass floor and the potential
    deficit in one pass over the cells.

    Per chunk of ``_CHUNK`` cells: the gradients (only for ``kinetic``), one
    gather of U_T from the TransportTable ``table`` (``unit_transports(mesh)``
    for the plain P1 forms) and A_T = I + U_T.  From them come the stiffness
    blocks ``kinetic(rows, grads, vols, U_T, A_T)`` (none for ``None``) plus
    the potential blocks |T| (sum_z V_z int lambda_x lambda_y lambda_z / |T|)
    U_xy for the vertex samples ``potential`` (none for ``None``), the mass
    blocks c |T| A_T, and the per-vertex mass floor f.

    Each mass block dominates c |T| l_T I on its cell for any l_T <=
    lambda_min(A_T) (:func:`_floor_eigenvalue`), so M >= diag(f) with f_v the
    sum of those bounds over the cells at v: min f > 0 proves M and every
    principal submatrix positive definite.  f is gauge invariant (a gauge
    change conjugates U_T by a diagonal unitary) and sufficient, not
    necessary: f_v <= 0 where the cells at v have lambda_min(A_T) <= 0.

    The face holonomies of :func:`_face_holonomies` give delta_T once per
    cell, for the 3D floor and for the deficit d.  With v_min = min(0, min V)
    and w_z = V_z - v_min >= 0, a cell's potential block minus v_min times
    its mass block is W_T o U_T, W_T = |T| sum_z w_z int lambda_x lambda_y
    lambda_z / |T| PSD.  Schur's bound on the Hadamard product of a PSD
    matrix gives W_T o U_T >= -delta_T max_x (W_T)_xx I, so d_v sums
    delta_T max_x (W_T)_xx over the cells at v.  Both kinetic forms are PSD
    on a cell with lambda_min(A_T) >= 0 (the covariant one is the Hadamard
    product of the gradient Gram matrix and U_T A_T U_T), so
    H - v_min M >= -diag(d); a cell whose floor is negative sets d = +inf
    on its vertices.

    Each block adds its diagonal and its upper pairs into the vertex and
    edge slots of :class:`_CellPattern`.  Returns (stiffness, mass, floor,
    deficit): HermitianSparse matrices on the mesh's pattern and the
    per-vertex floor and deficit.
    """
    m = mesh.dim + 1
    nv = mesh.n_vertices
    # the diagonal, then the upper pairs in ``mesh.cell_edges`` order
    iu, ju = np.hstack([np.diag_indices(m), CELL_PAIRS[m]])
    eye = np.eye(m)
    if potential is not None:
        cubic = _monomial_table(mesh.dim, 3)
        cubic_diag = cubic[np.arange(m), np.arange(m)]  # [x, z]: (x, x, z)
        v_min = min(0.0, potential.min())
    k_acc = np.zeros(nv + mesh.n_edges, np.complex128)
    m_acc = np.zeros(nv + mesh.n_edges, np.complex128)
    f = np.zeros(nv)
    deficit = np.zeros(nv)
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cells, vols = mesh.cells[rows], mesh.volumes[rows]
        scaled = vols / (m * (m + 1))  # c |T|
        u = table.local_values(mesh, rows)
        a = eye + u
        slots = np.concatenate([cells, nv + mesh.cell_edges[rows]], axis=1).ravel()
        holonomy, delta = _face_holonomies(u)
        lam = _floor_eigenvalue(a, holonomy, delta)
        if kinetic is None:
            block = np.zeros_like(a)
        else:
            grads = _barycentric_gradients(mesh.vertices[cells])
            block = kinetic(rows, grads, vols, u, a)
        drop = 0.0
        if potential is not None:
            samples = potential[cells]
            weights = np.einsum("cz,xyz->cxy", samples, cubic)
            block = block + weights * vols[:, None, None] * u
            # max_x (W_T)_xx / |T|, reduced over the leading axis (fast)
            top = (cubic_diag @ (samples - v_min).T).max(axis=0)
            drop = delta * vols * top
        _scatter_add(k_acc, slots, block[:, iu, ju])
        _scatter_add(m_acc, slots, scaled[:, None] * a[:, iu, ju])
        f += np.bincount(cells.ravel(), np.repeat(scaled * lam, m), nv)
        drop = np.where(lam < 0.0, np.inf, drop)
        deficit += np.bincount(cells.ravel(), np.repeat(drop, m), nv)
    pattern = _CellPattern(mesh)
    return pattern.matrix(k_acc), pattern.matrix(m_acc), f, deficit


# ---------------------------------------------------------------------------
# covariant forms: single-form entries into the cell pass


def covariant_mass(mesh, transports):
    """Transport-weighted mass matrix, entries M_xy U_xy.

    Reduces to the classical P1 mass matrix when U = 1 and is Hermitian by
    the reversal symmetry U_yx = conj(U_xy).
    """
    return _cell_pass(mesh, transports, None, None)[1]


def covariant_stiffness(mesh, transports, potential=None, *, with_mass=False):
    """Assembled covariant stiffness matrix on all vertices.

    With vertex samples ``potential`` the matrix includes the potential term
    of :func:`potential_matrix`.  With ``with_mass`` the same pass over the
    cells also gives the covariant mass, the mass floor f (M - diag(f) PSD)
    and the potential deficit of ``_cell_pass``, and the result is the tuple
    (stiffness, mass, floor, deficit).
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
    return _cell_pass(mesh, unit_transports(mesh), kinetic, None)[:2]


# ---------------------------------------------------------------------------
# boundary conditions and problem assembly


def eliminate_dirichlet(matrix, interior):
    """Drop boundary rows/columns (homogeneous Dirichlet condition).

    ``interior`` is the vertex mask ``~mesh.boundary_vertex``; ``matrix`` has
    one row per vertex.
    """
    nv = len(interior)
    keep = np.flatnonzero(interior)
    if keep.size == 0:
        raise EmptyProblemError("no interior vertices: nothing to solve for")
    if matrix.n != nv:
        raise ValueError(f"matrix size {matrix.n} does not match {nv} vertices")
    return HermitianSparse(keep.size, matrix.to_csr()[keep][:, keep])


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
        stiffness, mass, floor, deficit = covariant_stiffness(
            mesh, make_transports(circulation), potential, with_mass=True
        )
    else:
        stiffness, mass, floor, deficit = _cell_pass(
            mesh, unit_transports(mesh), _galerkin_kinetic(mesh, circulation), potential
        )
    interior = ~mesh.boundary_vertex
    stiffness = eliminate_dirichlet(stiffness, interior)
    mass = eliminate_dirichlet(mass, interior)
    floor, deficit = floor[interior], deficit[interior]
    v_min = 0.0 if potential is None else min(0.0, potential.min())
    spectrum_floor = (
        v_min - float(np.max(deficit / floor)) if floor.min() > 0.0 else -np.inf
    )
    return AssembledProblem(stiffness, mass, interior, floor, spectrum_floor)


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
