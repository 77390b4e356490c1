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

Every form comes out of one pass over the cells (:func:`_cell_pass`) of the
mesh its edge table was built on: each entry takes the table alone and reads
``table.mesh``, so no call can pair a table with another mesh.  Every cell
block is Hermitian, so the pass keeps only its diagonal and upper pairs
x < y (mesh cells list their vertices in ascending order), each as one
column over a chunk of cells.  Per chunk it reads one contiguous transport
column per vertex pair from the edge table and the barycentric gradients
that ``make_mesh`` computed once, and from them forms the columns of the
stiffness (plus potential) block, with U_T^2 A_T as explicit sums over the
unit diagonal and the upper pairs, of the mass block c |T| A_T and of the
mass floor lambda_min(A_T).  ``np.bincount`` sums the columns into one slot
per vertex and one per edge, and one COO -> CSR conversion turns the slots
into the matrix (:func:`_hermitian_matrix`): the diagonal and both
directions of every edge, the lower triangle as exact conjugates.  Entries
that vanish exactly, such as the stiffness of an orthogonal Kuhn pair, stay
stored, so every assembled matrix of a mesh has the same pattern.

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
from .mesh import CELL_PAIRS

__all__ = [
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

# Assembled diagonals must be real; imaginary parts beyond this times
# max(1, max |Re d|) indicate a bug upstream rather than roundoff, so they
# raise instead of being dropped.
DIAG_IMAG_TOL = 1e-13

# Cells per vectorized assembly batch; bounds the cell kernels' scratch arrays.
_CHUNK = 4096


class EmptyProblemError(ValueError):
    """The problem has no degrees of freedom (e.g. no interior vertices)."""


def _check_real_diag(diag):
    imag = np.abs(diag.imag).max()
    bound = DIAG_IMAG_TOL * max(1.0, np.abs(diag.real).max())
    if imag > bound:
        raise ValueError(f"diagonal imaginary part {imag:.3e} exceeds {bound:.3e}")


class HermitianSparse:
    """Sparse Hermitian matrix stored as its full CSR matrix.

    The matrix given must be exactly H = H^dagger; the cell pass stores its
    lower triangle as the exact conjugate of the upper.  Principal
    submatrices stay exactly Hermitian, so they are not re-symmetrized.
    """

    def __init__(self, full):
        # export_matrix's row-major order needs sorted, summed indices
        self._full = full.tocsr()
        self._full.sum_duplicates()

    @property
    def n(self):
        return self._full.shape[0]

    @property
    def nnz(self):
        """Entry count of the upper triangle (what :func:`export_matrix` writes)."""
        full = self._full
        rows = np.repeat(np.arange(self.n), np.diff(full.indptr))
        return int(np.count_nonzero(full.indices >= rows))

    def to_csr(self):
        """Full Hermitian matrix as CSR (the stored matrix; do not modify)."""
        return self._full


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

    A pencil without certificates has a zero ``mass_floor`` and
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


class _CellEntries:
    """Index tables of the per-entry columns of cells with m vertices.

    The cell pass keeps each Hermitian m x m cell block as its columns q
    over the cells, one row per entry (``rows[e]``, ``cols[e]``): the
    diagonal, then the pairs x < y in ``CELL_PAIRS[m]`` order, which is the
    order of ``mesh.cell_edges``.  Entry (x, y) of the block, in either
    triangle, is row ``full[x, y]`` of [q; conj(q[m:])].  The transports
    are U = I + N with N off the diagonal, so N_xy is row ``full[x, y] - m``
    of [u; conj(u)] for the pair columns u.  ``square`` lists, per entry,
    the row pairs whose products sum to (N^2)_xy = sum_z N_xz N_zy (z not x
    or y), and ``times_n`` those of (N Q)_xy = sum_z N_xz Q_zy (z != x).
    """

    def __init__(self, m):
        a, b = CELL_PAIRS[m]
        npairs = a.size
        self.m = m
        self.rows, self.cols = np.hstack([np.diag_indices(m), CELL_PAIRS[m]])
        full = np.empty((m, m), dtype=np.int64)
        full[self.rows, self.cols] = np.arange(m + npairs)
        full[b, a] = m + npairs + np.arange(npairs)
        off = full - m
        entries = list(zip(self.rows.tolist(), self.cols.tolist()))
        self.square = [[(off[x, z], off[z, y]) for z in range(m) if z not in (x, y)]
                       for x, y in entries]
        self.times_n = [[(off[x, z], full[z, y]) for z in range(m) if z != x]
                        for x, y in entries]
        cubic = _monomial_table(m - 1, 3)
        self.cubic = cubic[self.rows, self.cols]  # [e, z]: (x_e, y_e, z)
        self.cubic_diag = cubic[np.arange(m), np.arange(m)]  # [x, z]: (x, x, z)


_CELL_ENTRIES = {m: _CellEntries(m) for m in CELL_PAIRS}


def _hermitian_matrix(mesh, acc):
    """The HermitianSparse matrix of the summed slots ``acc``: slot v is entry
    (v, v), slot nv + e is entry (lo, hi) of edge e = (lo, hi) of ``mesh``,
    and entry (hi, lo) is its conjugate."""
    nv = mesh.n_vertices
    diag, upper = acc[:nv], acc[nv:]
    _check_real_diag(diag)
    diag.imag = 0.0
    # The edges are sorted (lo, hi), so listing the lower entries, then the
    # diagonal, then the upper ones puts each row's columns in ascending order,
    # which scipy's stable COO -> CSR conversion keeps: nothing is sorted, and
    # entries that vanish exactly stay stored.
    lo, hi = mesh.edges.T
    verts = np.arange(nv)
    rows, cols = np.concatenate([hi, verts, lo]), np.concatenate([lo, verts, hi])
    data = np.concatenate([upper.conj(), diag, upper])
    return HermitianSparse(sparse.csr_matrix((data, (rows, cols)), shape=(nv, nv)))


def _scatter_add(out, slots, values):
    """out[slots] += values for complex ``out`` and ``values``, duplicates summed."""
    out.real += np.bincount(slots, values.real.ravel(), out.size)
    out.imag += np.bincount(slots, values.imag.ravel(), out.size)


def _sum_products(left, right, terms):
    """Row e: the sum of left[i] * right[j] over the pairs (i, j) in terms[e]."""
    out = np.empty((len(terms), left.shape[1]), np.complex128)
    for row, pairs in zip(out, terms):
        (i, j), *rest = pairs
        np.multiply(left[i], right[j], out=row)
        for i, j in rest:
            row += left[i] * right[j]
    return out


def _transport_factor(u, entries):
    """Columns of U_T^2 A_T = U^2 (I + U) from the upper transport columns u.

    With U = I + N, U^2 (I + U) = 2 I + N Q with Q = 5 I + 4 N + N^2.  N,
    N^2, Q and N Q are Hermitian polynomials in N, so each is kept as its
    upper columns, whose entries are sums over the vertices z of N_xz N_zy
    and N_xz Q_zy, the lower entries read as conjugates
    (:class:`_CellEntries`).
    """
    m = entries.m
    n = np.concatenate([u, u.conj()])
    q = _sum_products(n, n, entries.square)
    q[:m] += 5.0
    q[m:] += 4.0 * u
    out = _sum_products(n, np.concatenate([q, q[m:].conj()]), entries.times_n)
    out[:m] += 2.0
    return out


def _covariant_kinetic(rows, grads, vols, u):
    """Upper columns of the covariant stiffness blocks
    c |T| (grad lambda_y . grad lambda_t) o U^2 A."""
    entries = _CELL_ENTRIES[grads.shape[1]]
    gram = grads[0, entries.rows] * grads[0, entries.cols]
    for axis in grads[1:]:
        gram += axis[entries.rows] * axis[entries.cols]
    gram *= vols / (entries.m * (entries.m + 1))
    block = _transport_factor(u, entries)
    block *= gram
    return block


def _galerkin_kinetic(circulation):
    """Stiffness columns of the conventional P1 baseline (:func:`standard_galerkin`)."""
    entries = _CELL_ENTRIES[circulation.mesh.dim + 1]
    pair = _monomial_table(entries.m - 1, 2)
    quartic = _monomial_table(entries.m - 1, 4)
    x, y = CELL_PAIRS[entries.m]

    def kinetic(rows, grads, vols, u):
        grads = grads.T  # (nc, m, d)
        v = vols[:, None, None]
        a = circulation.local_values(rows).T  # A_xy, x < y
        a_loc = np.zeros((a.shape[0], entries.m, entries.m))
        a_loc[:, x, y], a_loc[:, y, x] = a, -a
        w = np.einsum("cmb,cbi->cmi", a_loc, grads)
        gw = np.einsum("cxi,cmi->cxm", grads, w)
        pm = pair[None] * v  # int lambda_y lambda_m
        local = (np.einsum("cxi,cyi->cxy", grads, grads) * v).astype(np.complex128)
        local += 1j * np.einsum("cxm,cym->cxy", gw, pm)
        local -= 1j * np.einsum("cym,cxm->cxy", gw, pm)
        local += np.einsum("cmi,cli,xyml->cxy", w, w, quartic) * v
        return local[:, entries.rows, entries.cols].T

    return kinetic


def _holonomy_defect(u, m):
    """delta_T from the face holonomies through each cell's first vertex.

    From the upper transport columns u of cells with m vertices
    (``CELL_PAIRS[m]`` order, the pairs (0, y) first):
    h_xy = U_0x U_xy U_y0 for 1 <= x < y, shape (d(d-1)/2, nc): one face in
    2D, three in 3D.  Conjugating U_T by diag(U_0x) (the tree gauge at
    vertex 0) gives J + E_T, with J all ones and E_T holding h_xy - 1 at
    (x, y) and its conjugate at (y, x).  Returns
    delta_T = ||E_T||_F = sqrt(2 sum |h - 1|^2), which is gauge invariant,
    0 exactly when the transports are flat, and gives every cell, triangle
    or tetrahedron, the Weyl floor 1 - delta_T (:func:`_floor_eigenvalue`).
    """
    x, y = (p[m - 1:] for p in CELL_PAIRS[m])  # skip the m - 1 pairs (0, y)
    h = u[x - 1] * u[m - 1:] * u[y - 1].conj()
    # |h - 1|^2 from its parts: a SIMD complex np.abs may round differently
    # from scalar abs(), and delta_T reaches the shift through the floors
    return np.sqrt(2.0 * np.sum((h.real - 1.0) ** 2 + h.imag ** 2, axis=0))


def _floor_eigenvalue(u, delta, m):
    """Lower bound on lambda_min(A_T) per cell, A_T = I + U_T, less a
    roundoff margin.

    On a simplex of any dimension A_T is unitarily similar to I + J + E_T
    (:func:`_holonomy_defect`) and I + J has lambda_min = 1, so Weyl's
    inequality gives lambda_min(A_T) >= 1 - delta_T.  Only cells where that
    bound, less the margin, is negative and so certifies nothing form their
    m x m block A_T from the columns u and run ``eigvalsh``.
    """
    # both err by a small multiple of m eps ||A_T||_2, and the norm is at
    # most m + 1
    margin = 8 * m * (m + 1) * np.finfo(float).eps
    lam = 1.0 - delta
    low = np.flatnonzero(lam < margin)
    if low.size:
        a, b = CELL_PAIRS[m]
        block = np.full((low.size, m, m), 2.0, dtype=np.complex128)
        block[:, a, b] = u[:, low].T
        block[:, b, a] = u[:, low].T.conj()
        lam[low] = np.linalg.eigvalsh(block)[:, 0]
    return lam - margin


def _potential_samples(mesh, values):
    """The checked vertex samples ``values`` of a potential on ``mesh`` as
    floats, or None for no potential: ``values`` None or all-zero samples."""
    if values is None:
        return None
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("potential needs one sample per vertex")
    if not np.all(np.isfinite(values)):
        raise ValueError("potential samples must be finite")
    return values if np.any(values) else None


def _cell_pass(table, kinetic, potential):
    """Assemble the stiffness, the mass, the mass floor and the potential
    deficit in one pass over the cells of ``mesh = table.mesh``.

    Every cell block is Hermitian, so the pass keeps only its diagonal and
    upper pairs, as per-entry columns over a chunk of ``_CHUNK`` cells
    (:class:`_CellEntries`).  Per chunk it reads the upper transport columns
    u = ``table.local_values(rows)`` from the TransportTable ``table``
    (``unit_transports(mesh)`` for the plain P1 forms), one contiguous
    column per pair, and the gradient columns
    ``mesh.gradients[:, :, rows]``.  From them come the stiffness columns
    ``kinetic(rows, grads, vols, u)`` (none for ``None``) plus the potential
    columns |T| (sum_z V_z int lambda_x lambda_y lambda_z / |T|) U_xy for
    the vertex samples ``potential`` (none for ``None``, which
    :func:`_potential_samples` gives for all-zero samples), the mass
    columns c |T| A_T with A_T = I + U_T, and the per-vertex mass floor f.

    Each mass block dominates c |T| l_T I on its cell for any l_T <=
    lambda_min(A_T) (:func:`_floor_eigenvalue`), so M >= diag(f) with f_v the
    sum of those bounds over the cells at v: min f > 0 proves M and every
    principal submatrix positive definite.  f is gauge invariant (a gauge
    change conjugates U_T by a diagonal unitary) and sufficient, not
    necessary: f_v <= 0 where the cells at v have lambda_min(A_T) <= 0.

    The face holonomies of :func:`_holonomy_defect` give delta_T once per
    cell, for the floor and for the deficit d.  With v_min = min(0, min V)
    and w_z = V_z - v_min >= 0, a cell's potential block minus v_min times
    its mass block is W_T o U_T, W_T = |T| sum_z w_z int lambda_x lambda_y
    lambda_z / |T| PSD.  Schur's bound on the Hadamard product of a PSD
    matrix gives W_T o U_T >= -delta_T max_x (W_T)_xx I, so d_v sums
    delta_T max_x (W_T)_xx over the cells at v.  Both kinetic forms are PSD
    on a cell with lambda_min(A_T) >= 0 (the covariant one is the Hadamard
    product of the gradient Gram matrix and U_T A_T U_T), so
    H - v_min M >= -diag(d); a cell whose floor is negative sets d = +inf
    on its vertices.

    ``np.bincount`` adds each column into one slot per vertex and one per
    edge, which :func:`_hermitian_matrix` turns into a matrix.  Returns
    (stiffness, mass, floor, deficit): HermitianSparse matrices with the
    diagonal and both directions of every edge stored, and the per-vertex
    floor and deficit.
    """
    mesh = table.mesh
    m = mesh.dim + 1
    nv = mesh.n_vertices
    entries = _CELL_ENTRIES[m]
    if potential is not None:
        v_min = min(0.0, potential.min())
    k_acc = np.zeros(nv + mesh.n_edges, np.complex128)
    m_acc = np.zeros(nv + mesh.n_edges, np.complex128)
    f = np.zeros(nv)
    deficit = np.zeros(nv)
    for lo in range(0, mesh.n_cells, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        cells, vols = mesh.cells[rows], mesh.volumes[rows]
        pairs = mesh.cell_edges[rows].T
        scaled = vols / (m * (m + 1))  # c |T|
        u = table.local_values(rows)
        slots = np.concatenate([cells.T, nv + pairs]).ravel()
        delta = _holonomy_defect(u, m)
        lam = _floor_eigenvalue(u, delta, m)
        if kinetic is None:
            block = np.zeros((entries.rows.size, cells.shape[0]), np.complex128)
        else:
            block = kinetic(rows, mesh.gradients[:, :, rows], vols, u)
        drop = 0.0
        if potential is not None:
            samples = potential[cells.T]
            weights = entries.cubic @ samples
            weights *= vols
            block[:m] += weights[:m]
            block[m:] += weights[m:] * u
            # max_x (W_T)_xx / |T|, reduced over the leading axis (fast)
            top = (entries.cubic_diag @ (samples - v_min)).max(axis=0)
            drop = delta * vols * top
        _scatter_add(k_acc, slots, block)
        diagonal = np.broadcast_to(2.0 * scaled, (m, scaled.size))
        _scatter_add(m_acc, slots, np.concatenate([diagonal, scaled * u]))
        f += np.bincount(cells.ravel(), np.repeat(scaled * lam, m), nv)
        drop = np.where(lam < 0.0, np.inf, drop)
        deficit += np.bincount(cells.ravel(), np.repeat(drop, m), nv)
    return _hermitian_matrix(mesh, k_acc), _hermitian_matrix(mesh, m_acc), f, deficit


# ---------------------------------------------------------------------------
# covariant forms: single-form entries into the cell pass


def covariant_mass(transports):
    """Transport-weighted mass matrix, entries M_xy U_xy.

    Reduces to the classical P1 mass matrix when U = 1 and is Hermitian by
    the reversal symmetry U_yx = conj(U_xy).
    """
    return _cell_pass(transports, None, None)[1]


def covariant_stiffness(transports, potential=None, *, with_mass=False):
    """Assembled covariant stiffness matrix on all vertices of the table's mesh.

    With vertex samples ``potential`` the matrix includes the potential term
    of :func:`potential_matrix`.  With ``with_mass`` the same pass over the
    cells also gives the covariant mass, the mass floor f (M - diag(f) PSD)
    and the potential deficit of ``_cell_pass``, and the result is the tuple
    (stiffness, mass, floor, deficit).
    """
    potential = _potential_samples(transports.mesh, potential)
    forms = _cell_pass(transports, _covariant_kinetic, potential)
    return forms if with_mass else forms[0]


def potential_matrix(transports, values):
    """Transport-weighted scalar potential term.

    The potential is the P1 interpolant of its vertex samples ``values``;
    entries are sum_z V_z (int_T lambda_x lambda_y lambda_z) U_xy, with the
    cubic integrals evaluated exactly.  For constant V and U = 1 this is
    exactly V times the mass matrix.
    """
    return _cell_pass(transports, None, _potential_samples(transports.mesh, values))[0]


# ---------------------------------------------------------------------------
# conventional baseline


def standard_galerkin(circulation):
    """Conventional P1 pair (stiffness, mass) for |grad u + i A u|^2.

    A is the Whitney 1-form interpolant of the edge circulations, which on a
    cell is A = sum_m lambda_m w_m with w_m = sum_b A_mb grad lambda_b.  The
    quadratic |A|^2 term makes the integrand quartic in the barycentric
    coordinates; everything is integrated exactly.  This discretization is
    consistent but NOT gauge invariant: discrete gauge maps do not conjugate
    it, which is the behaviour the covariant assembly exists to fix.
    """
    kinetic = _galerkin_kinetic(circulation)
    return _cell_pass(unit_transports(circulation.mesh), kinetic, None)[:2]


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
    return HermitianSparse(matrix.to_csr()[keep][:, keep])


def assemble_scalar_problem(circulation, potential=None, method="covariant"):
    """Assemble and Dirichlet-reduce the scalar eigenvalue problem on the
    mesh ``circulation.mesh``.

    Parameters
    ----------
    circulation : EdgeCirculation
        Gauge data; use ``circulate(spec, mesh)`` for uniform fields.
    potential : (nv,) array, optional
        Vertex samples of a scalar potential V.
    method : {"covariant", "baseline"}
        Gauge-invariant assembly or the conventional Galerkin baseline.
    """
    if method not in ("covariant", "baseline"):
        raise ValueError(f"unknown method {method!r}")
    mesh = circulation.mesh
    potential = _potential_samples(mesh, potential)
    if method == "covariant":
        stiffness, mass, floor, deficit = covariant_stiffness(
            make_transports(circulation), potential, with_mass=True
        )
    else:
        stiffness, mass, floor, deficit = _cell_pass(
            unit_transports(mesh), _galerkin_kinetic(circulation), potential
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
    upper = sparse.triu(matrix.to_csr(), format="coo")  # row-major, as stored
    lines = [f"{matrix.n} {upper.nnz}"]
    for r, c, v in zip(upper.row, upper.col, upper.data):
        lines.append(f"{int(r)} {int(c)} {repr(float(v.real))} {repr(float(v.imag))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
