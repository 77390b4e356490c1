"""Generalized Hermitian eigensolvers and spectrum post-processing.

The solver takes one assembled problem: the interior pencil (H, M) and the
two floors assembly proves about it.  Small problems go through dense LAPACK
(scipy.linalg.eigh on the pencil); larger ones use ARPACK shift-invert with a
deterministic start vector and one factor of H - sigma M, with sigma placed
by those floors, and a Rayleigh-Ritz finish.  The factor is LAPACK's band
Cholesky where H - sigma M is a narrow band, as numbered or in reverse
Cuthill-McKee order, and a symmetric-mode SuperLU factor where it is not.
All returned eigenvectors are M-orthonormal and phase-fixed so repeated runs
are reproducible and gauge-paired solves can be compared pointwise.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence

__all__ = [
    "DefinitenessError",
    "ConvergenceError",
    "SpectrumResult",
    "solve_hermitian_gevp",
    "reconstruct_field",
]

# Problems at or below this many DOFs are solved densely.  Measured, dense
# vs ARPACK on the band factor (best of 15, interleaved, one core, one BLAS
# thread, uniform B, Xeon VM), in ms at k = 2 / k = 6:
#
#   2D scalar  100-121  n=11 (100 DOFs): 2.5 vs 3.4 / 2.8 vs 4.5;
#                       n=12 (121): 3.0 vs 2.4 / 3.9 vs 3.7;
#                       n=13 (144): 6.3 vs 3.7 / 6.9 vs 4.7
#   3D scalar  125-216  n=6 (125 DOFs): 4.1 vs 5.3 / 4.3 vs 5.7;
#                       n=7 (216): 15.5 vs 6.1 / 17.1 vs 7.4
#
# No cutoff sends every size to its faster path: 2D n=12 is faster on
# ARPACK, 3D n=6, with more unknowns, dense.  Whole CLI jobs differ less
# (median of 25, ARPACK over dense: 2D n=12 0.84x at k = 3 and 0.96x at
# k = 6 with a well, 3D n=6 1.00x and 1.07x), so the cutoff stays between
# 125 and 144.  A Pauli job runs one such scalar solve, so the same
# crossover holds.
DENSE_CUTOFF = 140

# The ARPACK path factors H - sigma M as a band Cholesky when its band array
# holds at most this many entries, n (kd + 1) with kd the half-bandwidth in
# the factor's numbering, and with SuperLU above.  Measured on pencils in
# reverse Cuthill-McKee (RCM) order where that is narrower, the factor plus
# 36 solves at the solver's shift (median of 15-21, interleaved, one core,
# one BLAS thread, B = 3 in 2D and (0.3, 0.2, 1) in 3D, wells of depth -40
# in 2D and -5 in 3D, Xeon VM), in ms, SuperLU vs band:
#
#   2D  sigma = 0:    n=68 (305k entries) 30 vs 32;  n=72 (363k) 33 vs 37;
#                     n=76 (428k) 35 vs 44;  n=80 (499k) 52 vs 62;
#                     n=84 (579k) 72 vs 75;  n=96 (866k) 63 vs 92
#       with a well:  n=44 (81k) 14 vs 8;  n=80 (499k) 63 vs 59
#   3D  sigma = 0:    n=12 (129k) 16 vs 11;  n=14 (294k) 43 vs 33;
#                     n=15 (425k) 81 vs 51;  n=16 (597k) 79 vs 63
#       with a well:  n=12 (164k) 33 vs 16;  n=14 (376k) 66 vs 36;
#                     n=15 (543k) 136 vs 65;  n=16 (763k) 189 vs 89
#
# RCM cuts the 3D boxes' kd by 7-22 % (n=15: 196 -> 154 at sigma = 0, 211 ->
# 197 with a well) and leaves the 2D boxes' within 1.  The band wins at every
# 3D size, and loses by 1.1-1.5x at 2D sigma = 0 from about 350k entries, so
# no cutoff on the band size serves both: this one sends every 3D pencil up
# to n=15 to the band at either sigma and keeps 2D n >= 84 on SuperLU.  The
# band array at the cutoff holds 9 MB.
BAND_CUTOFF = 560_000

# Restarts (Arnoldi update iterations) allowed to the shift-invert ARPACK solve,
# against scipy's 10 n.  Most measured: 16 over the CI lines and seed-0 benchmark
# jobs, 35 on solve --dim 2 --n 32 --b 300 --a0 0.3,0.1 --potential well:-200,0.3
# --k 4.  A stalled Landau cluster (2D n=40, B = 600) fails after ~1,000 solves.
ARPACK_MAXITER = 100

# Neighbouring eigenvalues closer than this (relative) are flagged as a
# multiplet; their eigenvectors are only defined up to mixing.
MULTIPLET_GAP = 1e-12


class DefinitenessError(RuntimeError):
    """The mass matrix is not positive definite."""

    def __init__(self, eigenvalue):
        self.eigenvalue = float(eigenvalue)
        super().__init__("mass matrix is not positive definite (smallest "
                         f"eigenvalue {self.eigenvalue:.6e})")


class ConvergenceError(RuntimeError):
    """The eigensolver failed or did not reach the requested tolerance."""

    def __init__(self, best_residual, message=None):
        self.best_residual = float(best_residual)
        super().__init__(message or "eigensolver did not converge "
                         f"(best residual {self.best_residual:.3e})")


@dataclass
class SpectrumResult:
    """Eigenpairs of a Hermitian pencil (H, M).

    Attributes
    ----------
    eigenvalues : (k,) float ndarray, ascending
    eigenvectors : (k, n) complex ndarray
        M-normalized; the largest-modulus entry of each vector is rotated to
        be real and positive so phases are deterministic.
    residuals : (k,) float ndarray
        ||H u - E M u||_2 / ||u||_2 per pair.
    multiplet : (k,) bool ndarray
        True where the eigenvalue sits within ``MULTIPLET_GAP`` (relative) of
        a neighbour; such eigenvectors are only fixed up to mixing.
    method_tag : str
        "dense-eigh" or "arpack-shift-invert".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    multiplet: np.ndarray
    method_tag: str


def _flag_multiplets(vals):
    flags = np.zeros(vals.size, dtype=bool)
    gap = np.abs(np.diff(vals))
    close = gap < MULTIPLET_GAP * np.maximum(1.0, np.abs(vals[:-1]))
    flags[:-1] |= close
    flags[1:] |= close
    return flags


def _fix_phases(vecs):
    """Rotate each row's largest-modulus entry to be real and positive, in place."""
    # re^2 + im^2 and np.hypot round like scalar code; a SIMD complex np.abs may not
    top = vecs[np.arange(len(vecs)), np.argmax(vecs.real**2 + vecs.imag**2, axis=1)]
    vecs *= np.conj(top / np.hypot(top.real, top.imag))[:, None]
    return vecs


def _residual_norms(vals, vecs, hx, mx):
    """||H v - E M v||_2 / ||v||_2 for each column v of vecs, from the
    products hx = H vecs and mx = M vecs.  BLAS nrm2 scales as it sums, so a
    norm that fits in a float does not overflow on the way."""
    r = hx - mx * vals
    return np.array([scipy.linalg.norm(r[:, i], check_finite=False)
                     / scipy.linalg.norm(vecs[:, i], check_finite=False)
                     for i in range(vecs.shape[1])])


def _postprocess(vals, vecs, hx, mx, tol, tag):
    """Check and package ascending eigenvalues and their M-orthonormal
    eigenvectors (the columns of vecs), given hx = H vecs and mx = M vecs."""
    residuals = _residual_norms(vals, vecs, hx, mx)
    worst = residuals.max()
    if not worst <= tol:  # a NaN residual fails too
        raise ConvergenceError(worst)
    vecs = _fix_phases(np.ascontiguousarray(vecs.T))  # (k, n)
    return SpectrumResult(vals, vecs, residuals, _flag_multiplets(vals), tag)


def _gershgorin_min(h_csr):
    """g with x^H H x >= g ||x||^2: the least diagonal minus row radius."""
    # np.hypot rounds like scalar abs(); a SIMD complex np.abs may not
    data, diag = h_csr.data, h_csr.diagonal()
    moduli = sparse.csr_matrix((np.hypot(data.real, data.imag), h_csr.indices,
                                h_csr.indptr), shape=h_csr.shape)
    radii = np.asarray(moduli.sum(axis=1)).ravel() - np.hypot(diag.real, diag.imag)
    return float((diag.real - radii).min())


def _shift_invert_solver(a):
    """x -> A^-1 x for the Hermitian positive definite CSR matrix A.

    The band factor numbers the unknowns itself: by reverse Cuthill-McKee
    (RCM) where that narrows the band by two columns or more, and as given
    otherwise (the row-major 2D boxes), since a renumbered solve gathers its
    input and output, about the memory traffic of one band column.  A
    narrow band, n (kd + 1) <= ``BAND_CUTOFF`` with kd the largest col - row
    over A's stored entries in the chosen numbering, takes LAPACK's band
    Cholesky (``zpbtrf``/``zpbtrs``), permuted inside the returned solve so
    that its input and output keep A's numbering; a wider one takes a
    symmetric-mode SuperLU factor of A as given.  A is the sparse difference
    H - sigma M, which stores no exact zeros, so at sigma = 0 both see H on
    its true nonzero pattern, without the zeros H stores (orthogonal Kuhn
    pairs of a field-only stiffness).  The returned function holds only the
    factor; it may overwrite its argument (a band solve as numbered does).
    """
    n = a.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(a.indptr)), a.indices
    kd = int((cols - rows).max(initial=0))
    order = reverse_cuthill_mckee(a, symmetric_mode=True).astype(np.intp)
    rank = np.empty_like(order)  # the RCM index of each unknown
    rank[order] = np.arange(n)
    rcm_rows, rcm_cols = rank[rows], rank[cols]
    rcm_kd = int((rcm_cols - rcm_rows).max(initial=0))
    if rcm_kd <= kd - 2:
        rows, cols, kd = rcm_rows, rcm_cols, rcm_kd
    else:  # x[:] is a view: the solve gathers nothing
        order = rank = slice(None)
    if n * (kd + 1) <= BAND_CUTOFF:
        # LAPACK upper band storage: A[i, j], i <= j, at ab[kd + i - j, j]
        upper = rows <= cols
        ab = np.zeros((kd + 1, n), np.complex128, order="F")
        ab[kd + rows[upper] - cols[upper], cols[upper]] = a.data[upper]
        chol, info = scipy.linalg.lapack.zpbtrf(ab, lower=0, overwrite_ab=1)
        if info > 0:  # e.g. after overflow
            raise ConvergenceError(
                np.inf, f"shift-invert factorization failed: pivot {info} "
                "is not positive"
            )
        return lambda x: scipy.linalg.lapack.zpbtrs(
            chol, x[order], overwrite_b=1)[0][rank]
    # Diagonal pivots are stable on a positive definite matrix, and a
    # symmetric ordering of the pattern cuts the fill.  The solver uses the
    # factor only through ``solve``; it never reads its ``L`` or ``U``
    # attributes (for example to count pivot signs): SuperLU builds them as
    # copies of both factors, cached for the factor's lifetime.
    try:
        lu = spla.splu(
            a.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # an exactly singular pivot, e.g. after overflow
        raise ConvergenceError(
            np.inf, f"shift-invert factorization failed: {exc}"
        ) from None
    return lu.solve


def solve_hermitian_gevp(problem, k, tol=1e-9, seed=0):
    """Smallest k eigenpairs of H u = E M u with H Hermitian, M HPD.

    Problems with at most ``DENSE_CUTOFF`` DOFs, and requests with
    k >= n - 1, which ARPACK cannot do, use dense LAPACK.  The ARPACK path
    factors H - sigma M once, at a shift proven to lie below the spectrum,
    so the matrix is Hermitian positive definite: as a band Cholesky when
    its band array holds at most ``BAND_CUTOFF`` entries, numbering the
    unknowns by reverse Cuthill-McKee where that narrows the band by two
    columns or more (the eigenvectors keep the problem's numbering), and
    with SuperLU otherwise.  ARPACK runs in shift-invert mode with the
    Euclidean inner product on (H - sigma M)^-1 M, whose eigenvalues are
    1 / (E - sigma): one solve and one M-product per step.  A Rayleigh-Ritz
    step of the pencil on its k Ritz vectors then gives real eigenvalues and
    M-orthonormal eigenvectors, also in exactly degenerate clusters.

    Parameters
    ----------
    problem : AssembledProblem
        The pencil H = ``stiffness``, M = ``mass`` (HermitianSparse, same
        size n) and its two certificates.  M must be positive definite
        (checked).  ``mass_floor`` is a proven lower bound mu on M's
        smallest eigenvalue, M - mu I positive semidefinite, 0 for none.
        When mu > 0, M is certified and nothing is measured; otherwise (the
        certificate is sufficient, not necessary) mu becomes M's smallest
        eigenvalue, measured before either path runs, by LAPACK when dense
        and by a Lanczos probe otherwise.  ``spectrum_floor`` is a proven
        lower bound s on the smallest eigenvalue, -inf for none.  It only
        places the ARPACK shift: sigma = 0 when the Gershgorin bound g
        proves H positive definite, and otherwise
        sigma = max(g / (0.9 mu), s) - 1, so H - sigma M >= mu I.
    k : int
        Number of eigenpairs, 1 <= k <= n.
    tol : float
        Acceptance threshold for the residuals ||H u - E M u||_2 / ||u||_2,
        in the units of H and M rather than relative; finite and positive.
    seed : int
        Seeds the ARPACK start vector; fixed seed gives bit-reproducible runs.

    Raises
    ------
    DefinitenessError
        M's measured smallest eigenvalue, ``eigenvalue``, is not positive.
    ConvergenceError
        The mass probe stalled, the shift-invert factor met a pivot that is
        not positive (band) or an exactly singular one (SuperLU), ARPACK
        failed or stalled, the Ritz vectors are not M-independent, or a
        residual exceeds ``tol``; the message says which.
    numpy.linalg.LinAlgError
        LAPACK failed on the dense pencil; it passes unchanged.
    """
    H, M = problem.stiffness, problem.mass
    if H.n != M.n:
        raise ValueError("H and M sizes differ")
    n = H.n
    if n == 0:
        raise ValueError("empty problem")
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k!r}")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")

    h_csr = H.to_csr()
    m_csr = M.to_csr()
    dense = n <= DENSE_CUTOFF or k >= n - 1
    if not dense:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    mu = problem.mass_floor
    if mu <= 0.0:
        # No certificate: measure the smallest eigenvalue of M.
        if dense:
            mu = scipy.linalg.eigh(m_csr.toarray(), eigvals_only=True,
                                   subset_by_index=[0, 0])[0]
        else:
            try:
                mu = spla.eigsh(m_csr, k=1, which="SA", tol=1e-8, v0=v0,
                                return_eigenvectors=False)[0]
            except ArpackNoConvergence as exc:
                raise ConvergenceError(
                    np.inf, f"mass definiteness probe stalled: {exc}"
                ) from None
        if mu <= 0.0:
            raise DefinitenessError(mu)

    if dense:
        vals, vecs = scipy.linalg.eigh(h_csr.toarray(), m_csr.toarray(),
                                       subset_by_index=[0, k - 1])
        return _postprocess(vals, vecs, h_csr @ vecs, m_csr @ vecs, tol, "dense-eigh")

    # Any sigma strictly below the smallest pencil eigenvalue keeps H - sigma M
    # positive definite and makes the smallest eigenvalues the ARPACK 'LM'
    # targets.  For sigma <= 0, x^H (H - sigma M) x >= (g - sigma mu) ||x||^2,
    # so any sigma below g / mu will do.  That bound sits far below the
    # spectrum under a deep well, where the problem's certified floor is the
    # tighter one; a shift nearer the spectrum needs fewer ARPACK iterations.
    g_min = _gershgorin_min(h_csr)
    if g_min > 0.0:
        sigma = 0.0
    else:
        sigma = max(float(g_min / (0.9 * mu)), problem.spectrum_floor) - 1.0

    solve = _shift_invert_solver(h_csr - sigma * m_csr)
    # no M given: ARPACK reads only the size and dtype of its matrix argument;
    # for complex input eigsh hands every argument to eigs unchanged
    op_inv = spla.LinearOperator(
        (n, n), matvec=lambda x: solve(m_csr @ x), dtype=np.complex128
    )
    try:
        ritz = spla.eigsh(h_csr, k=k, sigma=sigma, OPinv=op_inv, which="LM",
                          tol=tol * 1e-2, v0=v0, maxiter=ARPACK_MAXITER)[1]
    except ArpackNoConvergence as exc:
        best = np.inf
        if len(exc.eigenvalues):
            vv = exc.eigenvectors
            best = _residual_norms(exc.eigenvalues, vv, h_csr @ vv, m_csr @ vv).min()
        raise ConvergenceError(best) from None
    except spla.ArpackError as exc:  # e.g. -9, a start vector the operator zeroed
        raise ConvergenceError(np.inf, f"shift-invert ARPACK failed: {exc}") from None
    # Rayleigh-Ritz of the pencil in span(ritz)
    hx, mx = h_csr @ ritz, m_csr @ ritz
    ritz_h = ritz.conj().T
    try:
        vals, y = scipy.linalg.eigh(ritz_h @ hx, ritz_h @ mx, check_finite=False)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            np.inf, "ARPACK Ritz vectors are not M-independent"
        ) from None
    return _postprocess(vals, ritz @ y, hx @ y, mx @ y, tol, "arpack-shift-invert")


def reconstruct_field(coefficients, interior):
    """Scatter interior coefficient vectors to per-vertex fields.

    ``interior`` is the vertex mask ``AssembledProblem.interior``; the
    coefficients follow its interior vertices in ascending order.  Accepts a
    single (n,) vector or a stack (..., n); boundary vertices get exact zeros
    (the Dirichlet condition).
    """
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    n = np.count_nonzero(interior)
    if coefficients.shape[-1] != n:
        raise ValueError(
            f"expected {n} interior coefficients, got {coefficients.shape[-1]}"
        )
    out = np.zeros(coefficients.shape[:-1] + (len(interior),), dtype=np.complex128)
    out[..., interior] = coefficients
    return out
