"""Generalized Hermitian eigensolvers and spectrum post-processing.

The solver takes one assembled problem: the interior pencil (H, M) and the
two floors assembly proves about it.  Small problems go through dense LAPACK
(scipy.linalg.eigh on the pencil); larger ones use ARPACK shift-invert with a
deterministic start vector and an explicit symmetric-mode LU factor of
H - sigma M, with sigma placed by those floors, and a Rayleigh-Ritz finish.
All returned eigenvectors are M-orthonormal and phase-fixed so repeated runs
are reproducible and gauge-paired solves can be compared pointwise.
"""

import gc
import weakref

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import ArpackNoConvergence

__all__ = [
    "DENSE_CUTOFF",
    "MULTIPLET_GAP",
    "DefinitenessError",
    "ConvergenceError",
    "SpectrumResult",
    "solve_hermitian_gevp",
    "reconstruct_field",
]

# Problems at or below this many DOFs are solved densely.  Measured
# crossover, dense vs ARPACK (best of 15, interleaved, one core, one BLAS
# thread, uniform B, Xeon VM), in ms at k = 2 / k = 6:
#
#   2D scalar  121-144  n=12 (121 DOFs): 3.0 vs 3.5 / 3.9 vs 4.3;
#                       n=13 (144): 5.6 vs 3.6 / 5.9 vs 4.6;
#                       n=14 (169): 7.9 vs 3.8 / 8.4 vs 4.9
#   3D scalar  125-216  n=6 (125 DOFs): 3.1 vs 4.7 / 3.6 vs 5.4;
#                       n=7 (216): 13.0 vs 6.3 / 13.1 vs 7.0
#
# The box meshes' (n - 1)^d unknowns skip from 125 to 144, so a cutoff
# between them sends every measured size to its faster path.  A Pauli job
# runs one such scalar solve, so the same crossover holds.
DENSE_CUTOFF = 140

# Neighbouring eigenvalues closer than this (relative) are flagged as a
# multiplet; their eigenvectors are only defined up to mixing.
MULTIPLET_GAP = 1e-12


class DefinitenessError(RuntimeError):
    """The mass matrix is not positive definite."""

    def __init__(self, pivot):
        self.pivot = float(pivot)
        super().__init__(
            f"mass matrix is not positive definite "
            f"(smallest detected pivot {self.pivot:.6e})"
        )


class ConvergenceError(RuntimeError):
    """The iterative eigensolver did not reach the requested tolerance."""

    def __init__(self, best_residual, message=None):
        self.best_residual = float(best_residual)
        super().__init__(
            message
            or f"eigensolver did not converge (best residual {self.best_residual:.3e})"
        )


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
    if vals.size > 1:
        gap = np.abs(np.diff(vals))
        close = gap < MULTIPLET_GAP * np.maximum(1.0, np.abs(vals[:-1]))
        flags[:-1] |= close
        flags[1:] |= close
    return flags


def _fix_phases(vecs):
    """Rotate each row's largest-modulus entry to be real and positive, in place."""
    top = vecs[np.arange(vecs.shape[0]), np.argmax(np.abs(vecs), axis=1)]
    # np.hypot rounds like scalar abs(); a SIMD complex np.abs may not
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


def _gershgorin_lower(h_csr):
    """Per-row g with x^H H x >= sum_i g_i |x_i|^2: diagonal minus row radius."""
    # np.hypot rounds like scalar abs(); a SIMD complex np.abs may not
    data, diag = h_csr.data, h_csr.diagonal()
    moduli = sparse.csr_matrix((np.hypot(data.real, data.imag), h_csr.indices,
                                h_csr.indptr), shape=h_csr.shape)
    radii = np.asarray(moduli.sum(axis=1)).ravel() - np.hypot(diag.real, diag.imag)
    return diag.real - radii


def solve_hermitian_gevp(problem, k, tol=1e-9, seed=0):
    """Smallest k eigenpairs of H u = E M u with H Hermitian, M HPD.

    Problems with at most ``DENSE_CUTOFF`` DOFs, and requests with
    k >= n - 1, which ARPACK cannot do, use dense LAPACK.  The ARPACK path
    factors H - sigma M once, at a shift proven to lie below the spectrum,
    and uses the factor only through ``solve``.  It never reads the factor's
    ``L`` or ``U`` attributes (for example to count pivot signs): SuperLU
    builds them as copies of both factors, cached for the factor's lifetime.
    ARPACK runs in shift-invert mode with the Euclidean inner product on
    (H - sigma M)^-1 M, whose eigenvalues are 1 / (E - sigma): one solve and
    one M-product per step.  A Rayleigh-Ritz step of the pencil on its k
    Ritz vectors then gives real eigenvalues and M-orthonormal eigenvectors,
    also in exactly degenerate clusters; if those vectors are not
    M-independent it raises :class:`ConvergenceError`.

    Parameters
    ----------
    problem : AssembledProblem
        The pencil H = ``stiffness``, M = ``mass`` (HermitianSparse, same
        size n) and its two certificates.  M must be positive definite
        (checked, raises :class:`DefinitenessError` naming the smallest
        detected pivot).  ``mass_floor`` is a proven (n,) floor f with
        M - diag(f) positive semidefinite; when min f > 0 the ARPACK path
        takes M as positive definite, and when it is None or min f <= 0 (the
        certificate is sufficient, not necessary) a Lanczos probe of M runs.
        ``spectrum_floor`` is a proven lower bound s on the smallest
        eigenvalue, -inf for none.  It only places the ARPACK shift:
        sigma = 0 when the Gershgorin bound proves H positive definite, and
        otherwise sigma = max(min_i g_i / (0.9 f_i), s) - 1 with g the
        Gershgorin rows of H, so H - sigma M >= diag(f).
    k : int
        Number of eigenpairs, 1 <= k <= n.
    tol : float
        Acceptance threshold for the relative residuals; finite and positive.
    seed : int
        Seeds the ARPACK start vector; fixed seed gives bit-reproducible runs.
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

    if n <= DENSE_CUTOFF or k >= n - 1:
        md = m_csr.toarray()
        try:
            # eigh factors M itself and fails on the first nonpositive pivot
            vals, vecs = scipy.linalg.eigh(h_csr.toarray(), md, subset_by_index=[0, k - 1])
        except np.linalg.LinAlgError:
            pivot = scipy.linalg.eigh(md, eigvals_only=True, subset_by_index=[0, 0])[0]
            if pivot > 0.0:
                raise
            raise DefinitenessError(pivot) from None
        return _postprocess(vals, vecs, h_csr @ vecs, m_csr @ vecs, tol, "dense-eigh")

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    floor = problem.mass_floor
    if floor is None or floor.min() <= 0.0:
        # No certificate: a positive-definiteness probe of M.
        try:
            floor = spla.eigsh(
                m_csr, k=1, which="SA", tol=1e-8, v0=v0, return_eigenvectors=False
            )[0]
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                np.inf, f"mass definiteness probe stalled: {exc}"
            ) from None
        if floor <= 0.0:
            raise DefinitenessError(floor)

    # Any sigma strictly below the smallest pencil eigenvalue keeps H - sigma M
    # positive definite and makes the smallest eigenvalues the ARPACK 'LM'
    # targets.  For sigma <= 0, x^H (H - sigma M) x >= sum_i (g_i - sigma f_i)
    # |x_i|^2, so any sigma below min g_i / f_i will do.  That bound sits far
    # below the spectrum under a deep well, where the problem's certified
    # floor is the tighter one; a shift nearer the spectrum needs fewer
    # ARPACK iterations.
    lower = _gershgorin_lower(h_csr)
    if lower.min() > 0.0:
        sigma = 0.0
    else:
        sigma = max(float(np.min(lower / (0.9 * floor))), problem.spectrum_floor) - 1.0

    # H - sigma M is Hermitian positive definite, so diagonal pivots are
    # stable and a symmetric ordering of the pattern cuts the fill.  The
    # sparse difference stores no exact zeros, so at sigma = 0 the ordering
    # sees H on its true nonzero pattern, without the zeros H stores
    # (orthogonal Kuhn pairs of a field-only stiffness).
    try:
        lu = spla.splu(
            (h_csr - sigma * m_csr).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # an exactly singular pivot, e.g. after overflow
        raise ConvergenceError(
            np.inf, f"shift-invert factorization failed: {exc}"
        ) from None
    # ARPACK's shift-invert mode in the Euclidean inner product (no M given):
    # one application of (H - sigma M)^-1 M per step.  eigs reads only the
    # size and dtype of its matrix argument here.
    op_inv = spla.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(m_csr @ x), dtype=np.complex128
    )
    op_ref = weakref.ref(op_inv)
    failure = None
    try:
        ritz = spla.eigs(
            h_csr, k=k, sigma=sigma, OPinv=op_inv, which="LM", tol=tol * 1e-2, v0=v0
        )[1]
    except ArpackNoConvergence as exc:
        best = np.inf
        if len(exc.eigenvalues):
            vv = exc.eigenvectors
            best = _residual_norms(exc.eigenvalues, vv, h_csr @ vv, m_csr @ vv).min()
        failure = (best, None)
    except spla.ArpackError as exc:  # e.g. -9, a start vector the operator zeroed
        failure = (np.inf, f"shift-invert ARPACK failed: {exc}")
    del lu, op_inv  # from here on only a reference cycle can keep the factor alive
    # A reference cycle around the ARPACK state, which holds OPinv and the
    # n x ncv workspace, would keep the factor alive through the caller's next
    # assembly and solve until a collection found it.  (scipy's generalized
    # eigsh made one; eigs in this mode makes none in scipy 1.17, but nothing
    # in its interface promises that.)  Every object of such a cycle is made
    # during this solve, so it is normally still in generation 0 or 1, and a
    # young-generation pass (well under 1 ms) frees it without the full
    # collection's walk over every live object (9-17 ms).  An automatic
    # generation-1 collection during eigs can promote the cycle to the oldest
    # generation; the full pass, run only when OPinv outlived the young one,
    # catches that.
    gc.collect(1)
    if op_ref() is not None:
        gc.collect()
    if failure is not None:
        # built here: an error held in a local would sit in a cycle with this
        # frame through its own traceback
        raise ConvergenceError(*failure)
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
