"""Generalized Hermitian eigensolvers and spectrum post-processing.

Small problems go through dense LAPACK (scipy.linalg.eigh on the pencil);
larger ones use ARPACK shift-invert with a deterministic start vector and an
explicit symmetric-mode LU factor of H - sigma M, with sigma placed by
proven lower bounds on the spectrum.  All returned eigenvectors
are M-normalized and phase-fixed so repeated runs are reproducible and
gauge-paired solves can be compared pointwise.
"""

import gc
import weakref

from dataclasses import dataclass

import numpy as np
import scipy.linalg
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
# crossover, dense vs ARPACK with the mass floor and the explicit factor
# (best of 5, one core, one BLAS thread, k = 4, uniform B, Xeon VM):
#
#   2D scalar  ~170   n=14 (169 DOFs): 7.1 vs 7.4 ms; n=16 (225): 14 vs 8 ms;
#                     n=20 (361): 44 vs 9 ms; n=24 (529): 117 vs 13 ms
#   3D scalar  ~200   n=6 (125 DOFs): 3.6 vs 8.3 ms; n=7 (216): 11 vs 10 ms;
#                     n=8 (343): 34 vs 12 ms
#
# A Pauli job runs one such scalar solve, so the same crossover holds.  The
# constant predates these numbers: it was set when each ARPACK solve also
# paid a full garbage collection, and lowering it is open.
DENSE_CUTOFF = 300

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


def _postprocess(vals, vecs, h_csr, m_csr, tol, tag):
    order = np.argsort(vals, kind="stable")
    vals = np.asarray(vals[order], dtype=np.float64)
    vecs = np.ascontiguousarray(vecs[:, order].T, dtype=np.complex128)  # (k, n)

    norms = np.array([np.sqrt(np.real(np.vdot(v, m_csr @ v))) for v in vecs])
    if np.any(norms == 0.0):
        raise ConvergenceError(np.inf, "eigensolver returned a zero vector")
    vecs = _fix_phases(vecs / norms[:, None])
    residuals = np.array([np.linalg.norm(h_csr @ v - e * (m_csr @ v)) / np.linalg.norm(v)
                          for e, v in zip(vals, vecs)])

    worst = residuals.max() if residuals.size else 0.0
    if worst > tol:
        raise ConvergenceError(worst)
    return SpectrumResult(vals, vecs, residuals, _flag_multiplets(vals), tag)


def _gershgorin_lower(h_csr):
    """Per-row g with x^H H x >= sum_i g_i |x_i|^2: diagonal minus row radius."""
    diag = h_csr.diagonal()
    radii = np.asarray(np.abs(h_csr).sum(axis=1)).ravel() - np.abs(diag)
    return diag.real - radii


def solve_hermitian_gevp(H, M, k, tol=1e-9, seed=0, dense_cutoff=DENSE_CUTOFF,
                         maxiter=None, mass_floor=None, spectrum_floor=-np.inf):
    """Smallest k eigenpairs of H u = E M u with H Hermitian, M HPD.

    The ARPACK path factors H - sigma M once, at a shift proven to lie below
    the spectrum (see ``spectrum_floor``), and uses the factor only through
    ``solve``.  It never reads the factor's ``L`` or ``U`` attributes (for
    example to count pivot signs): SuperLU builds them as copies of both
    factors, cached for the factor's lifetime.

    Parameters
    ----------
    H, M : HermitianSparse
        Same size n; M must be positive definite (checked, raises
        :class:`DefinitenessError` naming the smallest detected pivot).
    k : int
        Number of eigenpairs, 1 <= k <= n.
    tol : float
        Acceptance threshold for the relative residuals; finite and positive.
    seed : int
        Seeds the ARPACK start vector; fixed seed gives bit-reproducible runs.
    dense_cutoff : int
        Problems with n <= dense_cutoff use dense LAPACK, larger ones ARPACK
        shift-invert.  k >= n - 1, which ARPACK cannot do, is always dense.
    maxiter : int, optional
        ARPACK iteration cap.
    mass_floor : float or (n,) array, optional
        A proven floor f with M - diag(f) positive semidefinite, such as the
        per-cell certificate ``AssembledProblem.mass_floor``; a scalar means
        f times the identity.  When min f > 0 the ARPACK path takes M as
        positive definite and uses f in place of a Lanczos probe of M; when
        it is absent or min f <= 0 (the certificate is sufficient, not
        necessary) the probe runs.
    spectrum_floor : float, optional
        A proven lower bound s on the smallest eigenvalue of the pencil,
        such as ``AssembledProblem.spectrum_floor``; -inf (the default)
        means none.  It only places the ARPACK shift: sigma = 0 when the
        Gershgorin bound proves H positive definite, and otherwise
        sigma = max(min_i g_i / (0.9 f_i), s) - 1 with g the Gershgorin
        rows of H and f the mass floor, so H - sigma M >= diag(f).
    """
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

    if n <= dense_cutoff or k >= n - 1:
        md = m_csr.toarray()
        try:
            # eigh factors M itself and fails on the first nonpositive pivot
            vals, vecs = scipy.linalg.eigh(h_csr.toarray(), md, subset_by_index=[0, k - 1])
        except np.linalg.LinAlgError:
            pivot = scipy.linalg.eigh(md, eigvals_only=True, subset_by_index=[0, 0])[0]
            if pivot > 0.0:
                raise
            raise DefinitenessError(pivot) from None
        return _postprocess(vals, vecs, h_csr, m_csr, tol, "dense-eigh")

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    if mass_floor is not None and np.min(mass_floor) > 0.0:
        floor = np.broadcast_to(np.asarray(mass_floor, dtype=np.float64), (n,))
    else:
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
    # below the spectrum under a deep well, where the caller's certified
    # floor is the tighter one; a shift nearer the spectrum needs fewer
    # ARPACK iterations.
    lower = _gershgorin_lower(h_csr)
    if lower.min() > 0.0:
        sigma = 0.0
    else:
        sigma = max(float(np.min(lower / (0.9 * floor))), spectrum_floor) - 1.0

    # H - sigma M is Hermitian positive definite, so diagonal pivots are
    # stable and a symmetric ordering of the pattern cuts the fill.  The
    # sparse difference stores no exact zeros, so at sigma = 0 the ordering
    # sees H on its true nonzero pattern, without the zeros H stores
    # (orthogonal Kuhn pairs of a field-only stiffness).
    lu = spla.splu(
        (h_csr - sigma * m_csr).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.complex128)
    op_ref = weakref.ref(op_inv)
    best = None
    try:
        vals, vecs = spla.eigsh(
            h_csr,
            k=k,
            M=m_csr,
            sigma=sigma,
            which="LM",
            tol=tol * 1e-2,
            v0=v0,
            maxiter=maxiter,
            OPinv=op_inv,
        )
    except ArpackNoConvergence as exc:
        best = np.inf
        if len(exc.eigenvalues):
            vv = exc.eigenvectors
            best = min(
                np.linalg.norm(h_csr @ vv[:, i] - exc.eigenvalues[i] * (m_csr @ vv[:, i]))
                / np.linalg.norm(vv[:, i])
                for i in range(vv.shape[1])
            )
    del lu, op_inv  # from here on only scipy's cycle can keep the factor alive
    # scipy's eigsh leaves its ARPACK state, which holds OPinv and the n x ncv
    # workspace, in a reference cycle, so it would stay alive through the
    # caller's next assembly and solve until a collection found it.  Every
    # object of that cycle was made during this solve, so it is normally
    # still in generation 0 or 1, and a young-generation pass (well under
    # 1 ms) frees it without the full collection's walk over every live
    # object (9-17 ms).  An automatic generation-1 collection during eigsh
    # can promote the cycle to the oldest generation; the full pass, run only
    # when OPinv outlived the young one, catches that.
    gc.collect(1)
    if op_ref() is not None:
        gc.collect()
    if best is not None:
        raise ConvergenceError(best)
    return _postprocess(vals, vecs, h_csr, m_csr, tol, "arpack-shift-invert")


def reconstruct_field(coefficients, dof_map):
    """Scatter interior coefficient vectors to per-vertex fields.

    Accepts a single (n_int,) vector or a stack (..., n_int); boundary
    vertices get exact zeros (the Dirichlet condition).
    """
    coefficients = np.asarray(coefficients, dtype=np.complex128)
    interior = np.flatnonzero(np.asarray(dof_map) >= 0)
    if coefficients.shape[-1] != interior.size:
        raise ValueError(
            f"expected {interior.size} interior coefficients, "
            f"got {coefficients.shape[-1]}"
        )
    out = np.zeros(coefficients.shape[:-1] + (len(dof_map),), dtype=np.complex128)
    out[..., interior] = coefficients
    return out
