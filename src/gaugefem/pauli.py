"""Pauli operator: spinor states, Zeeman coupling, assembly and solve.

Spinors are C^2-valued vertex fields stored block-wise: all spin-up
coefficients first, then all spin-down.  For the uniform fields of
:class:`gaugefem.gauge.GaugeFieldSpec` the Pauli pencil is
H = I2 (x) K - (sigma . B) (x) M_U, M = I2 (x) M_U, with K the scalar
covariant stiffness plus potential and M_U the covariant mass.  sigma . B is
one constant Hermitian 2x2 matrix with eigenvalues +-|B|; in the basis of
its eigenvectors chi_-, chi_+ the pencil is diag(K - |B| M_U, K + |B| M_U)
exactly, for any direction of B.  So the spinor eigenpairs are
(lambda -+ |B|, chi_-+ (x) u) over the scalar eigenpairs (lambda, u) of
(K, M_U), and only the scalar pencil is assembled and solved.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledProblem, assemble_scalar_problem
from .eigensolve import (SpectrumResult, _fix_phases, _flag_multiplets,
                         solve_hermitian_gevp)
from .gauge import circulate

# Unused here, but perfbench/tracing.py wraps these names as attributes of
# this module, and its tests require every traced name to exist.
from .assembly import (  # noqa: F401
    covariant_mass,
    covariant_stiffness,
    eliminate_dirichlet,
    potential_matrix,
)
from .gauge import transports  # noqa: F401

__all__ = [
    "PAULI_MATRICES",
    "sigma_dot",
    "SpinorProblem",
    "assemble_pauli",
    "solve_pauli",
    "spin_components",
]

PAULI_MATRICES = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


def sigma_dot(b):
    """sigma . b for a 3-vector b, a 2x2 Hermitian matrix."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (3,):
        raise ValueError("b must have 3 components")
    return b[0] * PAULI_MATRICES[0] + b[1] * PAULI_MATRICES[1] + b[2] * PAULI_MATRICES[2]


@dataclass
class SpinorProblem(AssembledProblem):
    """The interior scalar pencil (stiffness K, mass M_U) of a Pauli problem
    and the uniform field ``b`` whose Zeeman term splits it."""

    b: np.ndarray


def assemble_pauli(mesh, field_spec, potential=None):
    """Assemble the Pauli eigenvalue problem for a uniform-field potential.

    Parameters
    ----------
    mesh : SimplicialMesh
    field_spec : GaugeFieldSpec
    potential : (nv,) array, optional
        Vertex samples of the scalar potential V (enters both spin blocks).
    """
    scalar = assemble_scalar_problem(circulate(field_spec, mesh), potential)
    return SpinorProblem(**vars(scalar), b=field_spec.b)


def solve_pauli(problem, k, tol=1e-9, seed=0):
    """Smallest k (1 <= k <= 2n) Pauli eigenpairs from one scalar solve.

    Spinors use the up-then-down layout, are M-normalized and have their
    largest-modulus entry real and positive; their residuals equal the
    scalar ones exactly.  Exact ties list the lower branch first.
    """
    n = problem.n
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 2 * n:
        raise ValueError(f"k must be in [1, {2 * n}], got {k!r}")
    # |B|^2 in Python floats, which overflow to inf without a numpy warning
    if not np.isfinite(sum(x * x for x in problem.b.tolist())):
        raise ValueError("the Zeeman term |B| overflows: |B|^2 is not finite")
    scalar = solve_hermitian_gevp(problem, min(k, n), tol=tol, seed=seed)

    # Columns chi_-, chi_+ of -(sigma . B), eigenvalues -|B|, +|B|; at B = 0
    # eigh gives the exact identity, spin up first.
    _, chi = np.linalg.eigh(-sigma_dot(problem.b))
    zeeman = np.linalg.norm(problem.b)
    m = scalar.eigenvalues.size
    energies = np.concatenate([scalar.eigenvalues - zeeman, scalar.eigenvalues + zeeman])
    order = np.argsort(energies, kind="stable")[:k]
    branch, index = np.divmod(order, m)

    u = scalar.eigenvectors[index]
    vecs = _fix_phases(np.hstack([c[:, None] * u for c in chi[:, branch]]))

    energies = energies[order]
    return SpectrumResult(energies, vecs, scalar.residuals[index],
                          _flag_multiplets(energies), scalar.method_tag)


def spin_components(vec, n):
    """Split a spinor coefficient vector (2n entries) into (up, down) halves."""
    vec = np.asarray(vec)
    if vec.shape[-1] != 2 * n:
        raise ValueError("vector length does not match spinor block layout")
    return vec[..., :n], vec[..., n:]
