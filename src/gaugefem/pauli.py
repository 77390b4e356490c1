"""Pauli operator: spinor states, Zeeman coupling, assembly and solve.

Spinors are C^2-valued vertex fields stored block-wise: all spin-up
coefficients first, then all spin-down.  For the uniform fields produced by
:class:`gaugefem.gauge.GaugeFieldSpec`, curl A = B is constant, so the spin
coupling -(sigma . B) multiplies the covariant mass matrix and the full
Hamiltonian block structure is

    H = kron(I2, K + V-term) + kron(-(sigma . B), M_U),   M = kron(I2, M_U).

With B along z the pencil block-diagonalizes and the spectrum is exactly the
scalar one shifted by -b3 (spin up) and +b3 (spin down).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .assembly import (
    HermitianSparse,
    covariant_mass,
    covariant_stiffness,
    eliminate_dirichlet,
    mass_floor,
    potential_matrix,
)
from .eigensolve import solve_hermitian_gevp
from .gauge import circulate, transports
from .mesh import interior_dof_map

__all__ = [
    "PAULI_MATRICES",
    "sigma_dot",
    "spin_block",
    "zeeman_matrix",
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


def spin_block(spin_matrix, scalar_matrix):
    """kron(spin_matrix, scalar_matrix) as a HermitianSparse.

    ``spin_matrix`` must be a Hermitian 2x2 array; the block ordering puts
    all spin-up rows before all spin-down rows.
    """
    s = np.asarray(spin_matrix, dtype=np.complex128)
    if s.shape != (2, 2):
        raise ValueError("spin matrix must be 2x2")
    if not np.allclose(s, s.conj().T, rtol=0.0, atol=1e-14):
        raise ValueError("spin matrix must be Hermitian")
    full = sparse.kron(sparse.csr_matrix(s), scalar_matrix.to_csr(), format="csr")
    return HermitianSparse.from_csr(full)


def zeeman_matrix(mass, field_spec):
    """Spin coupling -(sigma . B) tensor the covariant mass matrix ``mass``.

    Uniform B means sigma . curl A is the constant matrix sigma . B, so the
    cell sums collapse to the covariant mass matrix; the result is the
    2x2-block matrix over all vertices.
    """
    return spin_block(-sigma_dot(field_spec.b), mass)


@dataclass
class SpinorProblem:
    """Interior-eliminated Pauli pencil (h_total, mass) plus bookkeeping.

    ``mass_floor`` is the scalar covariant mass's floor f of
    :func:`gaugefem.assembly.mass_floor` on the interior DOFs, once per spin
    block: mass = kron(I2, M_U) >= kron(I2, diag(f)).
    """

    h_total: HermitianSparse
    mass: HermitianSparse
    dof_map: np.ndarray
    metadata: dict = field(default_factory=dict)
    mass_floor: np.ndarray = None

    @property
    def n_interior(self):
        return self.h_total.n // 2


def assemble_pauli(mesh, field_spec, potential=None, circulation=None):
    """Assemble the Pauli eigenvalue problem for a uniform-field potential.

    Parameters
    ----------
    mesh : SimplicialMesh
    field_spec : GaugeFieldSpec
    potential : (nv,) array, optional
        Vertex samples of the scalar potential V (enters both spin blocks).
    circulation : EdgeCirculation, optional
        Overrides the circulations derived from ``field_spec`` -- the hook
        for feeding in gauge-transformed data.  The Zeeman coupling always
        uses the (gauge-independent) B of ``field_spec``.
    """
    circ = circulate(field_spec, mesh) if circulation is None else circulation
    u = transports(circ)
    scalar = covariant_stiffness(mesh, u)
    if potential is not None:
        potential = np.asarray(potential, dtype=np.float64)
        if np.any(potential != 0.0):
            scalar = scalar + potential_matrix(mesh, u, potential)
    mass = covariant_mass(mesh, u)
    identity = np.eye(2, dtype=np.complex128)
    h_full = spin_block(identity, scalar) + zeeman_matrix(mass, field_spec)
    m_full = spin_block(identity, mass)

    dof = interior_dof_map(mesh)
    meta = {
        "dim": mesh.dim,
        "n_vertices": mesh.n_vertices,
        "h": mesh.h,
        "a0": field_spec.a0.tolist(),
        "b": field_spec.b.tolist(),
        "has_potential": potential is not None and bool(np.any(potential != 0.0)),
    }
    return SpinorProblem(
        eliminate_dirichlet(h_full, dof),
        eliminate_dirichlet(m_full, dof),
        dof,
        meta,
        np.tile(mass_floor(mesh, u)[dof >= 0], 2),
    )


def solve_pauli(problem, k, tol=1e-9, seed=0):
    """Smallest k Pauli eigenpairs; see solve_hermitian_gevp for guarantees."""
    return solve_hermitian_gevp(problem.h_total, problem.mass, k, tol=tol, seed=seed,
                                mass_floor=problem.mass_floor)


def spin_components(vec, n_interior):
    """Split a spinor coefficient vector into (up, down) halves."""
    vec = np.asarray(vec)
    if vec.shape[-1] != 2 * n_interior:
        raise ValueError("vector length does not match spinor block layout")
    return vec[..., :n_interior], vec[..., n_interior:]
