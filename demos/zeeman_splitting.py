# Zeeman splitting of the Pauli spectrum
# --------------------------------------
# For a uniform field B the spin coupling -(sigma . B) is one constant 2x2
# matrix with eigenvalues -|B| and +|B|, whatever the direction of B.
# Rotating the spin basis onto its eigenvectors splits the Pauli pencil into
# two copies of the scalar magnetic pencil shifted by -|B| and +|B|, so
# solve_pauli runs one scalar solve and merges the two branches.  The table
# below checks that against the full spinor pencil
#
#     H = kron(I2, K) + kron(-(sigma . B), M),   M_spin = kron(I2, M),
#
# built here with scipy.sparse.kron for a tilted field in 3D and solved as
# one problem of twice the size.

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from gaugefem.mesh import build_box_mesh
from gaugefem.gauge import GaugeFieldSpec
from gaugefem.pauli import assemble_pauli, sigma_dot, solve_pauli

GRID = 5
FIELD = (0.3, -0.4, 1.2)
N_MODES = 6


def spinor_pencil(problem):
    """The full spinor pencil (H, M_spin) as dense arrays, spin-up block first."""
    k = problem.stiffness.to_csr()
    m = problem.mass.to_csr()
    zeeman = sparse.csr_matrix(-sigma_dot(problem.b))
    h = sparse.kron(sparse.identity(2), k) + sparse.kron(zeeman, m)
    return h.toarray(), sparse.kron(sparse.identity(2), m).toarray()


if __name__ == "__main__":
    mesh = build_box_mesh(3, GRID)
    field = GaugeFieldSpec(a0=(0.0, 0.0, 0.0), b=FIELD)
    problem = assemble_pauli(mesh, field)

    reduced = solve_pauli(problem, k=N_MODES).eigenvalues
    h, m = spinor_pencil(problem)
    full = scipy.linalg.eigh(h, m, eigvals_only=True, subset_by_index=[0, N_MODES - 1])

    print(f"unit cube, {GRID}^3 grid, B = {FIELD}, |B| = {np.linalg.norm(FIELD):.6f}")
    print(f"spinor pencil: {h.shape[0]} DOFs; scalar solve: {problem.n_interior} DOFs")
    print("  mode   scalar -/+ |B|    full spinor      |difference|")
    for i, (r, f) in enumerate(zip(reduced, full)):
        print(f"  {i:4d}   {r:14.6f}   {f:14.6f}   {abs(r - f):12.3e}")
    print(f"  max |difference|: {np.max(np.abs(reduced - full)):.3e}")
