# Zero-field convergence against the Dirichlet Laplacian
# ------------------------------------------------------
# With the magnetic field switched off every edge transport is 1 and the
# covariant pencil reduces to the plain P1 stiffness/mass pair.  On the unit
# box its eigenvalues are known in closed form -- pi^2 times sums of squared
# integers -- so the discretization error is directly observable.  Linear
# elements converge at second order in the mesh width; halving the grid
# spacing should divide each eigenvalue error by about four.

import numpy as np

from gaugefem.assembly import assemble_scalar_problem
from gaugefem.cli import dirichlet_reference
from gaugefem.eigensolve import solve_hermitian_gevp
from gaugefem.gauge import GaugeFieldSpec, circulate
from gaugefem.mesh import build_box_mesh

LEVELS = (4, 8, 16)
N_MODES = 3


def refine(dim, levels, k=N_MODES):
    """Eigenvalues of the zero-field problem on a halving sequence of grids.

    Returns
    -------
    h : (len(levels),) mesh widths
    values : (len(levels), k) ascending eigenvalues per level
    """
    h, values = [], []
    for n in levels:
        mesh = build_box_mesh(dim, n)
        field = GaugeFieldSpec(a0=np.zeros(dim), b=(0.0, 0.0, 0.0))
        problem = assemble_scalar_problem(circulate(field, mesh))
        result = solve_hermitian_gevp(problem, k=k)
        h.append(mesh.h)
        values.append(result.eigenvalues)
    return np.asarray(h), np.asarray(values)


def observed_orders(h, errors):
    """log2 error ratios between consecutive halving levels, per mode."""
    return np.log2(errors[:-1] / errors[1:]) / np.log2(h[:-1] / h[1:])[:, None]


if __name__ == "__main__":
    for dim in (2, 3):
        exact = dirichlet_reference(dim, (1.0,) * dim, N_MODES)
        h, values = refine(dim, LEVELS)
        errors = np.abs(values - exact)
        orders = observed_orders(h, errors)

        print(f"dimension {dim}: exact eigenvalues {np.round(exact, 6)}")
        print("     n        h      " + "".join(f"   err(mode {j})" for j in range(N_MODES)))
        for n, hi, row in zip(LEVELS, h, errors):
            cells = "".join(f"   {e:12.4e}" for e in row)
            print(f"  {n:4d}   {hi:7.4f}{cells}")
        print("  observed orders between consecutive levels:")
        for (na, nb), row in zip(zip(LEVELS, LEVELS[1:]), orders):
            cells = "".join(f"   {p:12.3f}" for p in row)
            print(f"  {na:4d} -> {nb:3d}  {cells}")
        print()
