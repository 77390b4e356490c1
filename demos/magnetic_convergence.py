# Second-order convergence with a magnetic field
# -----------------------------------------------
# With a uniform field on the unit square there is no closed-form Dirichlet
# spectrum, so the reference value is produced by Richardson extrapolation:
# for a second-order method on a halving sequence, E* = E_fine +
# (E_fine - E_prev) / 3 cancels the leading h^2 error term.  Errors of the
# coarser levels against E* then exhibit the convergence order directly.
# The finest level is consumed by the extrapolation itself, so orders are
# reported for the remaining consecutive pairs.

import numpy as np

from gaugefem.assembly import assemble_scalar_problem
from gaugefem.eigensolve import solve_hermitian_gevp
from gaugefem.gauge import GaugeFieldSpec, circulate
from gaugefem.mesh import build_box_mesh

LEVELS = (4, 8, 16, 32)
FIELD_STRENGTH = 1.0


def ground_state_sequence(levels, b3=FIELD_STRENGTH):
    """Lowest magnetic eigenvalue on each grid of a halving sequence."""
    values = []
    for n in levels:
        mesh = build_box_mesh(2, n)
        field = GaugeFieldSpec(a0=(0.0, 0.0), b=(0.0, 0.0, b3))
        problem = assemble_scalar_problem(circulate(field, mesh))
        result = solve_hermitian_gevp(problem, k=1)
        values.append(result.eigenvalues[0])
    return np.asarray(values)


def richardson(values):
    """Extrapolated limit from the two finest levels of a halving sequence."""
    return values[-1] + (values[-1] - values[-2]) / 3.0


if __name__ == "__main__":
    values = ground_state_sequence(LEVELS)
    limit = richardson(values)
    errors = np.abs(values - limit)
    orders = np.log2(errors[:-2] / errors[1:-1])

    print(f"unit square, B = {FIELD_STRENGTH}, ground state per level")
    print(f"  Richardson limit from n = {LEVELS[-2]}, {LEVELS[-1]}: {limit:.10f}")
    print("     n    eigenvalue        error")
    for n, value, err in zip(LEVELS, values, errors):
        print(f"  {n:4d}   {value:12.8f}   {err:10.3e}")
    print("  observed orders (finest pair excluded):")
    for (na, nb), p in zip(zip(LEVELS, LEVELS[1:]), orders):
        print(f"  {na:4d} -> {nb:3d}   {p:6.3f}")
