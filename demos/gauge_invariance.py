# Discrete gauge invariance of the covariant assembly
# ---------------------------------------------------
# A gauge transformation multiplies the state by per-vertex phases and
# shifts the circulation of the vector potential along every edge.  The
# covariant discretization turns this map into an exact unitary conjugation
# of the stiffness/mass pencil, so the spectrum does not move at all (up to
# solver roundoff).  A standard Galerkin discretization of the same operator
# interpolates the potential inside each cell instead and picks up O(1)
# spectral drift under the very same transformation.

import numpy as np

from gaugefem.assembly import assemble_scalar_problem
from gaugefem.eigensolve import solve_hermitian_gevp
from gaugefem.gauge import (
    GaugeFieldSpec,
    apply_gauge_to_circulation,
    circulate,
    random_gauge,
)
from gaugefem.mesh import build_box_mesh

FIELD_STRENGTH = 1.0
GRID = 8
PHASE_AMPLITUDE = np.pi
N_MODES = 5
SEED = 3


def spectrum(mesh, circulation, method, k=N_MODES):
    """Lowest-k eigenvalues of one discretization of the magnetic pencil."""
    problem = assemble_scalar_problem(mesh, circulation, method=method)
    return solve_hermitian_gevp(problem.stiffness, problem.mass, k=k,
                                mass_floor=problem.mass_floor,
                                spectrum_floor=problem.spectrum_floor).eigenvalues


def drift_table(mesh, circulation, gauge):
    """Per-mode spectral drift of both discretizations under one gauge map."""
    moved = apply_gauge_to_circulation(circulation, gauge)
    rows = []
    for method in ("covariant", "baseline"):
        before = spectrum(mesh, circulation, method)
        after = spectrum(mesh, moved, method)
        rows.append((method, before, np.abs(after - before)))
    return rows


if __name__ == "__main__":
    mesh = build_box_mesh(2, GRID)
    field = GaugeFieldSpec(a0=(0.0, 0.0), b=(0.0, 0.0, FIELD_STRENGTH))
    circulation = circulate(field, mesh)
    gauge = random_gauge(mesh, PHASE_AMPLITUDE, seed=SEED)

    print(
        f"unit square, {GRID}x{GRID} grid, B = {FIELD_STRENGTH}, "
        f"random vertex phases up to pi (seed {SEED})"
    )
    for method, before, drift in drift_table(mesh, circulation, gauge):
        print()
        print(f"{method} assembly")
        print("  mode   eigenvalue       |drift|")
        for i, (value, d) in enumerate(zip(before, drift)):
            print(f"  {i:4d}   {value:12.6f}   {d:11.3e}")
        print(f"  max drift: {np.max(drift):.3e}")
