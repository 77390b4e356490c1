"""Gauge-invariant finite elements for magnetic Schrodinger and Pauli
eigenvalue problems on simplicial box meshes.

The discretization attaches parallel transports U_ij = exp(i A_ij) to mesh
edges, with A_ij the circulation of the vector potential.  Mass and
stiffness forms built from these link variables commute exactly with
discrete gauge transformations, so computed spectra are gauge invariant to
solver precision while retaining second-order eigenvalue convergence.
"""

from .mesh import (
    MeshGeometryError,
    SimplicialMesh,
    build_box_mesh,
    make_mesh,
)
from .gauge import (
    EdgeCirculation,
    GaugeFieldSpec,
    TransportTable,
    apply_gauge_to_circulation,
    circulate,
    random_gauge,
    transports,
    unit_transports,
)
from .assembly import (
    AssembledProblem,
    EmptyProblemError,
    HermitianSparse,
    assemble_scalar_problem,
    covariant_mass,
    covariant_stiffness,
    eliminate_dirichlet,
    export_matrix,
    potential_matrix,
    standard_galerkin,
)
from .eigensolve import (
    ConvergenceError,
    DefinitenessError,
    SpectrumResult,
    reconstruct_field,
    solve_hermitian_gevp,
)
from .pauli import (
    PAULI_MATRICES,
    SpinorProblem,
    assemble_pauli,
    sigma_dot,
    solve_pauli,
    spin_components,
)

__version__ = "0.1.0"

__all__ = [
    "MeshGeometryError", "SimplicialMesh", "build_box_mesh", "make_mesh",
    "EdgeCirculation", "GaugeFieldSpec", "TransportTable",
    "apply_gauge_to_circulation", "circulate", "random_gauge", "transports",
    "unit_transports",
    "AssembledProblem", "EmptyProblemError", "HermitianSparse", "assemble_scalar_problem",
    "covariant_mass", "covariant_stiffness", "eliminate_dirichlet", "export_matrix",
    "potential_matrix", "standard_galerkin",
    "ConvergenceError", "DefinitenessError", "SpectrumResult",
    "reconstruct_field", "solve_hermitian_gevp",
    "PAULI_MATRICES", "SpinorProblem", "assemble_pauli", "sigma_dot",
    "solve_pauli", "spin_components",
    "__version__",
]
