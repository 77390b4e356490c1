"""The package API is its modules' ``__all__`` lists, re-exported."""

import types

import gaugefem
from gaugefem import assembly, eigensolve, gauge, mesh, pauli

MODULES = (mesh, gauge, assembly, eigensolve, pauli)

# the public names of the package when it still listed them itself
PACKAGE_NAMES = {
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
}


def test_package_all_is_the_module_lists_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert gaugefem.__all__ == [*names, "__version__"]
    assert len(set(gaugefem.__all__)) == len(gaugefem.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gaugefem, name) is getattr(module, name)
    assert set(gaugefem.__all__) == PACKAGE_NAMES


def test_package_namespace_holds_only_the_api_and_submodules():
    public = {name for name in dir(gaugefem) if not name.startswith("_")
              and not isinstance(getattr(gaugefem, name), types.ModuleType)}
    assert public == PACKAGE_NAMES - {"__version__"}
