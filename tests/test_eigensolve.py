import gc

import numpy as np
import pytest
import scipy.sparse as sparse

from gaugefem import (
    ConvergenceError,
    DefinitenessError,
    GaugeFieldSpec,
    assemble_scalar_problem,
    build_box_mesh,
    circulate,
    HermitianSparse,
    reconstruct_field,
    solve_hermitian_gevp,
)


def _pencil_from_dense(h, m):
    return (
        HermitianSparse.from_csr(sparse.csr_matrix(np.asarray(h, dtype=complex))),
        HermitianSparse.from_csr(sparse.csr_matrix(np.asarray(m, dtype=complex))),
    )


def _magnetic_problem(dim=2, n=8, bz=1.0):
    mesh = build_box_mesh(dim, n)
    b = (0.0, 0.0, bz)
    circ = circulate(GaugeFieldSpec((0.0,) * dim, b), mesh)
    return mesh, assemble_scalar_problem(mesh, circ)


def test_diagonal_pencil():
    h, m = _pencil_from_dense(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    result = solve_hermitian_gevp(h, m, k=2)
    assert np.allclose(result.eigenvalues, [1.0, 2.0], rtol=1e-12)
    assert result.method_tag == "dense-eigh"


def test_two_by_two_analytic():
    h, m = _pencil_from_dense([[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    result = solve_hermitian_gevp(h, m, k=2)
    assert np.allclose(result.eigenvalues, [1.0, 3.0], rtol=1e-12)


def test_pencil_identity():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    hpd = f @ f.conj().T + 6 * np.eye(6)
    h, m = _pencil_from_dense(hpd, hpd)
    result = solve_hermitian_gevp(h, m, k=1)
    assert result.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)


def test_argument_validation():
    h, m = _pencil_from_dense(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        solve_hermitian_gevp(h, m, k=0)
    with pytest.raises(ValueError):
        solve_hermitian_gevp(h, m, k=4)
    with pytest.raises(ValueError):
        solve_hermitian_gevp(h, m, k=1, tol=-1.0)
    h2, m2 = _pencil_from_dense(np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        solve_hermitian_gevp(h2, m2, k=1)


def test_dirichlet_cube_lowest_eigenvalue():
    # regression-pinned discrete value; the continuum limit 3 pi^2 is a
    # strict lower bound for this conforming discretization
    mesh, problem = _magnetic_problem(dim=3, n=4, bz=0.0)
    result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=1)
    assert result.eigenvalues[0] == pytest.approx(37.49921045975135, rel=1e-10)
    assert result.eigenvalues[0] > 3 * np.pi**2
    assert result.residuals[0] < 1e-9


def test_monotone_refinement_toward_continuum():
    exact2d = 2 * np.pi**2
    values = []
    for n in (2, 4, 8, 16):
        _, problem = _magnetic_problem(dim=2, n=n, bz=0.0)
        result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=1)
        values.append(result.eigenvalues[0])
    assert all(v > exact2d for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))

    exact3d = 3 * np.pi**2
    values = []
    for n in (2, 4, 8):
        _, problem = _magnetic_problem(dim=3, n=n, bz=0.0)
        result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=1)
        values.append(result.eigenvalues[0])
    assert all(v > exact3d for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rayleigh_quotient_consistency():
    tol = 1e-9
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=3, tol=tol)
    h = problem.stiffness.to_csr()
    m = problem.mass.to_csr()
    for e, v in zip(result.eigenvalues, result.eigenvectors):
        assert np.real(np.vdot(v, m @ v)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(v, h @ v) - e) < 10 * tol


def test_shift_invariance():
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    s = 2.75
    base = solve_hermitian_gevp(problem.stiffness, problem.mass, k=3)
    shifted = solve_hermitian_gevp(
        problem.stiffness + s * problem.mass, problem.mass, k=3
    )
    assert np.allclose(shifted.eigenvalues - base.eigenvalues, s, rtol=0, atol=1e-10)
    # eigenvectors agree up to a global phase: unit M-overlap, equal moduli
    m = problem.mass.to_csr()
    for v0, v1 in zip(base.eigenvectors, shifted.eigenvectors):
        assert abs(np.vdot(v0, m @ v1)) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.abs(v0), np.abs(v1), rtol=0, atol=1e-10)


def test_multiplet_flagging():
    h, m = _pencil_from_dense(np.diag([1.0, 1.0 + 1e-14, 2.0]), np.eye(3))
    result = solve_hermitian_gevp(h, m, k=3)
    assert list(result.multiplet) == [True, True, False]


def test_phase_fix_and_determinism():
    _, problem = _magnetic_problem(dim=2, n=6, bz=1.0)
    a = solve_hermitian_gevp(problem.stiffness, problem.mass, k=3, seed=42)
    b = solve_hermitian_gevp(problem.stiffness, problem.mass, k=3, seed=42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for v in a.eigenvectors:
        top = v[np.argmax(np.abs(v))]
        assert top.real > 0
        assert abs(top.imag) < 1e-12


def test_definiteness_error_dense():
    h, m = _pencil_from_dense(np.eye(3), np.diag([1.0, -0.5, 1.0]))
    with pytest.raises(DefinitenessError) as info:
        solve_hermitian_gevp(h, m, k=1)
    assert info.value.pivot < 0


def test_definiteness_error_sparse():
    n = 2100  # above the dense cutoff
    diag = np.ones(n)
    diag[137] = -0.5
    h = HermitianSparse.from_csr(sparse.identity(n, format="csr", dtype=complex))
    m = HermitianSparse.from_csr(sparse.diags(diag, format="csr", dtype=complex))
    with pytest.raises(DefinitenessError):
        solve_hermitian_gevp(h, m, k=2)


def test_convergence_error_unreachable_tolerance():
    h, m = _pencil_from_dense([[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    with pytest.raises(ConvergenceError) as info:
        solve_hermitian_gevp(h, m, k=1, tol=1e-300)
    assert info.value.best_residual > 0


def test_convergence_error_iteration_cap():
    # clustered spectrum: one restart cannot separate the Ritz values
    n = 2100
    diag = 1.0 + 1e-6 * np.arange(n) / n
    h = HermitianSparse.from_csr(sparse.diags(diag, format="csr", dtype=complex))
    m = HermitianSparse.from_csr(sparse.identity(n, format="csr", dtype=complex))
    with pytest.raises(ConvergenceError):
        solve_hermitian_gevp(h, m, k=6, maxiter=1)


def test_iterative_path_matches_dense():
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    dense = solve_hermitian_gevp(problem.stiffness, problem.mass, k=3)
    arpack = solve_hermitian_gevp(
        problem.stiffness, problem.mass, k=3, dense_cutoff=10
    )
    assert arpack.method_tag == "arpack-shift-invert"
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-9)
    assert np.all(arpack.residuals < 1e-9)


def test_iterative_path_with_indefinite_stiffness():
    # shifting the pencil downward makes the lowest eigenvalues negative and
    # exercises the nonzero-shift branch of the iterative solver
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    s = 50.0
    shifted = problem.stiffness + (-s) * problem.mass
    dense = solve_hermitian_gevp(shifted, problem.mass, k=3)
    arpack = solve_hermitian_gevp(shifted, problem.mass, k=3, dense_cutoff=10)
    assert dense.eigenvalues[0] < 0
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-8)


def test_reconstruct_field():
    mesh, problem = _magnetic_problem(dim=2, n=4, bz=1.0)
    result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=2)
    fields = reconstruct_field(result.eigenvectors, mesh, problem.dof_map)
    assert fields.shape == (2, mesh.n_vertices)
    assert np.all(fields[:, mesh.boundary_vertex] == 0.0)
    interior = problem.dof_map >= 0
    assert np.array_equal(fields[:, interior], result.eigenvectors)
    # squared density sums only over the interior
    assert np.sum(np.abs(fields) ** 2) == pytest.approx(
        np.sum(np.abs(result.eigenvectors) ** 2), rel=1e-15
    )

    n_int = int(interior.sum())
    zero = reconstruct_field(np.zeros(n_int), mesh, problem.dof_map)
    assert np.all(zero == 0.0)
    with pytest.raises(ValueError):
        reconstruct_field(np.zeros(n_int - 1), mesh, problem.dof_map)


def test_arpack_path_leaves_no_cyclic_garbage():
    # scipy's eigsh holds the shift-invert LU factor in a reference
    # cycle; the solver frees it before returning instead of leaving it to a
    # later collection, where it would raise the peak memory of the next solve
    _, problem = _magnetic_problem(2, 8, bz=1.0)
    gc.collect()
    gc.disable()
    try:
        result = solve_hermitian_gevp(problem.stiffness, problem.mass, k=2,
                                      dense_cutoff=0)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert result.method_tag == "arpack-shift-invert"
    assert leftover == 0
