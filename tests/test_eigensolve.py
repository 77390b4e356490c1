import dataclasses
import gc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import gaugefem.eigensolve as eigensolve
from gaugefem import (
    AssembledProblem,
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

from conftest import perturbed_box_mesh, shift_problem


def _pencil(h, m, mass_floor=None):
    """The problem of two HermitianSparse matrices, without a spectrum floor
    and, unless ``mass_floor`` is given, without a mass floor."""
    return AssembledProblem(h, m, np.ones(h.n, dtype=bool), mass_floor, -np.inf)


def _pencil_from_dense(h, m):
    """The problem of two dense matrices, without certificates."""
    return _pencil(
        HermitianSparse.from_csr(sparse.csr_matrix(np.asarray(h, dtype=complex))),
        HermitianSparse.from_csr(sparse.csr_matrix(np.asarray(m, dtype=complex))),
    )


def _clustered_problem():
    """A diagonal pencil above the dense cutoff whose 2100 eigenvalues lie
    within 1e-6, with its mass floor (M = I), so no probe runs before the
    shift-invert solve."""
    n = 2100
    diag = 1.0 + 1e-6 * np.arange(n) / n
    h = HermitianSparse.from_csr(sparse.diags(diag, format="csr", dtype=complex))
    m = HermitianSparse.from_csr(sparse.identity(n, format="csr", dtype=complex))
    return _pencil(h, m, mass_floor=np.ones(n))


def _solve(problem, k, path, **kwargs):
    """solve_hermitian_gevp with DENSE_CUTOFF set so that a problem of this
    size takes the "dense" or the "arpack" path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolve, "DENSE_CUTOFF", problem.n if path == "dense" else 0)
        return solve_hermitian_gevp(problem, k, **kwargs)


@pytest.fixture
def arpack_path(monkeypatch):
    """Every problem above one DOF takes the ARPACK path."""
    monkeypatch.setattr(eigensolve, "DENSE_CUTOFF", 0)


@pytest.fixture
def one_arpack_iteration(monkeypatch):
    """The real shift-invert eigs, capped at one iteration: a stall on demand."""
    original = spla.eigs
    monkeypatch.setattr(spla, "eigs",
                        lambda *args, **kwargs: original(*args, **kwargs, maxiter=1))


def _magnetic_problem(dim=2, n=8, bz=1.0, b=None, potential=None, radius=0.3):
    mesh = build_box_mesh(dim, n)
    b = (0.0, 0.0, bz) if b is None else b
    circ = circulate(GaugeFieldSpec((0.0,) * dim, b), mesh)
    if potential is not None:
        center = np.full(dim, 0.5)
        potential = np.where(
            np.linalg.norm(mesh.vertices - center, axis=1) <= radius, potential, 0.0
        )
    return mesh, assemble_scalar_problem(mesh, circ, potential)


@pytest.fixture
def arpack_shifts(monkeypatch):
    """The sigma of every ARPACK call the solver makes, in order: the eigsh
    Lanczos mass probe records None, the shift-invert eigs its sigma."""
    shifts = []

    def recorder(original):
        def recording(*args, **kwargs):
            shifts.append(kwargs.get("sigma"))
            return original(*args, **kwargs)
        return recording

    for name in ("eigsh", "eigs"):
        monkeypatch.setattr(spla, name, recorder(getattr(spla, name)))
    return shifts


def _solve_both_paths(problem, k):
    """Dense and ARPACK solves of one problem."""
    dense = _solve(problem, k, "dense")
    arpack = _solve(problem, k, "arpack")
    assert dense.method_tag == "dense-eigh"
    assert arpack.method_tag == "arpack-shift-invert"
    return dense, arpack


# problems on both sides of DENSE_CUTOFF, for the path agreement tests
_ACROSS_CUTOFF = {
    "2d-n20": dict(dim=2, n=20, b=(0.0, 0.0, 7.0)),
    "2d-n28": dict(dim=2, n=28, b=(0.0, 0.0, 7.0)),
    "3d-n8": dict(dim=3, n=8, b=(2.0, -1.0, 5.0)),
    "unit-square-zero-field": dict(dim=2, n=20, b=(0.0, 0.0, 0.0)),
    # exactly degenerate pairs at 65.0073 and 103.391 (cube symmetries)
    "unit-cube-zero-field": dict(dim=3, n=8, b=(0.0, 0.0, 0.0)),
}


def test_diagonal_pencil():
    pencil = _pencil_from_dense(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    result = solve_hermitian_gevp(pencil, k=2)
    assert np.allclose(result.eigenvalues, [1.0, 2.0], rtol=1e-12)
    assert result.method_tag == "dense-eigh"


def test_two_by_two_analytic():
    pencil = _pencil_from_dense([[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    result = solve_hermitian_gevp(pencil, k=2)
    assert np.allclose(result.eigenvalues, [1.0, 3.0], rtol=1e-12)


def test_pencil_identity():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    hpd = f @ f.conj().T + 6 * np.eye(6)
    result = solve_hermitian_gevp(_pencil_from_dense(hpd, hpd), k=1)
    assert result.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)


def test_argument_validation():
    pencil = _pencil_from_dense(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        solve_hermitian_gevp(pencil, k=0)
    with pytest.raises(ValueError):
        solve_hermitian_gevp(pencil, k=4)
    with pytest.raises(ValueError):
        solve_hermitian_gevp(pencil, k=1, tol=-1.0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError):
            solve_hermitian_gevp(pencil, k=1, tol=tol)
    with pytest.raises(ValueError):
        solve_hermitian_gevp(_pencil_from_dense(np.eye(3), np.eye(2)), k=1)


def test_dirichlet_cube_lowest_eigenvalue():
    # regression-pinned discrete value; the continuum limit 3 pi^2 is a
    # strict lower bound for this conforming discretization
    mesh, problem = _magnetic_problem(dim=3, n=4, bz=0.0)
    result = solve_hermitian_gevp(problem, k=1)
    assert result.eigenvalues[0] == pytest.approx(37.49921045975135, rel=1e-10)
    assert result.eigenvalues[0] > 3 * np.pi**2
    assert result.residuals[0] < 1e-9


def test_monotone_refinement_toward_continuum():
    exact2d = 2 * np.pi**2
    values = []
    for n in (2, 4, 8, 16):
        _, problem = _magnetic_problem(dim=2, n=n, bz=0.0)
        result = solve_hermitian_gevp(problem, k=1)
        values.append(result.eigenvalues[0])
    assert all(v > exact2d for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))

    exact3d = 3 * np.pi**2
    values = []
    for n in (2, 4, 8):
        _, problem = _magnetic_problem(dim=3, n=n, bz=0.0)
        result = solve_hermitian_gevp(problem, k=1)
        values.append(result.eigenvalues[0])
    assert all(v > exact3d for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rayleigh_quotient_consistency():
    tol = 1e-9
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    result = solve_hermitian_gevp(problem, k=3, tol=tol)
    h = problem.stiffness.to_csr()
    m = problem.mass.to_csr()
    for e, v in zip(result.eigenvalues, result.eigenvectors):
        assert np.real(np.vdot(v, m @ v)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(v, h @ v) - e) < 10 * tol


def test_shift_invariance():
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    s = 2.75
    base = solve_hermitian_gevp(problem, k=3)
    shifted = solve_hermitian_gevp(shift_problem(problem, s), k=3)
    assert np.allclose(shifted.eigenvalues - base.eigenvalues, s, rtol=0, atol=1e-10)
    # eigenvectors agree up to a global phase: unit M-overlap, equal moduli
    m = problem.mass.to_csr()
    for v0, v1 in zip(base.eigenvectors, shifted.eigenvectors):
        assert abs(np.vdot(v0, m @ v1)) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(np.abs(v0), np.abs(v1), rtol=0, atol=1e-10)


def test_multiplet_flagging():
    pencil = _pencil_from_dense(np.diag([1.0, 1.0 + 1e-14, 2.0]), np.eye(3))
    result = solve_hermitian_gevp(pencil, k=3)
    assert list(result.multiplet) == [True, True, False]


def test_phase_fix_and_determinism():
    _, problem = _magnetic_problem(dim=2, n=6, bz=1.0)
    a = solve_hermitian_gevp(problem, k=3, seed=42)
    b = solve_hermitian_gevp(problem, k=3, seed=42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for v in a.eigenvectors:
        top = v[np.argmax(np.abs(v))]
        assert top.real > 0
        assert abs(top.imag) < 1e-12


def test_definiteness_error_dense():
    pencil = _pencil_from_dense(np.eye(3), np.diag([1.0, -0.5, 1.0]))
    with pytest.raises(DefinitenessError) as info:
        solve_hermitian_gevp(pencil, k=1)
    assert info.value.pivot == pytest.approx(-0.5, rel=1e-14)


def test_definiteness_error_sparse():
    n = 2100  # above the dense cutoff
    diag = np.ones(n)
    diag[137] = -0.5
    h = HermitianSparse.from_csr(sparse.identity(n, format="csr", dtype=complex))
    m = HermitianSparse.from_csr(sparse.diags(diag, format="csr", dtype=complex))
    with pytest.raises(DefinitenessError):
        solve_hermitian_gevp(_pencil(h, m), k=2)


def test_convergence_error_unreachable_tolerance():
    pencil = _pencil_from_dense([[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    with pytest.raises(ConvergenceError) as info:
        solve_hermitian_gevp(pencil, k=1, tol=1e-300)
    assert info.value.best_residual > 0


def test_convergence_error_iteration_cap(one_arpack_iteration):
    # clustered spectrum: one restart cannot separate the Ritz values
    with pytest.raises(ConvergenceError):
        solve_hermitian_gevp(_clustered_problem(), k=6)


@pytest.mark.parametrize("case, k", [
    ("2d-n20", 3), ("2d-n28", 4), ("3d-n8", 4), ("unit-square-zero-field", 6),
    ("unit-cube-zero-field", 6),
], ids=["2d-n20", "2d-n28", "3d-n8", "unit-square-zero-field", "unit-cube-zero-field"])
def test_iterative_path_matches_dense(case, k, arpack_shifts):
    _, problem = _magnetic_problem(**_ACROSS_CUTOFF[case])
    assert problem.mass_floor.min() > 0.0
    dense, arpack = _solve_both_paths(problem, k)
    # the certificate replaces the Lanczos mass probe: one ARPACK call only
    assert len(arpack_shifts) == 1 and arpack_shifts[0] is not None
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)
    assert np.all(arpack.residuals < 1e-9)
    assert np.array_equal(arpack.multiplet, dense.multiplet)
    # M-orthonormal, inside a degenerate cluster too
    x = arpack.eigenvectors.T
    gram = x.conj().T @ (problem.mass.to_csr() @ x)
    assert np.abs(gram - np.eye(k)).max() < 1e-10


@pytest.mark.parametrize("case, well", [
    ("2d-n20", None), ("2d-n28", None), ("3d-n8", None),
    ("2d-n20", -400.0), ("3d-n8", -400.0),
], ids=["2d-n20-shift", "2d-n28-shift", "3d-n8-shift", "2d-n20-well", "3d-n8-well"])
def test_iterative_path_with_indefinite_stiffness(case, well, arpack_shifts):
    # a downward shift of the pencil or a deep well makes the lowest
    # eigenvalues negative and exercises the nonzero shift, here placed by
    # the certificates instead of the mass probe
    _, problem = _magnetic_problem(**_ACROSS_CUTOFF[case], potential=well)
    if well is None:
        problem = shift_problem(problem, -50.0)
    dense, arpack = _solve_both_paths(problem, 3)
    assert dense.eigenvalues[0] < 0
    assert len(arpack_shifts) == 1 and arpack_shifts[0] < dense.eigenvalues[0]
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


@pytest.mark.parametrize("case", ["2d-n20", "3d-n8"])
def test_spectrum_floor_places_the_shift_under_a_deep_well(case, arpack_shifts):
    # under a well of depth -400 the Gershgorin shift lies far below the
    # spectrum; the assembly's certified floor s gives sigma = s - 1, and
    # without it the solver keeps the Gershgorin shift
    _, problem = _magnetic_problem(**_ACROSS_CUTOFF[case], potential=-400.0)
    f, s = problem.mass_floor, problem.spectrum_floor
    dense = _solve(problem, 3, "dense")
    certified = _solve(problem, 3, "arpack")
    plain = _solve(dataclasses.replace(problem, spectrum_floor=-np.inf), 3, "arpack")

    hd = problem.stiffness.to_dense()
    diag = hd.diagonal().real
    gershgorin = diag - (np.abs(hd).sum(axis=1) - np.abs(diag))
    assert gershgorin.min() < 0.0
    gershgorin_shift = np.min(gershgorin / (0.9 * f)) - 1.0
    assert gershgorin_shift < s - 1.0 and s <= dense.eigenvalues[0] < 0.0
    assert arpack_shifts[0] == s - 1.0
    assert arpack_shifts[1] == pytest.approx(gershgorin_shift, rel=1e-12)
    for result in (certified, plain):
        assert result.method_tag == "arpack-shift-invert"
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


def test_zero_shift_factors_the_true_nonzero_pattern(monkeypatch, arpack_shifts):
    # a field-only box problem has a positive Gershgorin bound, so sigma = 0,
    # and its stiffness stores the exact zeros of the orthogonal Kuhn pairs;
    # the factor must see H without them
    _, problem = _magnetic_problem(**_ACROSS_CUTOFF["3d-n8"])
    factored = []
    original = spla.splu

    def recording(a, **kwargs):
        factored.append(a)
        return original(a, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    dense, arpack = _solve_both_paths(problem, 3)
    assert arpack_shifts == [0.0]
    h = problem.stiffness.to_csr()
    assert factored[0].nnz == np.count_nonzero(h.data) < h.nnz
    assert np.array_equal(factored[0].toarray(), h.toarray())
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


@settings(max_examples=8, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    mesh_seed=st.integers(0, 2**16),
    a0=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    b=st.tuples(*[st.floats(-15.0, 15.0)] * 3),
    zero_shift=st.booleans(),
    k=st.integers(1, 4),
)
def test_dense_and_arpack_paths_agree(dim, mesh_seed, a0, b, zero_shift, k):
    # Random uniform fields on perturbed meshes, with the pencil moved so
    # that the solver places sigma = 0 (H + c I, Gershgorin bound positive)
    # or sigma < 0 (H - 30 M, negative lowest eigenvalues).
    mesh = perturbed_box_mesh(dim, 7 if dim == 2 else 4, mesh_seed)
    b = (0.0, 0.0, b[2]) if dim == 2 else b
    problem = assemble_scalar_problem(mesh, circulate(GaugeFieldSpec(a0[:dim], b), mesh))
    if zero_shift:
        h = problem.stiffness.to_csr()
        row_sums = np.asarray(np.abs(h).sum(axis=1)).ravel()
        shift = 1.0 + 2.0 * row_sums.max()
        # H + c I >= H, so the spectrum floor still holds
        problem = dataclasses.replace(problem, stiffness=HermitianSparse.from_csr(
            h + shift * sparse.identity(problem.n)))
    else:
        problem = shift_problem(problem, -30.0)
    shifts = []
    original = spla.eigs

    def recording(*args, **kwargs):
        shifts.append(kwargs.get("sigma"))
        return original(*args, **kwargs)

    spla.eigs = recording
    try:
        dense = _solve(problem, k, "dense")
        arpack = _solve(problem, k, "arpack")
    finally:
        spla.eigs = original
    assert (shifts[-1] == 0.0) if zero_shift else (shifts[-1] < 0.0)
    assert arpack.method_tag == "arpack-shift-invert"
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


def test_k_near_n_takes_the_dense_path():
    # ARPACK cannot return k >= n - 1 pairs; such requests go dense whatever
    # the cutoff instead of failing inside scipy
    _, problem = _magnetic_problem(dim=2, n=8, bz=1.0)
    n = problem.n
    reference = solve_hermitian_gevp(problem, k=n)
    for k in (n - 1, n):
        result = _solve(problem, k, "arpack")
        assert result.method_tag == "dense-eigh"
        assert np.allclose(result.eigenvalues, reference.eigenvalues[:k],
                           rtol=1e-12, atol=0)


def test_uncertified_mass_falls_back_to_the_probe(arpack_shifts):
    # B = 100 on the 3D n=4 cube gives cells with lambda_min(I + U_T) < 0 and
    # no positive vertex floor, yet the global mass is positive definite
    _, problem = _magnetic_problem(dim=3, n=4, bz=100.0)
    assert problem.mass_floor.max() <= 0.0
    np.linalg.cholesky(problem.mass.to_dense())
    dense, arpack = _solve_both_paths(problem, 3)
    assert arpack_shifts[0] is None  # the Lanczos probe ran
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


def test_reconstruct_field():
    mesh, problem = _magnetic_problem(dim=2, n=4, bz=1.0)
    result = solve_hermitian_gevp(problem, k=2)
    fields = reconstruct_field(result.eigenvectors, problem.interior)
    assert fields.shape == (2, mesh.n_vertices)
    assert np.all(fields[:, mesh.boundary_vertex] == 0.0)
    interior = problem.interior
    assert np.array_equal(fields[:, interior], result.eigenvectors)
    # squared density sums only over the interior
    assert np.sum(np.abs(fields) ** 2) == pytest.approx(
        np.sum(np.abs(result.eigenvectors) ** 2), rel=1e-15
    )

    n_int = int(interior.sum())
    zero = reconstruct_field(np.zeros(n_int), problem.interior)
    assert np.all(zero == 0.0)
    with pytest.raises(ValueError):
        reconstruct_field(np.zeros(n_int - 1), problem.interior)


def test_arpack_path_leaves_no_cyclic_garbage(arpack_path):
    # a reference cycle around scipy's ARPACK state would hold the
    # shift-invert LU factor; the solver frees any before returning instead
    # of leaving it to a later collection, where it would raise the peak
    # memory of the next solve
    _, problem = _magnetic_problem(2, 8, bz=1.0)
    gc.collect()
    gc.disable()
    try:
        result = solve_hermitian_gevp(problem, k=2)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert result.method_tag == "arpack-shift-invert"
    assert leftover == 0


def test_arpack_stall_leaves_no_cyclic_garbage(one_arpack_iteration):
    # the ConvergenceError path frees scipy's ARPACK cycle as well
    problem = _clustered_problem()
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ConvergenceError):
            solve_hermitian_gevp(problem, k=6)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0


@pytest.mark.parametrize("depth, radius, cause", [
    (-1e300, 0.3, "shift-invert factorization failed"),
    (1e200, 1.0, "eigensolver did not converge"),
], ids=["singular-factor", "arpack-error"])
def test_failed_shift_invert_raises_and_leaves_no_cyclic_garbage(depth, radius, cause):
    # a potential near the float range: SuperLU meets an exactly singular
    # pivot under the deep well, and under the constant ARPACK converges to
    # pairs whose relative residuals (about 1e181 at E ~ 1e200) fail the
    # tolerance; both surface as ConvergenceError after the cleanup
    _, problem = _magnetic_problem(dim=2, n=20, bz=0.0, potential=depth, radius=radius)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(ConvergenceError, match=cause):
            solve_hermitian_gevp(problem, k=1)
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0


def test_arpack_cleanup_is_a_young_generation_pass(arpack_path):
    _, problem = _magnetic_problem(2, 8, bz=1.0)
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.disable()
    gc.callbacks.append(record)
    try:
        solve_hermitian_gevp(problem, k=2)
    finally:
        gc.callbacks.remove(record)
        gc.enable()
    assert generations == [1]


def test_successive_arpack_solves_leave_nothing_to_collect(arpack_path):
    _, problem = _magnetic_problem(2, 8, bz=1.0)
    gc.collect()
    for k in (1, 2, 3, 2, 1):
        result = solve_hermitian_gevp(problem, k=k)
        assert result.method_tag == "arpack-shift-invert"
    assert gc.collect() == 0


def test_arpack_cycle_promoted_during_the_solve_is_freed(arpack_path):
    # with these thresholds the automatic collections during eigs would move
    # a cycle to the oldest generation, out of reach of a young-generation pass
    _, problem = _magnetic_problem(2, 8, bz=1.0)
    gc.collect()
    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 10**9)
    try:
        result = solve_hermitian_gevp(problem, k=2)
        leftover = gc.collect()
    finally:
        gc.set_threshold(*thresholds)
    assert result.method_tag == "arpack-shift-invert"
    assert leftover == 0
