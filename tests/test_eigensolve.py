import dataclasses
import functools
import gc
import re

import numpy as np
import pytest
import scipy.linalg
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
    make_mesh,
    reconstruct_field,
    solve_hermitian_gevp,
)

from conftest import perturbed_box_mesh, shift_problem
from oracles import delaunay_cloud, ring_disk


def _pencil(h, m, mass_floor=None):
    """The problem of two HermitianSparse matrices, without a spectrum floor
    and, unless ``mass_floor`` is given, with a zero mass floor."""
    if mass_floor is None:
        mass_floor = np.zeros(h.n)
    return AssembledProblem(h, m, np.ones(h.n, dtype=bool), mass_floor, -np.inf)


def _hermitian_part(a):
    """HermitianSparse of (A + A^dagger) / 2 for a dense matrix A, which is
    exactly Hermitian even where A (say a BLAS product) is not."""
    a = np.asarray(a, dtype=complex)
    return HermitianSparse(sparse.csr_matrix((a + a.conj().T) / 2))


def _pencil_from_dense(h, m):
    """The problem of two dense matrices, without certificates."""
    return _pencil(_hermitian_part(h), _hermitian_part(m))


def _clustered_problem():
    """A diagonal pencil above the dense cutoff whose 2100 eigenvalues lie
    within 1e-6, with its mass floor (M = I), so no probe runs before the
    shift-invert solve."""
    n = 2100
    diag = 1.0 + 1e-6 * np.arange(n) / n
    h = HermitianSparse(sparse.diags(diag, format="csr", dtype=complex))
    m = HermitianSparse(sparse.identity(n, format="csr", dtype=complex))
    return _pencil(h, m, mass_floor=np.ones(n))


def _solve(problem, k, path, **kwargs):
    """solve_hermitian_gevp with DENSE_CUTOFF set so that a problem of this
    size takes the "dense" or the ARPACK path, and on the ARPACK path with
    BAND_CUTOFF set so that its shift-invert factor is the "band" Cholesky or
    "superlu" ("arpack" leaves the factor to BAND_CUTOFF)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolve, "DENSE_CUTOFF", problem.n if path == "dense" else 0)
        if path in ("band", "superlu"):
            # n (kd + 1) <= n^2 for any half-bandwidth kd < n
            patch.setattr(eigensolve, "BAND_CUTOFF",
                          problem.n ** 2 if path == "band" else 0)
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
    return mesh, assemble_scalar_problem(circ, potential)


@pytest.fixture
def superlu_factor(monkeypatch):
    """Every ARPACK solve factors its shift with SuperLU."""
    monkeypatch.setattr(eigensolve, "BAND_CUTOFF", 0)


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


def _solve_every_path(problem, k):
    """The dense solve of a problem and its ARPACK solves on the band and on
    the SuperLU factor."""
    dense = _solve(problem, k, "dense")
    arpack = [_solve(problem, k, factor) for factor in ("band", "superlu")]
    assert dense.method_tag == "dense-eigh"
    assert all(result.method_tag == "arpack-shift-invert" for result in arpack)
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
    # a pair split by 1e-14 is one level; a pair split by 1e-10 relative,
    # far above roundoff, is two
    pencil = _pencil_from_dense(np.diag([1.0, 1.0 + 1e-14, 2.0, 2.0 + 2e-10, 3.0]),
                                np.eye(5))
    result = solve_hermitian_gevp(pencil, k=5)
    assert list(result.multiplet) == [True, True, False, False, False]


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
    h = HermitianSparse(sparse.identity(n, format="csr", dtype=complex))
    m = HermitianSparse(sparse.diags(diag, format="csr", dtype=complex))
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
    dense, arpack = _solve_every_path(problem, k)
    # the certificate replaces the Lanczos mass probe: one ARPACK call per
    # solve only
    assert len(arpack_shifts) == 2 and None not in arpack_shifts
    for result in arpack:
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)
        assert np.all(result.residuals < 1e-9)
        assert np.array_equal(result.multiplet, dense.multiplet)
        # M-orthonormal, inside a degenerate cluster too
        x = result.eigenvectors.T
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
    dense, arpack = _solve_every_path(problem, 3)
    assert dense.eigenvalues[0] < 0
    assert len(arpack_shifts) == 2 and max(arpack_shifts) < dense.eigenvalues[0]
    for result in arpack:
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


@pytest.mark.parametrize("case", ["2d-n20", "3d-n8"])
def test_spectrum_floor_places_the_shift_under_a_deep_well(case, arpack_shifts):
    # under a well of depth -400 the Gershgorin shift lies far below the
    # spectrum; the assembly's certified floor s gives sigma = s - 1, and
    # without it the solver keeps the Gershgorin shift
    _, problem = _magnetic_problem(**_ACROSS_CUTOFF[case], potential=-400.0)
    f, s = problem.mass_floor, problem.spectrum_floor
    dense = _solve(problem, 3, "dense")
    plain = dataclasses.replace(problem, spectrum_floor=-np.inf)
    # certified and plain, on the band and then on the SuperLU factor
    results = [_solve(p, 3, factor) for factor in ("band", "superlu")
               for p in (problem, plain)]

    hd = problem.stiffness.to_csr().toarray()
    diag = hd.diagonal().real
    gershgorin = diag - (np.abs(hd).sum(axis=1) - np.abs(diag))
    assert gershgorin.min() < 0.0
    gershgorin_shift = np.min(gershgorin / (0.9 * f)) - 1.0
    assert gershgorin_shift < s - 1.0 and s <= dense.eigenvalues[0] < 0.0
    assert arpack_shifts[0] == arpack_shifts[2] == s - 1.0
    assert arpack_shifts[1] == arpack_shifts[3]
    assert arpack_shifts[1] == pytest.approx(gershgorin_shift, rel=1e-12)
    for result in results:
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
    dense, arpack = _solve(problem, 3, "dense"), _solve(problem, 3, "superlu")
    assert arpack_shifts == [0.0]
    h = problem.stiffness.to_csr()
    assert factored[0].nnz == np.count_nonzero(h.data) < h.nnz
    assert np.array_equal(factored[0].toarray(), h.toarray())
    assert np.allclose(arpack.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


def _record_factors(patch):
    """Record, through the MonkeyPatch ``patch``, the factor of every
    shift-invert solve, in order: ("zpbtrf", the height kd + 1 of its band
    array) or ("splu", None)."""
    log = []

    def record(module, name):
        original = getattr(module, name)

        def recording(*args, **kwargs):
            log.append((name, args[0].shape[0] if name == "zpbtrf" else None))
            return original(*args, **kwargs)
        patch.setattr(module, name, recording)

    record(spla, "splu")
    record(scipy.linalg.lapack, "zpbtrf")
    return log


@pytest.fixture
def factors(monkeypatch):
    return _record_factors(monkeypatch)


def test_a_scattered_vertex_numbering_factors_as_the_box_band(factors):
    # the box numbering is row-major, so H - sigma M is a narrow band; the
    # same mesh with randomly renumbered vertices has a band as wide as the
    # matrix, which reverse Cuthill-McKee brings back to the box's width, so
    # both factor as a band, to the same spectrum
    box = build_box_mesh(2, 28)
    perm = np.random.default_rng(5).permutation(box.n_vertices)
    rank = np.argsort(perm)  # new index of each old vertex
    scattered = make_mesh(2, box.vertices[perm], rank[box.cells])
    results = []
    for mesh in (box, scattered):
        circ = circulate(GaugeFieldSpec((0.2, 0.1), (0.0, 0.0, 7.0)), mesh)
        problem = assemble_scalar_problem(circ)
        results.append(solve_hermitian_gevp(problem, 4))
        assert results[-1].method_tag == "arpack-shift-invert"
    assert factors == [("zpbtrf", 28), ("zpbtrf", 28)]
    assert np.allclose(results[1].eigenvalues, results[0].eigenvalues, rtol=1e-10, atol=0)
    # the 2D n=88 box, 7,569 DOFs of half-bandwidth 87, lies above
    # BAND_CUTOFF and factors with SuperLU
    _, problem = _magnetic_problem(n=88)
    assert problem.n * 88 > eigensolve.BAND_CUTOFF
    solve_hermitian_gevp(problem, 1)
    assert factors[2:] == [("splu", None)]


def test_the_given_numbering_stays_where_rcm_is_wider(factors, monkeypatch):
    # the 2D n=80 box under a huge well: the row-major numbering of
    # H - sigma M has kd = 80 and its reverse Cuthill-McKee order kd = 99,
    # so the band array keeps the given numbering's 81 rows (and its
    # Cholesky then meets a pivot that is not positive)
    orders = []
    original = eigensolve.reverse_cuthill_mckee

    def recording(a, **kwargs):
        orders.append((a, original(a, **kwargs)))
        return orders[-1][1]

    monkeypatch.setattr(eigensolve, "reverse_cuthill_mckee", recording)
    _, problem = _magnetic_problem(n=80, bz=0.0, potential=-1e300)
    with pytest.raises(ConvergenceError, match="pivot"):
        solve_hermitian_gevp(problem, 1)
    (a, order), = orders
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    rank = np.argsort(order)
    assert (a.indices - rows).max() == 80
    assert (rank[a.indices] - rank[rows]).max() == 99
    assert factors == [("zpbtrf", 81)]


def test_rcm_renumbers_only_where_it_narrows_the_band_by_two(factors, monkeypatch):
    # each renumbered solve gathers its input and output, which costs about
    # one band column; the 2D n=16 box with a well narrows by one, from
    # kd = 16 to 15, so its band array keeps the given numbering's 17 rows,
    # while the 3D n=12 box narrows from 133 to 122 and is renumbered
    bands = []
    original = eigensolve.reverse_cuthill_mckee

    def recording(a, **kwargs):
        order = original(a, **kwargs)
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        rank = np.argsort(order)
        bands.append(((a.indices - rows).max(), (rank[a.indices] - rank[rows]).max()))
        return order

    monkeypatch.setattr(eigensolve, "reverse_cuthill_mckee", recording)
    results = []
    for args in (dict(n=16, bz=7.0, potential=-40.0), dict(dim=3, n=12, b=(0.0,) * 3)):
        _, problem = _magnetic_problem(**args)
        results.append((problem, solve_hermitian_gevp(problem, 3)))
    assert bands == [(16, 15), (133, 122)]
    assert factors == [("zpbtrf", 17), ("zpbtrf", 123)]
    for problem, result in results:
        dense = _solve(problem, 3, "dense")
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)

    # a path numbered 0, 3, 1, 2 has kd = 3, and RCM numbers it along the
    # path, kd = 1: narrowed by exactly two, so renumbered
    a = 3.0 * np.eye(4, dtype=complex)
    for x, y in ((0, 3), (3, 1), (1, 2)):
        a[x, y], a[y, x] = 1.0 + 1.0j, 1.0 - 1.0j
    rhs = np.array([1.0, 2.0j, -1.0, 0.5 + 0.5j])
    solution = eigensolve._shift_invert_solver(sparse.csr_matrix(a))(rhs.copy())
    assert bands[-1] == (3, 1)
    assert factors[-1] == ("zpbtrf", 2)
    assert np.allclose(solution, np.linalg.solve(a, rhs), rtol=1e-14, atol=0)


@functools.cache
def _unstructured_mesh(kind, seed):
    """The ring-Delaunay disk of spacing 0.05 ("disk") or a Delaunay cloud of
    300 points in the unit square ("cloud-2d") or cube ("cloud-3d"): meshes
    whose vertex numbering scatters the band."""
    if kind == "disk":
        return make_mesh(2, *ring_disk(0.05)[:2])
    dim = 2 if kind == "cloud-2d" else 3
    return make_mesh(dim, *delaunay_cloud(dim, 300, seed)[:2])


@settings(max_examples=6, deadline=None)
@given(
    kind=st.sampled_from(["disk", "cloud-2d", "cloud-3d"]),
    cloud_seed=st.integers(0, 3),
    a0=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    b=st.tuples(*[st.floats(-15.0, 15.0)] * 3),
    well=st.one_of(st.none(), st.floats(-300.0, -10.0)),
    k=st.integers(1, 4),
)
def test_unstructured_meshes_agree_on_every_path(kind, cloud_seed, a0, b, well, k):
    # the dense solve, the band factor on the reverse Cuthill-McKee order
    # and the SuperLU factor give one spectrum, above the certified floors
    mesh = _unstructured_mesh(kind, 0 if kind == "disk" else cloud_seed)
    dim = mesh.dim
    b = (0.0, 0.0, b[2]) if dim == 2 else b
    circ = circulate(GaugeFieldSpec(a0[:dim], b), mesh)
    potential = None
    if well is not None:
        center = np.zeros(2) if kind == "disk" else np.full(dim, 0.5)
        potential = np.where(
            np.linalg.norm(mesh.vertices - center, axis=1) <= 0.3, well, 0.0)
    problem = assemble_scalar_problem(circ, potential)
    with pytest.MonkeyPatch.context() as patch:
        factors = _record_factors(patch)
        dense, arpack = _solve_every_path(problem, k)
    (band, height), superlu = factors
    a = problem.stiffness.to_csr()
    rows = np.repeat(np.arange(problem.n), np.diff(a.indptr))
    assert band == "zpbtrf" and superlu == ("splu", None)
    assert height < (a.indices - rows).max() + 1
    if kind == "disk":
        assert (a.indices - rows).max() == 231 and height == 50
    for result in arpack:
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)
    # M - diag(f) is positive semidefinite, and no eigenvalue lies below the
    # spectrum floor
    m = problem.mass.to_csr().toarray()
    lowest = scipy.linalg.eigvalsh(m - np.diag(problem.mass_floor), subset_by_index=[0, 0])
    assert lowest[0] >= -1e-12 * np.abs(m).max()
    assert dense.eigenvalues[0] >= problem.spectrum_floor


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
    problem = assemble_scalar_problem(circulate(GaugeFieldSpec(a0[:dim], b), mesh))
    if zero_shift:
        h = problem.stiffness.to_csr()
        row_sums = np.asarray(np.abs(h).sum(axis=1)).ravel()
        shift = 1.0 + 2.0 * row_sums.max()
        # H + c I >= H, so the spectrum floor still holds
        problem = dataclasses.replace(problem, stiffness=HermitianSparse(
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
    np.linalg.cholesky(problem.mass.to_csr().toarray())
    dense, arpack = _solve_every_path(problem, 3)
    assert arpack_shifts[0] is None  # the Lanczos probe ran
    for result in arpack:
        assert np.allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-10, atol=0)


def test_failed_certificate_runs_the_probe_once_before_arpack(monkeypatch):
    # the problem of `solve --dim 3 --n 7 --b 1412.68,-87.97,1471.91 --k 2`,
    # whose mass certificate fails (min f = -2.6e-4) on a positive definite
    # mass
    _, problem = _magnetic_problem(dim=3, n=7, b=(1412.68, -87.97, 1471.91))
    assert problem.mass_floor.min() <= 0.0
    assert problem.spectrum_floor == -np.inf
    calls = []
    eigsh = spla.eigsh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counting)
    result = solve_hermitian_gevp(problem, k=2)
    assert len(calls) == 1
    assert result.method_tag == "arpack-shift-invert"
    dense = scipy.linalg.eigh(problem.stiffness.to_csr().toarray(),
                              problem.mass.to_csr().toarray(),
                              eigvals_only=True, subset_by_index=[0, 1])
    assert np.allclose(result.eigenvalues, dense, rtol=1e-10, atol=0)


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


@pytest.fixture
def arpack_error(monkeypatch):
    """The shift-invert eigs stops with ARPACK error -9."""
    def failing(*args, **kwargs):
        raise spla.ArpackError(-9)

    monkeypatch.setattr(spla, "eigs", failing)


@pytest.fixture
def probe_stall(monkeypatch):
    """The Lanczos mass probe stalls with no converged pair."""
    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK stalled", np.empty(0),
                                       np.empty((args[0].shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", stalled)


@pytest.fixture
def dependent_ritz_vectors(monkeypatch):
    """The shift-invert eigs returns k copies of one vector, so X^H M X is
    singular."""
    def copies(a, k, **kwargs):
        return np.ones(k, dtype=complex), np.ones((a.shape[0], k), dtype=complex)

    monkeypatch.setattr(spla, "eigs", copies)


def _small_problem():
    return _magnetic_problem(2, 8, bz=1.0)[1]


def _uncertified_small_problem():
    problem = _small_problem()
    return dataclasses.replace(problem, mass_floor=np.zeros(problem.n))


def _huge_potential_problem(depth, radius):
    return _magnetic_problem(dim=2, n=20, bz=0.0, potential=depth, radius=radius)[1]


# route: fixtures, the problem, the k of each solve, and None for a converged
# ARPACK result or the start of the ConvergenceError's message
_ARPACK_ROUTES = {
    "converged": (["arpack_path"], _small_problem, (2,), None),
    "successive": (["arpack_path"], _small_problem, (1, 2, 3, 2, 1), None),
    # a clustered spectrum: one restart cannot separate the Ritz values
    "stall": (["one_arpack_iteration"], _clustered_problem, (6,),
              "eigensolver did not converge"),
    # a potential near the float range: the band Cholesky meets a pivot that
    # is not positive, and SuperLU an exactly singular one, under the deep
    # well; under the constant ARPACK converges to pairs whose relative
    # residuals (about 1e181 at E ~ 1e200) fail the tolerance
    "singular-factor": ([], lambda: _huge_potential_problem(-1e300, 0.3), (1,),
                        "shift-invert factorization failed: pivot"),
    "singular-factor-superlu": (["superlu_factor"],
                                lambda: _huge_potential_problem(-1e300, 0.3), (1,),
                                "shift-invert factorization failed: Factor is exactly"),
    "residual-overflow": ([], lambda: _huge_potential_problem(1e200, 1.0), (1,),
                          "eigensolver did not converge"),
    "arpack-error": (["arpack_path", "arpack_error"], _small_problem, (2,),
                     "shift-invert ARPACK failed: ARPACK error -9: Unknown error"),
    "probe-stall": (["arpack_path", "probe_stall"],
                    _uncertified_small_problem, (2,),
                    "mass definiteness probe stalled: ARPACK error -1: ARPACK stalled"),
    "ritz-failure": (["arpack_path", "dependent_ritz_vectors"], _small_problem, (2,),
                     "ARPACK Ritz vectors are not M-independent"),
}


def _cyclic_garbage(run):
    """What a full collection frees after run() with automatic collection off:
    0 when run() left no reference cycle."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("route", list(_ARPACK_ROUTES))
def test_arpack_path_leaves_no_cyclic_garbage(route, request):
    # a reference cycle through the ARPACK state, or through an error and the
    # solver's frame, would hold the shift-invert LU factor until a later
    # collection and raise the peak memory of the next solve; every exit of
    # the ARPACK path must free it by reference counting alone
    fixtures, make_problem, ks, cause = _ARPACK_ROUTES[route]
    for name in fixtures:
        request.getfixturevalue(name)
    problem = make_problem()

    def run():
        for k in ks:
            if cause is None:
                result = solve_hermitian_gevp(problem, k=k)
                assert result.method_tag == "arpack-shift-invert"
            else:
                with pytest.raises(ConvergenceError, match=f"^{re.escape(cause)}"):
                    solve_hermitian_gevp(problem, k=k)

    assert _cyclic_garbage(run) == 0
