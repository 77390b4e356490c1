import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from gaugefem import (
    GaugeFieldSpec,
    PAULI_MATRICES,
    apply_gauge_to_circulation,
    assemble_pauli,
    assemble_scalar_problem,
    build_box_mesh,
    circulate,
    covariant_mass,
    covariant_stiffness,
    potential_matrix,
    random_gauge,
    reconstruct_field,
    sigma_dot,
    solve_hermitian_gevp,
    solve_pauli,
    spin_components,
    transports,
)

from conftest import perturbed_box_mesh
from oracles import pauli_pencil_dense, spin_block, zeeman_matrix


def _scalar_eigenvalues(mesh, spec, k, potential=None):
    problem = assemble_scalar_problem(mesh, circulate(spec, mesh), potential)
    return solve_hermitian_gevp(problem.stiffness, problem.mass, k).eigenvalues


def test_pauli_matrix_algebra():
    s1, s2, s3 = PAULI_MATRICES
    eye = np.eye(2)
    for s in PAULI_MATRICES:
        assert np.allclose(s @ s, eye, atol=0)
        assert np.array_equal(s, s.conj().T)
    assert np.allclose(s1 @ s2, 1j * s3, atol=0)
    assert np.allclose(sigma_dot([2.0, -1.0, 0.5]), 2 * s1 - s2 + 0.5 * s3, atol=0)
    with pytest.raises(ValueError):
        sigma_dot([1.0, 2.0])


def test_spin_block_layout_and_validation():
    # layout of the oracle 2n pencil: all spin-up rows, then all spin-down
    mesh = build_box_mesh(2, 2)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.0])
    md = covariant_mass(mesh, transports(circulate(spec, mesh))).to_dense()
    nv = mesh.n_vertices

    block = spin_block(PAULI_MATRICES[2], md)
    assert np.allclose(block[:nv, :nv], md, atol=0)
    assert np.allclose(block[nv:, nv:], -md, atol=0)
    assert np.all(block[:nv, nv:] == 0.0)

    with pytest.raises(ValueError):
        spin_block(np.array([[0.0, 1.0], [0.0, 0.0]]), md)  # not Hermitian
    with pytest.raises(ValueError):
        spin_block(np.eye(3), md)


def _dense_mass(mesh, spec):
    return covariant_mass(mesh, transports(circulate(spec, mesh))).to_dense()


def test_zeeman_zero_field():
    mesh = build_box_mesh(2, 2)
    spec = GaugeFieldSpec([0.3, 0.1], [0.0, 0.0, 0.0])
    assert np.all(zeeman_matrix(_dense_mass(mesh, spec), spec.b) == 0.0)


def test_zeeman_axis_aligned_blocks():
    mesh = build_box_mesh(2, 2)
    b3 = 0.7
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, b3])
    md = _dense_mass(mesh, spec)
    nv = mesh.n_vertices
    z = zeeman_matrix(md, spec.b)
    assert np.allclose(z[:nv, :nv], -b3 * md, atol=1e-15)
    assert np.allclose(z[nv:, nv:], b3 * md, atol=1e-15)
    assert np.all(z[:nv, nv:] == 0.0)


def test_zeeman_transverse_field_couples_spins():
    mesh = build_box_mesh(3, 1)
    spec = GaugeFieldSpec([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    md = _dense_mass(mesh, spec)
    nv = mesh.n_vertices
    z = zeeman_matrix(md, spec.b)
    assert np.array_equal(z, z.conj().T)
    assert np.allclose(z[:nv, nv:], -md, atol=1e-15)  # sigma_1 off-diagonal
    assert np.all(z[:nv, :nv] == 0.0)
    assert np.allclose(z, spin_block(-sigma_dot(spec.b), md), rtol=0, atol=0)


def test_spin_degeneracy_without_magnetic_field():
    mesh = build_box_mesh(2, 5)
    spec = GaugeFieldSpec([0.4, -0.2], [0.0, 0.0, 0.0])
    problem = assemble_pauli(mesh, spec)
    result = solve_pauli(problem, k=4)
    scalar = _scalar_eigenvalues(mesh, spec, k=2)
    expected = np.repeat(scalar, 2)
    assert np.allclose(result.eigenvalues, expected, rtol=1e-11)
    assert np.all(result.multiplet)
    # exact ties list the lower branch, spin up at B = 0, first
    up, down = spin_components(result.eigenvectors, problem.n_interior)
    assert np.all(down[0::2] == 0.0) and np.all(up[1::2] == 0.0)


def test_zeeman_split_matches_shifted_scalar_spectrum():
    mesh = build_box_mesh(2, 6)
    b3 = 0.8
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, b3])
    result = solve_pauli(assemble_pauli(mesh, spec), k=6)
    scalar = _scalar_eigenvalues(mesh, spec, k=8)
    union = np.sort(np.concatenate([scalar - b3, scalar + b3]))[:6]
    assert np.allclose(result.eigenvalues, union, rtol=0, atol=1e-9)


def test_transverse_field_shifts_spectrum():
    # -(sigma . B) with |B| = 1 commutes with the scalar part, so the Pauli
    # spectrum is the scalar one shifted by -1 and +1
    mesh = build_box_mesh(3, 3)
    spec = GaugeFieldSpec([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    result = solve_pauli(assemble_pauli(mesh, spec), k=4)
    scalar = _scalar_eigenvalues(mesh, spec, k=4)
    union = np.sort(np.concatenate([scalar - 1.0, scalar + 1.0]))[:4]
    assert np.allclose(result.eigenvalues, union, rtol=0, atol=1e-9)
    assert np.all(np.diff(result.eigenvalues) >= 0)


def test_pauli_gauge_invariance():
    mesh = build_box_mesh(2, 6)
    spec = GaugeFieldSpec([0.2, -0.1], [0.0, 0.0, 1.0])
    circ = circulate(spec, mesh)
    gauge = random_gauge(mesh, np.pi, seed=9)
    gauged = apply_gauge_to_circulation(circ, gauge)

    base = solve_pauli(assemble_pauli(mesh, spec), k=4)
    twin = solve_pauli(assemble_pauli(mesh, spec, circulation=gauged), k=4)
    drift = np.abs(twin.eigenvalues - base.eigenvalues) / np.abs(base.eigenvalues)
    assert drift.max() < 1e-10

    simple = ~(base.multiplet | twin.multiplet)
    assert np.allclose(
        np.abs(base.eigenvectors[simple]),
        np.abs(twin.eigenvectors[simple]),
        rtol=0,
        atol=1e-8,
    )


def test_constant_potential_shifts_pauli_spectrum():
    mesh = build_box_mesh(2, 4)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 0.5])
    c = 2.25
    plain = solve_pauli(assemble_pauli(mesh, spec), k=3)
    lifted = solve_pauli(
        assemble_pauli(mesh, spec, potential=np.full(mesh.n_vertices, c)), k=3
    )
    assert np.allclose(lifted.eigenvalues, plain.eigenvalues + c, rtol=1e-12)


def test_potential_enters_both_spin_blocks():
    mesh = build_box_mesh(2, 3)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 0.0])
    rng = np.random.default_rng(17)
    v = rng.standard_normal(mesh.n_vertices)
    spinor = assemble_pauli(mesh, spec, potential=v)
    scalar = assemble_scalar_problem(mesh, circulate(spec, mesh), potential=v)

    # the Pauli problem carries the scalar pencil shared by both spin blocks
    assert np.allclose(spinor.stiffness.to_dense(), scalar.stiffness.to_dense(),
                       rtol=0, atol=1e-14)
    assert np.allclose(spinor.mass.to_dense(), scalar.mass.to_dense(), rtol=0, atol=1e-15)
    assert np.array_equal(spinor.mass_floor, scalar.mass_floor)

    n = scalar.stiffness.n
    pauli = solve_pauli(spinor, k=2 * n)
    plain = solve_hermitian_gevp(scalar.stiffness, scalar.mass, k=n)
    assert np.allclose(pauli.eigenvalues, np.repeat(plain.eigenvalues, 2),
                       rtol=1e-12, atol=0)


def test_solve_pauli_k_range():
    problem = assemble_pauli(build_box_mesh(2, 3), GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 0.5]))
    n = problem.n_interior
    for k in (0, 2 * n + 1, 1.0):
        with pytest.raises(ValueError):
            solve_pauli(problem, k)
    assert solve_pauli(problem, 2 * n).eigenvalues.size == 2 * n


_FIELD = st.tuples(*[st.floats(-6.0, 6.0)] * 3)


@settings(max_examples=14, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(2, 5),
    mesh_seed=st.integers(0, 2**16),
    b=st.one_of(st.just((0.0, 0.0, 0.0)), _FIELD),
    a0=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    gauge_seed=st.integers(0, 2**16),
    potential_kind=st.sampled_from([None, "well", "random"]),
    k_frac=st.floats(0.0, 1.0),
)
@example(dim=2, n=5, mesh_seed=1, b=(0.0, 0.0, 0.0), a0=(0.4, -0.3, 0.0),
         gauge_seed=2, potential_kind="well", k_frac=1.0)
@example(dim=3, n=4, mesh_seed=4, b=(0.3, -2.0, 1.0), a0=(0.1, 0.2, -0.5),
         gauge_seed=5, potential_kind="well", k_frac=0.7)
def test_pauli_reduction_matches_spinor_pencil(dim, n, mesh_seed, b, a0, gauge_seed,
                                               potential_kind, k_frac):
    """The scalar reduction reproduces the full 2n pencil, eigenpair by eigenpair."""
    mesh = perturbed_box_mesh(dim, n, mesh_seed)
    spec = GaugeFieldSpec(a0[:dim], (0.0, 0.0, b[2]) if dim == 2 else b)
    circ = apply_gauge_to_circulation(circulate(spec, mesh),
                                      random_gauge(mesh, np.pi, gauge_seed))
    potential = None
    if potential_kind == "well":
        dist = np.linalg.norm(mesh.vertices - 0.5, axis=1)
        potential = np.where(dist <= 0.3, -30.0, 0.0)
    elif potential_kind == "random":
        potential = 10.0 * np.random.default_rng(mesh_seed).standard_normal(
            mesh.n_vertices)

    problem = assemble_pauli(mesh, spec, potential=potential, circulation=circ)
    two_n = 2 * problem.n_interior
    k = 1 + int(k_frac * (two_n - 1))
    tol = 1e-9
    result = solve_pauli(problem, k, tol=tol)

    table = transports(circ)
    stiffness = covariant_stiffness(mesh, table).to_dense()
    if potential is not None:
        stiffness = stiffness + potential_matrix(mesh, table, potential).to_dense()
    h, m = pauli_pencil_dense(stiffness, covariant_mass(mesh, table).to_dense(),
                              spec.b, mesh.boundary_vertex)
    expected = scipy.linalg.eigh(h, m, eigvals_only=True)[:k]
    scale = np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(result.eigenvalues - expected) <= 1e-10 * scale)

    for energy, v in zip(result.eigenvalues, result.eigenvectors):
        assert np.linalg.norm(h @ v - energy * (m @ v)) / np.linalg.norm(v) <= tol
        assert abs(np.vdot(v, m @ v) - 1.0) <= 1e-12
        mod = np.abs(v)
        top = v[mod >= (1.0 - 1e-12) * mod.max()]
        assert np.any((top.real > 0.0) & (np.abs(top.imag) <= 1e-14 * np.abs(top)))

    if not np.any(spec.b):
        assert np.all(result.multiplet[: 2 * (k // 2)])


def test_spin_components_and_density_split():
    mesh = build_box_mesh(2, 4)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 0.5])
    problem = assemble_pauli(mesh, spec)
    result = solve_pauli(problem, k=2)

    up, down = spin_components(result.eigenvectors, problem.n_interior)
    assert up.shape == down.shape == (2, problem.n_interior)
    stacked = np.concatenate([up, down], axis=1)
    assert np.array_equal(stacked, result.eigenvectors)

    dens_up = np.abs(reconstruct_field(up, problem.dof_map)) ** 2
    dens_down = np.abs(reconstruct_field(down, problem.dof_map)) ** 2
    total = dens_up.sum(axis=1) + dens_down.sum(axis=1)
    assert np.allclose(
        total, np.sum(np.abs(result.eigenvectors) ** 2, axis=1), rtol=1e-14
    )

    with pytest.raises(ValueError):
        spin_components(result.eigenvectors[:, :-1], problem.n_interior)
