import numpy as np
import pytest

from gaugefem import (
    GaugeFieldSpec,
    PAULI_MATRICES,
    apply_gauge_to_circulation,
    assemble_pauli,
    assemble_scalar_problem,
    build_box_mesh,
    circulate,
    covariant_mass,
    random_gauge,
    reconstruct_field,
    sigma_dot,
    solve_hermitian_gevp,
    solve_pauli,
    spin_block,
    spin_components,
    transports,
    zeeman_matrix,
)


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
    mesh = build_box_mesh(2, 2)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 1.0])
    m = covariant_mass(mesh, transports(circulate(spec, mesh)))
    md = m.to_dense()
    nv = mesh.n_vertices

    block = spin_block(PAULI_MATRICES[2], m).to_dense()
    assert np.allclose(block[:nv, :nv], md, atol=0)
    assert np.allclose(block[nv:, nv:], -md, atol=0)
    assert np.all(block[:nv, nv:] == 0.0)

    with pytest.raises(ValueError):
        spin_block(np.array([[0.0, 1.0], [0.0, 0.0]]), m)  # not Hermitian
    with pytest.raises(ValueError):
        spin_block(np.eye(3), m)


def test_zeeman_zero_field():
    mesh = build_box_mesh(2, 2)
    spec = GaugeFieldSpec([0.3, 0.1], [0.0, 0.0, 0.0])
    table = transports(circulate(spec, mesh))
    assert np.all(zeeman_matrix(covariant_mass(mesh, table), spec).to_dense() == 0.0)


def test_zeeman_axis_aligned_blocks():
    mesh = build_box_mesh(2, 2)
    b3 = 0.7
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, b3])
    table = transports(circulate(spec, mesh))
    mass = covariant_mass(mesh, table)
    md = mass.to_dense()
    nv = mesh.n_vertices
    z = zeeman_matrix(mass, spec).to_dense()
    assert np.allclose(z[:nv, :nv], -b3 * md, atol=1e-15)
    assert np.allclose(z[nv:, nv:], b3 * md, atol=1e-15)
    assert np.all(z[:nv, nv:] == 0.0)


def test_zeeman_transverse_field_couples_spins():
    mesh = build_box_mesh(3, 1)
    spec = GaugeFieldSpec([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    table = transports(circulate(spec, mesh))
    mass = covariant_mass(mesh, table)
    md = mass.to_dense()
    nv = mesh.n_vertices
    z = zeeman_matrix(mass, spec).to_dense()
    assert np.array_equal(z, z.conj().T)
    assert np.allclose(z[:nv, nv:], -md, atol=1e-15)  # sigma_1 off-diagonal
    assert np.all(z[:nv, :nv] == 0.0)


def test_spin_degeneracy_without_magnetic_field():
    mesh = build_box_mesh(2, 5)
    spec = GaugeFieldSpec([0.4, -0.2], [0.0, 0.0, 0.0])
    problem = assemble_pauli(mesh, spec)
    result = solve_pauli(problem, k=4)
    scalar = _scalar_eigenvalues(mesh, spec, k=2)
    expected = np.repeat(scalar, 2)
    assert np.allclose(result.eigenvalues, expected, rtol=1e-11)
    assert np.all(result.multiplet)


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

    n = scalar.stiffness.n
    hd = spinor.h_total.to_dense()
    sd = scalar.stiffness.to_dense()
    assert np.allclose(hd[:n, :n], sd, rtol=0, atol=1e-14)
    assert np.allclose(hd[n:, n:], sd, rtol=0, atol=1e-14)
    assert np.all(hd[:n, n:] == 0.0)
    assert np.allclose(
        spinor.mass.to_dense()[:n, :n], scalar.mass.to_dense(), rtol=0, atol=1e-15
    )


def test_spin_components_and_density_split():
    mesh = build_box_mesh(2, 4)
    spec = GaugeFieldSpec([0.0, 0.0], [0.0, 0.0, 0.5])
    problem = assemble_pauli(mesh, spec)
    result = solve_pauli(problem, k=2)

    up, down = spin_components(result.eigenvectors, problem.n_interior)
    assert up.shape == down.shape == (2, problem.n_interior)
    stacked = np.concatenate([up, down], axis=1)
    assert np.array_equal(stacked, result.eigenvectors)

    dens_up = np.abs(reconstruct_field(up, mesh, problem.dof_map)) ** 2
    dens_down = np.abs(reconstruct_field(down, mesh, problem.dof_map)) ** 2
    total = dens_up.sum(axis=1) + dens_down.sum(axis=1)
    assert np.allclose(
        total, np.sum(np.abs(result.eigenvectors) ** 2, axis=1), rtol=1e-14
    )

    with pytest.raises(ValueError):
        spin_components(result.eigenvectors[:, :-1], problem.n_interior)
