"""End-to-end acceptance checks for the package's headline guarantees.

Each criterion prints one PASS/FAIL line with the measured number next to its
threshold (run ``pytest tests/test_acceptance.py -v -s`` to see them) and
asserts the same condition, so this file doubles as the acceptance report:

1. covariant eigenvalues / densities invariant under random gauge transforms,
2. A = 0 reduction to the standard P1 matrices, entrywise,
3. second-order zero-field eigenvalue convergence vs analytic references,
4. second-order magnetic eigenvalue convergence vs Richardson references,
5. the conventional Galerkin baseline is NOT gauge invariant,
6. Pauli spectrum equals the shifted scalar spectrum union at B = (0,0,1)
   and the full 2n spinor pencil at a tilted B,
7. structural invariants (Hermiticity, HPD mass, transport algebra, matrix
   conjugation, solver consistency, byte-identical deterministic reports).
"""

import numpy as np
import scipy.linalg

from gaugefem import (
    GaugeFieldSpec,
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
    solve_hermitian_gevp,
    solve_pauli,
    standard_galerkin,
    transports,
    unit_transports,
)
from gaugefem.cli import main

from conftest import perturbed_box_mesh, shift_problem
from oracles import edge_lookup, p1_mass_dense, p1_stiffness_dense, pauli_pencil_dense


def _criterion(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _paired_gauge_solve(dim, n, method, k=5, seed=101):
    mesh = build_box_mesh(dim, n)
    spec = GaugeFieldSpec((0.0,) * dim, (0.0, 0.0, 1.0))
    circ = circulate(spec, mesh)
    gauge = random_gauge(mesh, np.pi, seed=seed)
    gauged = apply_gauge_to_circulation(circ, gauge)

    original = assemble_scalar_problem(circ, method=method)
    twin = assemble_scalar_problem(gauged, method=method)
    r0 = solve_hermitian_gevp(original, k)
    r1 = solve_hermitian_gevp(twin, k)

    drift = np.max(np.abs(r1.eigenvalues - r0.eigenvalues) / np.abs(r0.eigenvalues))
    simple = ~(r0.multiplet | r1.multiplet)
    f0 = np.abs(reconstruct_field(r0.eigenvectors, original.interior))
    f1 = np.abs(reconstruct_field(r1.eigenvectors, twin.interior))
    density_drift = np.max(np.abs(f1[simple] - f0[simple])) if simple.any() else 0.0
    return drift, density_drift


def test_criterion_1_gauge_invariant_spectra_and_densities():
    worst_eig = 0.0
    worst_density = 0.0
    for dim, n in ((2, 8), (3, 4)):
        drift, density_drift = _paired_gauge_solve(dim, n, "covariant")
        worst_eig = max(worst_eig, drift)
        worst_density = max(worst_density, density_drift)
    _criterion(
        "1 gauge-invariant spectra and densities",
        worst_eig < 1e-10 and worst_density < 1e-8,
        f"eigenvalue drift {worst_eig:.2e} (< 1e-10), "
        f"|u| drift {worst_density:.2e} (< 1e-8) over d=2 n=8 and d=3 n=4",
    )


def test_criterion_2_zero_field_reduction_to_p1():
    meshes = [
        build_box_mesh(2, 10),
        build_box_mesh(3, 4, lengths=(1.0, 0.8, 1.3)),
        perturbed_box_mesh(2, 12, seed=31),
        perturbed_box_mesh(3, 5, seed=32),
    ]
    assert max(m.n_vertices for m in meshes) <= 500
    worst = 0.0
    for mesh in meshes:
        ones = unit_transports(mesh)
        mass_diff = np.max(
            np.abs(
                covariant_mass(ones).to_csr().toarray()
                - p1_mass_dense(mesh.vertices, mesh.cells)
            )
        )
        stiff_diff = np.max(
            np.abs(
                covariant_stiffness(ones).to_csr().toarray()
                - p1_stiffness_dense(mesh.vertices, mesh.cells)
            )
        )
        worst = max(worst, mass_diff, stiff_diff)
    _criterion(
        "2 A=0 reduction to standard P1 matrices",
        worst < 1e-14,
        f"max entrywise deviation {worst:.2e} (< 1e-14) over "
        f"{len(meshes)} meshes up to 500 vertices",
    )


def _lowest_eigenvalues(dim, levels, bz):
    out = []
    for n in levels:
        mesh = build_box_mesh(dim, n)
        spec = GaugeFieldSpec((0.0,) * dim, (0.0, 0.0, bz))
        problem = assemble_scalar_problem(circulate(spec, mesh))
        result = solve_hermitian_gevp(problem, k=1)
        out.append(result.eigenvalues[0])
    return np.asarray(out)


def test_criterion_3_second_order_convergence_analytic():
    levels = (2, 4, 8, 16)
    details = []
    ok = True
    for dim in (3, 2):
        exact = dim * np.pi**2
        errors = np.abs(_lowest_eigenvalues(dim, levels, bz=0.0) - exact)
        orders = np.log2(errors[:-1] / errors[1:])
        finest = orders[-2:]
        ok = ok and np.all((finest > 1.8) & (finest < 2.2))
        details.append(f"d={dim} orders " + "/".join(f"{p:.3f}" for p in finest))
    _criterion(
        "3 second-order convergence (analytic reference)",
        ok,
        "; ".join(details) + " all within [1.8, 2.2]",
    )


def test_criterion_4_second_order_convergence_magnetic():
    levels = (4, 8, 16, 32)
    details = []
    ok = True
    for bz in (1.0, 5.0):
        eigs = _lowest_eigenvalues(2, levels, bz=bz)
        reference = eigs[-1] + (eigs[-1] - eigs[-2]) / 3.0  # Richardson
        errors = np.abs(eigs - reference)
        orders = np.log2(errors[:-2] / errors[1:-1])  # finest pair excluded
        ok = ok and np.all((orders > 1.7) & (orders < 2.3))
        details.append(f"B={bz:g} orders " + "/".join(f"{p:.3f}" for p in orders))
    _criterion(
        "4 second-order convergence (magnetic, Richardson reference)",
        ok,
        "; ".join(details) + " all within [1.7, 2.3]",
    )


def test_criterion_5_baseline_is_not_gauge_invariant():
    drift, _ = _paired_gauge_solve(2, 8, "baseline")
    _criterion(
        "5 conventional baseline breaks gauge invariance",
        drift > 1e-6,
        f"baseline eigenvalue drift {drift:.2e} (> 1e-6)",
    )


def test_criterion_6_pauli_zeeman_decoupling():
    mesh = build_box_mesh(2, 8)
    spec = GaugeFieldSpec((0.0, 0.0), (0.0, 0.0, 1.0))
    pauli = solve_pauli(assemble_pauli(mesh, spec), k=6)

    scalar_problem = assemble_scalar_problem(circulate(spec, mesh))
    scalar = solve_hermitian_gevp(scalar_problem, k=8)
    union = np.sort(
        np.concatenate([scalar.eigenvalues - 1.0, scalar.eigenvalues + 1.0])
    )[:6]
    gap = np.max(np.abs(pauli.eigenvalues - union))

    # tilted field against the full 2n spinor pencil
    mesh3 = build_box_mesh(3, 4)
    tilted = GaugeFieldSpec((0.2, -0.1, 0.3), (0.3, 0.2, 1.0))
    spinor = solve_pauli(assemble_pauli(mesh3, tilted), k=8)
    table = transports(circulate(tilted, mesh3))
    h, m = pauli_pencil_dense(covariant_stiffness(table).to_csr().toarray(),
                              covariant_mass(table).to_csr().toarray(), tilted.b,
                              mesh3.boundary_vertex)
    full = scipy.linalg.eigh(h, m, eigvals_only=True, subset_by_index=[0, 7])
    tilted_gap = np.max(np.abs(spinor.eigenvalues - full) / np.abs(full))
    _criterion(
        "6 Pauli spectrum = shifted scalar spectrum union",
        gap < 1e-9 and tilted_gap < 1e-10,
        f"max |Pauli - shifted scalar| {gap:.2e} (< 1e-9); tilted B vs 2n pencil "
        f"relative {tilted_gap:.2e} (< 1e-10)",
    )


def test_criterion_7_structural_invariants(tmp_path):
    mesh = build_box_mesh(2, 6)
    spec = GaugeFieldSpec((0.0, 0.0), (0.0, 0.0, 1.0))
    circ = circulate(spec, mesh)
    table = transports(circ)
    rng = np.random.default_rng(77)
    potential = rng.standard_normal(mesh.n_vertices)
    k_std, m_std = standard_galerkin(circ)

    checks = {}

    # Hermiticity of every assembled matrix type (exact, by storage)
    assembled = [
        covariant_mass(table),
        covariant_stiffness(table),
        potential_matrix(table, potential),
        k_std,
        m_std,
    ]
    spinor = assemble_pauli(mesh, spec)
    assembled += [spinor.stiffness, spinor.mass]
    checks["hermitian"] = all(
        np.array_equal(a.to_csr().toarray(), a.to_csr().toarray().conj().T)
        for a in assembled
    )

    # mass positive definiteness (covariant and baseline)
    checks["hpd-mass"] = (
        np.linalg.eigvalsh(covariant_mass(table).to_csr().toarray()).min() > 0.0
        and np.linalg.eigvalsh(m_std.to_csr().toarray()).min() > 0.0
    )

    # transport algebra: unit moduli, and every cell reads U_xy along each
    # pair x < y of its vertices
    value = edge_lookup(table, np.conj, 1.0)
    local = table.local_values(slice(None)).T
    x, y = np.triu_indices(mesh.dim + 1, 1)
    checks["transports"] = (
        np.max(np.abs(np.abs(table.values) - 1.0)) <= 1e-14
        and all(
            np.array_equal(loc, [value(i, j) for i, j in zip(cell[x], cell[y])])
            for cell, loc in zip(mesh.cells[::7], local[::7])
        )
    )

    # gauge conjugation of the assembled matrices
    gauge = random_gauge(mesh, np.pi, seed=5)
    d = np.diag(np.exp(1j * gauge))
    gauged = transports(apply_gauge_to_circulation(circ, gauge))
    conj_err = max(
        np.max(
            np.abs(
                assemble(gauged).to_csr().toarray()
                - d @ assemble(table).to_csr().toarray() @ d.conj().T
            )
        )
        for assemble in (covariant_stiffness, covariant_mass)
    )
    checks["gauge-conjugation"] = conj_err < 1e-13

    # eigensolver consistency: Rayleigh quotients and shift invariance
    problem = assemble_scalar_problem(circ)
    tol = 1e-9
    result = solve_hermitian_gevp(problem, k=3, tol=tol)
    h_csr = problem.stiffness.to_csr()
    checks["rayleigh"] = all(
        abs(np.vdot(v, h_csr @ v) - e) < 10 * tol
        for e, v in zip(result.eigenvalues, result.eigenvectors)
    )
    s = 3.5
    shifted = solve_hermitian_gevp(shift_problem(problem, s), k=3, tol=tol)
    checks["shift-invariance"] = np.allclose(
        shifted.eigenvalues - result.eigenvalues, s, rtol=0, atol=1e-10
    )

    # byte-identical deterministic reports from identical command lines
    out = tmp_path / "report.json"
    args = ["solve", "--dim", "2", "--n", "6", "--b", "1", "--k", "2",
            "--deterministic", "--output", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    checks["determinism"] = first == out.read_bytes()

    failed = [name for name, ok in checks.items() if not ok]
    detail = (
        "all invariants hold (" + ", ".join(checks) + ")"
        if not failed
        else "failed: " + ", ".join(failed)
    )
    _criterion("7 structural invariant suite", not failed, detail)
