import numpy as np
import pytest

from gaugefem import (
    EdgeCirculation,
    GaugeFieldSpec,
    TransportTable,
    apply_gauge_to_circulation,
    build_box_mesh,
    circulate,
    random_gauge,
    transports,
)

from conftest import perturbed_box_mesh, shuffled_cells
from oracles import apply_gauge_to_state, cell_blocks, edge_lookup, line_circulation


def _vertex_at(mesh, point):
    hits = np.flatnonzero(np.all(np.abs(mesh.vertices - point) < 1e-12, axis=1))
    assert hits.size == 1
    return int(hits[0])


def test_field_spec_validation():
    spec = GaugeFieldSpec([1.0, 0.0], [0.0, 0.0, 2.0])
    assert spec.dim == 2
    with pytest.raises(ValueError):
        GaugeFieldSpec([1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        GaugeFieldSpec([1.0, 0.0], [0.5, 0.0, 1.0])  # in-plane field in 2D
    with pytest.raises(ValueError):
        GaugeFieldSpec([np.inf, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^b must have 3 components$"):
        GaugeFieldSpec([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="^points must have 2 components$"):
        spec.evaluate(np.zeros((4, 3)))


def test_circulation_of_constant_potential():
    mesh = build_box_mesh(3, 1)
    circ = circulate(GaugeFieldSpec([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), mesh)
    value = edge_lookup(circ, np.negative, 0.0)
    i = _vertex_at(mesh, [0.0, 0.0, 0.0])
    j = _vertex_at(mesh, [1.0, 0.0, 0.0])
    assert value(i, j) == pytest.approx(1.0, abs=1e-15)
    assert value(j, i) == pytest.approx(-1.0, abs=1e-15)


def test_circulation_of_uniform_field():
    # A = (1/2) B x x with B = e3; along the edge (1,0,0) -> (1,1,0) the
    # midpoint value is (-0.25, 0.5, 0), giving circulation 0.5.
    mesh = build_box_mesh(3, 1)
    circ = circulate(GaugeFieldSpec([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    i = _vertex_at(mesh, [1.0, 0.0, 0.0])
    j = _vertex_at(mesh, [1.0, 1.0, 0.0])
    assert edge_lookup(circ, np.negative, 0.0)(i, j) == pytest.approx(0.5, abs=1e-15)


def test_circulation_dimension_mismatch():
    mesh = build_box_mesh(3, 1)
    with pytest.raises(ValueError):
        circulate(GaugeFieldSpec([1.0, 0.0], [0.0, 0.0, 0.0]), mesh)


@pytest.mark.parametrize(
    "dim,a0,b",
    [
        (2, (0.3, -0.2), (0.0, 0.0, 0.7)),
        (3, (0.3, -0.2, 0.1), (0.4, -0.5, 0.25)),
    ],
)
def test_circulation_matches_gauss_quadrature(dim, a0, b):
    mesh = build_box_mesh(dim, 2)
    spec = GaugeFieldSpec(a0, b)
    circ = circulate(spec, mesh)
    for (i, j), value in zip(mesh.edges, circ.values):
        ref = line_circulation(spec.evaluate, mesh.vertices[i], mesh.vertices[j])
        assert abs(value - ref) < 1e-13


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
def test_circulation_obeys_discrete_stokes(dim, n):
    # For a uniform B the circulation around every oriented face x -> y ->
    # z -> x of every cell is the flux B . n area = B . (y - x) x (z - x) / 2
    # (B_z times the signed area in 2D), to roundoff.
    rng = np.random.default_rng(50 + dim)
    mesh = shuffled_cells(perturbed_box_mesh(dim, n, seed=dim), seed=dim)
    a0 = rng.uniform(-2.0, 2.0, dim)
    b = rng.uniform(-20.0, 20.0, 3)
    if dim == 2:
        b[:2] = 0.0
    circ = circulate(GaugeFieldSpec(a0, b), mesh)
    local = cell_blocks(circ, np.negative, 0.0)
    coords = mesh.vertices[mesh.cells]
    if dim == 2:
        coords = np.concatenate([coords, np.zeros(coords.shape[:2] + (1,))], axis=2)
    scale = np.abs(circ.values).max()
    for x, y, z in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))[: 1 if dim == 2 else 4]:
        loop = local[:, x, y] + local[:, y, z] + local[:, z, x]
        normal = 0.5 * np.cross(coords[:, y] - coords[:, x],
                                coords[:, z] - coords[:, x])
        assert np.abs(loop - normal @ b).max() <= 1e-14 * scale


def test_circulation_antisymmetry():
    mesh = shuffled_cells(build_box_mesh(2, 2), seed=4)
    circ = circulate(GaugeFieldSpec([0.2, 0.0], [0.0, 0.0, 1.3]), mesh)
    value = edge_lookup(circ, np.negative, 0.0)
    local = circ.local_values(slice(None))
    x, y = np.triu_indices(3, 1)
    for cell, loc in zip(mesh.cells, local.T):
        assert np.array_equal(loc, [value(i, j) for i, j in zip(cell[x], cell[y])])
    assert np.array_equal(circ.local_values(slice(3, 5)), local[:, 3:5])


def test_transport_special_angles():
    mesh = build_box_mesh(2, 1)
    values = np.zeros(mesh.n_edges)
    values[0] = np.pi
    values[1] = np.pi / 2
    circ = EdgeCirculation(mesh, values)
    table = transports(circ)

    value = edge_lookup(table, np.conj, 1.0)
    i0, j0 = mesh.edges[0]
    i1, j1 = mesh.edges[1]
    i2, j2 = mesh.edges[2]
    assert value(i0, j0) == pytest.approx(-1.0, abs=1e-15)
    assert value(i1, j1) == pytest.approx(1j, abs=1e-15)
    assert value(j1, i1) == pytest.approx(-1j, abs=1e-15)
    assert value(i2, j2) == pytest.approx(1.0, abs=1e-15)


def test_transport_unit_modulus_and_reversal():
    mesh = shuffled_cells(build_box_mesh(3, 2), seed=9)
    circ = circulate(GaugeFieldSpec([0.1, 0.2, -0.3], [1.0, 0.5, -0.25]), mesh)
    table = transports(circ)
    assert np.max(np.abs(np.abs(table.values) - 1.0)) <= 1e-14
    value = edge_lookup(table, np.conj, 1.0)
    local = table.local_values(slice(None))
    x, y = np.triu_indices(4, 1)
    for cell, loc in zip(mesh.cells[::5], local.T[::5]):
        assert np.array_equal(loc, [value(i, j) for i, j in zip(cell[x], cell[y])])


def test_transport_table_rejects_non_unit_values():
    mesh = build_box_mesh(2, 1)
    values = np.ones(mesh.n_edges, dtype=np.complex128)
    values[0] = 1.5
    with pytest.raises(ValueError):
        TransportTable(mesh, values)


def test_tables_check_their_values():
    mesh = build_box_mesh(2, 2)
    for table in (EdgeCirculation, TransportTable):
        assert table(mesh, np.ones(mesh.n_edges)).n_edges == mesh.n_edges == 16
        for shape in (mesh.n_edges - 1, (mesh.n_edges, 1), 0):
            with pytest.raises(ValueError, match="one value per mesh edge"):
                table(mesh, np.ones(shape))
    for bad in (np.nan, np.inf):
        values = np.ones(mesh.n_edges)
        values[2] = bad
        with pytest.raises(ValueError, match="circulations must be finite"):
            EdgeCirculation(mesh, values)
        with pytest.raises(ValueError, match="transports must be finite"):
            TransportTable(mesh, values)


def test_gauge_phases_are_checked():
    mesh = build_box_mesh(2, 2)
    circ = circulate(GaugeFieldSpec([0.2, 0.0], [0.0, 0.0, 1.0]), mesh)
    for shape in (mesh.n_vertices - 1, (mesh.n_vertices, 1)):
        with pytest.raises(ValueError, match="one phase per vertex"):
            apply_gauge_to_circulation(circ, np.zeros(shape))
    for bad in (np.nan, np.inf):
        alpha = np.zeros(mesh.n_vertices)
        alpha[4] = bad
        with pytest.raises(ValueError, match="gauge phases must be finite"):
            apply_gauge_to_circulation(circ, alpha)


def test_gauge_shift_arithmetic():
    mesh = build_box_mesh(2, 1)
    i, j = mesh.edges[0]
    values = np.zeros(mesh.n_edges)
    values[0] = 0.3
    circ = EdgeCirculation(mesh, values)

    alpha = np.zeros(mesh.n_vertices)
    alpha[i] = 0.1
    alpha[j] = 0.4
    shifted = apply_gauge_to_circulation(circ, alpha)
    value = edge_lookup(shifted, np.negative, 0.0)
    assert value(i, j) == pytest.approx(0.0, abs=1e-15)

    const = apply_gauge_to_circulation(circ, np.full(mesh.n_vertices, 2.2))
    assert np.array_equal(const.values, circ.values)


def test_gauge_round_trip():
    mesh = build_box_mesh(3, 2)
    circ = circulate(GaugeFieldSpec([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    gauge = random_gauge(mesh, np.pi, seed=11)
    back = apply_gauge_to_circulation(apply_gauge_to_circulation(circ, gauge), -gauge)
    assert np.allclose(back.values, circ.values, rtol=0, atol=1e-15)


def test_apply_gauge_to_state():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    alpha = rng.uniform(-np.pi, np.pi, 10)

    same = apply_gauge_to_state(u, np.zeros(10))
    assert np.array_equal(same, u)

    quarter = apply_gauge_to_state(np.ones(10), np.full(10, np.pi / 2))
    assert np.allclose(quarter, 1j, rtol=0, atol=1e-15)

    rotated = apply_gauge_to_state(u, alpha)
    assert np.allclose(np.abs(rotated), np.abs(u), rtol=0, atol=1e-15)

    with pytest.raises(ValueError):
        apply_gauge_to_state(u, np.zeros(7))


def test_random_gauge_contract():
    mesh = build_box_mesh(2, 3)
    zero = random_gauge(mesh, 0.0, seed=5)
    assert np.array_equal(zero, np.zeros(mesh.n_vertices))

    g1 = random_gauge(mesh, np.pi, seed=1)
    g1_again = random_gauge(mesh, np.pi, seed=1)
    g2 = random_gauge(mesh, np.pi, seed=2)
    assert np.array_equal(g1, g1_again)
    assert not np.array_equal(g1, g2)
    assert np.all(np.abs(g1) <= np.pi)
    with pytest.raises(ValueError):
        random_gauge(mesh, -1.0, seed=0)
    # 1e308 is finite, but its range 2 * amplitude overflows
    for amplitude in (np.nan, np.inf, 1e308):
        with pytest.raises(ValueError):
            random_gauge(mesh, amplitude, seed=0)


def test_gauge_compatibility_of_transports():
    # transports(gauged circulation) = exp(i a_i) U_ij exp(-i a_j)
    mesh = build_box_mesh(3, 2)
    circ = circulate(GaugeFieldSpec([0.2, -0.1, 0.3], [0.5, 0.25, 1.0]), mesh)
    gauge = random_gauge(mesh, np.pi, seed=7)
    direct = transports(apply_gauge_to_circulation(circ, gauge))
    u = transports(circ)
    i = mesh.edges[:, 0]
    j = mesh.edges[:, 1]
    conjugated = np.exp(1j * gauge[i]) * u.values * np.exp(-1j * gauge[j])
    assert np.allclose(direct.values, conjugated, rtol=0, atol=1e-14)
