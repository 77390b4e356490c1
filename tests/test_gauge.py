import numpy as np
import pytest

from gaugefem import (
    EdgeCirculation,
    GaugeFieldSpec,
    GaugeTransform,
    TransportTable,
    apply_gauge_to_circulation,
    apply_gauge_to_state,
    build_box_mesh,
    circulate,
    random_gauge,
    transports,
)

from conftest import shuffled_cells
from oracles import edge_lookup, line_circulation


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


def test_circulation_antisymmetry():
    mesh = shuffled_cells(build_box_mesh(2, 2), seed=4)
    circ = circulate(GaugeFieldSpec([0.2, 0.0], [0.0, 0.0, 1.3]), mesh)
    value = edge_lookup(circ, np.negative, 0.0)
    local = circ.local_values(mesh, slice(None))
    for cell, loc in zip(mesh.cells, local):
        assert np.array_equal(loc, [[value(i, j) for j in cell] for i in cell])
    assert np.array_equal(local, -local.transpose(0, 2, 1))
    assert np.array_equal(circ.local_values(mesh, slice(3, 5)), local[3:5])


def test_transport_special_angles():
    mesh = build_box_mesh(2, 1)
    values = np.zeros(mesh.n_edges)
    values[0] = np.pi
    values[1] = np.pi / 2
    circ = EdgeCirculation(mesh.n_vertices, mesh.edges, values)
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
    local = table.local_values(mesh, slice(None))
    for cell, loc in zip(mesh.cells[::5], local[::5]):
        assert np.array_equal(loc, [[value(i, j) for j in cell] for i in cell])
    assert np.array_equal(local, np.conj(local.transpose(0, 2, 1)))
    assert np.all(local[:, range(4), range(4)] == 1.0)


def test_transport_table_rejects_non_unit_values():
    mesh = build_box_mesh(2, 1)
    values = np.ones(mesh.n_edges, dtype=np.complex128)
    values[0] = 1.5
    with pytest.raises(ValueError):
        TransportTable(mesh.n_vertices, mesh.edges, values)


def test_gauge_shift_arithmetic():
    mesh = build_box_mesh(2, 1)
    i, j = mesh.edges[0]
    values = np.zeros(mesh.n_edges)
    values[0] = 0.3
    circ = EdgeCirculation(mesh.n_vertices, mesh.edges, values)

    alpha = np.zeros(mesh.n_vertices)
    alpha[i] = 0.1
    alpha[j] = 0.4
    shifted = apply_gauge_to_circulation(circ, GaugeTransform(alpha))
    value = edge_lookup(shifted, np.negative, 0.0)
    assert value(i, j) == pytest.approx(0.0, abs=1e-15)

    const = apply_gauge_to_circulation(circ, GaugeTransform(np.full(mesh.n_vertices, 2.2)))
    assert np.array_equal(const.values, circ.values)


def test_gauge_round_trip():
    mesh = build_box_mesh(3, 2)
    circ = circulate(GaugeFieldSpec([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), mesh)
    gauge = random_gauge(mesh, np.pi, seed=11)
    back = apply_gauge_to_circulation(
        apply_gauge_to_circulation(circ, gauge), GaugeTransform(-gauge.alpha)
    )
    assert np.allclose(back.values, circ.values, rtol=0, atol=1e-15)


def test_apply_gauge_to_state():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    alpha = rng.uniform(-np.pi, np.pi, 10)

    same = apply_gauge_to_state(u, GaugeTransform(np.zeros(10)))
    assert np.array_equal(same, u)

    quarter = apply_gauge_to_state(np.ones(10), GaugeTransform(np.full(10, np.pi / 2)))
    assert np.allclose(quarter, 1j, rtol=0, atol=1e-15)

    rotated = apply_gauge_to_state(u, GaugeTransform(alpha))
    assert np.allclose(np.abs(rotated), np.abs(u), rtol=0, atol=1e-15)

    with pytest.raises(ValueError):
        apply_gauge_to_state(u, GaugeTransform(np.zeros(7)))


def test_random_gauge_contract():
    mesh = build_box_mesh(2, 3)
    zero = random_gauge(mesh, 0.0, seed=5)
    assert np.array_equal(zero.alpha, np.zeros(mesh.n_vertices))

    g1 = random_gauge(mesh, np.pi, seed=1)
    g1_again = random_gauge(mesh, np.pi, seed=1)
    g2 = random_gauge(mesh, np.pi, seed=2)
    assert np.array_equal(g1.alpha, g1_again.alpha)
    assert not np.array_equal(g1.alpha, g2.alpha)
    assert np.all(np.abs(g1.alpha) <= np.pi)
    with pytest.raises(ValueError):
        random_gauge(mesh, -1.0, seed=0)


def test_gauge_compatibility_of_transports():
    # transports(gauged circulation) = exp(i a_i) U_ij exp(-i a_j)
    mesh = build_box_mesh(3, 2)
    circ = circulate(GaugeFieldSpec([0.2, -0.1, 0.3], [0.5, 0.25, 1.0]), mesh)
    gauge = random_gauge(mesh, np.pi, seed=7)
    direct = transports(apply_gauge_to_circulation(circ, gauge))
    u = transports(circ)
    i = mesh.edges[:, 0]
    j = mesh.edges[:, 1]
    conjugated = np.exp(1j * gauge.alpha[i]) * u.values * np.exp(-1j * gauge.alpha[j])
    assert np.allclose(direct.values, conjugated, rtol=0, atol=1e-14)
