"""Shared test helpers (the directory is also put on sys.path for oracles)."""

import dataclasses

import numpy as np

from gaugefem import HermitianSparse, build_box_mesh, make_mesh


def shift_problem(problem, s):
    """The problem of the pencil (H + s M, M): its spectrum, and so its
    spectrum floor, moved by s."""
    h, m = problem.stiffness.to_csr(), problem.mass.to_csr()
    return dataclasses.replace(problem, stiffness=HermitianSparse(h + s * m),
                               spectrum_floor=problem.spectrum_floor + s)


def perturbed_box_mesh(dim, n, seed, scale=0.2):
    """Structured box mesh with randomly jiggled interior vertices.

    Interior vertices move by up to ``scale``/n per coordinate, small enough
    that every cell keeps strictly positive volume (make_mesh re-validates),
    giving an unstructured-looking mesh with exactly reproducible geometry.
    """
    base = build_box_mesh(dim, n)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    interior = ~base.boundary_vertex
    vertices[interior] += (scale / n) * rng.uniform(
        -1.0, 1.0, (int(interior.sum()), dim)
    )
    return make_mesh(dim, vertices, base.cells)


def random_vertex_order(cells, seed):
    """``cells`` with each row's vertices listed in random order, so that
    the rows traverse about half of their edges high -> low."""
    return np.random.default_rng(seed).permuted(cells, axis=1)


def shuffled_cells(mesh, seed):
    """``make_mesh`` on the cells of ``mesh`` listed in random vertex order.

    make_mesh stores every cell in ascending vertex order, so the result
    should equal ``mesh``; code that takes coordinates in any vertex order
    gets them from :func:`random_vertex_order` directly.
    """
    return make_mesh(mesh.dim, mesh.vertices, random_vertex_order(mesh.cells, seed))
