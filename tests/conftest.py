"""Shared test helpers (the directory is also put on sys.path for oracles)."""

import numpy as np

from gaugefem import HermitianSparse, build_box_mesh, make_mesh


def shift_pencil(h, s, m):
    """The pencil matrix H + s M of two HermitianSparse matrices."""
    return HermitianSparse.from_csr(h.to_csr() + s * m.to_csr())


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


def shuffled_cells(mesh, seed):
    """The same mesh with each cell's vertices listed in random order, so
    that cells traverse about half of their edges high -> low."""
    cells = np.random.default_rng(seed).permuted(mesh.cells, axis=1)
    return make_mesh(mesh.dim, mesh.vertices, cells)
