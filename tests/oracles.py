"""Slow, independent reference implementations used only by the tests.

Everything here is deliberately written loop-by-loop from first principles so
it shares no code path (and no closed-form integral tables) with the package:
simplex integrals are done by collapsed tensor-product Gauss quadrature, P1
matrices are assembled entry by entry from quadrature values, structured
cells and edge sets are enumerated with Python loops and sets, and edge values
are looked up in plain dicts.  Slow but unarguable.
"""

import itertools

import numpy as np
import scipy.spatial


def gauss_points_01(npts):
    """Gauss-Legendre nodes and weights on the unit interval [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def simplex_quadrature(coords, npts=8):
    """Quadrature points and weights on a simplex via the Duffy transform.

    The unit square/cube rule is collapsed onto the reference simplex
    (x = u, y = v(1-u)[, z = w(1-u)(1-v)]) and mapped affinely to the
    physical cell, so weights sum to the cell volume.  With ``npts`` = 8 per
    axis the rule integrates the polynomial degrees used anywhere in the
    package (at most quartic) far beyond machine precision.

    Parameters
    ----------
    coords : (d+1, d) array
        Vertex coordinates of the cell.
    npts : int
        Gauss points per tensor axis.

    Returns
    -------
    points : (npts**d, d) array
    weights : (npts**d,) array
    """
    coords = np.asarray(coords, dtype=np.float64)
    d = coords.shape[1]
    x, w = gauss_points_01(npts)
    if d == 2:
        u, v = np.meshgrid(x, x, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        ref = np.stack([u, v * (1.0 - u)], axis=-1).reshape(-1, 2)
        wts = (wu * wv * (1.0 - u)).reshape(-1)
    elif d == 3:
        u, v, s = np.meshgrid(x, x, x, indexing="ij")
        wu, wv, ws = np.meshgrid(w, w, w, indexing="ij")
        ref = np.stack(
            [u, v * (1.0 - u), s * (1.0 - u) * (1.0 - v)], axis=-1
        ).reshape(-1, 3)
        wts = (wu * wv * ws * (1.0 - u) ** 2 * (1.0 - v)).reshape(-1)
    else:
        raise ValueError("only d = 2 or 3")
    span = coords[1:] - coords[0]
    points = coords[0] + ref @ span
    return points, wts * abs(np.linalg.det(span))


def barycentric_values(coords, points):
    """Barycentric coordinates of ``points`` w.r.t. the cell ``coords``.

    Solves the (d+1)x(d+1) system sum_i lam_i = 1, sum_i lam_i p_i = x for
    each point; returns shape (npoints, d+1).
    """
    coords = np.asarray(coords, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = coords.shape[0]
    lhs = np.vstack([np.ones(m), coords.T])
    rhs = np.vstack([np.ones(points.shape[0]), points.T])
    return np.linalg.solve(lhs, rhs).T


def hat_gradients(coords):
    """Gradients of the P1 hat functions of one cell, shape (d+1, d).

    Each hat lambda_a is affine, lambda_a(p_b) = delta_ab; the coefficients
    come from solving [1 | p_b] @ c = I directly.
    """
    coords = np.asarray(coords, dtype=np.float64)
    m = coords.shape[0]
    lhs = np.hstack([np.ones((m, 1)), coords])
    coeffs = np.linalg.solve(lhs, np.eye(m))
    return coeffs[1:, :].T


def line_circulation(evaluate, p, q, npts=5):
    """Gauss-Legendre value of the line integral of a vector field p -> q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    t, w = gauss_points_01(npts)
    pts = p[None, :] + t[:, None] * (q - p)[None, :]
    return float(np.sum(w * (np.asarray(evaluate(pts)) @ (q - p))))


def p1_mass_dense(vertices, cells, npts=8):
    """Standard P1 mass matrix assembled entry by entry from quadrature."""
    nv = vertices.shape[0]
    out = np.zeros((nv, nv))
    for cell in cells:
        coords = vertices[cell]
        pts, w = simplex_quadrature(coords, npts)
        lam = barycentric_values(coords, pts)
        for a in range(len(cell)):
            for b in range(len(cell)):
                out[cell[a], cell[b]] += np.sum(w * lam[:, a] * lam[:, b])
    return out


def p1_stiffness_dense(vertices, cells):
    """Standard P1 stiffness matrix, entry loops over cells and vertex pairs."""
    nv = vertices.shape[0]
    out = np.zeros((nv, nv))
    for cell in cells:
        coords = vertices[cell]
        _, w = simplex_quadrature(coords, 2)
        vol = float(np.sum(w))
        g = hat_gradients(coords)
        for a in range(len(cell)):
            for b in range(len(cell)):
                out[cell[a], cell[b]] += vol * float(g[a] @ g[b])
    return out


def p1_local_stiffness(coords):
    """Single-cell P1 stiffness matrix vol * (grad lam_a . grad lam_b)."""
    coords = np.asarray(coords, dtype=np.float64)
    _, w = simplex_quadrature(coords, 2)
    g = hat_gradients(coords)
    return float(np.sum(w)) * (g @ g.T)


def covariant_mass_dense(vertices, cells, transport_of):
    """Transport-weighted mass matrix from quadrature, entry by entry.

    ``transport_of(i, j)`` must return the unit complex transport along the
    directed edge i -> j (and 1 on the diagonal).
    """
    nv = vertices.shape[0]
    out = np.zeros((nv, nv), dtype=np.complex128)
    for cell in cells:
        coords = vertices[cell]
        pts, w = simplex_quadrature(coords)
        lam = barycentric_values(coords, pts)
        for a in range(len(cell)):
            for b in range(len(cell)):
                pair = np.sum(w * lam[:, a] * lam[:, b])
                out[cell[a], cell[b]] += pair * transport_of(cell[a], cell[b])
    return out


def local_covariant_stiffness_dual(coords, transports_local):
    """Covariant stiffness of one cell from its defining form, term by term.

    a(u, v) = sum_{x, y != x} sum_{z, t != z} conj(U_xy u_y - u_x) U_xz
    (U_zt v_t - v_z) (mu_xy . mu_zt) M_xz, where mu_x. is the basis dual to
    the tangents p_y - p_x at vertex x (one matrix inverse per vertex) and
    M is the P1 mass of the cell by quadrature.  Each pair of vertex pairs
    adds its four u/v contributions to the matrix of conj(u_j) v_l.
    """
    coords = np.asarray(coords, dtype=np.float64)
    u = np.asarray(transports_local, dtype=np.complex128)
    m = coords.shape[0]
    pts, w = simplex_quadrature(coords, 4)
    lam = barycentric_values(coords, pts)
    mass = np.einsum("q,qa,qb->ab", w, lam, lam)
    mu = {}
    for x in range(m):
        others = [y for y in range(m) if y != x]
        tangents = np.array([coords[y] - coords[x] for y in others])
        dual = np.linalg.inv(tangents).T  # dual[a] . tangents[b] = delta_ab
        for a, y in enumerate(others):
            mu[x, y] = dual[a]
    k = np.zeros((m, m), dtype=np.complex128)
    for x, y in mu:
        for z, t in mu:
            core = (mu[x, y] @ mu[z, t]) * mass[x, z] * u[x, z]
            k[y, t] += core * np.conj(u[x, y]) * u[z, t]
            k[y, z] -= core * np.conj(u[x, y])
            k[x, t] -= core * u[z, t]
            k[x, z] += core
    return k


def covariant_stiffness_dense(vertices, cells, transport_of):
    """Covariant stiffness matrix summed from :func:`local_covariant_stiffness_dual`.

    ``transport_of(i, j)`` returns the transport along the directed edge
    i -> j (and 1 on the diagonal).
    """
    nv = vertices.shape[0]
    out = np.zeros((nv, nv), dtype=np.complex128)
    for cell in cells:
        u = np.array([[transport_of(i, j) for j in cell] for i in cell])
        out[np.ix_(cell, cell)] += local_covariant_stiffness_dual(vertices[cell], u)
    return out


def potential_dense(vertices, cells, vertex_values, transport_of=None, npts=8):
    """Potential term by quadrature: int lam_a V_h lam_b times the transport.

    V_h is the P1 interpolant of ``vertex_values``; ``transport_of`` defaults
    to the trivial transport (all ones).
    """
    nv = vertices.shape[0]
    out = np.zeros((nv, nv), dtype=np.complex128)
    for cell in cells:
        coords = vertices[cell]
        pts, w = simplex_quadrature(coords, npts)
        lam = barycentric_values(coords, pts)
        vh = lam @ np.asarray(vertex_values, dtype=np.float64)[cell]
        for a in range(len(cell)):
            for b in range(len(cell)):
                val = np.sum(w * lam[:, a] * vh * lam[:, b])
                if transport_of is not None:
                    val = val * transport_of(cell[a], cell[b])
                out[cell[a], cell[b]] += val
    return out


def magnetic_galerkin_dense(vertices, cells, circulation_of, npts=8):
    """Conventional magnetic P1 stiffness matrix by quadrature.

    The vector potential on each cell is the edge-element interpolant of the
    circulations, A = sum_{a<b} A_ab (lam_a grad lam_b - lam_b grad lam_a),
    and the entries are int conj((grad + iA) lam_x) . (grad + iA) lam_y
    evaluated with the tensor Gauss rule.  ``circulation_of(i, j)`` returns
    the real circulation along the directed edge i -> j.
    """
    nv = vertices.shape[0]
    out = np.zeros((nv, nv), dtype=np.complex128)
    for cell in cells:
        coords = vertices[cell]
        m = len(cell)
        pts, w = simplex_quadrature(coords, npts)
        lam = barycentric_values(coords, pts)
        g = hat_gradients(coords)
        a_field = np.zeros((pts.shape[0], coords.shape[1]))
        for a in range(m):
            for b in range(a + 1, m):
                a_ab = circulation_of(cell[a], cell[b])
                a_field += a_ab * (
                    lam[:, a : a + 1] * g[b][None, :]
                    - lam[:, b : b + 1] * g[a][None, :]
                )
        for x in range(m):
            for y in range(m):
                test = g[x][None, :] - 1j * a_field * lam[:, x : x + 1]
                trial = g[y][None, :] + 1j * a_field * lam[:, y : y + 1]
                out[cell[x], cell[y]] += np.sum(w * np.sum(test * trial, axis=1))
    return out


def structured_box_edges(dim, n):
    """Edge set of the n-per-axis Kuhn-triangulated box, as a Python set.

    Uses the closed-form characterization of the subdivision: two grid
    vertices are connected exactly when their multi-index difference lies in
    {0, 1}^d (componentwise, after orienting low to high).  Vertex numbering
    matches row-major ordering of the (n+1)^d grid.
    """
    shape = (n + 1,) * dim
    offsets = [
        off for off in itertools.product((0, 1), repeat=dim) if any(off)
    ]
    edges = set()
    for p in itertools.product(range(n + 1), repeat=dim):
        for off in offsets:
            q = tuple(pi + oi for pi, oi in zip(p, off))
            if max(q) > n:
                continue
            i = int(np.ravel_multi_index(p, shape))
            j = int(np.ravel_multi_index(q, shape))
            edges.add((min(i, j), max(i, j)))
    return edges


def structured_box_cells(dim, n):
    """Cells of the n-per-axis Kuhn-triangulated box, walked one by one.

    For every grid corner (row-major) and every axis permutation (itertools
    order) the cell is the path that leaves the corner and steps +1 along
    each axis in permutation order.  Vertex numbering matches row-major
    ordering of the (n+1)^d grid.
    """
    shape = (n + 1,) * dim
    cells = []
    for corner in itertools.product(range(n), repeat=dim):
        for perm in itertools.permutations(range(dim)):
            path = [list(corner)]
            for axis in perm:
                step = list(path[-1])
                step[axis] += 1
                path.append(step)
            cells.append([int(np.ravel_multi_index(tuple(p), shape)) for p in path])
    return np.asarray(cells, dtype=np.int64)


def ring_disk(h):
    """Delaunay mesh of the unit disk from rings of points at spacing h.

    The centre and rings of radius j / J for j = 1 .. J = round(1/h), the
    last the unit circle, each with round(2 pi j) points evenly spaced in
    angle, are triangulated by ``scipy.spatial.Delaunay``.  Returns the
    vertices, the cells and the mask of the circle's vertices, which are the
    Dirichlet boundary.
    """
    rings = round(1.0 / h)
    points = [np.zeros((1, 2))]
    for j in range(1, rings + 1):
        theta = np.linspace(0.0, 2.0 * np.pi, round(2.0 * np.pi * j), endpoint=False)
        points.append((j / rings) * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    vertices = np.concatenate(points)
    on_circle = np.zeros(len(vertices), dtype=bool)
    on_circle[-len(points[-1]):] = True
    return vertices, scipy.spatial.Delaunay(vertices).simplices, on_circle


def chebyshev_matrix(n):
    """The Chebyshev points x_j = cos(j pi / n), j = 0 .. n, and the
    differentiation matrix D on them (Trefethen, *Spectral Methods in
    MATLAB*, SIAM 2000, ``cheb``): (D f)_i = f'(x_i) for polynomials f of
    degree <= n."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return x, d - np.diag(d.sum(axis=1))


def _radial_operators(b, n, angular):
    """The Chebyshev collocation of :func:`disk_spectrum`: the nodes x of
    degree ``n`` (odd), the indices ``rows`` of the nodes r = x[rows] in
    (0, 1), and per m in ``angular`` the matrix of the radial operator
    -f'' - f'/r + (m/r - b r/2)^2 f on the values f(r), with f(1) = 0 and
    f(-r) = (-1)^m f(r) folding the nodes in (-1, 0) onto them."""
    if n % 2 == 0:
        raise ValueError("n must be odd")
    x, d = chebyshev_matrix(n)
    d2 = d @ d
    rows = np.arange(1, n // 2 + 1)  # the nodes in (0, 1)
    mirror = n - rows  # x[mirror] = -x[rows]
    r = x[rows]
    operators = []
    for m in angular:
        parity = (-1.0) ** m
        first = d[np.ix_(rows, rows)] + parity * d[np.ix_(rows, mirror)]
        second = d2[np.ix_(rows, rows)] + parity * d2[np.ix_(rows, mirror)]
        operators.append(-second - first / r[:, None]
                         + np.diag((m / r - b * r / 2.0) ** 2))
    return x, rows, operators


def disk_spectrum(b, count, n, mmax):
    """The ``count`` lowest Dirichlet eigenvalues of (-i grad - A)^2 on the
    unit disk with A = (b/2)(-y, x), the uniform field b along z.

    The eigenfunctions separate as f(r) e^{i m theta}, with the radial problem
    -f'' - f'/r + (m/r - b r/2)^2 f = lambda f and f(1) = 0.  Chebyshev
    collocation of degree ``n`` (odd) on r in [-1, 1] folds the grid onto
    r > 0 by the parity f(-r) = (-1)^m f(r), so no node sits at r = 0
    (Trefethen's Programs 28-29).  The spectrum is the union over
    |m| <= ``mmax``, which also covers the opposite sign of A.
    """
    operators = _radial_operators(b, n, range(-mmax, mmax + 1))[2]
    values = np.concatenate([np.linalg.eigvals(a).real for a in operators])
    return np.sort(values)[:count]


def disk_ground_state(b, radii, n):
    """The lowest m = 0 eigenvalue of :func:`disk_spectrum`'s radial problem
    and its eigenfunction f at ``radii`` in [0, 1], normalized to
    2 pi int_0^1 f(r)^2 r dr = 1 (of either sign), from the same
    collocation.

    f is even, so its values at the nodes r and -r and the zeros at +-1
    give its degree-n polynomial on all n + 1 Chebyshev points, which the
    barycentric formula evaluates anywhere (Berrut and Trefethen, SIAM
    Review 46, 2004); Gauss-Legendre with n + 1 points integrates f^2 r
    exactly.
    """
    x, rows, (radial,) = _radial_operators(b, n, [0])
    vals, vecs = np.linalg.eig(radial)
    lowest = np.argmin(vals.real)
    nodal = np.zeros(n + 1)
    nodal[rows] = nodal[n - rows] = vecs[:, lowest].real
    weights = (-1.0) ** np.arange(n + 1)
    weights[[0, -1]] *= 0.5

    def f(points):
        points = np.asarray(points, dtype=np.float64)
        diff = points[:, None] - x[None, :]
        exact = diff == 0.0
        diff[exact] = 1.0
        terms = weights / diff
        out = (terms @ nodal) / terms.sum(axis=1)
        hit = np.flatnonzero(exact.any(axis=1))
        out[hit] = nodal[exact[hit].argmax(axis=1)]
        return out

    r, w = gauss_points_01(n + 1)
    scale = np.sqrt(2.0 * np.pi * np.sum(w * f(r) ** 2 * r))
    return vals[lowest].real, f(np.ravel(radii)) / scale


def delaunay_cloud(dim, npoints, seed):
    """Delaunay mesh of ``npoints`` uniform random points in the unit box.

    Returns the vertices, the cells and the mask of the convex hull's
    vertices, which are the boundary of the mesh.
    """
    vertices = np.random.default_rng(seed).uniform(0.0, 1.0, (npoints, dim))
    tri = scipy.spatial.Delaunay(vertices)
    on_hull = np.zeros(npoints, dtype=bool)
    on_hull[tri.convex_hull] = True
    return vertices, tri.simplices, on_hull


def edge_lookup(table, reverse, diagonal):
    """Directed-edge value function (i, j) -> value from a plain dict.

    ``table`` holds one value per edge of its mesh (``table.mesh.edges``
    lower index first, ``table.values``); the reversed edge j -> i gives
    ``reverse(value)`` and i -> i gives ``diagonal``.  A pair that is not an
    edge raises KeyError.  Use ``reverse=np.conj, diagonal=1.0`` for
    transports and ``reverse=np.negative, diagonal=0.0`` for circulations.
    """
    values = {(int(i), int(j)): v for (i, j), v in zip(table.mesh.edges, table.values)}

    def value(i, j):
        i, j = int(i), int(j)
        if i == j:
            return diagonal
        if i < j:
            return values[(i, j)]
        return reverse(values[(j, i)])

    return value


def cell_blocks(table, reverse, diagonal):
    """(nc, m, m) values between the vertices of each cell of the table's
    mesh, in the cell's vertex order, through :func:`edge_lookup`."""
    value = edge_lookup(table, reverse, diagonal)
    return np.array([[[value(i, j) for j in cell] for i in cell]
                     for cell in table.mesh.cells])


def apply_gauge_to_state(u, alpha):
    """Pointwise rotation u_x -> exp(i alpha_x) u_x of a vertex state."""
    u = np.asarray(u)
    if u.shape[-1] != alpha.shape[0]:
        raise ValueError("state and gauge sizes differ")
    return np.exp(1j * alpha) * u


def spin_block(spin_matrix, scalar_matrix):
    """Dense kron(spin_matrix, scalar_matrix): all spin-up rows first.

    ``spin_matrix`` must be a Hermitian 2x2 array and ``scalar_matrix`` a
    dense square array.
    """
    s = np.asarray(spin_matrix, dtype=np.complex128)
    if s.shape != (2, 2):
        raise ValueError("spin matrix must be 2x2")
    if not np.allclose(s, s.conj().T, rtol=0.0, atol=1e-14):
        raise ValueError("spin matrix must be Hermitian")
    return np.kron(s, np.asarray(scalar_matrix, dtype=np.complex128))


def zeeman_matrix(mass, b):
    """Dense spin coupling -(sigma . B) tensor the scalar mass matrix.

    sigma . B = [[b3, b1 - i b2], [b1 + i b2, -b3]] is written out here
    rather than taken from the package.
    """
    b1, b2, b3 = (float(x) for x in b)
    sigma_b = np.array([[b3, b1 - 1j * b2], [b1 + 1j * b2, -b3]])
    return spin_block(-sigma_b, mass)


def pauli_pencil_dense(stiffness, mass, b, boundary):
    """The full 2n Pauli pencil (H, M), Dirichlet-reduced, as dense arrays.

    ``stiffness`` (kinetic plus potential) and ``mass`` are the dense scalar
    matrices over all vertices, ``b`` is the uniform field and ``boundary``
    the boundary-vertex mask.  H = kron(I2, K) + kron(-(sigma . B), M) and
    M = kron(I2, M); then the boundary rows and columns of both spin blocks
    are dropped, leaving the up-then-down interior layout.
    """
    identity = np.eye(2)
    h = spin_block(identity, stiffness) + zeeman_matrix(mass, b)
    m = spin_block(identity, mass)
    keep = np.flatnonzero(~np.concatenate([boundary, boundary]))
    return h[np.ix_(keep, keep)], m[np.ix_(keep, keep)]
