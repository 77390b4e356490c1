"""Command line front end.

Subcommands
-----------
solve            scalar magnetic eigenproblem on a box mesh
pauli            spinor (Pauli) eigenproblem
gauge-check      paired solve under a random discrete gauge transform
convergence      refinement study with analytic or extrapolated reference
export-matrices  write the assembled pencil in coordinate text form

Reports are JSON (default) or CSV.  A JSON report is one line with sorted
keys (``python -m json.tool`` indents it); it carries ``format_version`` 2
and echoes every field of the resolved :class:`RunConfig`, which refuses a
bad command line before any mesh is built, so runs can be replayed.  With
``--deterministic`` wall-clock fields are emitted as null and reruns of the
same command line produce byte-identical output.
Densities |u|^2 stay out of the report: ``--density PATH`` (``solve`` and
``pauli`` only) writes them, once the solve succeeds, as one float64 ``.npy``
array of shape (k, n_vertices), or (2, k, n_vertices) with spin up first.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time

import numpy as np

from .assembly import assemble_scalar_problem, export_matrix
from .eigensolve import (
    ConvergenceError,
    DefinitenessError,
    reconstruct_field,
    solve_hermitian_gevp,
)
from .gauge import (
    GaugeFieldSpec,
    apply_gauge_to_circulation,
    circulate,
    random_gauge,
)
from .mesh import build_box_mesh
from .pauli import assemble_pauli, solve_pauli, spin_components

__all__ = ["RunConfig", "main", "run_solve", "run_pauli", "run_gauge_check",
           "run_convergence", "run_export_matrices", "dirichlet_reference"]

FORMAT_VERSION = 2

# Errors below this are indistinguishable from roundoff; no order is reported.
ORDER_FLOOR = 1e-12


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run parameters shared by all subcommands, under the
    names the report echoes; every check that depends on them alone runs here.

    The defaults are the command line's.  ``n`` is an int, 8 by default, or for
    convergence a tuple, (4, 8, 16) by default; in 2D a one-value ``b`` is bz.
    """

    subcommand: str
    dim: int = 2
    n: object = None
    lengths: tuple = None
    a0: tuple = None
    b: tuple = (0.0, 0.0, 0.0)
    potential: str = "zero"
    method: str = "covariant"
    k: int = 1
    tol: float = 1e-9
    seed: int = 0
    gauge_amplitude: float = math.pi
    output: str = None
    density: str = None
    format: str = "json"
    deterministic: bool = False

    def __post_init__(self):
        convergence = self.subcommand == "convergence"
        default = (4, 8, 16) if convergence else 8
        levels = tuple(int(n) for n in np.atleast_1d(default if self.n is None else self.n))
        if not convergence and len(levels) != 1:
            raise ValueError(f"{self.subcommand} takes a single --n value")
        if convergence and len(levels) < 3:
            raise ValueError("a convergence study needs at least three levels")
        for coarse, fine in zip(levels, levels[1:]):
            if fine != 2 * coarse:
                raise ValueError("levels must double (nested refinement); "
                                 f"got {coarse} -> {fine}")
        self.n = levels if convergence else levels[0]
        self.b = tuple(float(x) for x in self.b)
        if self.dim == 2:
            if len(self.b) == 1:
                self.b = (0.0, 0.0, self.b[0])
            if len(self.b) != 3 or self.b[0] != 0.0 or self.b[1] != 0.0:
                raise ValueError("in 2D pass --b bz (a single out-of-plane component)")
        elif len(self.b) != 3:
            raise ValueError("in 3D pass --b bx,by,bz")
        self.lengths = tuple(float(x) for x in self.lengths or (1.0,) * self.dim)
        self.a0 = tuple(float(x) for x in self.a0 or (0.0,) * self.dim)
        if len(self.lengths) != self.dim:
            raise ValueError(f"--lengths needs {self.dim} values")
        if len(self.a0) != self.dim:
            raise ValueError(f"--a0 needs {self.dim} values")
        if self.k < 1:
            raise ValueError("--k must be at least 1")
        if self.seed < 0:
            raise ValueError("--seed must be nonnegative")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("--tol must be finite and positive")
        if not 0.0 <= self.gauge_amplitude <= sys.float_info.max / 2:
            raise ValueError("--gauge-amplitude must be nonnegative, "
                             "with a finite range 2 * amplitude")
        _parse_potential(self.potential)
        self.field_spec()  # refuses a non-finite --b or --a0
        # solve_pauli's test, in Python floats: they overflow without a numpy warning
        if self.subcommand == "pauli" and not math.isfinite(sum(x * x for x in self.b)):
            raise ValueError("the Zeeman term |B| overflows: |B|^2 is not finite")
        if self.subcommand == "export-matrices" and self.output is None:
            raise ValueError("export-matrices requires --output PREFIX")
        if self.subcommand == "export-matrices" and self.format != "json":
            raise ValueError("export-matrices writes text matrix files; use --format json")

    def field_spec(self):
        return GaugeFieldSpec(self.a0, self.b)


def _parse_list(text, cast, flag):
    try:
        return tuple(cast(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse {flag} value {text!r}") from None


def _parse_potential(expr):
    """(), (c,) or (depth, radius) for ``zero``, ``constant:c`` or
    ``well:depth,radius``: finite numbers, the radius positive."""
    if expr == "zero":
        return ()
    kind, colon, text = expr.partition(":")
    if not colon or kind not in ("constant", "well"):
        raise ValueError(f"unknown potential {expr!r}")
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if len(values) != (1 if kind == "constant" else 2):
            raise ValueError
    except ValueError:  # a token that is not a number, or a wrong count
        raise ValueError(f"could not parse --potential value {expr!r}") from None
    if kind == "well" and not 0.0 < values[1] < math.inf:
        raise ValueError("well radius must be finite and positive")
    if not math.isfinite(values[0]):
        raise ValueError("potential samples must be finite")
    return values


def potential_values(expr, mesh):
    """Vertex samples of a potential expression, or None for 'zero'.

    Accepted forms: ``zero``, ``constant:c`` and ``well:depth,radius`` (a
    spherical step of the given depth around the box center).
    """
    values = _parse_potential(expr)
    if len(values) < 2:
        return np.full(mesh.n_vertices, values[0]) if values else None
    depth, radius = values
    center = 0.5 * (mesh.vertices.min(axis=0) + mesh.vertices.max(axis=0))
    dist = np.linalg.norm(mesh.vertices - center, axis=1)
    return np.where(dist <= radius, depth, 0.0)


def dirichlet_reference(dim, lengths, count):
    """Smallest Dirichlet Laplacian eigenvalues of the box, ascending.

    pi^2 sum_i (m_i / L_i)^2 over positive integer mode tuples m.  One whose
    product m_1...m_d exceeds ``count`` dominates ``count`` tuples of smaller
    value, so ``modes`` lists the dim-tuples of product at most ``count``.
    """
    def modes(dim, count):
        if dim == 0:
            return [()]
        return ((m, *rest) for m in range(1, count + 1) for rest in modes(dim - 1, count // m))

    vals = sorted(
        math.pi**2 * sum((m / L) ** 2 for m, L in zip(combo, lengths))
        for combo in modes(dim, count)
    )
    return np.asarray(vals[:count])


# ---------------------------------------------------------------------------
# subcommand drivers: RunConfig -> the report's results block


def _timed(cfg, solve, *args, **kwargs):
    """solve(*args, **kwargs) and its wall time (None if deterministic)."""
    t0 = time.perf_counter()
    result = solve(*args, **kwargs)
    return result, None if cfg.deterministic else time.perf_counter() - t0


def _check_k(cfg, n_dofs, where=""):
    """Refuse a --k above the report's ``n_dofs`` before anything is solved."""
    if cfg.k > n_dofs:
        raise ValueError(f"--k {cfg.k} exceeds the interior DOF count{where} ({n_dofs})")


def _timed_solve(cfg, problem):
    return _timed(cfg, solve_hermitian_gevp, problem, cfg.k, tol=cfg.tol, seed=cfg.seed)


# A box mesh is kept from the second build of its key on; the first leaves
# the key alone, so boxes that never repeat keep no arrays.  Kept meshes hold
# at most this many bytes together, and at most _MESH_CACHE_KEYS keys are
# remembered.  Measured, in MiB: eight unit squares at n = 6-44 take 1.29
# together; 2D n=16 and n=24 0.07 and 0.15; 3D n=12 and n=14 2.08 and 3.29;
# 2D n=96 and n=104, 3D n=14 and n=15 boxes 2.41-4.04 each.
_MESH_CACHE_BYTES = 8 << 20
_MESH_CACHE_KEYS = 64
_mesh_cache = {}  # (dim, n, lengths) -> mesh, None after one build; LRU first


def _nbytes(mesh):
    return sum(a.nbytes for a in vars(mesh).values() if isinstance(a, np.ndarray))


def _setup(cfg, n):
    """Box mesh at n cells per axis, kept for later calls once it is built a
    second time (meshes are immutable; see ``_MESH_CACHE_BYTES``), and its
    potential samples."""
    key = (cfg.dim, n, cfg.lengths)
    seen = key in _mesh_cache
    mesh = _mesh_cache.pop(key, None) or build_box_mesh(cfg.dim, n, cfg.lengths)
    _mesh_cache[key] = mesh if seen and _nbytes(mesh) <= _MESH_CACHE_BYTES else None
    while (len(_mesh_cache) > _MESH_CACHE_KEYS
           or sum(map(_nbytes, filter(None, _mesh_cache.values()))) > _MESH_CACHE_BYTES):
        del _mesh_cache[next(iter(_mesh_cache))]
    return mesh, potential_values(cfg.potential, mesh)


def _scalar_problem(cfg, n):
    """Box mesh at n cells per axis, its potential samples, its scalar problem."""
    mesh, pot = _setup(cfg, n)
    circ = circulate(cfg.field_spec(), mesh)
    return mesh, pot, assemble_scalar_problem(circ, pot, method=cfg.method)


def _density(coefficients, interior):
    """Per-vertex |u|^2 as re^2 + im^2; a SIMD complex np.abs may round otherwise."""
    f = reconstruct_field(coefficients, interior)
    return f.real**2 + f.imag**2


def _save_density(cfg, coefficients, interior):
    """Write the densities to --density, if given, at that exact path
    (``np.save`` given a name would append ``.npy``)."""
    if cfg.density is not None:
        with open(cfg.density, "wb") as fh:
            np.save(fh, _density(coefficients, interior), allow_pickle=False)


def _spectrum_block(result):
    return {
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "residuals": [float(r) for r in result.residuals],
        "multiplet": [bool(f) for f in result.multiplet],
        "method_tag": result.method_tag,
    }


def run_solve(cfg):
    mesh, _, problem = _scalar_problem(cfg, cfg.n)
    _check_k(cfg, problem.n)
    result, runtime = _timed_solve(cfg, problem)
    _save_density(cfg, result.eigenvectors, problem.interior)
    return {
        **_spectrum_block(result),
        "n_dofs": problem.n,
        "h": mesh.h,
        "runtime_seconds": runtime,
    }


def run_pauli(cfg):
    mesh, pot = _setup(cfg, cfg.n)
    problem = assemble_pauli(mesh, cfg.field_spec(), pot)
    _check_k(cfg, 2 * problem.n)
    result, runtime = _timed(cfg, solve_pauli, problem, cfg.k, tol=cfg.tol,
                             seed=cfg.seed)
    # the (up, down) views stack to (2, k, n) only when a density is written
    _save_density(cfg, spin_components(result.eigenvectors, problem.n), problem.interior)
    return {
        **_spectrum_block(result),
        "n_dofs": 2 * problem.n,
        "h": mesh.h,
        "runtime_seconds": runtime,
    }


def run_gauge_check(cfg):
    mesh, pot = _setup(cfg, cfg.n)
    circ = circulate(cfg.field_spec(), mesh)
    gauge = random_gauge(mesh, cfg.gauge_amplitude, cfg.seed)
    gauged = apply_gauge_to_circulation(circ, gauge)

    base = assemble_scalar_problem(circ, pot, method=cfg.method)
    _check_k(cfg, base.n)
    twin = assemble_scalar_problem(gauged, pot, method=cfg.method)
    res0, runtime = _timed_solve(cfg, base)
    res1, _ = _timed_solve(cfg, twin)

    e0, e1 = res0.eigenvalues, res1.eigenvalues
    drift = np.abs(e1 - e0) / np.maximum(np.abs(e0), np.finfo(float).tiny)
    dens0 = _density(res0.eigenvectors, base.interior)
    dens1 = _density(res1.eigenvectors, twin.interior)
    simple = ~(res0.multiplet | res1.multiplet)
    density_drift = (
        float(np.max(np.abs(dens1[simple] - dens0[simple]))) if simple.any() else None
    )
    return {
        "eigenvalues_original": [float(v) for v in e0],
        "eigenvalues_gauged": [float(v) for v in e1],
        "relative_drift": [float(d) for d in drift],
        "max_relative_drift": float(drift.max()),
        "simple": [bool(s) for s in simple],
        "max_density_drift_simple": density_drift,
        "n_dofs": base.n,
        "h": mesh.h,
        "runtime_seconds": runtime,
    }


def run_convergence(cfg):
    levels = cfg.n
    per_level = []
    eigs = []
    # B = 0 (a constant a0 is the pure gauge grad(a0 . x)) and zero samples of V
    field_free = not any(cfg.b)
    for n in levels:
        mesh, pot, problem = _scalar_problem(cfg, n)
        _check_k(cfg, problem.n, f" of level n={n}")
        field_free = field_free and not np.any(pot)
        result, runtime = _timed_solve(cfg, problem)
        eigs.append(result.eigenvalues)
        per_level.append(
            {
                "n": n,
                "h": mesh.h,
                "n_dofs": problem.n,
                "eigenvalues": [float(v) for v in result.eigenvalues],
                "runtime_seconds": runtime,
            }
        )

    if field_free:
        reference = dirichlet_reference(cfg.dim, cfg.lengths, cfg.k)
        kind = "analytic"
        n_pairs = len(levels) - 1
    else:
        # Richardson from the two finest levels assuming clean O(h^2) error;
        # the finest pair would then show order 2 by construction, so it is
        # excluded from the reported orders.
        reference = eigs[-1] + (eigs[-1] - eigs[-2]) / 3.0
        kind = "extrapolated"
        n_pairs = len(levels) - 2

    errors = [np.abs(e - reference) for e in eigs]
    orders = []
    for li in range(n_pairs):
        vals = []
        for j in range(cfg.k):
            e0, e1 = errors[li][j], errors[li + 1][j]
            if e0 > ORDER_FLOOR and e1 > ORDER_FLOOR:
                vals.append(float(np.log2(e0 / e1)))
            else:
                vals.append(None)
        orders.append({"levels": [levels[li], levels[li + 1]], "values": vals})

    return {
        "levels": per_level,
        "reference": {"kind": kind, "values": [float(v) for v in reference]},
        "errors": [[float(x) for x in row] for row in errors],
        "orders": orders,
    }


def run_export_matrices(cfg):
    problem = _scalar_problem(cfg, cfg.n)[2]
    paths = {name: f"{cfg.output}_{name}.txt" for name in ("stiffness", "mass")}
    for name, path in paths.items():
        export_matrix(getattr(problem, name), path)
    return {
        "files": paths,
        "n_dofs": problem.n,
        "stiffness_nnz": problem.stiffness.nnz,
        "mass_nnz": problem.mass.nnz,
    }


_DISPATCH = {
    "solve": run_solve,
    "pauli": run_pauli,
    "gauge-check": run_gauge_check,
    "convergence": run_convergence,
    "export-matrices": run_export_matrices,
}


# ---------------------------------------------------------------------------
# report writers


def _csv_projection(report):
    """Flat eigenvalue-table projection of a report."""
    sub = report["config"]["subcommand"]
    res = report["results"]
    rows = []
    if sub in ("solve", "pauli"):
        rows.append(("index", "eigenvalue", "residual"))
        for i, (e, r) in enumerate(zip(res["eigenvalues"], res["residuals"])):
            rows.append((i, repr(e), repr(r)))
    elif sub == "gauge-check":
        rows.append(("index", "eigenvalue_original", "eigenvalue_gauged",
                     "relative_drift"))
        for i, (a, b, d) in enumerate(
            zip(res["eigenvalues_original"], res["eigenvalues_gauged"],
                res["relative_drift"])
        ):
            rows.append((i, repr(a), repr(b), repr(d)))
    else:  # convergence: export-matrices refuses --format csv before it runs
        rows.append(("n", "h", "n_dofs", "index", "eigenvalue"))
        for level in res["levels"]:
            for i, e in enumerate(level["eigenvalues"]):
                rows.append((level["n"], repr(level["h"]), level["n_dofs"], i, repr(e)))
    return rows


def _render(report, fmt):
    """The report's text: one line of JSON with sorted keys, or CSV rows."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(_csv_projection(report))
    return buf.getvalue()


def _emit(report, cfg):
    text = _render(report, cfg.format)
    if cfg.output is None or cfg.subcommand == "export-matrices":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _add_subcommand(sub, name, summary, *, method=True, amplitude=False, density=False):
    # an option left out stays out of the namespace and takes RunConfig's default
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.add_argument("--dim", type=int, choices=(2, 3),
                   help="spatial dimension (default 2)")
    p.add_argument("--n", help="grid subdivisions per axis; comma list for convergence")
    p.add_argument("--lengths", help="box side lengths, comma separated")
    p.add_argument("--a0", help="constant potential offset, comma separated")
    p.add_argument("--b", help="magnetic field: bz in 2D, bx,by,bz in 3D")
    p.add_argument("--potential", help="zero | constant:c | well:depth,radius")
    if method:
        p.add_argument("--method", choices=("covariant", "baseline"),
                       help="gauge-invariant assembly or conventional baseline")
    p.add_argument("--k", type=int, help="number of eigenvalues (default 1)")
    p.add_argument("--tol", type=float, help="bound on the residual ||Hu - EMu|| / ||u||, "
                   "in the units of the assembled matrices (default 1e-9)")
    p.add_argument("--seed", type=int, help="rng seed (default 0)")
    if amplitude:
        p.add_argument("--gauge-amplitude", type=float,
                       help="uniform bound on the random vertex phases (default pi)")
    p.add_argument("--output", help="output file (default stdout)")
    if density:
        p.add_argument("--density", metavar="PATH",
                       help="write the densities |u|^2 to PATH as a float64 .npy "
                            "array (default: not formed)")
    p.add_argument("--format", choices=("json", "csv"), help="report format (default json)")
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical reports: wall-clock fields become null")


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="gaugefem",
        description="Gauge-invariant finite elements for magnetic Schrodinger "
                    "and Pauli eigenvalue problems on box meshes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_subcommand(sub, "solve", "scalar eigenproblem", density=True)
    _add_subcommand(sub, "pauli", "Pauli (spinor) eigenproblem", method=False, density=True)
    _add_subcommand(sub, "gauge-check", "paired solve under a random gauge transform",
                    amplitude=True)
    _add_subcommand(sub, "convergence", "refinement study")
    _add_subcommand(sub, "export-matrices", "write the assembled pencil as text files")
    return parser


def _config_from_args(args):
    opts = dict(vars(args))
    for field, cast in (("n", int), ("b", float), ("lengths", float), ("a0", float)):
        if field in opts:
            opts[field] = _parse_list(opts[field], cast, f"--{field}")
    return RunConfig(**opts)


def _check_output(cfg):
    """Refuse an --output or --density no file can be written to, or one
    file for both, before any work runs."""
    for flag, path in (("--output", cfg.output), ("--density", cfg.density)):
        if path is None:
            continue
        if not path:
            raise ValueError(f"{flag} must not be empty")
        # an export's --output is a prefix; export-matrices takes no --density
        if cfg.subcommand != "export-matrices" and os.path.isdir(path):
            raise ValueError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path!r} is in a missing directory")
    if cfg.output and cfg.density and (os.path.realpath(cfg.output)
                                       == os.path.realpath(cfg.density)):
        raise ValueError(f"--density {cfg.density!r} is the --output file")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _check_output(cfg)
        results = _DISPATCH[cfg.subcommand](cfg)
        _emit({"format_version": FORMAT_VERSION, "config": dict(vars(cfg)),
               "results": results}, cfg)
    except (DefinitenessError, ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"gaugefem: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message
        print(f"gaugefem: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
