"""Mutation gate: every listed defect of the source must fail its tests.

Each mutant names a file under ``src/gaugefem``, a source snippet that must
occur in it exactly once, the snippet's replacement, and the test files (or
test node ids) that claim to catch the defect.  For each mutant the script
copies ``src/`` to a temporary directory, applies the edit there and runs
``pytest -x`` on those tests against the copy.  The gate fails if any
mutant's tests pass, or if a snippet no longer occurs exactly once, so a
refactor must update the list instead of dropping a mutant silently.  A
control run first runs every listed test the same way against an unpatched
copy; unless it passes, a failing test proves nothing about a mutant and
the gate fails before any mutant runs, printing the ids of the tests that
failed.

Run from the repository root:

    python ci/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ASSEMBLY = "tests/test_assembly.py"
CLI = "tests/test_cli.py"
EIGENSOLVE = "tests/test_eigensolve.py"
GAUGE = "tests/test_gauge.py"
MESH = "tests/test_mesh.py"
PAULI = "tests/test_pauli.py"

# (name, file, snippet, replacement, tests)
MUTANTS = [
    # gauge and mesh
    ("gauge shift sign", "gauge.py",
     "circulation.values - (alpha[j] - alpha[i])",
     "circulation.values + (alpha[j] - alpha[i])", [GAUGE]),
    ("boundary facets in up to two cells", "mesh.py",
     "outer = keys[counts == 1]", "outer = keys[counts <= 2]", [MESH]),
    ("b of any length", "gauge.py",
     'if self.b.shape != (3,):', 'if False:',
     [f"{GAUGE}::test_field_spec_validation"]),
    ("points of any length", "gauge.py",
     "if points.shape[-1] != self.dim:", "if False:",
     [f"{GAUGE}::test_field_spec_validation"]),
    ("edge count of an empty table", "gauge.py",
     "return self.values.shape[0]", "return 0",
     [f"{GAUGE}::test_tables_check_their_values"]),
    ("non-finite vertices accepted", "mesh.py",
     "if not np.all(np.isfinite(vertices)):", "if False:",
     [f"{MESH}::test_make_mesh_argument_errors"]),
    ("cells of any shape", "mesh.py",
     "if cells.ndim != 2 or cells.shape[1] != dim + 1:", "if False:",
     [f"{MESH}::test_make_mesh_argument_errors"]),
    ("box of any dimension", "mesh.py",
     '    if dim not in (2, 3):\n        raise ValueError(f"dim must be 2 or 3, got {dim}")\n'
     '    if not isinstance(n,',
     "    if not isinstance(n,",
     [f"{MESH}::test_build_box_mesh_argument_errors"]),
    # assembly
    ("eigvalsh threshold 0.5", "assembly.py",
     "low = np.flatnonzero(lam < margin)", "low = np.flatnonzero(lam < 0.5)",
     [f"{ASSEMBLY}::test_eigvalsh_takes_exactly_the_cells_weyl_leaves_uncertified"]),
    ("2D floors skip eigvalsh", "assembly.py",
     "low = np.flatnonzero(lam < margin)",
     "low = np.flatnonzero((lam < margin) & (m == 4))",
     [f"{ASSEMBLY}::test_eigvalsh_takes_exactly_the_cells_weyl_leaves_uncertified"]),
    ("mass floor from the largest certificate", "assembly.py",
     "mass_floor = float(floor.min())", "mass_floor = float(floor.max())",
     [f"{ASSEMBLY}::test_one_pass_equals_the_single_forms"]),
    ("lower triangle not conjugated", "assembly.py",
     "where=order.data < inner.size", "where=order.data < 0", [ASSEMBLY]),
    ("data left in COO order", "assembly.py",
     "nv + inner])[order.data]", "nv + inner])", [ASSEMBLY]),
    ("interior mask on the upper rows only", "assembly.py",
     "np.flatnonzero(keep[lo] & keep[hi])", "np.flatnonzero(keep[lo])",
     [f"{ASSEMBLY}::test_the_problem_is_assembled_straight_onto_the_interior"]),
    ("empty problem reaches the cell pass", "assembly.py",
     "    if not interior.any():\n        raise EmptyProblemError(", "    if False:\n        raise EmptyProblemError(",
     [f"{ASSEMBLY}::test_a_problem_without_interior_vertices_runs_no_cell_pass"]),
    # eigensolve
    ("multiplets flag only the lower member", "eigensolve.py",
     "    flags[1:] |= close\n", "", [EIGENSOLVE]),
    ("MULTIPLET_GAP 1e-8", "eigensolve.py",
     "MULTIPLET_GAP = 1e-12", "MULTIPLET_GAP = 1e-8",
     [f"{EIGENSOLVE}::test_multiplet_flagging"]),
    ("no phase fix", "eigensolve.py",
     "    vecs *= np.conj(top / np.hypot(top.real, top.imag))[:, None]\n", "",
     [EIGENSOLVE]),
    ("shift factor 1.0", "eigensolve.py",
     "g_min / (0.9 * mu)", "g_min / (1.0 * mu)", [EIGENSOLVE]),
    ("sigma without the spectrum floor", "eigensolve.py",
     "max(float(g_min / (0.9 * mu)), problem.spectrum_floor) - 1.0",
     "float(g_min / (0.9 * mu)) - 1.0", [EIGENSOLVE]),
    ("no zero shift", "eigensolve.py",
     "if g_min > 0.0:", "if False:", [EIGENSOLVE]),
    ("dense path skips the certificate", "eigensolve.py",
     "mu = problem.mass_floor\n    if mu <= 0.0:",
     "mu = problem.mass_floor\n    if not dense and mu <= 0.0:", [EIGENSOLVE]),
    ("ARPACK path skips the probe", "eigensolve.py",
     "mu = problem.mass_floor\n    if mu <= 0.0:",
     "mu = problem.mass_floor\n    if dense and mu <= 0.0:", [EIGENSOLVE]),
    ("ARPACK tol = tol", "eigensolve.py",
     "tol=tol * 1e-2", "tol=tol", [EIGENSOLVE]),
    ("RCM kept only three columns narrower", "eigensolve.py",
     "if rcm_kd <= kd - 2:", "if rcm_kd <= kd - 3:",
     [f"{EIGENSOLVE}::test_rcm_renumbers_only_where_it_narrows_the_band_by_two"]),
    ("RCM always taken", "eigensolve.py",
     "if rcm_kd <= kd - 2:", "if True:", [EIGENSOLVE]),
    ("RCM solve not gathered back", "eigensolve.py",
     "chol, x[order], overwrite_b=1)[0][rank]", "chol, x[order], overwrite_b=1)[0]",
     [EIGENSOLVE]),
    ("empty problem reaches the k check", "eigensolve.py",
     '    if n == 0:\n        raise ValueError("empty problem")\n', "",
     [f"{EIGENSOLVE}::test_argument_validation"]),
    ("stall reports the worst residual", "eigensolve.py",
     "m_csr @ vv).min()", "m_csr @ vv).max()",
     [f"{EIGENSOLVE}::test_a_stall_with_converged_pairs_reports_their_best_residual"]),
    ("shift-invert solve through eigs", "eigensolve.py",
     "ritz = spla.eigsh(", "ritz = spla.eigs(",
     [f"{EIGENSOLVE}::test_the_shift_invert_solve_is_one_eigsh_call"]),
    ("ARPACK restarts uncapped", "eigensolve.py",
     "maxiter=ARPACK_MAXITER)", "maxiter=None)",
     [f"{CLI}::test_arpack_restarts_are_capped"]),
    # pauli
    ("Pauli sort not stable", "pauli.py",
     'np.argsort(energies, kind="stable")', 'np.argsort(energies[::-1])[::-1]', [PAULI]),
    ("Zeeman overflow unchecked in solve_pauli", "pauli.py",
     "if not np.isfinite(sum(x * x for x in problem.b.tolist())):", "if False:",
     [f"{PAULI}::test_solve_pauli_refuses_an_overflowing_zeeman_term"]),
    # cli
    ("mesh cache of zero bytes", "cli.py",
     "_MESH_CACHE_BYTES = 8 << 20", "_MESH_CACHE_BYTES = 0", [CLI]),
    ("mesh kept on its first build", "cli.py",
     "mesh if seen and _nbytes(mesh)", "mesh if _nbytes(mesh)",
     [f"{CLI}::test_setup_reuses_a_small_box_mesh"]),
    ("mesh cache keys unbounded", "cli.py",
     "len(_mesh_cache) > _MESH_CACHE_KEYS", "False",
     [f"{CLI}::test_boxes_that_never_repeat_keep_no_mesh"]),
    ("mesh cache key without lengths", "cli.py",
     "key = (cfg.dim, n, cfg.lengths)", "key = (cfg.dim, n)", [CLI]),
    ("mesh cache get for pop", "cli.py",
     "_mesh_cache.pop(key, None)", "_mesh_cache.get(key, None)", [CLI]),
    ("--k check removed", "cli.py",
     "if cfg.k > n_dofs:", "if False:", [CLI]),
    ("field-free from the string", "cli.py",
     "field_free = field_free and not np.any(pot)",
     'field_free = field_free and cfg.potential == "zero"', [CLI]),
    ("extrapolated reference given every pair", "cli.py",
     "n_pairs = len(levels) - 2", "n_pairs = len(levels) - 1", [CLI]),
    ("order from a roundoff error", "cli.py",
     "if e0 > ORDER_FLOOR and e1 > ORDER_FLOOR:", "if e0 > ORDER_FLOOR:",
     [f"{CLI}::test_convergence_reports_no_order_where_an_error_is_roundoff"]),
    ("--potential parsed only with the mesh", "cli.py",
     "        _parse_potential(self.potential)\n", "",
     [f"{CLI}::test_non_finite_inputs_exit_with_code_2"]),
    ("convergence levels need not double", "cli.py",
     "if fine != 2 * coarse:", "if False:",
     [f"{CLI}::test_usage_errors_exit_with_code_2"]),
    ("reference modes bounded below the count", "cli.py",
     "count // m", "(count - 1) // m",
     [f"{CLI}::test_dirichlet_reference_matches_brute_force"]),
    ("a0 of any length", "cli.py",
     "if len(self.a0) != self.dim:", "if False:",
     [f"{CLI}::test_runconfig_validation"]),
    ("--density paths unchecked", "cli.py",
     '(("--output", cfg.output), ("--density", cfg.density))', '(("--output", cfg.output),)',
     [f"{CLI}::test_unwritable_output_exits_with_code_2"]),
    ("--density may be the --output file", "cli.py",
     "if cfg.output and cfg.density and (", "if False and (",
     [f"{CLI}::test_unwritable_output_exits_with_code_2"]),
    ("pauli density down before up", "cli.py",
     "spin_components(result.eigenvectors, problem.n), problem.interior)",
     "spin_components(result.eigenvectors, problem.n)[::-1], problem.interior)",
     [f"{CLI}::test_pauli_report"]),
    ("report keys unsorted", "cli.py",
     "json.dumps(report, sort_keys=True)", "json.dumps(report)",
     [f"{CLI}::test_deterministic_reports_are_byte_identical"]),
]


def pytest_exit(tests, file=None, snippet=None, replacement=None):
    """pytest's exit code and output on ``tests`` against a copy of
    ``src/``, with ``snippet`` replaced in ``file`` if given, or a message
    and no output if ``snippet`` does not occur there exactly once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if file is not None:
            path = src / "gaugefem" / file
            text = path.read_text()
            count = text.count(snippet)
            if count != 1:
                return f"snippet occurs {count} times in {file}", ""
            path.write_text(text.replace(snippet, replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1")
        # run in the temporary directory, so that Hypothesis keeps the
        # examples a mutant fails on there, not for later runs
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), *(str(ROOT / t) for t in tests)],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        # name tests from the repository root, not from the temporary directory
        return done.returncode, done.stdout.replace(os.path.relpath(ROOT, tmp) + os.sep, "")


def run(name, file, snippet, replacement, tests):
    """(name, None) if a test of the mutant fails, else (name, why not)."""
    code, _ = pytest_exit(tests, file, snippet, replacement)
    # pytest exits 1 when a test failed, other codes when it could not run them
    return name, None if code == 1 else f"pytest exited {code}"


def main():
    start = time.perf_counter()
    control, output = pytest_exit(sorted({t for m in MUTANTS for t in m[4]}))
    if control != 0:
        print(f"control run: the listed tests exited {control} on unpatched src/")
        # pytest's short summary names the failing test; without one (a
        # collection or usage error), its last lines say what went wrong
        lines = output.splitlines()
        print("\n".join([line for line in lines if line.startswith(("FAILED", "ERROR"))]
                        or lines[-5:]))
        return 1
    # two pytest processes at a time: each is single-threaded and small
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda m: run(*m), MUTANTS))
    survivors = [(name, why) for name, why in results if why]
    for name, why in survivors:
        print(f"SURVIVED {name}: {why}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
