import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import gaugefem.cli as cli
from gaugefem import build_box_mesh, reconstruct_field, solve_hermitian_gevp
from gaugefem.cli import (
    RunConfig,
    _build_parser,
    _config_from_args,
    _nbytes,
    _render,
    _scalar_problem,
    _setup,
    dirichlet_reference,
    main,
    potential_values,
)


@pytest.fixture(autouse=True)
def mesh_cache():
    """The CLI's box mesh cache, empty when each test starts and ends."""
    cli._mesh_cache.clear()
    yield cli._mesh_cache
    cli._mesh_cache.clear()


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_report_regression(capsys):
    rc, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "8", "--b", "1", "--k", "3",
         "--deterministic"],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["format_version"] == 1
    assert report["config"]["subcommand"] == "solve"
    assert report["config"]["b"] == [0.0, 0.0, 1.0]

    res = report["results"]
    pinned = [20.52308179260727, 52.13297154372774, 55.15989441738228]
    assert np.allclose(res["eigenvalues"], pinned, rtol=1e-9)
    assert all(r < 1e-9 for r in res["residuals"])
    assert res["n_dofs"] == 49
    assert res["runtime_seconds"] is None
    assert len(res["density"]) == 3
    assert len(res["density"][0]) == 81  # one value per vertex


def test_solve_density_is_re2_plus_im2_bit_for_bit(capsys):
    # a SIMD complex np.abs can round differently on different CPUs, which
    # would make report bytes machine-dependent; re^2 + im^2 does not
    rc, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "20", "--b", "1", "--k", "3", "--deterministic"],
        capsys,
    )
    assert rc == 0
    cfg = RunConfig("solve", levels=(20,), b=(1.0,), k=3)
    problem = _scalar_problem(cfg, cfg.n)[2]
    result = solve_hermitian_gevp(problem, cfg.k, tol=cfg.tol, seed=cfg.seed)
    f = reconstruct_field(result.eigenvectors, problem.interior)
    assert json.loads(out)["results"]["density"] == (f.real**2 + f.imag**2).tolist()


def test_solve_cube_reference(capsys):
    rc, out, _ = run_cli(
        ["solve", "--dim", "3", "--n", "4", "--b", "0,0,0", "--k", "1"], capsys
    )
    assert rc == 0
    value = json.loads(out)["results"]["eigenvalues"][0]
    assert value == pytest.approx(37.49921045975135, rel=1e-10)
    assert value > 3 * np.pi**2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "4", "--output", str(target)], capsys
    )
    assert rc == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["config"]["output"] == str(target)


def test_usage_errors_exit_with_code_2(capsys):
    bad_args = [
        ["solve", "--dim", "2", "--b", "one"],
        ["solve", "--dim", "2", "--b", "1,2"],
        ["solve", "--dim", "3", "--b", "1"],
        ["solve", "--potential", "cubic:1"],
        ["solve", "--n", "4,8"],
        ["solve", "--k", "0"],
        ["solve", "--dim", "2", "--n", "4", "--lengths", "inf,1"],
        ["convergence", "--n", "4,8"],
        ["convergence", "--n", "4,8,12"],
        ["export-matrices", "--n", "4"],
        # a negative seed is refused before the solver path is chosen:
        # 49 DOFs solve dense, 841 run ARPACK
        ["solve", "--n", "8", "--seed", "-1"],
        ["solve", "--n", "30", "--seed", "-1"],
        ["gauge-check", "--n", "4", "--seed", "-1"],
    ]
    for args in bad_args:
        rc, _, err = run_cli(args, capsys)
        assert rc == 2, args
        assert "gaugefem:" in err
    assert "--seed must be nonnegative" in err


@pytest.mark.parametrize("args, target", [
    (["solve", "--n", "4"], "."),
    (["solve", "--n", "4"], "no/such/report.json"),
    (["export-matrices", "--n", "2"], "no/such/p"),
    (["solve", "--n", "4"], ""),
    (["export-matrices", "--n", "2"], ""),
], ids=["solve-directory", "solve-missing-parent", "export-missing-parent",
        "solve-empty", "export-empty"])
def test_unwritable_output_exits_with_code_2(args, target, tmp_path, monkeypatch,
                                            capsys):
    # the path is refused before any assembly runs
    def never(*_args, **_kwargs):
        raise AssertionError("assembly ran before --output was checked")

    monkeypatch.setattr("gaugefem.cli.assemble_scalar_problem", never)
    monkeypatch.setattr("gaugefem.cli.assemble_pauli", never)
    output = str(tmp_path / target) if target else ""
    rc, out, err = run_cli(args + ["--output", output], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gaugefem:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 298. GiB for an array with shape (200001, 200001)",
     "gaugefem: Unable to allocate 298. GiB for an array with shape (200001, 200001)"),
    ("", "gaugefem: MemoryError"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("subcommand", ["solve", "pauli", "gauge-check"])
def test_oversized_grid_exits_with_code_2(subcommand, message, line, monkeypatch,
                                          capsys):
    # a grid too large for memory is a request that cannot be met: one line,
    # exit 2, no traceback; the mesh build is stubbed, nothing is allocated
    def oversized(*_args, **_kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("gaugefem.cli.build_box_mesh", oversized)
    rc, out, err = run_cli([subcommand, "--dim", "2", "--n", "200000"], capsys)
    assert rc == 2
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("subcommand", [
    "solve", "pauli", "gauge-check", "convergence", "export-matrices",
])
def test_config_echo_of_the_defaults(subcommand, tmp_path, capsys):
    # each subcommand run with only its required options echoes every default
    output = str(tmp_path / "pencil") if subcommand == "export-matrices" else None
    args = [subcommand] + (["--output", output] if output else [])
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    assert json.loads(out)["config"] == {
        "subcommand": subcommand,
        "dim": 2,
        "n": [4, 8, 16] if subcommand == "convergence" else 8,
        "lengths": [1.0, 1.0],
        "a0": [0.0, 0.0],
        "b": [0.0, 0.0, 0.0],
        "potential": "zero",
        "method": "covariant",
        "k": 1,
        "tol": 1e-9,
        "seed": 0,
        "gauge_amplitude": math.pi,
        "output": output,
        "format": "json",
        "deterministic": False,
    }


def test_numerical_failure_exits_with_code_1(capsys):
    rc, _, err = run_cli(
        ["solve", "--dim", "2", "--n", "4", "--tol", "1e-300"], capsys
    )
    assert rc == 1
    assert "numerical failure" in err


def test_dense_solver_failure_exits_with_code_1(monkeypatch, capsys):
    # 9 DOFs, dense path; M is positive definite, so the LinAlgError itself
    # reaches the front end
    original = scipy.linalg.eigh

    def failing(a, b=None, **kwargs):
        if b is not None:
            raise np.linalg.LinAlgError("pencil solve failed")
        return original(a, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", failing)
    rc, out, err = run_cli(["solve", "--dim", "2", "--n", "4"], capsys)
    assert rc == 1
    assert out == ""
    assert "numerical failure: pencil solve failed" in err


def test_arpack_stall_exits_with_code_1(monkeypatch, capsys):
    # 361 DOFs: above the dense cutoff, so the solve runs ARPACK
    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK stalled", np.empty(0),
                                       np.empty((args[0].shape[0], 0)))

    monkeypatch.setattr(spla, "eigs", stalled)
    rc, out, err = run_cli(["solve", "--dim", "2", "--n", "20", "--b", "1"], capsys)
    assert rc == 1
    assert out == ""
    assert "numerical failure" in err
    assert "eigensolver did not converge" in err


def test_arpack_error_exits_with_code_1(monkeypatch, capsys):
    # 361 DOFs, ARPACK path; error -9 is a start vector the operator zeroed
    def failing(*args, **kwargs):
        raise spla.ArpackError(-9)

    monkeypatch.setattr(spla, "eigs", failing)
    rc, out, err = run_cli(["solve", "--dim", "2", "--n", "20", "--b", "1"], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("gaugefem: numerical failure: shift-invert ARPACK failed")


@pytest.mark.parametrize("n, potential, cause", [
    ("20", "well:-1e300,0.3", "shift-invert factorization failed: pivot"),
    ("96", "well:-1e300,0.3", "shift-invert factorization failed: Factor is exactly"),
    ("20", "constant:1e200", "eigensolver did not converge"),
], ids=["singular-factor", "singular-factor-superlu", "residual-overflow"])
def test_huge_potential_on_the_arpack_path_exits_with_code_1(n, potential, cause, capsys):
    # 361 DOFs factor as a band, 9,025 with SuperLU: under the deep well the
    # band Cholesky meets a pivot that is not positive and SuperLU an exactly
    # singular one; under the constant ARPACK converges, but at E ~ 1e200 the
    # relative residuals (about 1e181) fail the tolerance
    rc, out, err = run_cli(
        ["solve", "--dim", "2", "--n", n, "--potential", potential, "--k", "1"], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.startswith(f"gaugefem: numerical failure: {cause}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_potential_on_the_dense_path_exits_with_code_1(capsys):
    # 49 DOFs, dense path: the residual norms, near 1e200, must not overflow
    # on the way, where a RuntimeWarning would end in a traceback
    rc, out, err = run_cli(
        ["solve", "--dim", "2", "--n", "8", "--potential", "constant:1e200", "--k", "1"],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("gaugefem: numerical failure: eigensolver did not converge")


def test_k_of_all_but_one_dof_solves(capsys):
    # k = n - 1 above the dense cutoff, which ARPACK cannot serve
    rc, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "20", "--b", "1", "--k", "360"], capsys
    )
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["n_dofs"] == 361
    assert len(res["eigenvalues"]) == 360
    assert res["method_tag"] == "dense-eigh"


def test_gauge_check_covariant_versus_baseline(capsys):
    args = ["gauge-check", "--dim", "2", "--n", "4", "--b", "1", "--k", "3",
            "--seed", "5"]
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["max_relative_drift"] < 1e-10
    assert res["max_density_drift_simple"] < 1e-8

    rc, out, _ = run_cli(args + ["--method", "baseline"], capsys)
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["max_relative_drift"] > 1e-6


def test_gauge_check_zero_amplitude(capsys):
    rc, out, _ = run_cli(
        ["gauge-check", "--dim", "2", "--n", "4", "--b", "1",
         "--gauge-amplitude", "0"],
        capsys,
    )
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["max_relative_drift"] == 0.0


def test_convergence_analytic_reference(capsys):
    # a constant a0 is the pure gauge A = grad(a0 . x), and a potential whose
    # samples are all zero assembles no potential, so each keeps the
    # zero-field analytic reference and every order pair
    for extra in ([], ["--a0", "0.3,-0.2"], ["--potential", "constant:0"],
                  ["--potential", "well:0,0.3"]):
        rc, out, _ = run_cli(
            ["convergence", "--dim", "2", "--n", "2,4,8", "--k", "1", *extra], capsys
        )
        assert rc == 0
        res = json.loads(out)["results"]
        assert res["reference"]["kind"] == "analytic"
        assert res["reference"]["values"][0] == pytest.approx(2 * np.pi**2, rel=1e-15)
        assert [level["n"] for level in res["levels"]] == [2, 4, 8]
        assert res["levels"][0]["h"] == 2 * res["levels"][1]["h"]
        orders = res["orders"]
        assert [o["levels"] for o in orders] == [[2, 4], [4, 8]]
        for o in orders:
            assert 1.5 < o["values"][0] < 2.5


def test_convergence_extrapolated_reference(capsys):
    rc, out, _ = run_cli(
        ["convergence", "--dim", "2", "--n", "4,8,16", "--b", "1", "--k", "1"],
        capsys,
    )
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["reference"]["kind"] == "extrapolated"
    # the finest pair defines the extrapolation, so only one order is honest
    assert [o["levels"] for o in res["orders"]] == [[4, 8]]
    assert 1.7 < res["orders"][0]["values"][0] < 2.3


def test_convergence_reports_no_order_where_an_error_is_roundoff(monkeypatch, capsys):
    # levels that return 2.5 + 1e-3, then 2.5 twice: the extrapolated
    # reference is 2.5, the finer error of the one order pair is 0, at or
    # below ORDER_FLOOR, so that pair's order is null
    returned = iter([2.5 + 1e-3, 2.5, 2.5])

    def solve(problem, k, **kwargs):
        return dataclasses.replace(solve_hermitian_gevp(problem, k, **kwargs),
                                   eigenvalues=np.array([next(returned)]))

    monkeypatch.setattr(cli, "solve_hermitian_gevp", solve)
    rc, out, _ = run_cli(
        ["convergence", "--dim", "2", "--n", "4,8,16", "--b", "1", "--k", "1"], capsys
    )
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["reference"]["values"] == [2.5]
    assert res["errors"] == [[pytest.approx(1e-3, rel=1e-9)], [0.0], [0.0]]
    assert res["orders"] == [{"levels": [4, 8], "values": [None]}]


def test_convergence_k_above_a_levels_dof_count_exits_with_code_2(capsys):
    # 2D n=2 has one interior vertex
    rc, out, err = run_cli(["convergence", "--dim", "2", "--n", "2,4,8", "--k", "3"],
                           capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gaugefem: --k 3 ") and "n=2 " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args, dofs", [
    (["solve", "--dim", "2", "--n", "2", "--k", "3"], 1),
    (["pauli", "--dim", "2", "--n", "3", "--k", "9"], 8),  # 4 interior vertices
    (["gauge-check", "--dim", "2", "--n", "2", "--k", "3"], 1),
], ids=["solve", "pauli", "gauge-check"])
def test_k_above_the_dof_count_exits_with_code_2(args, dofs, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err == f"gaugefem: --k {args[-1]} exceeds the interior DOF count ({dofs})\n"


def test_gauge_check_refuses_k_before_assembling_the_gauged_twin(monkeypatch, capsys):
    calls, assemble = [], cli.assemble_scalar_problem

    def spy(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_scalar_problem", spy)
    rc, _, err = run_cli(["gauge-check", "--dim", "2", "--n", "2", "--k", "3"], capsys)
    assert len(calls) == 1
    assert rc == 2 and "--k 3" in err


def test_convergence_default_levels(capsys):
    rc, out, _ = run_cli(["convergence", "--dim", "2"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["config"]["n"] == [4, 8, 16]


def test_pauli_report(capsys):
    rc, out, _ = run_cli(
        ["pauli", "--dim", "2", "--n", "4", "--b", "0.5", "--k", "2"], capsys
    )
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["n_dofs"] == 2 * 9
    assert len(res["density_up"]) == 2
    assert len(res["density_up"][0]) == 25
    assert len(res["density_down"][0]) == 25
    assert res["eigenvalues"] == sorted(res["eigenvalues"])


def test_pauli_k_runs_up_to_both_spin_components(capsys):
    # 2D n=3: 4 interior vertices, 8 spinor DOFs
    rc, out, _ = run_cli(["pauli", "--dim", "2", "--n", "3", "--k", "8"], capsys)
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["n_dofs"] == 8
    assert len(res["eigenvalues"]) == 8
    rc, _, err = run_cli(["pauli", "--dim", "2", "--n", "3", "--k", "9"], capsys)
    assert rc == 2
    assert "gaugefem:" in err


@pytest.mark.parametrize("args", [
    ["solve", "--n", "4", "--tol", "nan"],
    ["solve", "--n", "4", "--tol", "inf"],
    ["gauge-check", "--n", "4", "--gauge-amplitude", "nan"],
    ["gauge-check", "--n", "4", "--gauge-amplitude", "inf"],
    ["solve", "--n", "4", "--potential", "well:5,nan"],
    ["solve", "--n", "4", "--potential", "well:5,inf"],
    ["gauge-check", "--n", "4", "--gauge-amplitude", "1e308"],
    ["pauli", "--n", "4", "--b", "1e200"],
    ["solve", "--dim", "2", "--n", "4", "--lengths", "1e300,1e300"],
    ["solve", "--dim", "2", "--n", "4", "--lengths", "1e-300,1"],
], ids=["tol-nan", "tol-inf", "amplitude-nan", "amplitude-inf", "radius-nan",
        "radius-inf", "amplitude-range-overflow", "zeeman-overflow",
        "huge-box-overflow", "thin-box-gradient-overflow"])
@pytest.mark.filterwarnings("error")  # refused before any numpy warning
def test_non_finite_inputs_exit_with_code_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gaugefem:")


@pytest.mark.parametrize("scaled,unit,factor,dofs", [
    # a 4e-12 side lies within any absolute coordinate tolerance of 1e-12, so
    # the boundary must come from the cells, not from the coordinates
    (["--dim", "2", "--n", "8", "--lengths", "4e-12,4e-12"],
     ["--dim", "2", "--n", "8", "--lengths", "4,4"], 1e24, 49),
    # a pure gauge at side 1e4 leaves imaginary roundoff of 1.6e-13 on
    # diagonals far above 1, so the bound on it must scale with them
    (["--dim", "3", "--n", "6", "--lengths", "1e4,1e4,1e4", "--a0", "0.3,0.2,0.1"],
     ["--dim", "3", "--n", "6"], 1e-8, 125),
], ids=["tiny-box", "large-cube-pure-gauge"])
def test_a_scaled_box_scales_the_spectrum(scaled, unit, factor, dofs, capsys):
    results = []
    for args in (scaled, unit):
        rc, out, _ = run_cli(["solve", *args, "--k", "2", "--deterministic"], capsys)
        assert rc == 0
        results.append(json.loads(out)["results"])
    assert results[0]["n_dofs"] == results[1]["n_dofs"] == dofs
    assert np.allclose(results[0]["eigenvalues"],
                       np.multiply(results[1]["eigenvalues"], factor), rtol=1e-12, atol=0)


def test_csv_projections(capsys):
    rc, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "4", "--k", "2", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,eigenvalue,residual"
    assert len(lines) == 3
    float(lines[1].split(",")[1])  # parses

    rc, out, _ = run_cli(
        ["gauge-check", "--dim", "2", "--n", "4", "--b", "1", "--format", "csv"],
        capsys,
    )
    assert rc == 0
    header = out.strip().split("\n")[0]
    assert header == "index,eigenvalue_original,eigenvalue_gauged,relative_drift"

    rc, out, _ = run_cli(
        ["convergence", "--dim", "2", "--n", "2,4,8", "--format", "csv"], capsys
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,h,n_dofs,index,eigenvalue"
    assert len(lines) == 4


def test_export_matrices(tmp_path, capsys):
    prefix = str(tmp_path / "pencil")
    rc, out, _ = run_cli(
        ["export-matrices", "--dim", "2", "--n", "4", "--b", "1",
         "--output", prefix],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    res = report["results"]
    assert res["files"]["stiffness"] == f"{prefix}_stiffness.txt"

    for name in ("stiffness", "mass"):
        lines = (tmp_path / f"pencil_{name}.txt").read_text().strip().split("\n")
        n, nnz = (int(t) for t in lines[0].split())
        assert n == res["n_dofs"] == 9
        assert nnz == res[f"{name}_nnz"] == len(lines) - 1
        back = np.zeros((n, n), dtype=np.complex128)
        for line in lines[1:]:
            r, c, re, im = line.split()
            back[int(r), int(c)] = float(re) + 1j * float(im)
        full = back + back.conj().T - np.diag(np.diag(back))
        assert np.array_equal(full, full.conj().T)

    rc, _, _ = run_cli(
        ["export-matrices", "--n", "4", "--output", prefix, "--format", "csv"],
        capsys,
    )
    assert rc == 2


def test_export_pattern_keeps_every_cell_pair(tmp_path, capsys):
    # a localized well leaves V = 0 on far cells, where the stiffness has exact
    # zeros (the hypotenuse pairs); the sum with the potential term keeps them
    prefix = str(tmp_path / "well")
    rc, out, _ = run_cli(
        ["export-matrices", "--dim", "2", "--n", "8", "--b", "1",
         "--potential", "well:-5,0.3", "--output", prefix],
        capsys,
    )
    assert rc == 0
    res = json.loads(out)["results"]
    mesh = build_box_mesh(2, 8)
    interior = ~mesh.boundary_vertex
    dof = np.cumsum(interior) - 1  # the DOF index of each interior vertex
    pairs = {
        (min(dof[x], dof[y]), max(dof[x], dof[y]))
        for cell in mesh.cells
        for x in cell
        for y in cell
        if interior[x] and interior[y]
    }
    for name in ("stiffness", "mass"):
        lines = (tmp_path / f"well_{name}.txt").read_text().strip().split("\n")
        assert int(lines[0].split()[1]) == res[f"{name}_nnz"] == len(pairs)
        assert {tuple(int(t) for t in line.split()[:2]) for line in lines[1:]} == pairs


def test_deterministic_reports_are_byte_identical(tmp_path, capsys):
    prefix = str(tmp_path / "pencil")
    runs = [
        ["solve", "--dim", "2", "--n", "6", "--b", "1", "--k", "2"],
        ["pauli", "--dim", "2", "--n", "4", "--b", "0.5"],
        ["gauge-check", "--dim", "2", "--n", "4", "--b", "1", "--k", "2"],
        ["convergence", "--dim", "2", "--n", "2,4,8"],
        ["export-matrices", "--dim", "2", "--n", "4", "--b", "1",
         "--potential", "well:-5,0.3", "--output", prefix],
    ]
    runs += [args + ["--format", "csv"] for args in runs[:4]]
    for args in runs:
        args = args + ["--deterministic"]
        rc, first, _ = run_cli(args, capsys)
        assert rc == 0, args
        _, second, _ = run_cli(args, capsys)
        assert first == second, args
        if "csv" not in args:
            # the report renderer matches the stdlib's indented encoding
            canonical = json.dumps(json.loads(first), indent=2, sort_keys=True)
            assert first == canonical + "\n", args


def test_setup_reuses_a_small_box_mesh(mesh_cache):
    cfg = RunConfig("solve", levels=(12,))
    mesh, _ = _setup(cfg, 12)
    assert _setup(cfg, 12)[0] is mesh
    # another n, other lengths or another dim is another mesh
    assert _setup(cfg, 16)[0] is not mesh
    longer = RunConfig("solve", levels=(12,), lengths=(1.0, 2.0))
    assert _setup(longer, 12)[0] is not mesh
    cube = RunConfig("solve", dim=3, levels=(12,))
    assert _setup(cube, 12)[0] is not mesh
    assert list(mesh_cache) == [(2, 12, (1.0, 1.0)), (2, 16, (1.0, 1.0)),
                                (2, 12, (1.0, 2.0))]
    # the 3D n=12 box alone holds more than the budget, so it is never kept
    big, _ = _setup(cube, 12)
    assert _nbytes(big) > cli._MESH_CACHE_BYTES
    assert _setup(cube, 12)[0] is not big
    assert (3, 12, (1.0, 1.0, 1.0)) not in mesh_cache


def test_mesh_cache_stays_within_its_budget_and_drops_the_oldest(mesh_cache):
    cfg = RunConfig("solve")
    # the eight sweep-2d sizes in their first-use order; n=6 is used again,
    # so n=12 becomes the least recently used; n=60 then overflows the budget
    uses = [6, 12, 8, 16, 44, 20, 28, 36, 6, 60]
    for n in uses:
        _setup(cfg, n)
        assert sum(map(_nbytes, mesh_cache.values())) <= cli._MESH_CACHE_BYTES
    by_last_use = list(dict.fromkeys(reversed(uses)))[::-1]
    kept = [key[1] for key in mesh_cache]
    assert kept == by_last_use[-len(kept):]
    assert kept[0] != 12 and 6 in kept and 60 in kept
    # the newest mesh that left would not have fit
    left = build_box_mesh(2, by_last_use[-len(kept) - 1])
    assert (sum(map(_nbytes, mesh_cache.values())) + _nbytes(left)
            > cli._MESH_CACHE_BYTES)


@pytest.mark.parametrize("args", [
    ["solve", "--dim", "2", "--n", "16", "--b", "7", "--potential", "well:-40,0.3",
     "--k", "4"],
    ["pauli", "--dim", "2", "--n", "12", "--b", "2", "--k", "4"],
    ["gauge-check", "--dim", "2", "--n", "8", "--b", "1", "--k", "3"],
    ["convergence", "--dim", "2", "--n", "4,8,16", "--b", "1", "--k", "2"],
], ids=lambda args: args[0])
def test_a_reused_mesh_gives_the_same_report_bytes(args, mesh_cache, tmp_path,
                                                   monkeypatch):
    builds = []
    original = cli.build_box_mesh

    def counting(*build_args):
        builds.append(build_args[1])
        return original(*build_args)

    monkeypatch.setattr(cli, "build_box_mesh", counting)
    target = tmp_path / "report.json"  # one path, so the echoed --output agrees
    reports = []
    for run in ("fresh", "reused", "rebuilt"):
        if run == "rebuilt":
            mesh_cache.clear()
        assert main(args + ["--deterministic", "--output", str(target)]) == 0
        reports.append(target.read_bytes())
    levels = [int(n) for n in args[args.index("--n") + 1].split(",")]
    assert builds == levels + levels  # none for the reused run
    assert reports[1] == reports[0] and reports[2] == reports[0]


_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
    st.text(),
    st.sampled_from(["a, b", ", ", '"quoted"', "two\nlines", "gr\u00fc\u00dfe \u2713"]),
)
_REPORT_KEYS = st.text(max_size=6) | st.sampled_from(["a, b", '"k"', "\u00e9\n"])


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    _REPORT_SCALARS | st.lists(st.one_of(st.none(), st.booleans(), st.integers(),
                                         st.floats())),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_REPORT_KEYS, inner, max_size=5),
    max_leaves=30,
))
@example({"empty_list": [], "empty_dict": {}, "nested_empty": [[], {}, [[]]]})
@example({"mixed": [1, [2.0, None], {"k": "a, b"}, "s", [], 1e16],
          "numbers_then_list": [0.5, -0.0, [1]], "numbers_then_dict": [True, {}]})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, False, None, -3])
def test_render_matches_the_stdlib_encoder(value):
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert _render(value, "json") == expected


def test_cached_parser_carries_nothing_between_calls(capsys):
    def echo(argv):
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0, argv
        fresh = _config_from_args(_build_parser.__wrapped__().parse_args(argv))
        config = json.loads(out)["config"]
        assert config == json.loads(json.dumps(fresh.config_echo())), argv
        return config

    echo(["gauge-check", "--n", "4", "--b", "1", "--gauge-amplitude", "1"])
    # argparse rejects --dim 4 after it has read --k and --seed
    with pytest.raises(SystemExit) as info:
        main(["solve", "--n", "4", "--k", "2", "--seed", "5", "--dim", "4"])
    assert info.value.code == 2
    capsys.readouterr()
    assert echo(["solve", "--n", "4", "--deterministic"])["deterministic"] is True
    plain = echo(["solve", "--n", "4"])
    assert plain["deterministic"] is False
    assert plain["gauge_amplitude"] == math.pi
    assert (plain["k"], plain["seed"]) == (1, 0)
    assert _build_parser() is _build_parser()


def test_well_potential_lowers_ground_state(capsys):
    base = ["solve", "--dim", "2", "--n", "6"]
    rc, out, _ = run_cli(base, capsys)
    assert rc == 0
    free = json.loads(out)["results"]["eigenvalues"][0]

    rc, out, _ = run_cli(base + ["--potential", "well:-30,0.25"], capsys)
    assert rc == 0
    trapped = json.loads(out)["results"]["eigenvalues"][0]
    assert trapped < free

    rc, out, _ = run_cli(base + ["--potential", "constant:3"], capsys)
    assert rc == 0
    lifted = json.loads(out)["results"]["eigenvalues"][0]
    assert lifted == pytest.approx(free + 3.0, rel=1e-12)


def test_potential_values_parsing():
    mesh = build_box_mesh(2, 2)
    assert potential_values("zero", mesh) is None
    assert np.all(potential_values("constant:1.5", mesh) == 1.5)
    well = potential_values("well:-2,0.6", mesh)
    center = np.all(np.abs(mesh.vertices - 0.5) < 1e-12, axis=1)
    assert np.all(well[center] == -2.0)
    assert np.all(well[np.all(mesh.vertices == 0.0, axis=1)] == 0.0)
    with pytest.raises(ValueError):
        potential_values("well:-2", mesh)
    with pytest.raises(ValueError):
        potential_values("well:-2,0", mesh)


def test_dirichlet_reference_table():
    vals = dirichlet_reference(2, (1.0, 1.0), 4)
    assert np.allclose(
        vals, np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0]), rtol=1e-15
    )
    vals = dirichlet_reference(3, (1.0, 1.0, 1.0), 1)
    assert vals[0] == pytest.approx(3 * np.pi**2, rel=1e-15)
    with pytest.raises(ValueError):
        dirichlet_reference(2, (1.0, 1.0), 10_000)


@pytest.mark.parametrize(
    "lengths,counts,first_refused",
    [
        ((1.0, 4.0), (1, 50, 112), 113),
        ((1.0, 1.0), (1, 100, 300, 465), 466),
        ((1.0, 2.0, 3.0), (1, 200, 1580), 1581),
    ],
)
def test_dirichlet_reference_matches_brute_force(lengths, counts, first_refused):
    # a table with far more modes per axis than the reference keeps
    top = 60 if len(lengths) == 2 else 30
    brute = sorted(
        np.pi**2 * sum((m / L) ** 2 for m, L in zip(combo, lengths))
        for combo in itertools.product(range(1, top), repeat=len(lengths))
    )
    for count in counts:
        vals = dirichlet_reference(len(lengths), lengths, count)
        assert np.allclose(vals, brute[:count], rtol=1e-14, atol=0)
    # the values grow with the count, so every larger count is refused too;
    # 113 for lengths (1, 4) used to return 404.65 where the truth is 395.40
    with pytest.raises(ValueError, match="table too small"):
        dirichlet_reference(len(lengths), lengths, first_refused)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("solve", k=0)
    with pytest.raises(ValueError):
        RunConfig("solve", tol=0.0)
    with pytest.raises(ValueError):
        RunConfig("solve", gauge_amplitude=-0.1)
    with pytest.raises(ValueError, match="--seed must be nonnegative"):
        RunConfig("solve", seed=-1)
    with pytest.raises(ValueError):
        RunConfig("solve", dim=2, lengths=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="in 3D pass --b bx,by,bz"):
        RunConfig("solve", dim=3, b=(1.0,))
    with pytest.raises(ValueError, match="solve takes a single --n value"):
        RunConfig("solve", levels=(4, 8))
    for dim, a0 in ((2, (0.1,)), (2, (0.1, 0.2, 0.3)), (3, (0.1, 0.2))):
        with pytest.raises(ValueError, match=f"^--a0 needs {dim} values$"):
            RunConfig("solve", dim=dim, a0=a0)
    assert RunConfig("solve", b=(1.0,)).b == (0.0, 0.0, 1.0)
    assert RunConfig("solve").levels == (8,)
    cfg = RunConfig("convergence")
    assert cfg.levels == (4, 8, 16)
    with pytest.raises(ValueError):
        cfg.n
