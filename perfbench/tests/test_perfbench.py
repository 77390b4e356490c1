"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gaugefem.cli  # noqa: E402
from gaugefem.eigensolve import ConvergenceError  # noqa: E402

from gate import check_report, dirichlet_spectrum  # noqa: E402
from hostprobe import NOMINAL_S, HostProbe  # noqa: E402
from tracing import TARGETS, Tracer, layer_metrics, self_times, traced  # noqa: E402
from worker import end_to_end, run_job  # noqa: E402
from workloads import WORKLOADS, Job, generate  # noqa: E402


def zero_field_job(k=3):
    return Job(0, 0, "solve", 2, 6, (1.0, 1.0), (0.3, -0.2), (0.0, 0.0, 0.0),
               "zero", k, 5)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    assert generate(workload, 3) == generate(workload, 3)
    assert generate(workload, 3) != generate(workload, 4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_seed_asks_for_the_same_rounds(workload):
    # the class cycle is fixed; only fields, potentials, k and lengths vary
    a, b = generate(workload, 1), generate(workload, 2)
    assert [(j.subcommand, j.dim, j.n, j.round) for j in a] == \
        [(j.subcommand, j.dim, j.n, j.round) for j in b]


def test_scalar_large_meshes_are_distinct_and_sweep_meshes_repeat():
    large = generate("scalar-large", 7)
    assert len({j.mesh_key for j in large}) == len(large)
    sweep = generate("sweep-2d", 7)[: WORKLOADS["sweep-2d"]]
    assert len({j.mesh_key for j in sweep}) < len(sweep)


# ---------------------------------------------------------------------------
# correctness gate


def run_and_check(job, tmp_path, reference=None):
    _, rc, report, error = run_job(job, str(tmp_path / "report.json"))
    assert error is None
    return rc, report, check_report(job, rc, report, reference)


def test_gate_passes_a_correct_zero_field_job(tmp_path):
    rc, report, problems = run_and_check(zero_field_job(), tmp_path)
    assert rc == 0 and problems == []
    vals = report["results"]["eigenvalues"]
    assert check_report(zero_field_job(), rc, report, list(vals)) == []


def test_gate_flags_a_perturbed_eigenvalue(tmp_path):
    job = zero_field_job()
    rc, report, _ = run_and_check(job, tmp_path)
    reference = list(report["results"]["eigenvalues"])
    report["results"]["eigenvalues"][1] *= 1.0 + 1e-7
    problems = check_report(job, rc, report, reference)
    assert any("differs from reference" in p for p in problems)
    # without a reference the analytic O(h^2) band still catches an undershoot
    report["results"]["eigenvalues"][0] = dirichlet_spectrum(job.lengths, 1)[0] * 0.99
    assert any("analytic" in p for p in check_report(job, rc, report))


def test_gate_flags_a_raised_convergence_error(tmp_path, monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError(1.0)

    monkeypatch.setattr(gaugefem.cli, "solve_hermitian_gevp", stalled)
    rc, _, problems = run_and_check(zero_field_job(), tmp_path)
    assert rc == 1
    assert problems == ["exit code 1"]


def test_a_job_that_raises_out_of_main_is_a_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(gaugefem.cli, "solve_hermitian_gevp", broken)
    _, rc, report, error = run_job(zero_field_job(), str(tmp_path / "r.json"))
    assert rc is None and report is None
    assert "RuntimeError: boom" in error


def test_gate_flags_gauge_drift():
    job = Job(0, 0, "gauge-check", 3, 4, (1.0,) * 3, (0.0,) * 3, (0.1, 0.2, 1.0),
              "zero", 2, 1)
    report = {"results": {"n_dofs": 27, "eigenvalues_original": [1.0, 2.0],
                          "eigenvalues_gauged": [1.0, 2.0],
                          "max_relative_drift": 1e-8}}
    assert any("drift" in p for p in check_report(job, 0, report))
    report["results"]["max_relative_drift"] = 1e-14
    assert check_report(job, 0, report) == []


# ---------------------------------------------------------------------------
# host probe


def test_throughput_is_rescaled_by_the_probe_median():
    records = [{"wall": w} for w in (0.5, 1.5)]
    out = end_to_end(records, 100.0, 2.0 * NOMINAL_S)
    assert out["jobs_per_s"] == pytest.approx(1.0)
    assert out["norm_jobs_per_s"] == pytest.approx(2.0)
    assert out["probe_s"] == 2.0 * NOMINAL_S


def test_probe_samples_at_most_once_per_interval():
    with HostProbe(every_s=3600.0) as probe:
        probe.maybe_run()
        probe.maybe_run()
    assert len(probe.samples) == 1 and probe.median_s() > 0.0
    assert probe._proc.returncode == 0  # the child has ended


# ---------------------------------------------------------------------------
# tracing


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union counts once
        ["a.1", 2.0, 3.0, 1, 0],
        ["c", 9.0, 11.0, 0, 0],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 2.0])


def test_layer_metrics_average_self_time_per_job():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0, 12.0, 14.0])
    tracer = Tracer(clock=lambda: next(ticks))
    for job in (0, 1):
        tracer.job = job
        with tracer.span("cli.job"):
            with tracer.span("mesh.build"):
                tracer.add("mesh.cells", 8)
    # job 0: cli.job [0, 4], mesh [1, 3]; job 1: cli.job [10, 14], mesh [11, 12]
    out = layer_metrics(tracer, 2, untraced_s=6.0, traced_s=8.0, absent=[])
    assert out["mesh.build_s"] == pytest.approx(1.5)
    assert out["cli.self_s"] == pytest.approx(2.5)
    assert out["mesh.cells"] == 8
    assert out["trace.coverage_frac"] == pytest.approx(3.0 / 8.0)
    assert out["trace.overhead_frac"] == pytest.approx(1.0 / 3.0)


def _current_objects():
    objs = {}
    for module_name, path, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        objs[(module_name, path)] = vars(owner).get(attr)
    return objs


def test_traced_run_restores_every_wrapper(tmp_path):
    before = _current_objects()
    tracer = Tracer()
    with traced(tracer) as absent:
        assert absent == []
        assert _current_objects() != before
        for job in (zero_field_job(), generate("pauli-mixed", 0)[0]):
            _, rc, report, error = run_job(job, str(tmp_path / "r.json"), tracer)
            assert rc == 0 and error is None
    after = _current_objects()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in tracer.spans}
    assert {"cli.job", "mesh.build", "assembly.stiffness", "eigensolve.dense",
            "pauli.assemble", "cli.render"} <= names
    assert all(span[2] is not None for span in tracer.spans)


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _current_objects()
    with pytest.raises(RuntimeError, match="inside"):
        with traced(Tracer()):
            raise RuntimeError("inside")
    after = _current_objects()
    assert all(after[key] is before[key] for key in before)


def test_absent_targets_are_reported_not_fatal():
    targets = TARGETS + (
        ("gaugefem.cli", "no_such_function", "x.y", None),
        ("gaugefem.no_such_module", "f", "x.y", None),
        ("gaugefem.gauge", "NoSuchClass.method", "x.y", None),
    )
    with traced(Tracer(), targets) as absent:
        pass
    assert absent == ["gaugefem.cli:no_such_function", "gaugefem.no_such_module:f",
                      "gaugefem.gauge:NoSuchClass.method"]
