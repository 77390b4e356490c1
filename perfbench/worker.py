"""One workload process: import gaugefem, generate the jobs, run them.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH and
the BLAS thread count pinned in the environment.  It prints ``ready`` once
imports and job generation are done (``run.py`` times set-up up to that
line); with ``--setup-only`` it exits there.  Otherwise it runs whole rounds
of jobs as a closed loop with one client and prints one JSON result line.

Every job is ``gaugefem.cli.main(argv)`` executed in-process, writing its
JSON report to a file under ``perfbench/.work``; the report is read back and
passed through the correctness gate outside the timed region.  Untraced
runs also time the host probe (``hostprobe.py``) between jobs, outside the
job timings, to rescale throughput for the host's speed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import gaugefem.cli  # part of the timed set-up

from gate import check_report
from hostprobe import NOMINAL_S, HostProbe
from workloads import generate

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")
REFERENCE_FILE = os.path.join(HERE, "reference_seed0.json")
DEFAULT_SEED = 0

# DOF histogram bin edges (upper bounds, inclusive).
DOF_BINS = (256, 1024, 2000, 4096, 16384, 65536)


def load_reference(workload, seed):
    """Recorded eigenvalues per job index for the default seed, else {}."""
    if seed != DEFAULT_SEED:
        return {}
    with open(REFERENCE_FILE) as fh:
        table = json.load(fh)
    return {int(i): vals for i, vals in table["workloads"].get(workload, {}).items()}


def run_job(job, output, tracer=None):
    """Run one job; returns (wall seconds, exit code, report or None, error)."""
    if os.path.exists(output):
        os.remove(output)
    argv = job.argv(output)
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = gaugefem.cli.main(argv)
        else:
            tracer.job = job.index
            with tracer.span("cli.job"):
                rc = gaugefem.cli.main(argv)
    except Exception:  # a job that raises is a failed job, not a dead run
        rc, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    report = None
    if rc == 0:
        try:
            with open(output) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            error = f"report unreadable: {exc}"
    return wall, rc, report, error


def run_jobs(jobs, reference, output, budget=None, tracer=None, probe=None):
    """Run jobs in order; with ``budget`` stop at the first round boundary
    reached after ``budget`` seconds.  With ``probe``, sample the host probe
    between jobs, outside the job timings.  Returns one record per job."""
    records = []
    start = time.perf_counter()
    for job in jobs:
        if (budget is not None and records and job.round != records[-1]["round"]
                and time.perf_counter() - start >= budget):
            break
        if probe is not None:
            probe.maybe_run()
        wall, rc, report, error = run_job(job, output, tracer)
        problems = [error] if error else check_report(job, rc, report, reference.get(job.index))
        res = (report or {}).get("results", {})
        records.append({
            "index": job.index,
            "round": job.round,
            "wall": wall,
            "problems": problems,
            "dofs": res.get("n_dofs"),
            "method_tag": res.get("method_tag"),
            "mesh_key": job.mesh_key,
        })
    return records


def workload_properties(records):
    """DOF histogram, dense-path share and repeated-mesh share of a run."""
    hist = {f"<={edge}": 0 for edge in DOF_BINS}
    hist[f">{DOF_BINS[-1]}"] = 0
    seen = set()
    repeats = 0
    tagged = dense = 0
    for rec in records:
        if rec["dofs"] is not None:
            label = next((f"<={e}" for e in DOF_BINS if rec["dofs"] <= e), f">{DOF_BINS[-1]}")
            hist[label] += 1
        if rec["method_tag"] is not None:
            tagged += 1
            dense += str(rec["method_tag"]).startswith("dense")
        repeats += rec["mesh_key"] in seen
        seen.add(rec["mesh_key"])
    return {
        "jobs": len(records),
        "dof_histogram": hist,
        # share among jobs whose report names the solver path (gauge-check
        # reports do not)
        "dense_share": dense / tagged if tagged else None,
        "repeated_mesh_share": repeats / len(records) if records else None,
    }


def environment(seed, workload):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "seed": seed,
        "workload": workload,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(HERE, os.pardir, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(HERE, os.pardir, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def end_to_end(records, peak_rss_mb, probe_s):
    """End-to-end metrics of an untraced run; ``probe_s`` is the host probe's
    median time in the same run."""
    walls = [r["wall"] for r in records]
    jobs_per_s = len(walls) / sum(walls)
    out = {
        "norm_jobs_per_s": jobs_per_s * probe_s / NOMINAL_S,
        "jobs_per_s": jobs_per_s,
        "probe_s": probe_s,
        "job_p50_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    # p90 only where at least ten samples lie beyond it
    if len(walls) >= 100:
        out["job_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = generate(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # One core for the job loop and the host probe's child, which inherits
    # it: the probe then times the core the jobs ran on, not its neighbour.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    reference = load_reference(args.workload, args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    output = os.path.join(WORK_DIR, f"report-{os.getpid()}.json")
    try:
        if args.trace:
            from tracing import PER_LAYER, Tracer, layer_metrics, traced

            plain = run_jobs(jobs, reference, output, budget=args.seconds / 2)
            tracer = Tracer()
            with traced(tracer) as absent:
                traced_recs = run_jobs(jobs[: len(plain)], reference, output, tracer=tracer)
            records = plain + traced_recs
            metrics = layer_metrics(tracer, len(traced_recs),
                                    sum(r["wall"] for r in plain),
                                    sum(r["wall"] for r in traced_recs), absent)
            units = PER_LAYER
            spans_file = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.json")
            with open(spans_file, "w") as fh:
                json.dump({"absent": absent, "spans": tracer.spans}, fh)
        else:
            with HostProbe() as probe:
                plain = records = run_jobs(jobs, reference, output, budget=args.seconds,
                                           probe=probe)
            absent = []
            metrics = end_to_end(
                records, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                probe.median_s(),
            )
            units = {"norm_jobs_per_s": "1/s", "jobs_per_s": "1/s", "probe_s": "s",
                     "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB"}
    finally:
        if os.path.exists(output):
            os.remove(output)

    failures = [{"index": r["index"], "problems": r["problems"]}
                for r in records if r["problems"]]
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "absent_targets": absent,
        "environment": environment(args.seed, args.workload),
        "workload": workload_properties(plain),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
