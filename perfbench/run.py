"""gaugefem benchmark entry point.

    python3 perfbench/run.py --workload sweep-2d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in one fresh worker
process (``worker.py``) as a closed loop with one client; see README.md for
the workloads and metrics.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the worker wraps gaugefem's layers
and the result holds the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every job passed the correctness gate.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS  # the script's directory is on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Untraced runs also time set-up in this many fresh processes before, and as
# many after, the workload process (whose own set-up is one more sample), so
# the reported median spans the whole run.
SETUP_EACH_SIDE = 2
# Every run must end within this many seconds, whatever happens.
DEADLINE_S = 170.0
# BLAS threads: one per core, at most two.
BLAS_THREADS = 1

# The gated end-to-end metrics.  Throughput is gated as norm_jobs_per_s,
# jobs_per_s rescaled by the host probe (hostprobe.py): on a shared 2-core VM
# the raw jobs_per_s of ten seeds spread by up to 27 % of its median with the
# host's load.  jobs_per_s, job_p50_s and job_p90_s are printed in the summary
# only; the median of the small sweep-2d jobs moved by up to 45 %.
END_TO_END = ("setup_s", "norm_jobs_per_s", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(args, deadline):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, text=True,
    )
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
            _stop(proc)
            raise BenchmarkError("worker did not become ready in time")
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchmarkError("worker failed during set-up (is gaugefem importable?)")
    return proc, setup


def _stop(proc):
    proc.kill()
    proc.communicate()


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchmarkError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    side = 0 if trace else SETUP_EACH_SIDE
    setups = [_setup_only(base, deadline) for _ in range(side)]
    proc, setup = _spawn([*base, "--seconds", repr(seconds), "--trace", str(trace)],
                         deadline)
    setups.append(setup)
    lines = _finish(proc, deadline).strip().splitlines()
    setups += [_setup_only(base, deadline) for _ in range(side)]
    if not lines:
        raise BenchmarkError("worker printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def _setup_only(base, deadline):
    proc, setup = _spawn([*base, "--setup-only"], deadline)
    _finish(proc, deadline)
    return setup


def _summary(workload, seed, trace, result):
    lines = [f"workload {workload}  seed {seed}  trace {trace}"]
    for name, metric in sorted(result["metrics"].items()):
        lines.append(f"  {name:26s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_frac':26s} {failed / attempted:.6g} frac"
                 f"  ({failed} of {attempted} jobs)")
    for failure in result["failures"]:
        lines.append(f"  FAILED job {failure['index']}: {'; '.join(failure['problems'])}")
    if result["absent_targets"]:
        lines.append(f"  absent trace targets: {', '.join(result['absent_targets'])}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    print(_summary(args.workload, args.seed, args.trace, result))
    print("record " + json.dumps({"environment": result["environment"],
                                  "workload": result["workload"]}))
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {name: result["metrics"][name] for name in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
