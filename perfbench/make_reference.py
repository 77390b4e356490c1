"""Record the reference eigenvalues the gate compares default-seed runs with.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the first rounds of every workload's default-seed stream through
``gaugefem.cli.main`` and writes ``reference_seed0.json``.  Jobs past the
recorded prefix get only the seed-independent checks.  Regenerate only when
a change to gaugefem is meant to change the spectra.
"""

import json
import os

from gate import check_report
from worker import DEFAULT_SEED, REFERENCE_FILE, WORK_DIR, run_job
from workloads import WORKLOADS, generate

# Rounds recorded per workload: more than a 60-second run completes.
ROUNDS = {"sweep-2d": 12, "scalar-large": 8, "pauli-mixed": 12}


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    output = os.path.join(WORK_DIR, "reference-report.json")
    table = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, per_round in WORKLOADS.items():
        recorded = {}
        for job in generate(workload, DEFAULT_SEED)[: ROUNDS[workload] * per_round]:
            _, rc, report, error = run_job(job, output)
            problems = [error] if error else check_report(job, rc, report)
            if problems:
                raise SystemExit(f"{workload} job {job.index} failed: {problems}")
            res = report["results"]
            recorded[str(job.index)] = res.get("eigenvalues", res.get("eigenvalues_original"))
        table["workloads"][workload] = recorded
        print(f"{workload}: {len(recorded)} jobs recorded", flush=True)
    os.remove(output)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
