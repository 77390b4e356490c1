"""Correctness gate applied to every job's report.

The checks hold for any seed:

* the exit code is 0 and the report parses;
* k eigenvalues, finite and ascending, with residuals <= --tol where the
  report carries residuals, and the expected number of DOFs;
* gauge-check: ``max_relative_drift`` below the acceptance-suite bound;
* zero-field jobs (B = 0, no potential; a0 is then a pure gauge): every
  eigenvalue lies in [lambda, lambda + C lambda^2 h^2] around the analytic
  Dirichlet eigenvalue lambda of the box.  Conforming P1 elements never
  undershoot, and the O(h^2) constant measured on the benchmark's meshes is
  at most 0.071 (2D and 3D, k <= 6, side ratios up to 1.56), so C = 0.15.

For the default seed the eigenvalues are also compared with reference
values recorded by ``make_reference.py`` (relative 1e-9; the dense and
ARPACK paths agree to 1e-11, so a change of solver path still passes).
"""

import itertools
import math

from workloads import TOL

__all__ = ["DRIFT_BOUND", "H2_CONSTANT", "REFERENCE_RTOL", "dirichlet_spectrum",
           "check_report"]

DRIFT_BOUND = 1e-10
H2_CONSTANT = 0.15
REFERENCE_RTOL = 1e-9
# Undershoot allowed below the analytic value: roundoff only.
_UNDERSHOOT_RTOL = 1e-9


def dirichlet_spectrum(lengths, k):
    """k smallest Dirichlet Laplacian eigenvalues of the box, ascending.

    Any mode tuple with an entry above k is beaten by the k tuples that put
    1..k in that slot, so modes 1..k per axis suffice.
    """
    vals = sorted(
        math.pi**2 * sum((m / L) ** 2 for m, L in zip(modes, lengths))
        for modes in itertools.product(range(1, k + 1), repeat=len(lengths))
    )
    return vals[:k]


def _spectrum_problems(name, vals, k):
    if not isinstance(vals, list) or len(vals) != k:
        return [f"{name}: expected {k} values"]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
        return [f"{name}: non-finite value"]
    if any(b < a for a, b in zip(vals, vals[1:])):
        return [f"{name}: not ascending"]
    return []


def check_report(job, rc, report, reference=None):
    """Problems found in one job's outcome; an empty list means it passed.

    ``reference`` is the recorded eigenvalue list of this job, or None.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        return ["no report"]
    res = report["results"]
    problems = []

    dofs = (job.n - 1) ** job.dim * (2 if job.subcommand == "pauli" else 1)
    if res.get("n_dofs") != dofs:
        problems.append(f"n_dofs {res.get('n_dofs')} != {dofs}")

    if job.subcommand == "gauge-check":
        vals = res.get("eigenvalues_original")
        problems += _spectrum_problems("eigenvalues_original", vals, job.k)
        problems += _spectrum_problems("eigenvalues_gauged",
                                       res.get("eigenvalues_gauged"), job.k)
        drift = res.get("max_relative_drift")
        if not isinstance(drift, float) or not drift < DRIFT_BOUND:
            problems.append(f"gauge drift {drift!r} not below {DRIFT_BOUND}")
    else:
        vals = res.get("eigenvalues")
        problems += _spectrum_problems("eigenvalues", vals, job.k)
        resid = res.get("residuals")
        if not isinstance(resid, list) or len(resid) != job.k:
            problems.append("residuals missing")
        elif not all(isinstance(r, float) and r <= TOL for r in resid):
            problems.append(f"residual above {TOL}")
    if problems:
        return problems

    if job.zero_field and job.subcommand != "pauli":
        h = res.get("h")
        if not isinstance(h, float):
            return [f"mesh size h {h!r} missing"]
        exact = dirichlet_spectrum(job.lengths, job.k)
        for i, (got, lam) in enumerate(zip(vals, exact)):
            if not lam * (1.0 - _UNDERSHOOT_RTOL) <= got <= lam + H2_CONSTANT * lam**2 * h**2:
                problems.append(
                    f"eigenvalue {i} = {got!r} outside the O(h^2) band above "
                    f"the analytic {lam!r}"
                )
    if reference is not None:
        if len(reference) != len(vals):
            problems.append("reference length differs")
        for i, (got, ref) in enumerate(zip(vals, reference)):
            if abs(got - ref) > REFERENCE_RTOL * max(abs(ref), 1.0):
                problems.append(f"eigenvalue {i} = {got!r} differs from reference {ref!r}")
    return problems
