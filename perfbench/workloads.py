"""Seeded job streams for the three benchmark workloads.

A job is one ``gaugefem`` command line.  Each workload is a fixed cycle of
job *classes* (subcommand, dimension, grid size); the seed draws everything
else: field, vector-potential offset, potential, k, box lengths and the
CLI's own ``--seed``.  The class cycle is fixed so that every seed asks for
the same amount of work per round, which keeps run-to-run spread small; the
benchmark only stops at round boundaries, so a run always holds whole rounds.

Only the standard library is used, so generating the jobs costs the same
whatever numpy/scipy versions are installed.
"""

import random
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Job", "generate", "TOL"]

# Residual tolerance passed to every job (the CLI default).
TOL = 1e-9

# Rounds generated per workload; far more than a 60 s run can complete.
_STREAM_ROUNDS = 60


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the facts the correctness gate needs."""

    index: int
    round: int
    subcommand: str
    dim: int
    n: int
    lengths: tuple
    a0: tuple
    b: tuple
    potential: str
    k: int
    cli_seed: int

    @property
    def zero_field(self):
        """B = 0 and no potential: a0 is then a pure gauge and the spectrum
        is the Dirichlet Laplacian's."""
        return all(v == 0.0 for v in self.b) and self.potential == "zero"

    @property
    def mesh_key(self):
        return (self.dim, self.n, self.lengths)

    def argv(self, output):
        b = self.b[2:] if self.dim == 2 else self.b
        return [
            self.subcommand,
            "--dim", str(self.dim),
            "--n", str(self.n),
            # "=" keeps argparse from reading "-0.3,..." as an option
            "--lengths=" + _floats(self.lengths),
            "--a0=" + _floats(self.a0),
            "--b=" + _floats(b),
            "--potential", self.potential,
            "--k", str(self.k),
            "--tol", repr(TOL),
            "--seed", str(self.cli_seed),
            "--output", output,
        ]


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _u(rng, lo, hi):
    # Four decimals keep the command lines short and exactly reproducible.
    return round(rng.uniform(lo, hi), 4)


def _field(rng, dim, bmax):
    """Out-of-plane B in 2D; in 3D a tilted B (all three components)."""
    if dim == 2:
        return (0.0, 0.0, _u(rng, 0.5, bmax))
    return (_u(rng, -0.4 * bmax, 0.4 * bmax), _u(rng, -0.4 * bmax, 0.4 * bmax),
            _u(rng, 0.5, bmax))


def _well(rng):
    return f"well:{_u(rng, -120.0, 120.0)!r},{_u(rng, 0.15, 0.4)!r}"


# ---------------------------------------------------------------------------
# workload definitions
#
# sweep-2d: a field/size sweep of small 2D scalar solves.  Every size stays
# at or below 1,849 DOFs (the dense path when this was written) and the box is
# always the unit square, so meshes repeat across jobs.  Small grids dominate
# the count, large ones the time: p50 falls inside the n=12 block.
_SWEEP_ROUND = (6, 12, 8, 16, 12, 6, 44, 12, 8, 20, 6, 12, 16, 8, 28,
                12, 6, 12, 16, 36, 8, 12, 6, 20, 16, 12)


def _sweep_job(rng, index, rnd, slot):
    n = _SWEEP_ROUND[slot]
    a0 = (_u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0))
    roll = rng.random()
    if roll < 1.0 / 3.0:
        b, pot = _field(rng, 2, 30.0), _well(rng)
    elif roll < 1.0 / 3.0 + 1.0 / 6.0:
        b, pot = (0.0, 0.0, 0.0), "zero"
    else:
        b, pot = _field(rng, 2, 30.0), "zero"
    return Job(index, rnd, "solve", 2, n, (1.0, 1.0), a0, b, pot,
               rng.randint(1, 6), rng.randrange(1 << 30))


# scalar-large: every job takes the ARPACK shift-invert path and meshes a
# box of its own (distinct side lengths), so no mesh repeats.  Grid sizes are
# chosen so that every class costs about the same (1.5-2 s on one core):
# with equal costs the median and the throughput average over all jobs
# instead of resting on one class.
_LARGE_ROUND = (
    # (subcommand, dim, n, with a well potential)
    ("solve", 2, 96, False),
    ("solve", 3, 14, False),
    ("solve", 2, 104, True),
    ("gauge-check", 3, 14, False),
    ("solve", 3, 15, True),
)


def _large_job(rng, index, rnd, slot, seen):
    sub, dim, n, well = _LARGE_ROUND[slot]
    while True:
        lengths = tuple(_u(rng, 0.8, 1.25) for _ in range(dim))
        if (dim, n, lengths) not in seen:
            seen.add((dim, n, lengths))
            break
    a0 = tuple(_u(rng, -1.0, 1.0) for _ in range(dim))
    pot = "zero"
    if well:
        b, pot = _field(rng, dim, 20.0), _well(rng)
    elif sub == "solve" and dim == 3 and rng.random() < 0.2:
        b = (0.0, 0.0, 0.0)
    else:
        b = _field(rng, dim, 20.0)
    return Job(index, rnd, sub, dim, n, lengths, a0, b, pot,
               rng.randint(3, 5), rng.randrange(1 << 30))


# pauli-mixed: spinor solves.  2D sizes keep 2 * n_interior <= 2000 (dense
# path); 3D sizes n >= 12 exceed it (ARPACK on the 2n system).  The 2D sizes
# stop at n=24: the dense n=30 system (45 MB per complex matrix) swung by
# 25 % between runs on a shared machine.  Half of each round is the n=24
# dense class, so the median job is always one of its many samples.
_PAULI_ROUND = ((2, 16), (2, 24), (3, 12), (2, 24), (3, 14), (2, 24))


def _pauli_job(rng, index, rnd, slot):
    dim, n = _PAULI_ROUND[slot]
    a0 = tuple(_u(rng, -1.0, 1.0) for _ in range(dim))
    b = _field(rng, dim, 12.0)
    pot = _well(rng) if rng.random() < 1.0 / 3.0 else "zero"
    return Job(index, rnd, "pauli", dim, n, (1.0,) * dim, a0, b, pot,
               rng.randint(2, 6), rng.randrange(1 << 30))


WORKLOADS = {
    "sweep-2d": len(_SWEEP_ROUND),
    "scalar-large": len(_LARGE_ROUND),
    "pauli-mixed": len(_PAULI_ROUND),
}


def generate(workload, seed):
    """The job stream of ``workload`` for ``seed``: same seed, same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    per_round = WORKLOADS[workload]
    seen = set()
    jobs = []
    for index in range(_STREAM_ROUNDS * per_round):
        rnd, slot = divmod(index, per_round)
        if workload == "sweep-2d":
            jobs.append(_sweep_job(rng, index, rnd, slot))
        elif workload == "scalar-large":
            jobs.append(_large_job(rng, index, rnd, slot, seen))
        else:
            jobs.append(_pauli_job(rng, index, rnd, slot))
    return jobs
