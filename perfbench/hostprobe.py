"""A fixed reference task, timed between jobs, that follows the host's speed.

The benchmark runs on a few cores of a shared host.  Other tenants' load on
the shared last-level cache and memory moves the speed of the same job by a
fifth to a third over minutes: on a 2-core Xeon VM one seed's
``scalar-large`` throughput read 0.64 and, twenty minutes later, 0.52
jobs/s.  The probe is the same kind of work the jobs do (a dense Hermitian
``eigh``, shift-invert ``eigsh`` on 2D and 3D sparse magnetic Laplacians,
small numpy calls from Python), with working sets from about the size of a
core's L2 cache to several times it.  It never calls gaugefem and its inputs never change, so
its time moves with the host and not with the program.  The worker reports
throughput rescaled to a host on which the probe takes ``NOMINAL_S``.

The task runs in a child process (this file run as a script), one sample
per request, while the worker waits; so it never runs at the same time as a
job, and its memory does not count in the worker's peak RSS.  Only numpy
and scipy are used; inputs come from a fixed seed, not the workload seed.
"""

import statistics
import subprocess
import sys
import time

__all__ = ["HostProbe", "NOMINAL_S"]

# Fixed scale of norm_jobs_per_s = jobs_per_s * probe_s / NOMINAL_S.  Any
# value would do; it sets only the size of the unit.  The probe's median was
# 0.35-0.45 s per run on the 2-core Xeon VM the bounds were set on.
NOMINAL_S = 0.30

_DENSE_N = 600       # complex Hermitian matrix for eigh
_GRIDS = (56, 12)    # 56 x 56 and 12 x 12 x 12 grids for shift-invert eigsh
_SMALL_CALLS = 400   # rounds of tiny numpy calls (per-call overhead)


class HostProbe:
    """Samples the reference task at most once every ``every_s`` seconds.

    Use as a context manager: leaving it stops the child process.
    """

    def __init__(self, every_s=3.0):
        self.every_s = every_s
        self.samples = []
        self._last = None
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host probe failed to start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(float(self._proc.stdout.readline()))
        self._last = time.perf_counter()

    def maybe_run(self):
        """Run the probe if none has run yet or ``every_s`` has passed."""
        if self._last is None or time.perf_counter() - self._last >= self.every_s:
            self.run()

    def median_s(self):
        return statistics.median(self.samples)


def _magnetic_laplacian(n, dim):
    """Complex Hermitian 5- or 7-point Laplacian on an n^dim grid with a
    phase on the hops along the last axis."""
    import numpy as np
    import scipy.sparse as sp

    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), dtype=complex)
    hop = sp.diags([np.exp(0.3j * np.arange(n - 1))], [1], shape=(n, n))
    eye = sp.eye(n, dtype=complex)

    def along(axis, op):
        out = op if axis == 0 else eye
        for a in range(1, dim):
            out = sp.kron(out, op if a == axis else eye)
        return out

    side = along(dim - 1, hop)
    total = sum(along(a, lap) for a in range(dim)) + 0.1 * (side + side.conj().T)
    return total.tocsc()


def _serve():
    """Child process: build the inputs, then time one task per input line."""
    import numpy as np
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(20150528)
    a = rng.standard_normal((_DENSE_N, _DENSE_N)) + 1j * rng.standard_normal((_DENSE_N, _DENSE_N))
    dense = a + a.conj().T
    sparse = []
    for dim, n in enumerate(_GRIDS, start=2):
        size = n**dim
        sparse.append((_magnetic_laplacian(n, dim), sp.eye(size, dtype=complex, format="csc"),
                       rng.standard_normal(size) + 1j * rng.standard_normal(size)))
    small = rng.standard_normal((3, 3))

    def task():
        sla.eigh(dense)
        for stiff, mass, v0 in sparse:
            spla.eigsh(stiff, k=4, M=mass, sigma=0.0, v0=v0, tol=1e-9)
        m = small
        for _ in range(_SMALL_CALLS):
            m = np.linalg.inv(m @ m.T + np.eye(3))

    task()  # warm-up: first calls pay for lazy set-up
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        task()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _serve()
