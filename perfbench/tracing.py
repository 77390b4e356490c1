"""Outside-in tracing: timing wrappers around gaugefem's module attributes.

The benchmark replaces selected attributes (module functions, class methods,
and the scipy/numpy entry points the eigensolver calls) with wrappers that
record a span per call, runs the traced jobs, and then puts every original
object back.  Nothing in the program is edited.  A target that no longer
exists is reported as absent instead of failing the run.

A span is ``[name, start, end, parent, job]``; spans stay in memory and are
written out by the caller when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

import contextlib
import functools
import importlib
import time

__all__ = ["Tracer", "TARGETS", "traced", "self_times", "layer_metrics",
           "PER_LAYER"]


class Tracer:
    """In-memory span recorder with per-run counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value


# ---------------------------------------------------------------------------
# what to wrap
#
# Each target is (module, dotted attribute path, span name, count hook).  The
# span name is either a string or a function (tracer, args, kwargs) -> name
# or None; None calls straight through without a span.  A hook is called as
# hook(tracer, args, kwargs, result) after the call returns.


def _eigsh_name(tracer, args, kwargs):
    # The solver calls eigsh twice: a Lanczos probe of M (which="SA", no
    # shift) and the shift-invert solve (sigma given).
    return "eigensolve.probe" if kwargs.get("sigma") is None else "eigensolve.arpack"


def _to_csr_name(tracer, args, kwargs):
    # HermitianSparse.to_csr also runs inside the Pauli assembly; only the
    # solver's conversions belong to eigensolve.to_csr.
    current = tracer.current()
    return "eigensolve.to_csr" if current and current.startswith("eigensolve.") else None


def _count_cells(tracer, args, kwargs, mesh):
    tracer.add("mesh.cells", mesh.n_cells)


def _count_edges(tracer, args, kwargs, circulation):
    tracer.add("gauge.edges", circulation.n_edges)


def _count_mass(tracer, args, kwargs, matrix):
    tracer.add("assembly.mass_calls")


def _count_nnz(tracer, args, kwargs, matrix):
    tracer.add("assembly.nnz", matrix.nnz)


def _count_solve(tracer, args, kwargs, result):
    tracer.add("eigensolve.solves")
    tracer.add("eigensolve.dofs", args[0].n)
    if str(result.method_tag).startswith("dense"):
        tracer.add("eigensolve.dense_solves")


def _count_pauli(tracer, args, kwargs, problem):
    tracer.add("pauli.dofs", problem.h_total.n)


def _count_bytes(tracer, args, kwargs, text):
    tracer.add("cli.report_bytes", len(text))


TARGETS = (
    ("gaugefem.cli", "build_box_mesh", "mesh.build", _count_cells),
    ("gaugefem.cli", "circulate", "gauge.circulate", _count_edges),
    ("gaugefem.pauli", "circulate", "gauge.circulate", _count_edges),
    ("gaugefem.assembly", "make_transports", "gauge.transports", None),
    ("gaugefem.pauli", "transports", "gauge.transports", None),
    ("gaugefem.gauge", "EdgeCirculation.local_values", "gauge.lookup", None),
    ("gaugefem.gauge", "TransportTable.local_values", "gauge.lookup", None),
    ("gaugefem.cli", "random_gauge", "gauge.apply", None),
    ("gaugefem.cli", "apply_gauge_to_circulation", "gauge.apply", None),
    ("gaugefem.cli", "assemble_scalar_problem", "assembly.assemble", None),
    ("gaugefem.assembly", "covariant_stiffness", "assembly.stiffness", None),
    ("gaugefem.pauli", "covariant_stiffness", "assembly.stiffness", None),
    ("gaugefem.assembly", "covariant_mass", "assembly.mass", _count_mass),
    ("gaugefem.pauli", "covariant_mass", "assembly.mass", _count_mass),
    ("gaugefem.assembly", "potential_matrix", "assembly.potential", None),
    ("gaugefem.pauli", "potential_matrix", "assembly.potential", None),
    ("gaugefem.assembly", "eliminate_dirichlet", "assembly.eliminate", _count_nnz),
    ("gaugefem.pauli", "eliminate_dirichlet", "assembly.eliminate", _count_nnz),
    ("gaugefem.cli", "solve_hermitian_gevp", "eigensolve.solve", _count_solve),
    ("gaugefem.pauli", "solve_hermitian_gevp", "eigensolve.solve", _count_solve),
    ("gaugefem.eigensolve", "scipy.linalg.eigh", "eigensolve.dense", None),
    ("gaugefem.eigensolve", "np.linalg.cholesky", "eigensolve.dense", None),
    ("gaugefem.eigensolve", "spla.eigsh", _eigsh_name, None),
    ("gaugefem.assembly", "HermitianSparse.to_csr", _to_csr_name, None),
    ("gaugefem.cli", "assemble_pauli", "pauli.assemble", _count_pauli),
    ("gaugefem.cli", "_render", "cli.render", _count_bytes),
)

_MISSING = object()


def _wrap(tracer, original, name, hook):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = name(tracer, args, kwargs) if callable(name) else name
        if span is None:
            return original(*args, **kwargs)
        index = tracer.open(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            try:
                hook(tracer, args, kwargs, result)
            except (AttributeError, TypeError, IndexError):
                # The call's signature or result changed shape; keep the job
                # running and report the lost count.
                tracer.add("trace.hook_errors")
        return result

    return wrapper


def _resolve(module_name, path):
    """(owner object, attribute name) of a target, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def traced(tracer, targets=TARGETS):
    """Install the wrappers for the duration of the block.

    Yields the list of targets ("module:path") that do not exist.  On exit
    every attribute is the original object again, also when the block
    raises; a target that cannot be restored raises RuntimeError.
    """
    absent = []
    installed = []  # (owner, attr, raw entry of owner.__dict__ or _MISSING)
    try:
        for module_name, path, name, hook in targets:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{module_name}:{path}")
                continue
            owner, attr = found
            raw = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            installed.append((owner, attr, raw))
            setattr(owner, attr, _wrap(tracer, original, name, hook))
        yield absent
    finally:
        for owner, attr, raw in reversed(installed):
            if raw is _MISSING:  # was inherited: drop the shadowing wrapper
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        stale = [f"{owner!r}.{attr}" for owner, attr, raw in installed
                 if vars(owner).get(attr, _MISSING) is not raw]
        if stale:
            raise RuntimeError(f"tracing left wrappers behind: {stale}")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


# per-layer metric -> span name whose self time it sums
_SELF_TIME = {
    "mesh.build_s": "mesh.build",
    "gauge.circulate_s": "gauge.circulate",
    "gauge.transports_s": "gauge.transports",
    "gauge.lookup_s": "gauge.lookup",
    "gauge.apply_s": "gauge.apply",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.mass_s": "assembly.mass",
    "assembly.potential_s": "assembly.potential",
    "assembly.eliminate_s": "assembly.eliminate",
    "assembly.self_s": "assembly.assemble",
    "eigensolve.dense_s": "eigensolve.dense",
    "eigensolve.probe_s": "eigensolve.probe",
    "eigensolve.arpack_s": "eigensolve.arpack",
    "eigensolve.to_csr_s": "eigensolve.to_csr",
    "eigensolve.self_s": "eigensolve.solve",
    "pauli.assemble_self_s": "pauli.assemble",
    "cli.self_s": "cli.job",
    "cli.render_s": "cli.render",
}

# counters reported as per-job means, under their own names
_PER_JOB_COUNT = ("mesh.cells", "gauge.edges", "assembly.mass_calls", "assembly.nnz",
                  "eigensolve.dofs", "pauli.dofs", "cli.report_bytes")

PER_LAYER = {
    **{name: "s" for name in _SELF_TIME},
    **{name: "count" for name in _PER_JOB_COUNT},
    "eigensolve.dense_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.absent_targets": "count",
    "trace.hook_errors": "count",
}


def layer_metrics(tracer, n_jobs, untraced_s, traced_s, absent):
    """Per-job means of self times and counts, plus trace bookkeeping.

    ``untraced_s`` and ``traced_s`` are the summed wall times of the same
    jobs run without and with the wrappers.
    """
    selfs = self_times(tracer.spans)
    by_name = {}
    for span, own in zip(tracer.spans, selfs):
        by_name[span[0]] = by_name.get(span[0], 0.0) + own
    jobs_total = sum(span[2] - span[1] for span in tracer.spans if span[0] == "cli.job")
    out = {}
    for metric, span in _SELF_TIME.items():
        out[metric] = by_name.get(span, 0.0) / n_jobs
    for key in _PER_JOB_COUNT:
        out[key] = tracer.counts.get(key, 0) / n_jobs
    solves = tracer.counts.get("eigensolve.solves", 0)
    out["eigensolve.dense_frac"] = (
        tracer.counts.get("eigensolve.dense_solves", 0) / solves if solves else 0.0
    )
    out["trace.coverage_frac"] = (
        1.0 - by_name.get("cli.job", 0.0) / jobs_total if jobs_total else 0.0
    )
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out["trace.absent_targets"] = len(absent)
    out["trace.hook_errors"] = tracer.counts.get("trace.hook_errors", 0)
    return out
