"""Determinism gate: every command line below, run with ``--deterministic``
at one BLAS thread, must write the same bytes in this interpreter, through
``gaugefem.cli.main`` after all the lines before it (one cached parser, boxes
from the CLI's mesh cache), as alone in a fresh ``python -m gaugefem``.  Both
runs write to the same ``--output`` and ``--density`` paths, which the report
echoes.  A non-zero exit, or a byte that differs in stdout, a report, a
``.npy`` density or a matrix file, fails the gate and names the line.

Run from the repository root:  python ci/determinism.py
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Routes as a spy on the solver saw them: dense up to 140 DOFs, else ARPACK on a band
# Cholesky (RCM: reverse Cuthill-McKee order) or SuperLU; mu = min f <= 0 measures M.
LINES = [
    "solve --dim 2 --n 20 --b 1 --k 3",  # 361 DOFs: ARPACK on the band as numbered
    "pauli --dim 2 --n 5 --b 0.7 --k 4 --a0 0.2,0.1",  # dense Pauli with an offset a0
    "gauge-check --dim 3 --n 4 --b 0.3,0.2,1 --k 3 --format csv",  # 3D drift table as CSV
    "convergence --dim 2 --n 2,4,8 --b 1",  # levels down to one DOF
    "solve --dim 3 --n 8 --b 3,2,10 --k 2 --format csv",  # a second CSV report; RCM band
    "gauge-check --dim 2 --n 6 --b 1 --k 3 --method baseline",  # baseline under a gauge
    "solve --dim 3 --n 4 --b 0.3,0.2,1 --potential constant:2 --k 2",  # constant potential
    "solve --dim 3 --n 8 --b 3,2,10 --potential well:-60,0.3 --k 3",  # shift from the floor
    "pauli --dim 2 --n 24 --b 5 --potential well:-40,0.3 --k 4",  # Pauli on ARPACK
    "solve --dim 2 --n 24 --b 5 --k 4 --method baseline --potential well:-40,0.3",  # baseline
    "pauli --dim 3 --n 8 --b 1,2,3 --k 4",  # 3D Pauli on ARPACK, RCM band
    "solve --dim 2 --n 16 --b 3 --k 4",  # 225 DOFs, shift 0
    "solve --dim 3 --n 8 --k 6",  # zero field: two exactly degenerate pairs
    "solve --dim 3 --n 4 --b 30,20,100 --k 2",  # dense, mu = -8.51e-4: LAPACK measures M
    "pauli --dim 3 --n 6 --b 1,2,3 --potential well:-20,0.3 --k 3",  # 3D Pauli, dense
    "solve --dim 2 --n 80 --b 5 --k 3",  # 12,800 cells in 4 chunks; 6,241 DOFs
    "solve --dim 3 --n 15 --b 0.3,0.2,1 --potential well:-5,0.3 --k 4",  # 20,250 cells, 5 chunks
    "solve --dim 3 --n 7 --b 1412.68,-87.97,1471.91 --k 2",  # mu = -2.55e-4: Lanczos probe
    "solve --dim 2 --n 96 --b 1 --potential well:-80,0.3 --k 3",  # 9,025 DOFs: SuperLU
    "solve --dim 3 --n 14 --b 3,2,10 --k 3",  # band in RCM order, kd = 133
    "pauli --dim 2 --n 12 --b 0 --potential well:-40,0.3 --k 4",  # B = 0: spin basis from eigh
    "solve --dim 3 --n 8 --b 100,60,160 --k 3",  # eigvalsh certifies mu = 1.28e-4
    "solve --dim 2 --n 16 --b 400 --potential well:-100,0.3 --k 3",  # 0.78 rad/cell: eigvalsh
    "export-matrices --dim 3 --n 4 --b 0.3,0.2,1 --potential well:-5,0.3",  # two matrix files
    # Repeated boxes: the mesh cache keeps a box from its second build, so over the list
    # it serves 3D n=8 6 of 8 times, 3D n=4 2 of 4, 2D n=12 and n=16 3 of 5, 3D n=12 1 of 3.
    "solve --dim 2 --n 12 --b 3 --k 3",  # kept
    "solve --dim 3 --n 8 --b 3,2,10 --potential well:-60,0.3 --k 3",  # served
    "pauli --dim 3 --n 12 --b 1,2,8 --k 3",  # built
    "solve --dim 2 --n 12 --b 3 --potential well:-40,0.3 --k 3",  # served
    "pauli --dim 2 --n 12 --b 2 --k 4",  # served
    "solve --dim 3 --n 8 --b 3,2,10 --potential well:-60,0.3 --k 3",  # served
    "pauli --dim 3 --n 12 --b 1,2,8 --k 3",  # kept: 2.08 MiB of 8
    "solve --dim 2 --n 16 --b 7 --potential well:-40,0.3 --k 4",  # served
    "gauge-check --dim 2 --n 16 --b 1 --k 3",  # served
    "convergence --dim 2 --n 4,8,16 --b 1 --k 2",  # n=4 and n=8 kept, n=16 served
    "solve --dim 3 --n 8 --b 3,2,10 --potential well:-60,0.3 --k 3",  # served
    "pauli --dim 3 --n 12 --b 1,2,8 --k 3",  # served
    "solve --dim 2 --n 12 --b 3 --k 3",  # served
]


def command(line, out):
    """``line``'s arguments, writing every file into the directory ``out``."""
    argv = line.split() + ["--deterministic", "--output", str(out / "report")]
    if line.startswith(("solve", "pauli")):
        argv += ["--density", str(out / "density.npy")]
    return argv


def collect(out, stdout):
    """stdout and the bytes of every file in ``out``, which is emptied."""
    got = {"stdout": stdout}
    for path in sorted(out.iterdir()):
        got[path.name] = path.read_bytes()
        path.unlink()
    return got


def main():
    # more BLAS threads sum in another order; set before numpy is imported
    os.environ.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    from gaugefem.cli import main as gaugefem_main
    failures = []
    with tempfile.TemporaryDirectory(prefix="determinism-") as tmp:
        shared = []
        for i, line in enumerate(LINES):
            out = Path(tmp) / str(i)
            out.mkdir()
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = gaugefem_main(command(line, out))
            except (Exception, SystemExit):  # argparse exits on a refused line
                code = traceback.format_exc()
            shared.append((line, out, code, collect(out, buf.getvalue().encode())))
        for line, out, code, got in shared:
            done = subprocess.run([sys.executable, "-m", "gaugefem", *command(line, out)],
                                  capture_output=True)
            fresh = collect(out, done.stdout)
            differ = sorted(k for k in {*got, *fresh} if got.get(k) != fresh.get(k))
            if code or done.returncode:
                failures.append(f"{line}: shared exit {code}, fresh exit {done.returncode}\n"
                                + done.stderr.decode())
            elif differ:
                failures.append(f"{line}: {', '.join(differ)} differ")
    for failure in failures:
        print(failure)
    print(f"{len(LINES) - len(failures)} of {len(LINES)} lines byte-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
