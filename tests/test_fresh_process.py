"""Every row is a command line, run in two fresh processes, each in its
own empty directory: one at one BLAS thread and one at two, both with
RuntimeWarning as an error (an overflow fails the row instead of printing
a warning: line).  Both must exit 0 and leave the same files with the
same bytes, so each row checks that its CSVs are byte-stable across fresh
processes and BLAS thread counts."""
import os
import subprocess
import sys

import pytest

import milburnsim

ALL = "--observables sigma_x,sigma_z,purity"
ROWS = [
    # the Poisson kick sum over all three observables
    f"run --method poisson --epsilon 0.5 --gamma 1000 {ALL}",
    # the series kernel's anchor x offset products on the benchmark's
    # closed-form grid, with real and complex weights
    f"run --method closed-form --epsilon 0.5 --tmax 48 --steps 24000 {ALL}",
    f"run --method closed-form --epsilon 0.3 --epsilon-im 0.2 --tmax 48 "
    f"--steps 24000 {ALL}",
    # the closed-form 2x2 eigenbasis at a negative (phase -1) and a purely
    # imaginary drive
    f"run --method closed-form --epsilon -0.4 {ALL}",
    f"run --method closed-form --epsilon 0 --epsilon-im 0.3 {ALL}",
    # the time column (up to 20 000) takes a wider integer slot than
    # sigma_x, and the 80 002 values span ten writer blocks
    "run --method closed-form --epsilon 0.5 --tmax 20000 --steps 40001",
    # the dense routes (spectral's eigh, full-oracle's SVD) and the
    # first-order and unitary block routes: a real drive takes the float64
    # eigenbasis and real 2x2 blocks, only a complex one the complex eigh,
    # SVD and block weights
    *(f"run --method {method} {drive} {ALL}"
      for method in ("spectral", "lindblad", "schrodinger", "full-oracle")
      for drive in ("--epsilon 0.5 --gamma 1000",
                    "--epsilon 0.4 --epsilon-im 0.3")),
    # full-oracle's field coupling at eps = 0 has a zero singular value
    # (half angle atan2(0, a))
    "run --method full-oracle --epsilon 0 --delta 20 --gamma 1e11 --tmax 80",
    # the kick sum at the default gamma = 1e6: single-row blocks that
    # carry one run of about 1.2e7 kick counts
    "run --method poisson --epsilon 0.5",
    # a mean photon number of about 1e6 at cutoff 2e6: the mass past the
    # cutoff underflows to 0, so the truncation guard admits it
    "run --method closed-form --alpha 1000.5 --cutoff 2000000 --steps 2",
    # the three reference curves and their metrics sidecar
    "fig1",
]


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("row", ROWS)
def test_row_is_byte_stable_across_blas_threads(row, tmp_path):
    src = os.path.dirname(os.path.dirname(milburnsim.__file__))
    dirs = [tmp_path / "threads1", tmp_path / "threads2"]
    procs = []
    for threads, cwd in enumerate(dirs, 1):
        cwd.mkdir()
        env = dict(os.environ, PYTHONPATH=src,
                   PYTHONWARNINGS="error::RuntimeWarning",
                   OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "milburnsim", *row.split()], cwd=cwd,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True))
    try:
        errs = [proc.communicate(timeout=300)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # only a process that timed out is still running
    assert [proc.returncode for proc in procs] == [0, 0], errs
    one, two = (_files(d) for d in dirs)
    assert one, "no file written"
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], f"{name} differs between 1 and 2 threads"
