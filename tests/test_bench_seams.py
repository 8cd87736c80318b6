"""The benchmark's seams, on its tiny grids: the seam tests of
bench/test_smoke.py, collected here so that the suite runs them, and a
guard that no more of the benchmark's per-layer names read 0.

test_layer_metrics is left out: 19 per-layer names of BENCHMARK.json read
0 on every workload of the current code (ROADMAP item 1).  KNOWN holds
them; shrink it as names are mended."""
import importlib.util
import os
import pathlib

import pytest

BENCH = pathlib.Path(__file__).parents[1] / "bench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_smoke():
    """bench/test_smoke.py as a module.  Importing it imports bench/run.py,
    which pins BLAS to one thread in os.environ; the session's settings are
    put back, so that later subprocesses keep them."""
    saved = {var: os.environ.get(var) for var in BLAS_VARS}
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_test_smoke", BENCH / "test_smoke.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return module


smoke = _import_smoke()
test_end_to_end_metrics = smoke.test_end_to_end_metrics
test_failed_check_fails_the_run = smoke.test_failed_check_fails_the_run
test_tracer_restores_every_binding = smoke.test_tracer_restores_every_binding


@pytest.fixture(autouse=True)
def one_timed_import(monkeypatch):
    """One timed fresh import per run instead of SETUP_REPS: these tests
    check which metrics a run sets, not how widely they spread."""
    monkeypatch.setattr(smoke.run, "SETUP_REPS", 1)

KNOWN = {
    "dynamics.SpectralPropagator.decay_factors.calls",
    "dynamics.SpectralPropagator.decay_factors.self_s",
    "dynamics.SpectralPropagator.evolve.calls",
    "dynamics.SpectralPropagator.evolve.gflop_per_s",
    "dynamics.SpectralPropagator.evolve.self_s",
    "dynamics.lindblad_first_order_evolve.self_s",
    "dynamics.milburn_poisson_evolve.calls",
    "dynamics.milburn_poisson_evolve.self_s",
    "dynamics.rk4_steps",
    "dynamics.schrodinger_evolve.self_s",
    "fock.atom_field.calls",
    "fock.atom_field.calls_per_curve",
    "fock.atom_field.self_s",
    "fock.matrix_exponential.calls",
    "fock.matrix_exponential.self_s",
    "hamiltonians.effective_hamiltonian_displaced.self_s",
    "hamiltonians.interaction_hamiltonian.self_s",
    "observables.purity.calls",
    "observables.purity.self_s",
}


def test_per_layer_names_reading_0_do_not_grow(capsys):
    zero = None
    for workload in smoke.WORKLOADS:
        code, result = smoke.run_tiny(capsys, workload, 1)
        assert code == 0, f"{workload} exited {code}"
        reads_0 = {name for name, m in result["metrics"].items()
                   if m["value"] == 0}
        zero = reads_0 if zero is None else zero & reads_0
    assert zero <= KNOWN, f"newly reading 0: {sorted(zero - KNOWN)}"
