"""Acceptance battery.

One test per criterion; each prints a PASS/FAIL line with its measured
figure and elapsed time (visible with pytest -s or on failure).
"""

import time

import numpy as np
import pytest

from milburnsim.dynamics import (
    SpectralPropagator,
    effective_propagator,
    eigenbasis_series,
    lindblad_first_order_evolve,
    milburn_factor,
    milburn_poisson_evolve,
    schrodinger_evolve,
)
from milburnsim.fock import SIGMA_X, SIGMA_Z
from milburnsim.hamiltonians import (
    effective_hamiltonian_displaced,
    interaction_hamiltonian,
    small_rotation_exact,
    small_rotation_first_order,
)
from milburnsim.observables import (
    initial_density,
    initial_state,
    revival_metrics,
    sigma_x_closed_form,
    state_expectation,
)
from milburnsim.params import SystemParams, derived_params

FIG1 = {
    "a": SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1e6,
                      alpha=2.5, dcut=64),
    "b": SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                      alpha=2.5, dcut=64),
    "c": SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e6,
                      alpha=2.5, dcut=64),
}


class _Criterion:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        print(f"{'PASS' if ok else 'FAIL'} {self.name}: {detail} "
              f"[{elapsed:.2f}s / budget {self.budget_s:.0f}s]")
        assert ok, f"{self.name}: {detail}"
        assert elapsed < self.budget_s, \
            f"{self.name} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_normalization_identity():
    c = _Criterion("1 normalization identity at t=0", 1.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = SystemParams(
            lam=rng.uniform(0.5, 2.0),
            epsilon=rng.uniform(0.0, 1.0),
            delta=rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 4.0),
            gamma=10.0 ** rng.uniform(1.0, 6.0),
            alpha=rng.uniform(0.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            dcut=64,
        )
        worst = max(worst, abs(sigma_x_closed_form(p, 0.0) - 1.0))
    c.finish(worst <= 1e-12, f"max |<sx>(0) - 1| = {worst:.2e} over 20 sets")


def test_criterion_2_poisson_vs_spectral():
    c = _Criterion("2 exact-route equivalence (Poisson vs spectral)", 30.0)
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=50.0,
                     alpha=2.5, dcut=32)
    h = effective_hamiltonian_displaced(p)
    rho0 = initial_density(p)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        ra = milburn_poisson_evolve(rho0, h, t, 50.0)
        rb = SpectralPropagator(h).evolve(rho0, t, 50.0)
        worst = max(worst, float(np.max(np.abs(ra - rb))))
    c.finish(worst <= 1e-9, f"max entrywise gap = {worst:.2e}")


def test_criterion_3_closed_form_vs_state_evolution():
    c = _Criterion("3 closed form vs state evolution", 60.0)
    times = np.linspace(0.0, 4.0 * np.pi, 400)
    worst = 0.0
    for label, p in FIG1.items():
        h = effective_hamiltonian_displaced(p)
        prop = SpectralPropagator(h)
        state_route, = eigenbasis_series(*prop.eigenbasis(initial_state(p)),
                                         [SIGMA_X], times, milburn_factor,
                                         p.gamma)
        closed = sigma_x_closed_form(p, times)
        worst = max(worst, float(np.max(np.abs(state_route - closed))))
    c.finish(worst <= 1e-8, f"max gap over 3 parameter sets = {worst:.2e}")


def test_criterion_4_unitary_limit():
    c = _Criterion("4 unitary limit of the exact equation", 30.0)
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e10,
                     alpha=2.5, dcut=64)
    h = effective_hamiltonian_displaced(p)
    rho0 = initial_density(p)
    prop = SpectralPropagator(h)
    worst = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi, 100):
        gap = abs(state_expectation(prop.evolve(rho0, t, 1e10), SIGMA_X)
                  - state_expectation(schrodinger_evolve(rho0, h, t),
                                      SIGMA_X))
        worst = max(worst, gap)
    c.finish(worst <= 1e-5, f"max <sx> gap = {worst:.2e}")


def test_criterion_5_collapse_revival_structure():
    c = _Criterion("5 collapse/revival structure", 10.0)
    times = np.linspace(0.0, 12.0, 2400)
    values = sigma_x_closed_form(FIG1["a"], times)
    m = revival_metrics(times, values, collapse_window=(1.5, 2.5),
                        revival_window=(2.9, 3.4))
    ok = abs(m.revival_time - np.pi) <= 0.2 and \
        m.revival_peak >= 3.0 * m.collapse_floor
    c.finish(ok, f"revival at t = {m.revival_time:.4f}, peak/floor = "
                 f"{m.revival_peak / m.collapse_floor:.1f}")


def test_criterion_6_decoherence_degrades_revivals():
    c = _Criterion("6 decoherence degrades revivals", 10.0)
    times = np.linspace(0.0, 12.0, 2400)
    peaks = {}
    for label in ("b", "c"):
        values = sigma_x_closed_form(FIG1[label], times)
        m = revival_metrics(times, values, (1.5, 2.5), (2.9, 3.4))
        peaks[label] = m.revival_peak
    c.finish(peaks["b"] < peaks["c"],
             f"peak(gamma=1e3) = {peaks['b']:.4f} < "
             f"peak(gamma=1e6) = {peaks['c']:.4f}")


def test_criterion_7_first_order_expansion_scaling():
    c = _Criterion("7 first-order expansion residual ~ 1/gamma^2", 60.0)
    gaps = {}
    for gamma in (100.0, 200.0):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=gamma,
                         alpha=1.0, dcut=16)
        h = effective_hamiltonian_displaced(p)
        rho0 = initial_density(p)
        dt = 0.01 / np.linalg.norm(h, 2)
        r_exact = SpectralPropagator(h).evolve(rho0, 1.0, gamma)
        r_first = lindblad_first_order_evolve(rho0, h, 1.0, gamma, dt)
        gaps[gamma] = float(np.max(np.abs(r_exact - r_first)))
    ratio = gaps[100.0] / gaps[200.0]
    c.finish(3.0 <= ratio <= 5.0,
             f"residual ratio gamma 100 vs 200 = {ratio:.2f}")


def test_criterion_8_small_rotation_order():
    c = _Criterion("8 small-rotation first-order accuracy", 10.0)
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=2.5, dcut=16)
    h = interaction_hamiltonian(p)
    gaps = {}
    for eta in (0.1, 0.05):
        diff = small_rotation_exact(h, eta) \
            - small_rotation_first_order(h, eta)
        gaps[eta] = float(np.linalg.norm(diff, 2))
    ratio = gaps[0.1] / gaps[0.05]
    c.finish(3.5 <= ratio <= 4.5,
             f"gap ratio eta 0.1 vs 0.05 = {ratio:.2f}")


def test_criterion_9_invariant_suite():
    c = _Criterion("9 invariant suite", 120.0)
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=16)
    h = effective_hamiltonian_displaced(p)
    rho0 = initial_density(p)
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    # trace, Hermiticity, positivity across the three decoherence routes
    dt = 0.01 / np.linalg.norm(h, 2)
    routes = {
        "poisson": milburn_poisson_evolve(rho0, h, 1.5, 40.0),
        "spectral": SpectralPropagator(h).evolve(rho0, 1.5, 40.0),
        "lindblad": lindblad_first_order_evolve(rho0, h, 1.5, 40.0, dt),
    }
    for name, rho in routes.items():
        check(f"{name}-trace", abs(np.trace(rho).real - 1.0) <= 1e-9)
        check(f"{name}-hermiticity",
              np.max(np.abs(rho - rho.conj().T)) <= 1e-10)
        check(f"{name}-positivity",
              np.linalg.eigvalsh(rho).min() >= -1e-8)

    # purity non-increasing under the exact equation
    prop = SpectralPropagator(h)
    pur = [state_expectation(prop.evolve(rho0, t, 1e3), None)
           for t in np.linspace(0.0, 5.0, 50)]
    check("purity-monotone",
          all(b <= a + 1e-12 for a, b in zip(pur, pur[1:])))

    # propagator unitarity and composition law away from the edge
    pb = FIG1["b"]
    idx = np.r_[0:pb.dcut - 16, pb.dcut:2 * pb.dcut - 16]
    u = effective_propagator(1.0, pb)
    gap_u = np.max(np.abs(
        (u.conj().T @ u - np.eye(2 * pb.dcut))[np.ix_(idx, idx)]))
    check("propagator-unitarity", gap_u <= 1e-9)
    u_comp = effective_propagator(0.7, pb) @ effective_propagator(0.3, pb)
    gap_c = np.max(np.abs((u_comp - u)[np.ix_(idx, idx)]))
    check("propagator-composition", gap_c <= 1e-8)

    # populations frozen without the classical drive
    pa = FIG1["a"]
    ha = effective_hamiltonian_displaced(pa)
    rho_a = initial_density(pa)
    prop_a = SpectralPropagator(ha)
    base = state_expectation(rho_a, SIGMA_Z)
    drift = max(abs(state_expectation(prop_a.evolve(rho_a, t, pa.gamma),
                                      SIGMA_Z) - base)
                for t in (0.5, 1.0, 3.0))
    check("inversion-frozen", drift <= 1e-10)

    c.finish(not failures, "all invariants hold" if not failures
             else "failed: " + ", ".join(failures))
