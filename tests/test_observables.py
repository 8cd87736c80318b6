import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milburnsim.dynamics import (
    DROP_BUDGET, SpectralPropagator, eigenbasis_series, milburn_factor)
from milburnsim.fock import (
    SIGMA_X,
    SIGMA_Z,
    coherent_state,
    density_from_state,
)
from milburnsim.hamiltonians import effective_hamiltonian_displaced
from milburnsim.observables import (
    closed_form_series,
    initial_density,
    initial_state,
    revival_metrics,
    sigma_x_closed_form,
    state_expectation,
)
from milburnsim.params import (
    DispersiveValidityWarning, SystemParams, derived_params)


def spectral_sigma_x_series(p, times):
    prop = SpectralPropagator(effective_hamiltonian_displaced(p))
    return eigenbasis_series(*prop.eigenbasis(initial_state(p)), [SIGMA_X],
                             times, milburn_factor, p.gamma)[0]


param_sets = st.builds(
    SystemParams,
    lam=st.floats(min_value=0.5, max_value=2.0),
    # |epsilon| with a phase: the closed form holds for any complex drive
    epsilon=st.builds(lambda r, phase: r * np.exp(1j * phase),
                      st.floats(min_value=0.0, max_value=1.0),
                      st.floats(min_value=-np.pi, max_value=np.pi)),
    delta=st.floats(min_value=1.0, max_value=4.0),
    gamma=st.floats(min_value=10.0, max_value=1e6),
    alpha=st.floats(min_value=0.0, max_value=3.0),
    dcut=st.just(64),
)


class TestClosedForm:
    @given(param_sets)
    @settings(max_examples=40, deadline=None)
    def test_normalization_at_zero_time(self, p):
        assert abs(sigma_x_closed_form(p, 0.0) - 1.0) <= 1e-12

    @given(param_sets, st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_polarization_bound(self, p, t):
        assert abs(sigma_x_closed_form(p, t)) <= 1.0 + 1e-9

    @given(param_sets, st.lists(st.floats(min_value=0.0, max_value=10.0),
                                min_size=1, max_size=3, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_every_observable_matches_state_evolution(self, p, times):
        # per-point SpectralPropagator.evolve shares no series code with
        # the closed form
        times = np.sort(times)
        h = effective_hamiltonian_displaced(p)
        prop = SpectralPropagator(h)
        states = [prop.evolve(initial_density(p), t, p.gamma) for t in times]
        for atom_op in (SIGMA_X, SIGMA_Z, None):
            expected = [state_expectation(rho, atom_op) for rho in states]
            closed = closed_form_series(p, atom_op, times)
            assert np.max(np.abs(closed - expected)) <= 1e-9

    @pytest.mark.parametrize("atom_op", [SIGMA_X, SIGMA_Z])
    def test_atom_operator_memory_is_linear_in_cutoff(self, atom_op):
        # one eigenpair per photon block: a (2 cutoff)^2 complex array
        # at cutoff 400 alone would take 10 MB
        p = SystemParams(lam=1.0, epsilon=0.5 + 0.3j, delta=2.0, gamma=1e3,
                         alpha=2.5, dcut=400)
        tracemalloc.start()
        try:
            closed_form_series(p, atom_op, np.linspace(0.0, 12.0, 100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_undamped_no_drive_limit(self):
        # independent oracle: Poisson-weighted dispersive cosine sum
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1e12,
                         alpha=2.5, dcut=64)
        d = derived_params(p)
        from scipy.stats import poisson

        n = np.arange(64)
        w = poisson.pmf(n, abs(p.alpha - d.beta) ** 2)
        t = 0.3
        oracle = float(np.sum(w * np.cos(2.0 * (d.chi * n + d.delta_tilde) * t)))
        assert abs(sigma_x_closed_form(p, t) - oracle) <= 1e-6

    def test_matches_state_evolution(self, fig1b):
        times = np.linspace(0.0, 4.0 * np.pi, 120)
        state_route = spectral_sigma_x_series(fig1b, times)
        closed = sigma_x_closed_form(fig1b, times)
        assert np.max(np.abs(state_route - closed)) <= 1e-8

    def test_tail_guard(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0,
                         alpha=2.5, dcut=8)
        with pytest.raises(ValueError):
            sigma_x_closed_form(p, 0.5)

    def test_warns_outside_dispersive_regime(self, fig1b):
        # delta = 2 lambda, like the spectral route's Hamiltonian
        with pytest.warns(DispersiveValidityWarning):
            sigma_x_closed_form(fig1b, 0.5)

    def test_frozen_block_counts_fully(self):
        # chi = -1, delta_tilde = 2 freezes the n = 2 block; t = 0 still sums to 1
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=100.0,
                         alpha=1.5, dcut=64)
        assert abs(sigma_x_closed_form(p, 0.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps, gamma, alpha", [
        (0.0, 1e6, 2.5), (0.5, 1e3, 2.5), (0.5, 1e6, 2.5),
        (0.0, 100.0, 1.5)])   # eps = 0 freezes the n = 2 block
    def test_pruning_within_budget(self, eps, gamma, alpha):
        # unpruned Poisson-weighted sum over every block, frozen ones at 1
        p = SystemParams(lam=1.0, epsilon=eps, delta=2.0, gamma=gamma,
                         alpha=alpha, dcut=64)
        d = derived_params(p)
        from scipy.stats import poisson

        n = np.arange(p.dcut)
        w = poisson.pmf(n, abs(p.alpha - d.beta) ** 2)
        detuned = d.chi * n + d.delta_tilde
        omega = np.sqrt(detuned**2 + eps**2)
        t = np.linspace(0.0, 12.0, 2400)[:, None]
        # Milburn's factor exp(gamma t (e^{-2i omega/gamma} - 1))
        factor = np.exp(p.gamma * t * np.expm1(-2j * omega / p.gamma)).real
        with np.errstate(invalid="ignore"):
            block = np.where(omega == 0, 1.0,
                             (eps**2 + detuned**2 * factor) / omega**2)
        assert (omega == 0).any() == (eps == 0)
        oracle = block @ w
        closed = sigma_x_closed_form(p, t[:, 0])
        assert np.max(np.abs(closed - oracle)) <= 2 * DROP_BUDGET


class TestStateObservables:
    def test_initial_state_polarization(self, fig1b):
        assert abs(state_expectation(initial_density(fig1b), SIGMA_X)
                   - 1.0) <= 1e-12

    def test_excited_atom_polarization_vanishes(self):
        dcut = 32
        psi = np.kron([1.0, 0.0], coherent_state(1.5, dcut))
        assert abs(state_expectation(density_from_state(psi),
                                     SIGMA_X)) <= 1e-12

    def test_cross_route_at_quarter_period(self, fig1a):
        t = np.pi / 2.0
        state_route = spectral_sigma_x_series(fig1a, np.array([t]))[0]
        assert abs(state_route - sigma_x_closed_form(fig1a, t)) <= 1e-8

    def test_initial_inversion_and_purity(self, fig1b):
        rho0 = initial_density(fig1b)
        assert abs(state_expectation(rho0, SIGMA_Z)) <= 1e-12
        assert abs(state_expectation(rho0, None) - 1.0) <= 1e-10

    def test_mixed_atom_purity(self):
        dcut = 8
        vac = np.zeros((dcut, dcut), dtype=complex)
        vac[0, 0] = 1.0
        rho = np.kron(0.5 * np.eye(2, dtype=complex), vac)
        assert abs(state_expectation(rho, SIGMA_Z)) <= 1e-12
        assert abs(state_expectation(rho, None) - 0.5) <= 1e-12

    def test_purity_bounded_after_decoherence(self, fig1b):
        prop = SpectralPropagator(effective_hamiltonian_displaced(fig1b))
        rho = prop.evolve(initial_density(fig1b), 2.0, fig1b.gamma)
        val = state_expectation(rho, None)
        assert 0.0 < val <= 1.0 + 1e-12


class TestRevivalMetrics:
    def test_constant_series(self):
        times = np.linspace(0.0, 10.0, 100)
        m = revival_metrics(times, np.full(100, 0.4), (1.0, 3.0), (6.0, 9.0))
        assert m.collapse_floor == pytest.approx(0.4)
        assert m.revival_peak == pytest.approx(0.4)

    def test_triangular_pulse_peak_location(self):
        times = np.linspace(0.0, 10.0, 1001)
        values = np.maximum(0.0, 1.0 - np.abs(times - 7.0))
        m = revival_metrics(times, values, (1.0, 3.0), (6.0, 8.0))
        assert m.revival_time == pytest.approx(7.0, abs=1e-9)
        assert m.revival_peak == pytest.approx(1.0)

    def test_empty_window(self):
        times = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            revival_metrics(times, np.zeros(10), (5.0, 6.0), (0.0, 1.0))

    def test_revival_near_dispersive_period(self, fig1a):
        times = np.linspace(0.0, 12.0, 2400)
        values = sigma_x_closed_form(fig1a, times)
        m = revival_metrics(times, values, (1.5, 2.5), (2.9, 3.4))
        assert abs(m.revival_time - np.pi) <= 0.2

    def test_decoherence_degrades_revival(self, fig1b, fig1c):
        times = np.linspace(0.0, 12.0, 2400)
        peaks = {}
        for p in (fig1b, fig1c):
            values = sigma_x_closed_form(p, times)
            m = revival_metrics(times, values, (1.5, 2.5), (2.9, 3.4))
            peaks[p.gamma] = m.revival_peak
        assert peaks[1e3] < peaks[1e6]
