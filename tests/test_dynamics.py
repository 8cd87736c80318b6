import numpy as np
import pytest

from milburnsim import dynamics
from milburnsim.dynamics import (
    DROP_BUDGET,
    MilburnConfig,
    SpectralPropagator,
    StepSizeError,
    TimeSeries,
    WindowBudgetError,
    block_propagators,
    core_propagator,
    effective_propagator,
    first_order_factor,
    lindblad_first_order_evolve,
    milburn_factor,
    milburn_poisson_evolve,
    milburn_spectral_evolve,
    poisson_factor,
    prune_weights,
    rabi_blocks,
    schrodinger_evolve,
    unitary_factor,
)
from milburnsim.fock import (
    SIGMA_X,
    SIGMA_Z,
    atom_field,
    identity_field,
    matrix_exponential,
)
from milburnsim.hamiltonians import effective_hamiltonian_displaced
from milburnsim.observables import atomic_inversion, initial_density, purity
from milburnsim.params import SystemParams, derived_params


def displaced_hamiltonian(p):
    h = effective_hamiltonian_displaced(p)
    return 0.5 * (h + h.conj().T)


@pytest.fixture
def small_system():
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=16)
    return p, displaced_hamiltonian(p), initial_density(p)


class TestRabiFrequency:
    def test_reference_values(self, fig1b):
        assert rabi_blocks(fig1b, 0)[1] == pytest.approx(
            np.sqrt(5.3125), abs=1e-12)
        assert rabi_blocks(fig1b, 1)[1] == pytest.approx(
            np.sqrt(1.8125), abs=1e-12)
        assert rabi_blocks(fig1b, 2)[1] == pytest.approx(
            np.sqrt(0.3125), abs=1e-12)

    def test_no_drive_reduces_to_detuning(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0)
        d = derived_params(p)
        for n in range(6):
            assert rabi_blocks(p, n)[1] == pytest.approx(
                abs(d.chi * n + d.delta_tilde))

    def test_exact_null(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0)
        # chi = -1, delta_tilde = 2: the n = 2 block is frozen
        assert rabi_blocks(p, 2)[1] == 0.0

    def test_negative_photon_number(self):
        p = SystemParams(lam=1.0, delta=2.0)
        with pytest.raises(ValueError):
            rabi_blocks(p, -1)


class TestPropagatorBlock:
    def test_identity_at_zero_time(self, fig1b):
        blk = block_propagators(0.0, fig1b)[3]
        np.testing.assert_allclose(blk, np.eye(2), atol=1e-14)

    def test_diagonal_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0)
        d = derived_params(p)
        for n, t in [(0, 0.8), (3, 1.7)]:
            blk = block_propagators(t, p)[n]
            phase = (d.chi * n + d.delta_tilde) * t
            assert blk[0, 1] == 0 and blk[1, 0] == 0
            assert blk[0, 0] == pytest.approx(np.exp(-1j * phase), abs=1e-12)
            assert blk[1, 1] == pytest.approx(np.exp(1j * phase), abs=1e-12)

    def test_matches_dense_exponential(self, fig1b):
        d = derived_params(fig1b)
        blocks = block_propagators(1.0, fig1b)
        for n in range(fig1b.dcut):
            detuned = d.chi * n + d.delta_tilde
            h2 = np.array([[detuned, fig1b.epsilon],
                           [np.conjugate(fig1b.epsilon), -detuned]])
            np.testing.assert_allclose(blocks[n], matrix_exponential(-1j * h2),
                                       atol=1e-12)

    def test_unitary(self, fig1b):
        blk = block_propagators(1.3, fig1b)[2]
        np.testing.assert_allclose(blk.conj().T @ blk, np.eye(2), atol=1e-12)

    def test_frozen_block_is_identity(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0)
        blk = block_propagators(1.0, p)[2]  # Omega = 0 exactly
        np.testing.assert_allclose(blk, np.eye(2), atol=1e-14)


class TestEffectivePropagator:
    def _edge_free(self, dcut, margin=16):
        return np.r_[0:dcut - margin, dcut:2 * dcut - margin]

    def test_identity_at_zero_time(self, fig1b):
        u = effective_propagator(0.0, fig1b)
        assert np.max(np.abs(u - np.eye(2 * fig1b.dcut))) <= 1e-10

    def test_unitarity_away_from_edge(self, fig1b):
        u = effective_propagator(1.0, fig1b)
        idx = self._edge_free(fig1b.dcut)
        gap = (u.conj().T @ u - np.eye(2 * fig1b.dcut))[np.ix_(idx, idx)]
        assert np.max(np.abs(gap)) <= 1e-9

    def test_matches_dense_exponential(self, fig1b):
        h = displaced_hamiltonian(fig1b)
        u1 = effective_propagator(0.5, fig1b)
        u2 = matrix_exponential(-1j * 0.5 * h)
        idx = self._edge_free(fig1b.dcut)
        assert np.max(np.abs((u1 - u2)[np.ix_(idx, idx)])) <= 1e-7

    def test_composition_law(self, fig1b):
        u_a = effective_propagator(0.7, fig1b)
        u_b = effective_propagator(0.3, fig1b)
        u_ab = effective_propagator(1.0, fig1b)
        idx = self._edge_free(fig1b.dcut)
        assert np.max(np.abs((u_a @ u_b - u_ab)[np.ix_(idx, idx)])) <= 1e-8

    def test_block_assembly_layout(self, fig1b):
        # the core propagator places each 2x2 block at (n, n+dcut) offsets
        # and is zero off the blocks
        dcut = fig1b.dcut
        expected = np.zeros((2 * dcut, 2 * dcut), dtype=complex)
        for n, blk in enumerate(block_propagators(0.9, fig1b)):
            expected[np.ix_([n, n + dcut], [n, n + dcut])] = blk
        np.testing.assert_array_equal(core_propagator(0.9, fig1b), expected)


class TestSchrodingerEvolve:
    def test_zero_time(self, small_system):
        _, h, rho0 = small_system
        np.testing.assert_allclose(schrodinger_evolve(rho0, h, 0.0), rho0,
                                   atol=1e-14)

    def test_trace_and_spectrum_preserved(self, small_system):
        _, h, rho0 = small_system
        rho = schrodinger_evolve(rho0, h, 1.4)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        np.testing.assert_allclose(np.linalg.eigvalsh(rho),
                                   np.linalg.eigvalsh(rho0), atol=1e-10)

    def test_matches_block_propagator_route(self, fig1b):
        rho0 = initial_density(fig1b)
        h = displaced_hamiltonian(fig1b)
        u = effective_propagator(0.5, fig1b)
        rho_blocks = u @ rho0 @ u.conj().T
        rho_dense = schrodinger_evolve(rho0, h, 0.5)
        assert np.max(np.abs(rho_blocks - rho_dense)) <= 1e-7

    def test_rejects_non_hermitian(self, small_system):
        _, h, rho0 = small_system
        bad = h.copy()
        bad[0, 1] += 1.0
        with pytest.raises(ValueError):
            schrodinger_evolve(rho0, bad, 1.0)


class TestMilburnPoisson:
    def test_zero_time(self, small_system):
        _, h, rho0 = small_system
        out = milburn_poisson_evolve(rho0, h, 0.0, MilburnConfig(gamma=50.0))
        np.testing.assert_allclose(out, rho0)

    def test_trace_preserved(self, small_system):
        _, h, rho0 = small_system
        out = milburn_poisson_evolve(rho0, h, 1.0, MilburnConfig(gamma=50.0))
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_matches_spectral_route(self, small_system):
        _, h, rho0 = small_system
        for t in (0.5, 1.0, 2.0):
            ra = milburn_poisson_evolve(rho0, h, t, MilburnConfig(gamma=50.0))
            rb = milburn_spectral_evolve(rho0, h, t, 50.0)
            assert np.max(np.abs(ra - rb)) <= 1e-9

    def test_window_budget_error(self, small_system):
        _, h, rho0 = small_system
        with pytest.raises(WindowBudgetError):
            milburn_poisson_evolve(rho0, h, 10.0,
                                   MilburnConfig(gamma=1e6, max_terms=1000))

    def test_window_discarded_mass_bound(self):
        from scipy.stats import poisson

        means = np.concatenate([np.linspace(0.0, 60.0, 6001),
                                np.geomspace(60.0, 1e6, 200)])
        windows = np.array([dynamics.poisson_window(m, 10**7) for m in means])
        m_lo, m_hi = windows.T
        lost = poisson.cdf(m_lo - 1, means) + poisson.sf(m_hi, means)
        assert lost.max() <= 1e-10
        assert 8e-11 <= lost.max()  # the peak near mean 2.67, window [0, 18]
        assert np.all(lost[means >= 50.0] <= 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MilburnConfig(gamma=-1.0)


class TestMilburnSpectral:
    def test_zero_time(self, small_system):
        _, h, rho0 = small_system
        np.testing.assert_allclose(milburn_spectral_evolve(rho0, h, 0.0, 50.0),
                                   rho0, atol=1e-12)

    def test_energy_populations_constant(self, small_system):
        _, h, rho0 = small_system
        prop = SpectralPropagator(h=h, gamma=20.0)
        rho_t = prop.evolve(rho0, 3.0)
        pop0 = np.diag(prop.vectors.conj().T @ rho0 @ prop.vectors)
        pop_t = np.diag(prop.vectors.conj().T @ rho_t @ prop.vectors)
        np.testing.assert_allclose(pop_t, pop0, atol=1e-12)

    def test_unitary_limit(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e10,
                         alpha=2.5, dcut=32)
        h = displaced_hamiltonian(p)
        rho0 = initial_density(p)
        r1 = milburn_spectral_evolve(rho0, h, 2.0, 1e10)
        r2 = schrodinger_evolve(rho0, h, 2.0)
        assert np.max(np.abs(r1 - r2)) <= 1e-6

    def test_degenerate_eigenvector_reordering(self):
        # without the drive the spectrum has exact cross-block degeneracies
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=30.0,
                         alpha=1.0, dcut=16)
        h = displaced_hamiltonian(p)
        rho0 = initial_density(p)
        prop = SpectralPropagator(h=h, gamma=30.0)
        energies, vectors = prop.energies, prop.vectors.copy()
        # reverse eigenvector order inside each degenerate group
        order = np.arange(len(energies))
        i = 0
        while i < len(energies):
            j = i
            while j + 1 < len(energies) and \
                    abs(energies[j + 1] - energies[i]) < 1e-9:
                j += 1
            order[i:j + 1] = order[i:j + 1][::-1]
            i = j + 1
        v2 = vectors[:, order]
        t = 2.0
        omega = energies[:, None] - energies[None, :]
        factors = np.exp(30.0 * t * (np.exp(-1j * omega / 30.0) - 1.0))
        rho_a = prop.evolve(rho0, t)
        rho_e = v2.conj().T @ rho0 @ v2
        rho_b = v2 @ (rho_e * factors) @ v2.conj().T
        assert np.max(np.abs(rho_a - rho_b)) <= 1e-10

    def test_purity_non_increasing(self, small_system):
        _, h, rho0 = small_system
        prop = SpectralPropagator(h=h, gamma=1e3)
        values = [purity(prop.evolve(rho0, t))
                  for t in np.linspace(0.0, 5.0, 50)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_inversion_frozen_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1e6,
                         alpha=2.5, dcut=32)
        h = displaced_hamiltonian(p)
        rho0 = initial_density(p)
        prop = SpectralPropagator(h=h, gamma=1e6)
        base = atomic_inversion(rho0)
        for t in (0.5, 1.0, 3.0):
            assert abs(atomic_inversion(prop.evolve(rho0, t)) - base) <= 1e-10


class TestLindbladFirstOrder:
    def test_unitary_limit(self, small_system):
        _, h, rho0 = small_system
        dt = 0.01 / np.linalg.norm(h, 2)
        rl = lindblad_first_order_evolve(rho0, h, 1.0, 1e12, dt)
        rs = schrodinger_evolve(rho0, h, 1.0)
        assert np.max(np.abs(rl - rs)) <= 1e-6

    def test_trace_preserved(self, small_system):
        _, h, rho0 = small_system
        dt = 0.01 / np.linalg.norm(h, 2)
        out = lindblad_first_order_evolve(rho0, h, 1.0, 100.0, dt)
        assert abs(np.trace(out).real - 1.0) <= 1e-8

    def test_step_size_error(self, small_system):
        _, h, rho0 = small_system
        with pytest.raises(StepSizeError):
            lindblad_first_order_evolve(rho0, h, 20.0, 100.0, 0.5)


class TestRouteInvariants:
    """Trace, Hermiticity and positivity across all decoherence routes."""

    @pytest.mark.parametrize("route", ["poisson", "spectral", "lindblad"])
    def test_density_matrix_invariants(self, small_system, route):
        _, h, rho0 = small_system
        if route == "poisson":
            rho = milburn_poisson_evolve(rho0, h, 1.5, MilburnConfig(gamma=40.0))
        elif route == "spectral":
            rho = milburn_spectral_evolve(rho0, h, 1.5, 40.0)
        else:
            dt = 0.01 / np.linalg.norm(h, 2)
            rho = lindblad_first_order_evolve(rho0, h, 1.5, 40.0, dt)
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


class TestTimeSeries:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 1.0, 1.0]),
                       values=np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 1.0]), values=np.zeros(3))


class TestSpectralExpectationSeries:
    def test_matches_per_point_evolution(self, small_system):
        p, h, rho0 = small_system
        prop = SpectralPropagator(h=h, gamma=1e3)
        x_op = atom_field(SIGMA_X, identity_field(p.dcut))
        times = np.linspace(0.0, 3.0, 15)
        fast = prop.expectation_series(rho0, x_op, times).real
        slow = [np.trace(prop.evolve(rho0, t) @ x_op).real for t in times]
        np.testing.assert_allclose(fast, slow, atol=1e-11)


def _rk4_states(rho0, h, times, gamma):
    """First-order master equation states on a grid, by RK4 steps of
    0.01/||h|| carried from one grid time to the next."""
    dt = 0.01 / np.linalg.norm(h, 2)
    states, rho, t_prev = [], rho0, 0.0
    for t in times:
        if t > t_prev:
            rho = lindblad_first_order_evolve(rho, h, t - t_prev, gamma, dt)
            t_prev = t
        states.append(rho)
    return states


# route: (factor, state-level evolution on a grid, tolerance)
KERNEL_ROUTES = {
    "milburn": (
        milburn_factor,
        lambda rho0, h, times, g: [milburn_spectral_evolve(rho0, h, t, g)
                                   for t in times],
        1e-12),
    "poisson": (
        poisson_factor,
        lambda rho0, h, times, g: [
            milburn_poisson_evolve(rho0, h, t, MilburnConfig(gamma=g))
            for t in times],
        1e-12),
    "unitary": (
        unitary_factor,
        lambda rho0, h, times, g: [schrodinger_evolve(rho0, h, t)
                                   for t in times],
        1e-12),
    # RK4 truncation error at this step is about 4e-12
    "first-order": (first_order_factor, _rk4_states, 1e-10),
}


class TestSeriesKernel:
    """Each route's factor in the series kernel against the route's
    independent state-level evolution, at cutoff 16."""

    @pytest.fixture
    def system(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=40.0,
                         alpha=1.0, dcut=16)
        return p, displaced_hamiltonian(p), initial_density(p)

    @pytest.mark.parametrize("route", sorted(KERNEL_ROUTES))
    def test_factor_matches_state_route(self, system, route):
        p, h, rho0 = system
        factor, evolve, tol = KERNEL_ROUTES[route]
        times = np.linspace(0.0, 1.5, 7)
        states = evolve(rho0, h, times, p.gamma)
        prop = SpectralPropagator(h=h, gamma=p.gamma)
        for op in (atom_field(SIGMA_X, identity_field(p.dcut)),
                   atom_field(SIGMA_Z, identity_field(p.dcut)), None):
            series = prop.expectation_series(rho0, op, times, factor)
            if op is None:
                reference = [purity(rho) for rho in states]
            else:
                reference = [np.trace(rho @ op).real for rho in states]
            np.testing.assert_allclose(series.real, reference, rtol=0,
                                       atol=tol)
            assert np.max(np.abs(series.imag)) <= 1e-12

    def test_blocking_does_not_change_the_series(self, system, monkeypatch):
        p, h, rho0 = system
        prop = SpectralPropagator(h=h, gamma=p.gamma)
        x_op = atom_field(SIGMA_X, identity_field(p.dcut))
        times = np.linspace(0.0, 1.5, 7)
        factors = (milburn_factor, poisson_factor)
        whole = [prop.expectation_series(rho0, op, times, f)
                 for f in factors for op in (x_op, None)]
        # blocks of one time row, Poisson kicks in chunks of one term
        monkeypatch.setattr(dynamics, "SERIES_BLOCK", 1)
        blocked = [prop.expectation_series(rho0, op, times, f)
                   for f in factors for op in (x_op, None)]
        for a, b in zip(whole, blocked):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_dropped_weight_bound(self, system):
        p, h, rho0 = system
        prop = SpectralPropagator(h=h, gamma=p.gamma)
        x_op = atom_field(SIGMA_X, identity_field(p.dcut))
        rho_e = prop.vectors.conj().T @ rho0 @ prop.vectors
        x_e = prop.vectors.conj().T @ x_op @ prop.vectors
        times = np.linspace(0.0, 3.0, 11)
        cases = ((x_op, rho_e * x_e.T, prop.decay_factors),
                 (None, np.abs(rho_e) ** 2,
                  lambda t: np.abs(prop.decay_factors(t)) ** 2))
        for op, weights, factors in cases:
            keep, dropped = prune_weights(weights)
            assert 0.0 < dropped <= DROP_BUDGET == 1e-14
            lost = np.delete(weights.ravel(), keep)
            assert np.sum(np.abs(lost)) == pytest.approx(dropped, rel=1e-12)
            # every factor has modulus <= 1, so the unpruned sum differs
            # from the kernel by at most the dropped weight
            full = [np.sum(weights * factors(t)) for t in times]
            series = prop.expectation_series(rho0, op, times)
            assert np.max(np.abs(series - full)) <= dropped + 1e-14
