import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milburnsim import dynamics, fock
from milburnsim.dynamics import (
    DROP_BUDGET,
    SpectralPropagator,
    block_pair_weights,
    block_propagators,
    effective_propagator,
    eigenbasis_series,
    first_order_factor,
    interaction_eigh,
    kick_count_factor,
    lindblad_first_order_evolve,
    milburn_factor,
    milburn_poisson_evolve,
    prune_weights,
    rabi_blocks,
    schrodinger_evolve,
    traceless_eigh,
    unitary_factor,
)
from milburnsim.fock import (
    SIGMA_X,
    SIGMA_Z,
    atom_field,
    identity_field,
    matrix_exponential,
    poisson_pmf,
)
from milburnsim.hamiltonians import (
    displaced_photon_weights, effective_core_blocks,
    effective_hamiltonian_displaced, interaction_hamiltonian)
from milburnsim.observables import (
    ATOM_STATE, closed_form_series, initial_density, initial_state,
    state_expectation)
from milburnsim.params import SystemParams, derived_params


@pytest.fixture
def small_system():
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=16)
    return p, effective_hamiltonian_displaced(p), initial_density(p)


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

    @pytest.mark.parametrize("epsilon", [0.5, 0.4 + 0.3j, 0.0])
    def test_matches_dense_exponential(self, fig1b, epsilon):
        p = replace(fig1b, epsilon=epsilon)
        d = derived_params(p)
        blocks = block_propagators(1.0, p)
        for n in range(p.dcut):
            detuned = d.chi * n + d.delta_tilde
            h2 = np.array([[detuned, p.epsilon],
                           [np.conjugate(p.epsilon), -detuned]])
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
        h = effective_hamiltonian_displaced(fig1b)
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
        h = effective_hamiltonian_displaced(fig1b)
        u = effective_propagator(0.5, fig1b)
        rho_blocks = u @ rho0 @ u.conj().T
        rho_dense = schrodinger_evolve(rho0, h, 0.5)
        assert np.max(np.abs(rho_blocks - rho_dense)) <= 1e-7

    def test_rejects_non_hermitian(self, small_system):
        # a skew of 1, and one just past HERMITIAN_TOL = 1e-9
        _, h, rho0 = small_system
        for skew in (1.0, 2e-9):
            bad = h.copy()
            bad[0, 1] += skew
            with pytest.raises(ValueError):
                schrodinger_evolve(rho0, bad, 1.0)


class TestMilburnPoisson:
    def test_zero_time(self, small_system):
        _, h, rho0 = small_system
        out = milburn_poisson_evolve(rho0, h, 0.0, 50.0)
        np.testing.assert_allclose(out, rho0)

    def test_trace_preserved(self, small_system):
        _, h, rho0 = small_system
        out = milburn_poisson_evolve(rho0, h, 1.0, 50.0)
        assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_window_budget_error(self, small_system):
        _, h, rho0 = small_system
        with pytest.raises(MemoryError):
            milburn_poisson_evolve(rho0, h, 10.0, 1e7)

    def test_window_discarded_mass_bound(self):
        from scipy.stats import poisson

        means = np.concatenate([np.linspace(0.0, 60.0, 6001),
                                np.geomspace(60.0, 1e6, 200)])
        windows = np.array([dynamics.poisson_window(m) for m in means])
        m_lo, m_hi = windows.T
        lost = poisson.cdf(m_lo - 1, means) + poisson.sf(m_hi, means)
        assert lost.max() <= 1e-10
        assert 8e-11 <= lost.max()  # the peak near mean 2.67, window [0, 18]
        assert np.all(lost[means >= 50.0] <= 1e-12)

    def test_window_admits_means_monotonically(self):
        # near the budget, in steps of 0.25: once a mean is refused, every
        # larger one is, and an admitted window holds at most
        # POISSON_MAX_TERMS counts, none of them past the largest count
        # that test_log_factorial_matches_gammaln checks
        half = (dynamics.POISSON_MAX_TERMS - 1) / 2
        top = math.ceil((half / 8) ** 2 - 1 + half)
        admitted = []
        for mean in np.arange(3.9059e7, 3.9062e7, 0.25):
            try:
                m_lo, m_hi = dynamics.poisson_window(mean)
            except MemoryError:
                admitted.append(False)
                continue
            assert m_hi - m_lo + 1 <= dynamics.POISSON_MAX_TERMS
            assert m_hi <= top
            admitted.append(True)
        refused = admitted.index(False)
        assert refused > 0 and not any(admitted[refused:])

    def test_window_refused_before_rounding(self):
        # at this mean the 8 sigma half width is lost in mean +- half, so
        # the rounded window would collapse to a single kick count
        with pytest.raises(MemoryError):
            dynamics.poisson_window(1e36)

    def test_config_validation(self, small_system):
        _, h, rho0 = small_system
        for gamma in (-1.0, 0.0):
            with pytest.raises(ValueError):
                milburn_poisson_evolve(rho0, h, 1.0, gamma)


class TestMilburnSpectral:
    def test_zero_time(self, small_system):
        _, h, rho0 = small_system
        np.testing.assert_allclose(
            SpectralPropagator(h).evolve(rho0, 0.0, 50.0), rho0, atol=1e-12)

    def test_energy_populations_constant(self, small_system):
        _, h, rho0 = small_system
        prop = SpectralPropagator(h)
        rho_t = prop.evolve(rho0, 3.0, 20.0)
        pop0 = np.diag(prop.vectors.conj().T @ rho0 @ prop.vectors)
        pop_t = np.diag(prop.vectors.conj().T @ rho_t @ prop.vectors)
        np.testing.assert_allclose(pop_t, pop0, atol=1e-12)

    def test_unitary_limit(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e10,
                         alpha=2.5, dcut=32)
        h = effective_hamiltonian_displaced(p)
        rho0 = initial_density(p)
        r1 = SpectralPropagator(h).evolve(rho0, 2.0, 1e10)
        r2 = schrodinger_evolve(rho0, h, 2.0)
        assert np.max(np.abs(r1 - r2)) <= 1e-6

    def test_degenerate_eigenvector_reordering(self):
        # without the drive the spectrum has exact cross-block degeneracies
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=30.0,
                         alpha=1.0, dcut=16)
        h = effective_hamiltonian_displaced(p)
        rho0 = initial_density(p)
        prop = SpectralPropagator(h)
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
        rho_a = prop.evolve(rho0, t, 30.0)
        rho_e = v2.conj().T @ rho0 @ v2
        rho_b = v2 @ (rho_e * factors) @ v2.conj().T
        assert np.max(np.abs(rho_a - rho_b)) <= 1e-10

    def test_purity_non_increasing(self, small_system):
        _, h, rho0 = small_system
        prop = SpectralPropagator(h)
        values = [state_expectation(prop.evolve(rho0, t, 1e3), None)
                  for t in np.linspace(0.0, 5.0, 50)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_inversion_frozen_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1e6,
                         alpha=2.5, dcut=32)
        h = effective_hamiltonian_displaced(p)
        rho0 = initial_density(p)
        prop = SpectralPropagator(h)
        base = state_expectation(rho0, SIGMA_Z)
        for t in (0.5, 1.0, 3.0):
            assert abs(state_expectation(prop.evolve(rho0, t, 1e6), SIGMA_Z)
                       - base) <= 1e-10


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


TINY, SUBNORMAL = np.finfo(float).tiny, 5e-324
# 0, the smallest normal and subnormal and a huge value of either sign,
# and ordinary ones
BLOCK_DIAGONALS = st.one_of(
    st.sampled_from([0.0, TINY, -TINY, SUBNORMAL, -SUBNORMAL, 1e150,
                     -1e150]),
    st.floats(min_value=-10.0, max_value=10.0))
BLOCK_MODULI = st.one_of(st.sampled_from([TINY, SUBNORMAL, 1e150]),
                         st.floats(min_value=1e-3, max_value=10.0))


@st.composite
def block_couplings(draw):
    """The off-diagonal c of [[d, c], [c*, -d]]: a real c of either sign,
    a complex one of any phase, or 0."""
    kind = draw(st.sampled_from(["positive", "negative", "complex", "zero"]))
    if kind == "zero":
        return 0.0
    modulus = draw(BLOCK_MODULI)
    if kind == "complex":
        return complex(modulus * np.exp(1j * draw(
            st.floats(min_value=-np.pi, max_value=np.pi))))
    return modulus if kind == "positive" else -modulus


class TestTracelessEigh:
    """The closed-form eigenbasis of the traceless blocks [[d, c], [c*, -d]]
    that the block routes solve, one d per photon number, as
    block_eigenbasis calls it."""

    @staticmethod
    def check_eigenbasis(d, c):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            r, v = traceless_eigh(d, c)
        assert np.all(np.isfinite(v))
        assert v.dtype == (np.complex128 if isinstance(c, complex)
                           else np.float64)
        # the energies are rabi_blocks' hypot to the bit
        np.testing.assert_array_equal(r, np.hypot(d, abs(c)))
        np.testing.assert_allclose(
            np.swapaxes(v.conj(), 1, 2) @ v, np.broadcast_to(
                np.eye(2), v.shape), rtol=0, atol=1e-15)
        h = np.empty((len(d), 2, 2), dtype=v.dtype)
        h[:, 0, 0], h[:, 1, 1] = d, -d
        h[:, 0, 1], h[:, 1, 0] = c, np.conjugate(c)
        # within a few ulp of r, as a backward-stable eigh would leave it
        residual = np.abs(h @ v - v * np.stack([-r, r], axis=1)[:, None])
        assert np.all(residual <= 8 * np.spacing(r)[:, None, None])

    @given(st.lists(BLOCK_DIAGONALS, min_size=1, max_size=6),
           block_couplings())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_eigenbasis(self, d, c):
        self.check_eigenbasis(np.array(d), c)

    @pytest.mark.parametrize("c", [
        complex(SUBNORMAL, SUBNORMAL), complex(0.0, SUBNORMAL), -SUBNORMAL,
        complex(-SUBNORMAL, 0.0), -0.4 + 0j, -0.0])
    def test_subnormal_and_real_axis_couplings(self, c):
        # a subnormal |c|, whose 1/|c| overflows, and a complex c on the
        # negative real axis
        self.check_eigenbasis(
            np.array([0.0, 1.0, -2.0, SUBNORMAL, -1e150]), c)

    def test_degenerate_block_is_the_atom_basis(self):
        # fig1(a)'s block n = 2, at eps = 0 and Delta_2 = 0: r is exactly 0
        # and the vectors are |g> and |e>, with no 0/0
        with np.errstate(all="raise"):
            r, v = traceless_eigh(np.array([0.0]), 0.0)
        assert r[0] == 0.0 and v.dtype == np.float64
        np.testing.assert_array_equal(np.abs(v[0]), [[0.0, 1.0], [1.0, 0.0]])


@st.composite
def interaction_form_cases(draw):
    """h = [[a I, C], [C^dag, -a I]] with a complex C = U S W^dag of size
    1 to 8, a of either sign or 0, and S generic, with an exact zero (a
    zero column of C) or with all its values repeated."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(
        st.sampled_from([0.0, 1e-3, 0.5, 3.0, 20.0]))
    spectrum = draw(st.sampled_from(["generic", "zero", "repeated"]))
    s = (np.full(n, rng.uniform(0.1, 5.0)) if spectrum == "repeated"
         else rng.uniform(0.1, 5.0, n))
    c = (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
    if spectrum == "zero":
        c[:, rng.integers(n)] = 0.0
    ident = np.eye(n)
    return np.block([[a * ident, c], [c.conj().T, -a * ident]])


class TestInteractionEigenbasis:
    @given(interaction_form_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_eigh(self, h):
        prop = SpectralPropagator(h)
        energies, vectors = prop.energies, prop.vectors
        assert interaction_eigh(h) is not None
        assert np.all(np.diff(energies) >= 0)
        np.testing.assert_allclose(energies, np.linalg.eigh(h)[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(h @ vectors, vectors * energies,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(vectors.conj().T @ vectors,
                                   np.eye(len(h)), rtol=0, atol=1e-13)

    def test_real_drive_gives_real_vectors(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=20.0, gamma=1e3,
                         alpha=1.0, dcut=16)
        prop = SpectralPropagator(interaction_hamiltonian(p))
        assert prop.vectors.dtype == np.float64

    def test_other_forms_take_the_dense_eigh(self, small_system):
        # the spectral route's displaced h, an interaction form whose
        # diagonal is off by one ulp, and an odd dimension
        _, h, _ = small_system
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                         alpha=1.0, dcut=4)
        skewed = interaction_hamiltonian(p)
        skewed[5, 5] = np.nextafter(skewed[5, 5], 0.0)
        for other in (h, skewed, np.diag([1.0, 0.0, -1.0])):
            assert interaction_eigh(other) is None


class TestRealArithmetic:
    """A real h is diagonalised and its basis changed in float64; the same
    problem conjugated by a field phase unitary U = I (x) diag(e^{i phi_n})
    is complex, with the same spectrum and the same series, as U commutes
    with every atom operator op (x) I."""

    @pytest.mark.parametrize("factor", [
        milburn_factor, first_order_factor, unitary_factor,
        kick_count_factor])
    def test_real_and_complex_paths_agree(self, factor):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=40.0,
                         alpha=1.0, dcut=16)
        h, psi = effective_hamiltonian_displaced(p), initial_state(p)
        ops = [SIGMA_X, SIGMA_Z, None]
        phase = np.tile(np.exp(1j * np.random.default_rng(3).uniform(
            0.0, 2.0 * np.pi, p.dcut)), 2)

        real = SpectralPropagator(h)
        rotated = SpectralPropagator(phase[:, None] * h * phase.conj())
        assert real.vectors.dtype == np.float64
        assert rotated.vectors.dtype == np.complex128
        times = np.linspace(0.0, 1.5, 7)
        for a, b in zip(
                eigenbasis_series(*real.eigenbasis(psi), ops, times, factor,
                                  p.gamma),
                eigenbasis_series(*rotated.eigenbasis(phase * psi), ops,
                                  times, factor, p.gamma)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


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
        with pytest.raises(FloatingPointError):
            lindblad_first_order_evolve(rho0, h, 20.0, 100.0, 0.5)


class TestRouteInvariants:
    """Trace, Hermiticity and positivity across all decoherence routes."""

    @pytest.mark.parametrize("route", ["poisson", "spectral", "lindblad"])
    def test_density_matrix_invariants(self, small_system, route):
        _, h, rho0 = small_system
        if route == "poisson":
            rho = milburn_poisson_evolve(rho0, h, 1.5, 40.0)
        elif route == "spectral":
            rho = SpectralPropagator(h).evolve(rho0, 1.5, 40.0)
        else:
            dt = 0.01 / np.linalg.norm(h, 2)
            rho = lindblad_first_order_evolve(rho0, h, 1.5, 40.0, dt)
        assert abs(np.trace(rho).real - 1.0) <= 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-8


class TestSpectralExpectationSeries:
    def test_matches_per_point_evolution(self, small_system):
        p, h, rho0 = small_system
        prop = SpectralPropagator(h)
        x_op = atom_field(SIGMA_X, identity_field(p.dcut))
        times = np.linspace(0.0, 3.0, 15)
        fast, = eigenbasis_series(*prop.eigenbasis(initial_state(p)),
                                  [SIGMA_X], times, milburn_factor, 1e3)
        slow = [np.trace(prop.evolve(rho0, t, 1e3) @ x_op).real for t in times]
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
        lambda rho0, h, times, g: [SpectralPropagator(h).evolve(rho0, t, g)
                                   for t in times],
        1e-12),
    "poisson": (
        kick_count_factor,
        lambda rho0, h, times, g: [milburn_poisson_evolve(rho0, h, t, g)
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
        return p, effective_hamiltonian_displaced(p), initial_density(p)

    @pytest.mark.parametrize("route", sorted(KERNEL_ROUTES))
    def test_factor_matches_state_route(self, system, route):
        p, h, rho0 = system
        factor, evolve, tol = KERNEL_ROUTES[route]
        times = np.linspace(0.0, 1.5, 7)
        states = evolve(rho0, h, times, p.gamma)
        basis = SpectralPropagator(h).eigenbasis(initial_state(p))
        for op in (SIGMA_X, SIGMA_Z, None):
            series, = eigenbasis_series(*basis, [op], times, factor, p.gamma)
            reference = [state_expectation(rho, op) for rho in states]
            np.testing.assert_allclose(series.real, reference, rtol=0,
                                       atol=tol)
            assert np.max(np.abs(series.imag)) <= 1e-12

    def test_blocking_does_not_change_the_series(self, system, monkeypatch):
        p, h, _ = system
        basis = SpectralPropagator(h).eigenbasis(initial_state(p))
        times = np.linspace(0.0, 1.5, 7)
        factors = (milburn_factor, kick_count_factor)
        whole = [series for f in factors for series in eigenbasis_series(
            *basis, (SIGMA_X, None), times, f, p.gamma)]
        # blocks of one time row, kick sums in chunks of one kick count
        monkeypatch.setattr(dynamics, "SERIES_BLOCK", 1)
        blocked = [series for f in factors for series in eigenbasis_series(
            *basis, (SIGMA_X, None), times, f, p.gamma)]
        for a, b in zip(whole, blocked):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_dropped_weight_bound(self, system):
        p, h, _ = system
        prop = SpectralPropagator(h)
        psi = initial_state(p)
        amp_e, energies, image = prop.eigenbasis(psi)
        # the pure state's rho_e = c c^dag, c = V^dag psi, and the joint
        # operator's eigenbasis image, both in float64 as h is real
        amp = prop.vectors.T @ psi.real
        prob = amp**2
        x_op = atom_field(SIGMA_X, identity_field(p.dcut)).real
        x_e = prop.vectors.T @ (x_op @ prop.vectors)
        times = np.linspace(0.0, 3.0, 11)
        j, k = np.triu_indices(2 * p.dcut, 1)
        omega = prop.energies[:, None] - prop.energies[None, :]
        cases = ((SIGMA_X, np.outer(amp, amp) * x_e.T,
                  lambda t: milburn_factor(omega, t, p.gamma)),
                 (None, np.outer(prob, prob),
                  lambda t: np.abs(milburn_factor(omega, t, p.gamma)) ** 2))
        for op, weights, factors in cases:
            # folded weights 2 w_jk for j < k; the diagonal is never dropped
            folded = 2.0 * weights[j, k]
            keep, dropped = prune_weights(folded)
            assert 0.0 < dropped <= DROP_BUDGET == 1e-14
            lost = np.delete(folded, keep)
            assert np.sum(np.abs(lost)) == pytest.approx(dropped, rel=1e-12)
            assert block_pair_weights(amp_e, energies, None if op is None
                                      else image(op))[3] == dropped
            # |Re(2 w_jk F)| <= 2 |w_jk| for every factor, so the unpruned
            # sum differs from the kernel by at most the dropped weight
            full = [np.sum(weights * factors(t)) for t in times]
            series, = eigenbasis_series(amp_e, energies, image, [op], times,
                                        milburn_factor, p.gamma)
            assert np.max(np.abs(series - full)) <= dropped + 1e-14


class TestBlockPairWeights:
    """block_pair_weights does not depend on how the eigenbasis is cut
    into blocks: the closed form's 2x2 blocks at a complex drive give the
    weights of the same blocks embedded in one dense block."""

    @pytest.mark.parametrize("atom_op", [SIGMA_X, SIGMA_Z, None])
    def test_closed_form_blocks_as_one_dense_block(self, fig1b, atom_op):
        p = replace(fig1b, epsilon=0.4 + 0.3j)
        _, vectors = np.linalg.eigh(effective_core_blocks(p))
        amp = ((ATOM_STATE @ vectors.conj())
               * np.sqrt(displaced_photon_weights(p))[:, None])
        omega_n = rabi_blocks(p, np.arange(p.dcut))[1]
        energies = np.stack([-omega_n, omega_n], axis=1)
        blocks = (None if atom_op is None else
                  np.swapaxes(vectors.conj(), 1, 2) @ atom_op @ vectors)
        # the dense block in atom-level-major order, s dcut + n, as the
        # joint space orders it
        dense = None
        if atom_op is not None:
            dense = np.zeros((2, p.dcut, 2, p.dcut), dtype=complex)
            n = np.arange(p.dcut)
            dense[:, n, :, n] = blocks
            dense = dense.reshape(1, 2 * p.dcut, 2 * p.dcut)
        by_blocks = block_pair_weights(amp, energies, blocks)
        by_dense = block_pair_weights(amp.T.reshape(1, -1),
                                      energies.T.reshape(1, -1), dense)
        # the same diagonal terms summed in another order
        assert by_blocks[0] == pytest.approx(by_dense[0], rel=0, abs=1e-15)
        for a, b in zip(by_blocks[1:3], by_dense[1:3]):
            np.testing.assert_array_equal(a, b)
        times = np.linspace(0.0, 12.0, 1200)
        series = [milburn_factor.series(weights, omega, times, p.gamma,
                                        atom_op is None) + constant
                  for constant, weights, omega, _ in (by_blocks, by_dense)]
        np.testing.assert_allclose(*series, rtol=0, atol=1e-14)


    def test_purity_pair_budget(self, monkeypatch):
        # ten populated eigenvectors make 45 purity pairs: admitted at a
        # budget of 45, refused at 44 before the pair table is built
        amp = np.zeros((2, 6))
        amp[:, 1:] = np.sqrt(0.1)
        energies = np.arange(12.0).reshape(2, 6)
        monkeypatch.setattr(dynamics, "PAIR_BUDGET", 45)
        assert len(block_pair_weights(amp, energies, None)[1]) == 45
        monkeypatch.setattr(dynamics, "PAIR_BUDGET", 44)
        monkeypatch.setattr(dynamics, "_pair_table", None)
        with pytest.raises(MemoryError, match="10 populated eigenvectors "
                           "needs 45 pairs, more than 44"):
            block_pair_weights(amp, energies, None)


def stable_sort_prune(weights):
    """prune_weights by a stable argsort of the moduli: among equal
    moduli, the lower flat index is dropped first."""
    modulus = np.abs(weights).ravel()
    order = np.argsort(modulus, kind="stable")
    cumulative = np.cumsum(modulus[order])
    n_drop = int(np.searchsorted(cumulative, DROP_BUDGET, side="right"))
    dropped = float(cumulative[n_drop - 1]) if n_drop else 0.0
    return np.sort(order[n_drop:]), dropped


@st.composite
def tied_weights(draw):
    """Up to 200 weights drawn from a few moduli around DROP_BUDGET, zero
    included, so that ties fall at the cut; complex ones take the phases
    +-1 and +-i, which keep each modulus exact, and some arrays are 2-D.
    The weights come from a drawn seed, as drawing each of them costs
    more than the test."""
    levels = draw(st.lists(st.sampled_from(
        [0.0, DROP_BUDGET / 16, DROP_BUDGET / 7, DROP_BUDGET / 4,
         DROP_BUDGET / 3, DROP_BUDGET / 2, DROP_BUDGET, 3 * DROP_BUDGET]),
        min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modulus = rng.choice(levels, n)
    if draw(st.booleans()):
        modulus = modulus * rng.choice([1, -1, 1j, -1j], n)
    if n % 2 == 0 and draw(st.booleans()):
        modulus = modulus.reshape(2, -1)
    return modulus


class TestPruneWeights:
    @given(tied_weights())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_stable_sort(self, weights):
        keep, dropped = prune_weights(weights)
        ref_keep, ref_dropped = stable_sort_prune(weights)
        np.testing.assert_array_equal(keep, ref_keep)
        assert dropped == ref_dropped

    def test_ties_at_the_cut_drop_the_lowest_indices(self):
        # sorted: 0, then four ties at 3e-15 of which three fit the budget
        weights = np.array([5e-15, 3e-15, 3e-15, 0.0, 3e-15, 3e-15, 1.0])
        keep, dropped = prune_weights(weights)
        np.testing.assert_array_equal(keep, [0, 5, 6])
        assert dropped == 3e-15 + 3e-15 + 3e-15


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_atom_operator(rng):
    op = random_hermitian(rng, 2)
    return op / np.linalg.norm(op, 2)


@st.composite
def hermitian_series_cases(draw):
    """A random Hermitian h of dimension 2m <= 12, a pure state psi, a
    unit-norm Hermitian 2x2 atom operator, a gamma and a short time
    grid."""
    dim = 2 * draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(rng, dim) * draw(st.floats(min_value=0.1,
                                                    max_value=10.0))
    psi = random_state(rng, dim)
    op = random_atom_operator(rng)
    gamma = draw(st.floats(min_value=0.5, max_value=1e3))
    times = np.sort(draw(st.lists(st.floats(min_value=0.0, max_value=3.0),
                                  min_size=1, max_size=6, unique=True)))
    return h, psi, op, gamma, times


def direct_kick_sum(omega, t, gamma):
    """Milburn's kick sum sum_m p_m e^{-i m omega/gamma} for each time
    row, term by term over the renormalized window of poisson_window."""
    rows = []
    for ti in np.ravel(t):
        m_lo, m_hi = dynamics.poisson_window(gamma * ti)
        kicks = np.arange(m_lo, m_hi + 1)
        weights = poisson_pmf(kicks, gamma * ti)
        phases = np.multiply.outer(kicks, omega / gamma)
        rows.append(weights / weights.sum() @ np.exp(-1j * phases))
    return np.array(rows)


# each route factor and the complex F(omega, t, gamma) it stands for
FACTORS_AND_DIRECT_SUMS = (
    (milburn_factor, milburn_factor),
    (kick_count_factor, direct_kick_sum),
    (first_order_factor, first_order_factor),
    (unitary_factor, unitary_factor),
)


def assert_matches_unfolded_sum(h, psi, op, gamma, times, factors):
    """The factor's series over block_pair_weights of the pure state psi
    and the atom operator op, and eigenbasis_series, against the plain
    complex sum over all eigenpairs of the density matrix and the joint
    operator op (x) I, within the dropped weight."""
    prop = SpectralPropagator(h)
    amp, energies, image = prop.eigenbasis(psi)
    rho_e = prop.vectors.conj().T @ np.outer(psi, psi.conj()) @ prop.vectors
    op_e = (prop.vectors.conj().T @ np.kron(op, np.eye(len(h) // 2))
            @ prop.vectors)
    omega = (prop.energies[:, None] - prop.energies[None, :]).ravel()
    for factor, direct in factors:
        f = direct(omega, times[:, None], gamma)
        for obs, full in ((op, f @ (rho_e * op_e.T).ravel()),
                          (None, np.abs(f) ** 2 @ np.abs(rho_e).ravel() ** 2)):
            constant, weights, freqs, dropped = block_pair_weights(
                amp, energies, None if obs is None else image(obs))
            series = factor.series(weights, freqs, times, gamma,
                                   obs is None) + constant
            assert series.dtype == float
            assert np.max(np.abs(series - full)) <= dropped + 1e-14
            np.testing.assert_array_equal(eigenbasis_series(
                amp, energies, image, [obs], times, factor, gamma)[0], series)


class TestPhaseGuard:
    """eigenbasis_series refuses an observable whose kept eigenfrequencies
    can lose more than PHASE_TOL of phase to rounding, 2^-52 max|omega|
    max|t|, each observable on its own kept pairs."""

    TIMES = np.array([0.0, 0.5, 1.0])  # max|t| = 1
    BOUND = dynamics.PHASE_TOL * 2.0**52  # the largest max|omega| admitted

    @staticmethod
    def basis(energies):
        """An eigenbasis of 2x2 blocks at these energies, equal amplitudes
        and the identity eigenvectors: image(op) is op in every block."""
        energies = np.array(energies, dtype=float)
        amp = np.full(energies.shape, np.sqrt(1.0 / energies.size))
        return amp, energies, lambda op: np.broadcast_to(
            op, (len(energies), 2, 2))

    @pytest.mark.parametrize("atom_op", [SIGMA_X, None],
                             ids=["sigma_x", "purity"])
    @pytest.mark.parametrize("scale", [1 - 1e-3, 1 + 1e-3])
    def test_bound(self, atom_op, scale):
        # one block of two eigenvectors: both observables keep the pair at
        # omega = -BOUND * scale, just below the bound or just above it
        args = (*self.basis([[0.0, self.BOUND * scale]]), [atom_op],
                self.TIMES, milburn_factor, 1e3)
        if scale > 1:
            with pytest.raises(FloatingPointError, match=re.escape(
                    "eigenfrequencies up to 4.51e+09 at times up to 1 can "
                    "lose 1e-06 rad of phase to rounding, more than 1e-06")):
                eigenbasis_series(*args)
        else:
            series, = eigenbasis_series(*args)
            assert np.all(np.isfinite(series))
            assert series[0] == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_each_observable_takes_its_own_pairs(self):
        # two blocks 2 BOUND apart: sigma_x and sigma_z join only the
        # eigenvectors of one block (omega -1), the purity pairs across
        # blocks (omega up to 2 BOUND + 1)
        top = 2.0 * self.BOUND
        basis = self.basis([[0.0, 1.0], [top, top + 1.0]])
        values = eigenbasis_series(*basis, [SIGMA_X, SIGMA_Z], self.TIMES,
                                   milburn_factor, 1e3)
        assert all(np.all(np.isfinite(v)) for v in values)
        with pytest.raises(FloatingPointError, match=re.escape(
                "eigenfrequencies up to 9.01e+09 at times up to 1 can lose "
                "2e-06 rad")):
            eigenbasis_series(*basis, [SIGMA_X, None], self.TIMES,
                              milburn_factor, 1e3)


class TestFoldedSeries:
    """The Hermitian-folded, real-valued evaluator against the plain
    complex sum over all eigenpairs."""

    @given(hermitian_series_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_unfolded_sum(self, case):
        assert_matches_unfolded_sum(*case, FACTORS_AND_DIRECT_SUMS)

    @pytest.mark.parametrize("series_block", [2**15, 40])
    def test_kick_count_series_with_disjoint_windows(self, monkeypatch,
                                                     series_block):
        # gamma * t = 0, 5000, 10000: the windows [0, 8], [4434, 5566] and
        # [9199, 10801] leave gaps in their union; also in blocks of one
        # row and kick chunks of a few counts
        monkeypatch.setattr(dynamics, "SERIES_BLOCK", series_block)
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        op = random_atom_operator(rng)
        windows = [dynamics.poisson_window(1e4 * t) for t in (0.5, 1.0)]
        assert windows[0][0] > 8 and windows[1][0] > windows[0][1] + 1
        assert_matches_unfolded_sum(h, psi, op, 1e4, np.array([0.0, 0.5, 1.0]),
                                    [(kick_count_factor, direct_kick_sum)])

    @pytest.mark.parametrize("times, overlapping", [
        # the CLI's default gamma near its last time, 12: windows of about
        # 55 000 kick counts near m = 1.2e7, one row per block
        ([11.98, 11.99, 12.0], True),
        # windows of 1600 to 2800 counts near m = 1e4 .. 3e4 with gaps
        # between them: the first two rows' run of 11 934 counts fits the
        # budget and spans their gap, the third row is a block of its own
        ([0.01, 0.02, 0.03], False),
    ])
    def test_kick_count_series_at_the_cli_scale(self, monkeypatch, times,
                                                 overlapping):
        gamma, times = 1e6, np.array(times)
        rng = np.random.default_rng(11)
        weights = (rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)) / 24
        omega = rng.uniform(-10.0, 10.0, 12)
        windows = [dynamics.poisson_window(gamma * t) for t in times]
        gaps = any(lo > hi + 1 for (_, hi), (lo, _) in zip(windows,
                                                           windows[1:]))
        assert gaps != overlapping
        direct = direct_kick_sum(omega, times, gamma)
        taken, rows_per_anchor = [], dynamics.rows_per_anchor
        monkeypatch.setattr(dynamics, "rows_per_anchor", lambda *args: (
            taken.append((len(args[0]), rows_per_anchor(*args)))
            or taken[-1][1]))
        series = kick_count_factor.series(weights, omega, times, gamma,
                                          False) + 0.25
        # every run of g, across gaps or not, is one equispaced run of
        # counts, taken by anchors and offsets, of at most SERIES_BLOCK/2
        # counts or one row's window
        budget = max(dynamics.SERIES_BLOCK // 2,
                     max(hi - lo + 1 for lo, hi in windows))
        assert taken and all(r > 1 and n <= budget for n, r in taken)
        np.testing.assert_allclose(series, 0.25 + (direct @ weights).real,
                                   rtol=0, atol=1e-12)
        # the purity's lags: one run from 0 per block, whatever the gaps
        series = kick_count_factor.series(weights.real, omega, times, gamma,
                                          True) + 0.25
        np.testing.assert_allclose(
            series, 0.25 + np.abs(direct) ** 2 @ weights.real, rtol=0,
            atol=1e-12)

    @pytest.mark.parametrize("squared", [False, True])
    def test_kick_count_series_evaluates_each_count_once(self, monkeypatch,
                                                         squared):
        # an increasing grid of overlapping windows, in blocks of several
        # rows: g (at the kick counts, or at the purity's lags) and ln m!
        # are each evaluated at one run of counts, each count once
        gamma, times = 1e3, np.linspace(0.0, 12.0, 1200)
        windows = np.array([dynamics.poisson_window(gamma * t)
                            for t in times])
        assert np.all(windows[1:, 0] <= windows[:-1, 1] + 1)
        assert dynamics.SERIES_BLOCK // (2 * np.max(np.diff(windows))) > 1
        rng = np.random.default_rng(5)
        weights = rng.uniform(-1, 1, 12) / 24
        omega = rng.uniform(-10.0, 10.0, 12)
        seen = {"g": [], "ln m!": []}
        unitary_series, log_factorial = (dynamics.unitary_factor.series,
                                         fock.log_factorial)

        class UnitarySpy:
            def series(self, weights, omega, times, gamma, squared):
                seen["g"].append(np.array(times))
                return unitary_series(weights, omega, times, gamma, squared)

        def log_factorial_spy(m):
            seen["ln m!"].append(np.ravel(m))
            return log_factorial(m)

        monkeypatch.setattr(dynamics, "unitary_factor", UnitarySpy())
        monkeypatch.setattr(dynamics, "log_factorial", log_factorial_spy)
        monkeypatch.setattr(fock, "log_factorial", log_factorial_spy)
        series = kick_count_factor.series(weights, omega, times, gamma,
                                          squared) + 0.25
        assert np.all(np.isfinite(series))
        g, ln_factorial = (np.concatenate(seen[k]) for k in ("g", "ln m!"))
        if squared:  # the lags 0 .. the widest window's, in one call
            assert len(seen["g"]) == 1
            np.testing.assert_array_equal(
                g, np.arange(np.max(np.diff(windows)) + 1))
        else:
            np.testing.assert_array_equal(
                g, np.arange(windows[0, 0], windows[-1, 1] + 1))
        # ln m! up to the last window's start plus its block's widest
        # window, at or past the last window's top
        assert ln_factorial[-1] >= windows[-1, 1]
        np.testing.assert_array_equal(
            ln_factorial, np.arange(windows[0, 0], ln_factorial[-1] + 1))

    @pytest.mark.parametrize("squared", [False, True])
    def test_kick_count_series_refuses_descending_times(self, squared):
        # the carried runs need windows that only move up: a repeated time
        # is taken, a descending pair refused, with no kept pair too
        rng = np.random.default_rng(3)
        times = np.array([0.0, 0.5, 0.5, 1.0])
        for pairs in (12, 0):
            weights = rng.uniform(-1, 1, pairs) / 24
            omega = rng.uniform(-10.0, 10.0, pairs)
            values = kick_count_factor.series(weights, omega, times, 1e3,
                                              squared)
            assert values[1] == values[2]
            with pytest.raises(ValueError, match="ascending order"):
                kick_count_factor.series(weights, omega, times[::-1], 1e3,
                                         squared)


class TestAnchorOffsetSeries:
    """ExponentialFactor.series on an equispaced grid, where each row's
    factor is an anchor's times an offset's, against the factor
    evaluated row by row."""

    EXPONENTIAL_FACTORS = (milburn_factor, first_order_factor, unitary_factor)

    @staticmethod
    def pairs(rng, count, dyadic=False):
        """count weights (complex, summed modulus <= 1) and frequencies
        in [-10, 10].  Dyadic weights are multiples of 2^-20, so that
        every order of summing them is exact."""
        weights = (rng.uniform(-1, 1, count)
                   + 1j * rng.uniform(-1, 1, count)) / (2 * count)
        if dyadic:
            weights = np.round(weights * 2**20) / 2**20
        return weights, rng.uniform(-10.0, 10.0, count)

    @pytest.mark.parametrize("factor", EXPONENTIAL_FACTORS)
    @pytest.mark.parametrize("n", [2, 3, 17, 24000])
    @pytest.mark.parametrize("t0", [0.0, 0.7])
    def test_matches_row_by_row_sum(self, factor, n, t0):
        rng = np.random.default_rng(n)
        weights, omega = self.pairs(rng, 12)
        times = np.linspace(t0, t0 + 40.0, n)
        r = dynamics.rows_per_anchor(times, len(omega))
        assert r == int(np.ceil(np.sqrt(n))) > 1
        f = factor(omega, times[:, None], 40.0)
        for w, squared, direct in (
                (weights, False, (f * weights).real.sum(axis=1)),
                (weights.real, False, (f * weights.real).real.sum(axis=1)),
                (weights.real, True, (np.abs(f) ** 2 * weights.real).sum(
                    axis=1))):
            series = factor.series(w, omega, times, 40.0, squared) + 0.25
            np.testing.assert_allclose(series, 0.25 + direct, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("factor", EXPONENTIAL_FACTORS)
    @pytest.mark.parametrize("n", [24000, 23999])
    def test_many_pairs_take_many_blocks(self, factor, n):
        # 1267 pairs cap r at SERIES_BLOCK // 1267 = 25 rows per anchor,
        # and a block at SERIES_BLOCK // (2 * 1267) = 12 anchors, so the
        # grid takes 80 blocks; at 23999 rows the last anchor has 24 rows
        rng = np.random.default_rng(n)
        weights, omega = self.pairs(rng, 1267)
        times = np.linspace(0.0, 40.0, n)
        assert dynamics.rows_per_anchor(times, len(omega)) == 25
        # every 13th row and the last 25: 13 is prime to 25 and to the 300
        # rows of a block, so the rows checked meet every offset and every
        # place in a block
        rows = np.union1d(np.arange(0, n, 13), np.arange(n - 25, n))
        f = factor(omega, times[rows, None], 40.0)
        for w, squared, direct in (
                (weights, False, (f * weights).real.sum(axis=1)),
                (weights.real, False, (f * weights.real).real.sum(axis=1)),
                (weights.real, True, (np.abs(f) ** 2 * weights.real).sum(
                    axis=1))):
            series = factor.series(w, omega, times, 40.0, squared) + 0.25
            np.testing.assert_allclose(series[rows], 0.25 + direct, rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("factor", EXPONENTIAL_FACTORS)
    def test_other_grids_take_one_row_per_anchor(self, factor):
        rng = np.random.default_rng(5)
        weights, omega = self.pairs(rng, 12)
        times = np.linspace(0.0, 40.0, 17)
        times[5] += 1e-3
        assert dynamics.rows_per_anchor(times, len(omega)) == 1
        assert dynamics.rows_per_anchor(np.array([3.0]), len(omega)) == 1
        f = factor(omega, times[:, None], 40.0)
        np.testing.assert_allclose(
            factor.series(weights, omega, times, 40.0, False),
            (f * weights).real.sum(axis=1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factor", EXPONENTIAL_FACTORS)
    @pytest.mark.parametrize("n", [2, 3, 17, 24000])
    def test_zero_time_row_is_exact(self, factor, n):
        # F(0) = 1 exactly, anchor and offset alike, so the t = 0 row is
        # the constant plus the real parts of the weights, bit for bit
        rng = np.random.default_rng(n)
        times = np.linspace(0.0, 40.0, n)
        for count in (1, 12, 40):
            weights, omega = self.pairs(rng, count, dyadic=count > 1)
            for w, squared in ((weights, False), (weights.real, False),
                               (weights.real, True)):
                series = factor.series(w, omega, times, 40.0,
                                       squared) + 0.25
                assert series[0] == 0.25 + weights.real.sum()

    @pytest.mark.parametrize("factor", EXPONENTIAL_FACTORS
                             + (kick_count_factor,))
    @pytest.mark.parametrize("squared", [False, True])
    def test_no_kept_pairs_gives_the_constant(self, monkeypatch, factor,
                                              squared):
        # the kick sum returns before it weighs any window
        def unreachable(*args, **kwargs):
            raise AssertionError("a Poisson window was weighed")

        monkeypatch.setattr(dynamics, "poisson_pmf", unreachable)
        times = np.linspace(0.0, 48.0, 24000)
        series = factor.series(np.zeros(0, dtype=complex), np.zeros(0),
                               times, 40.0, squared) + 0.25
        np.testing.assert_array_equal(series, np.full(24000, 0.25))

    def test_sigma_z_without_drive_keeps_no_pair(self):
        # sigma_z commutes with the undriven core: every pair weight is 0
        p = SystemParams(lam=1.0, epsilon=0.0, delta=20.0, gamma=1e3,
                         alpha=2.5, dcut=64)
        series = closed_form_series(p, SIGMA_Z, np.linspace(0.0, 48.0, 24000))
        np.testing.assert_array_equal(series, np.zeros(24000))
