import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milburnsim.fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    CutoffTooSmallError,
    annihilation,
    atom_field,
    coherent_state,
    creation,
    density_from_state,
    displacement,
    expectation,
    identity_field,
    log_factorial,
    matrix_exponential,
    number,
    photon_weights,
    poisson_pmf,
)
from milburnsim.dynamics import (
    POISSON_MAX_TERMS, poisson_window)


class TestLadderOperators:
    def test_annihilation_entries(self):
        a = annihilation(3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2.0)
        np.testing.assert_allclose(a, expected)

    def test_vacuum_annihilation(self):
        a = annihilation(5)
        vac = np.zeros(5)
        vac[0] = 1.0
        np.testing.assert_allclose(a @ vac, 0.0)

    def test_adag_a_equals_number_below_corner(self):
        dcut = 6
        a = annihilation(dcut)
        n_from_ladder = a.conj().T @ a
        np.testing.assert_allclose(n_from_ladder, number(dcut), atol=1e-14)

    def test_truncated_corner_value(self):
        dcut = 6
        a = annihilation(dcut)
        assert (a.conj().T @ a)[dcut - 1, dcut - 1].real == pytest.approx(
            dcut - 1)

    def test_number_diag(self):
        np.testing.assert_allclose(number(2), np.diag([0.0, 1.0]))

    def test_number_trace(self):
        dcut = 9
        assert np.trace(number(dcut)).real == dcut * (dcut - 1) / 2

    @pytest.mark.parametrize("bad", [0, 1, -3])
    def test_rejects_small_cutoff(self, bad):
        with pytest.raises(ValueError):
            annihilation(bad)
        with pytest.raises(ValueError):
            number(bad)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_commutator_identity_below_corner(self, dcut):
        a = annihilation(dcut)
        comm = a @ a.conj().T - a.conj().T @ a
        np.testing.assert_allclose(comm[: dcut - 1, : dcut - 1],
                                   np.eye(dcut - 1), atol=1e-12)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        np.testing.assert_allclose(displacement(0.0, 8), np.eye(8), atol=1e-14)

    def test_displaced_vacuum_is_coherent_state(self):
        dcut = 32
        vac = np.zeros(dcut)
        vac[0] = 1.0
        np.testing.assert_allclose(displacement(0.5, dcut) @ vac,
                                   coherent_state(0.5, dcut), atol=1e-10)

    def test_unitarity_away_from_edge(self):
        dcut = 64
        d = displacement(0.5, dcut)
        gap = d.conj().T @ d - np.eye(dcut)
        assert np.max(np.abs(gap[:16, :16])) <= 1e-10

    # a negative beta and a complex one in each quadrant take phases
    # c^n = (i e^{i arg beta})^n other than i^n; the last case is a
    # displacement far beyond what its cutoff holds: still the exact,
    # unitary exponential of the truncated generator
    @pytest.mark.parametrize("beta, dcut", [
        *((beta, dcut) for dcut in (16, 64, 256)
          for beta in (0.1, 1.25, 0.5 + 0.3j, -0.7, -0.2 - 0.6j, 0.3 - 0.4j,
                       -0.6 + 0.5j)),
        (3.0, 8)])
    def test_matches_pade_exponential(self, dcut, beta):
        from scipy.linalg import expm

        a = annihilation(dcut)
        d = displacement(beta, dcut)
        oracle = expm(beta * a.conj().T - np.conjugate(beta) * a)
        assert np.max(np.abs(d - oracle)) <= 1e-13
        assert np.max(np.abs(d.conj().T @ d - np.eye(dcut))) <= 1e-13
        assert d.dtype == (complex if isinstance(beta, complex) else float)


class TestCoherentState:
    def test_vacuum(self):
        psi = coherent_state(0.0, 4)
        np.testing.assert_allclose(psi, [1, 0, 0, 0])

    def test_prenormalization_norm(self):
        # rebuild the raw Poisson amplitudes and check the retained mass
        alpha, dcut = 2.5, 64
        n = np.arange(dcut)
        from scipy.special import gammaln

        log_w = -abs(alpha) ** 2 + 2 * n * np.log(abs(alpha)) - gammaln(n + 1)
        assert np.exp(log_w).sum() >= 1 - 1e-12

    def test_mean_photon_number(self):
        alpha, dcut = 2.5, 64
        psi = coherent_state(alpha, dcut)
        mean = (psi.conj() @ number(dcut) @ psi).real
        assert abs(mean - abs(alpha) ** 2) <= 1e-9

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            coherent_state(2.5, 8)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"),
                                       complex(1.0, float("nan"))])
    def test_rejects_non_finite_amplitude(self, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            coherent_state(alpha, 4)

    @pytest.mark.parametrize("mean, dcut", [(1e6, 2_000_000),
                                            (3e4, 100_000)])
    def test_tail_is_the_mass_past_the_cutoff(self, mean, dcut):
        # 1 - sum p_n reads 5.5e-10 and 1.4e-11 here, the rounding of the
        # bulk's weights; the mass past these cutoffs underflows to 0
        weights = photon_weights(mean, dcut)
        assert len(weights) < dcut and weights[-1] > 0
        assert abs(weights.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("mean, dcut", [(9.0, 36), (9.0, 37),
                                            (1e6, 1_005_000)])
    def test_refused_tail_is_the_mass_past_the_cutoff(self, mean, dcut):
        # scipy.stats.poisson.sf: 9.850e-12, 2.376e-12 and 2.934e-7, where
        # 1 - sum p_n read 9.848e-12, 2.374e-12 and 2.940e-7
        from scipy.stats import poisson

        with pytest.raises(CutoffTooSmallError, match="^" + re.escape(
                f"a coherent state of mean photon number {mean:.6g} leaves "
                f"tail mass {poisson.sf(dcut - 1, mean):.3e} beyond cutoff "
                f"{dcut}; increase the cutoff") + "$"):
            photon_weights(mean, dcut)

    def test_tail_under_its_bound_is_summed(self):
        # at mean 8.2842 the mass at n >= 36 is 9.95e-13, under the
        # tolerance, while the bound weights[-1] q/(1 - q) reads 1.005e-12
        assert len(photon_weights(8.2842, 36)) == 36

    @given(st.floats(min_value=0.1, max_value=2.5),
           st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=25, deadline=None)
    def test_poisson_photon_distribution(self, mod, phase):
        alpha = mod * np.exp(1j * phase)
        dcut = 48
        psi = coherent_state(alpha, dcut)
        n = np.arange(dcut)
        from scipy.stats import poisson

        np.testing.assert_allclose(np.abs(psi) ** 2,
                                   poisson.pmf(n, mod**2), atol=1e-12)


class TestPoisson:
    def test_log_factorial_matches_gammaln(self):
        from scipy.special import gammaln

        # up to the largest kick count that a Poisson window may hold,
        # about 3.91e7: its half-width 8 sqrt(mean + 1) is at most half
        half = (POISSON_MAX_TERMS - 1) / 2
        top = math.ceil((half / 8) ** 2 - 1 + half)
        with pytest.raises(MemoryError):
            poisson_window((half / 8) ** 2)
        m = np.unique(np.r_[np.arange(5001), [63, 64, 65],
                            np.geomspace(1, top, 400).astype(np.int64),
                            np.arange(top - 1000, top + 1)])
        exact = gammaln(m + 1.0)
        gap = np.abs(log_factorial(m) - exact)
        assert np.all(gap <= 4 * np.spacing(exact))

    @pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 2.67, 50.0, 100.0, 1e4])
    def test_pmf_matches_scipy_over_window(self, mean):
        # mean 0 must not evaluate log(0): no warning may be raised
        from scipy.stats import poisson

        m_lo, m_hi = poisson_window(mean)
        m = np.arange(m_lo, m_hi + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = poisson_pmf(m, mean)
        assert np.max(np.abs(p - poisson.pmf(m, mean))) <= 1e-13

    def test_pmf_broadcasts_a_column_of_means(self):
        # each row as its scalar mean gives it, 0^0 = 1 in the mean-0 row
        means = np.array([0.0, 1e-3, 2.67, 50.0, 1e4])
        m = np.arange(9990, 10010) - np.array([[9990], [9990], [9990],
                                                [9950], [0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = poisson_pmf(m, means[:, None])
        for row, kicks, mean in zip(p, m, means):
            np.testing.assert_array_equal(row, poisson_pmf(kicks, mean))
        np.testing.assert_array_equal(p[0], np.eye(len(p[0]))[0])
        assert poisson_pmf(2, means[2]) == p[2, 2]
        # overlapping windows, as the kick-count series passes them, with
        # ln m! gathered from one run of counts, as it passes that: the
        # same values row by row
        kicks = np.arange(9990, 10010) + np.array([[0], [3], [5]])
        means = np.array([9990.0, 1e4, 10012.5])
        run = log_factorial(np.arange(9990, 10015))
        p = poisson_pmf(kicks, means[:, None], log_factorials=run[kicks - 9990])
        np.testing.assert_array_equal(p, poisson_pmf(kicks, means[:, None]))
        for row, window, mean in zip(p, kicks, means):
            np.testing.assert_array_equal(row, poisson_pmf(window, mean))


class TestJointOperators:
    def test_identity_tensor(self):
        np.testing.assert_allclose(
            atom_field(np.eye(2), identity_field(5)), np.eye(10))

    def test_sigma_z_block_structure(self):
        joint = atom_field(SIGMA_Z, identity_field(3))
        np.testing.assert_allclose(np.diag(joint).real, [1, 1, 1, -1, -1, -1])

    def test_coupling_term_hermitian(self):
        a = annihilation(6)
        h = atom_field(SIGMA_PLUS, a) + atom_field(SIGMA_MINUS, a.conj().T)
        np.testing.assert_allclose(h, h.conj().T)

    def test_rejects_bad_atom_shape(self):
        with pytest.raises(ValueError):
            atom_field(np.eye(3), identity_field(4))


class TestMatrixExponential:
    def test_zero(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((4, 4))),
                                   np.eye(4))

    def test_diagonal_case(self):
        theta = 0.7
        out = matrix_exponential(1j * theta * SIGMA_Z)
        np.testing.assert_allclose(
            out, np.diag([np.exp(1j * theta), np.exp(-1j * theta)]),
            atol=1e-14)

    def test_hermitian_matches_eigendecomposition(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = 0.5 * (m + m.conj().T)
        w, v = np.linalg.eigh(h)
        oracle = v @ np.diag(np.exp(-1j * w * 0.9)) @ v.conj().T
        np.testing.assert_allclose(matrix_exponential(-1j * 0.9 * h), oracle,
                                   atol=1e-11)

    def test_rejects_nonfinite(self):
        m = np.zeros((2, 2))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(m)

    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_skew_hermitian_gives_unitary(self, dim, scale):
        rng = np.random.default_rng(dim * 1000 + int(scale * 10))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        skew = 0.5 * (m - m.conj().T)
        skew *= scale / max(np.linalg.norm(skew, 2), 1e-12)
        u = matrix_exponential(skew)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10


class TestExpectation:
    def test_initial_superposition_sigma_x(self):
        dcut = 16
        field = coherent_state(1.0, dcut)
        atom = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = density_from_state(np.kron(atom, field))
        val = expectation(rho, atom_field(SIGMA_X, identity_field(dcut)))
        assert abs(val - 1.0) <= 1e-12

    def test_trace_normalization(self):
        dcut = 16
        psi = np.kron([0.6, 0.8], coherent_state(0.5, dcut))
        rho = density_from_state(psi)
        assert abs(expectation(rho, np.eye(2 * dcut)) - 1.0) <= 1e-12

    def test_excited_state_inversion(self):
        dcut = 16
        psi = np.kron([1.0, 0.0], coherent_state(1.0, dcut))
        val = expectation(psi, atom_field(SIGMA_Z, identity_field(dcut)))
        assert abs(val - 1.0) <= 1e-12

    def test_hermitian_expectation_is_real(self, rng):
        dcut = 8
        psi = rng.normal(size=2 * dcut) + 1j * rng.normal(size=2 * dcut)
        psi /= np.linalg.norm(psi)
        m = rng.normal(size=(2 * dcut, 2 * dcut))
        h = 0.5 * (m + m.T)
        assert abs(expectation(psi, h).imag) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.zeros(4), np.eye(6))
