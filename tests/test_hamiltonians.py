import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milburnsim.dynamics import (
    SpectralPropagator, block_propagators, eigenbasis_series, milburn_factor)
from milburnsim.fock import (
    SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, CutoffTooSmallError,
    atom_field, displacement, identity_field, matrix_exponential, number)
from milburnsim.hamiltonians import (
    compare_operators,
    displaced_blocks,
    effective_core_blocks,
    effective_hamiltonian,
    effective_hamiltonian_displaced,
    interaction_hamiltonian,
    small_rotation_exact,
    small_rotation_first_order,
)
from milburnsim.observables import initial_state, sigma_x_closed_form
from milburnsim.params import (
    DispersiveValidityWarning,
    SystemParams,
    derived_params,
)


class TestDerivedParams:
    def test_reference_couplings(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3)
        d = derived_params(p)
        assert d.eta == -0.5
        assert d.chi == -1.0
        assert d.beta == 0.5
        assert d.delta_tilde == 2.25

    def test_no_drive_keeps_detuning(self):
        p = SystemParams(lam=1.3, epsilon=0.0, delta=-3.0, gamma=10.0)
        assert derived_params(p).delta_tilde == -3.0

    def test_beta_independent_of_drive(self):
        d0 = derived_params(SystemParams(lam=1.0, epsilon=0.0, delta=2.0,
                                         gamma=1.0))
        d1 = derived_params(SystemParams(lam=1.0, epsilon=0.5, delta=2.0,
                                         gamma=1.0))
        assert d0.beta == d1.beta == 0.5

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_beta_is_half_inverse_coupling(self, lam, delta, eps):
        d = derived_params(SystemParams(lam=lam, epsilon=eps, delta=delta,
                                        gamma=1.0))
        assert abs(d.beta - 1.0 / (2.0 * lam)) <= 1e-12

    @given(st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_covariance(self, lam, delta, s):
        d1 = derived_params(SystemParams(lam=lam, delta=delta, gamma=1.0))
        d2 = derived_params(SystemParams(lam=s * lam, delta=s * delta,
                                         gamma=1.0))
        assert abs(d2.chi - s * d1.chi) <= 1e-12 * max(1.0, abs(s * d1.chi))
        assert abs(d2.eta - d1.eta) <= 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SystemParams(lam=0.0)
        with pytest.raises(ValueError):
            SystemParams(delta=0.0)
        with pytest.raises(ValueError):
            SystemParams(gamma=0.0)
        # finite inputs whose derived parameters are not: chi underflows to
        # -0.0, a square overflows, or eta and chi overflow and beta is nan
        for field, value in [("lam", 1e-200), ("lam", 1e200),
                             ("epsilon", 1e160), ("alpha", 1e200),
                             ("delta", 1e-310)]:
            with pytest.raises(ValueError):
                SystemParams(**{field: value})

    def test_dispersive_warning(self):
        from milburnsim.params import warn_if_not_dispersive

        with pytest.warns(DispersiveValidityWarning):
            warn_if_not_dispersive(SystemParams(lam=1.0, delta=2.0))


class TestInteractionHamiltonian:
    def test_decoupled_limit_eigenvalues(self):
        # vanishing coupling: only the detuning term survives
        p = SystemParams(lam=1e-12, epsilon=0.0, delta=2.0, gamma=1.0, dcut=6)
        evals = np.sort(np.linalg.eigvalsh(interaction_hamiltonian(p)))
        expected = np.sort([-1.0] * 6 + [1.0] * 6)
        np.testing.assert_allclose(evals, expected, atol=1e-11)

    def test_hermiticity(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1.0, dcut=8)
        h = interaction_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_single_excitation_coupling(self):
        p = SystemParams(lam=1.7, epsilon=0.0, delta=2.0, gamma=1.0, dcut=8)
        h = interaction_hamiltonian(p)
        # <e,0| H |g,1> in atom-major indexing
        assert h[0, 8 + 1] == pytest.approx(1.7)

    def test_selection_rule_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0, dcut=10)
        h = interaction_hamiltonian(p)
        eg_block = h[:10, 10:]
        for n in range(10):
            for m in range(10):
                if m != n + 1:
                    assert eg_block[n, m] == 0.0


class TestEffectiveHamiltonian:
    def test_block_diagonal_eigenvalues_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0, dcut=8)
        h = effective_hamiltonian(p)
        shift = 2.0 * p.lam**2 / p.delta
        expected = np.sort(np.concatenate(
            [[-(shift * (2 * n + 1) + 1.0), shift * (2 * n + 1) + 1.0]
             for n in range(8)], axis=0))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(h)), expected,
                                   atol=1e-12)

    def test_vacuum_sigma_z_coefficient(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0, dcut=4)
        h = effective_hamiltonian(p)
        assert h[0, 0] == pytest.approx(2.0)   # |e,0>
        assert h[4, 4] == pytest.approx(-2.0)  # |g,0>

    def test_hermiticity(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3, dcut=16)
        h = effective_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


def core_operator(p):
    """The undisplaced core sz [chi N + delta_tilde] + eps s+ + eps* s-,
    summed from atom_field products."""
    d = derived_params(p)
    ident = identity_field(p.dcut)
    return (atom_field(SIGMA_Z, d.chi * number(p.dcut) + d.delta_tilde * ident)
            + p.epsilon * atom_field(SIGMA_PLUS, ident)
            + np.conjugate(p.epsilon) * atom_field(SIGMA_MINUS, ident))


def displaced_joint(p, core):
    """(I (x) D(beta)) core (I (x) D^dag(beta)) as a joint product."""
    disp = atom_field(np.eye(2), displacement(derived_params(p).beta, p.dcut))
    return disp @ core @ disp.conj().T


class TestDisplacedForm:
    def test_core_is_displaced_form_at_zero_displacement(self):
        # the inner core is exactly what the displacement conjugates
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1.0, dcut=16)
        blocks = effective_core_blocks(p)
        assert np.max(np.abs(blocks - np.swapaxes(blocks, 1, 2).conj())) \
            <= 1e-12
        d = derived_params(p)
        assert blocks[3, 0, 0] == pytest.approx(d.chi * 3 + d.delta_tilde)

    def test_core_diagonal_without_drive(self):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=2.0, gamma=1.0, dcut=8)
        blocks = effective_core_blocks(p)
        d = derived_params(p)
        detuned = d.chi * np.arange(8) + d.delta_tilde
        np.testing.assert_allclose(
            blocks, detuned[:, None, None] * SIGMA_Z, atol=1e-14)

    def test_core_is_assembled_from_its_blocks(self):
        # the block stack against the operator form, at a complex drive:
        # blocks[n, s, r] at (s dcut + n, r dcut + n), zero off the blocks
        p = SystemParams(lam=1.0, epsilon=0.5 + 0.3j, delta=2.0, gamma=1.0,
                         dcut=8)
        joint = core_operator(p).reshape(2, 8, 2, 8)
        blocks = effective_core_blocks(p)
        assert blocks.shape == (8, 2, 2)
        n = np.arange(8)
        np.testing.assert_array_equal(joint[:, n, :, n], blocks)
        joint[:, n, :, n] = 0.0
        assert not joint.any()

    def test_displacement_preserves_spectrum(self, fig1b):
        hd = effective_hamiltonian_displaced(fig1b)
        ed = np.sort(np.linalg.eigvalsh(0.5 * (hd + hd.conj().T)))
        ec = np.sort(np.linalg.eigvalsh(core_operator(fig1b)))
        assert np.max(np.abs(ed[:40] - ec[:40])) <= 1e-8

    @pytest.mark.parametrize("epsilon", [0.5, 0.4 + 0.3j, 0.0])
    def test_field_factor_form_matches_joint_product(self, epsilon):
        # the atom blocks of field products against the joint product
        # (I (x) D) blockdiag(h_n) (I (x) D^dag)
        p = SystemParams(lam=1.0, epsilon=epsilon, delta=2.0, gamma=1e3,
                         alpha=1.0, dcut=16)
        joint = displaced_joint(p, core_operator(p))
        h = effective_hamiltonian_displaced(p)
        np.testing.assert_allclose(h, 0.5 * (joint + joint.conj().T),
                                   rtol=0, atol=1e-14)
        assert h.dtype == (complex if np.imag(epsilon) else float)

    @pytest.mark.parametrize("epsilon", [0.5, 0.4 + 0.3j, 0.0])
    def test_displaced_propagator_blocks_match_joint_product(self, epsilon):
        # complex blocks: the same four field products as the Hamiltonian
        p = SystemParams(lam=1.0, epsilon=epsilon, delta=2.0, gamma=1e3,
                         alpha=1.0, dcut=16)
        u = displaced_blocks(p, block_propagators(0.7, p))
        joint = displaced_joint(
            p, matrix_exponential(-0.7j * core_operator(p)))
        np.testing.assert_allclose(u, joint, rtol=0, atol=1e-13)
        assert u.dtype == complex

    def test_displaced_blocks_refuse_the_cutoff(self):
        # beta = 5: |alpha - beta> (mean 56.25) does not fit cutoff 64
        p = SystemParams(lam=0.1, epsilon=0.5, delta=2.0, gamma=1e3,
                         alpha=-2.5, dcut=64)
        with pytest.raises(CutoffTooSmallError,
                           match="alpha = -2.5, beta = 5"):
            displaced_blocks(p, block_propagators(0.7, p))

    def test_hermiticity(self, fig1b):
        # exactly: callers use it without taking the Hermitian part
        h = effective_hamiltonian_displaced(fig1b)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


class TestExactRewriting:
    """The expanded form is exactly a displaced core, but not the routes'
    one: completing the square gives the coefficient +4 lam^2/delta and
    b = -eps/(2 lam), where the routes use chi = -2 lam^2/delta and an
    eps-independent beta."""

    @pytest.mark.parametrize("epsilon, delta", [
        (0.5, 2.0), (0.5 + 0.3j, 20.0), (0.0, 2.0)])
    def test_expanded_form_is_a_displaced_core(self, epsilon, delta):
        p = SystemParams(lam=1.0, epsilon=epsilon, delta=delta, gamma=1e3,
                         alpha=1.0, dcut=16)
        ident = identity_field(16)
        shift = 4.0 * p.lam**2 / p.delta
        constant = (2.0 * p.lam**2 / p.delta + 0.5 * p.delta
                    - abs(epsilon) ** 2 / p.delta)
        core = (atom_field(SIGMA_Z, shift * number(16) + constant * ident)
                + epsilon * atom_field(SIGMA_PLUS, ident)
                + np.conjugate(epsilon) * atom_field(SIGMA_MINUS, ident))
        b = -epsilon / (2.0 * p.lam)
        disp = atom_field(np.eye(2), displacement(b, 16))
        rewritten = disp @ core @ disp.conj().T
        assert compare_operators(effective_hamiltonian(p), rewritten,
                                 8) <= 1e-12

    @pytest.mark.parametrize("delta", [2.0, 20.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.5 + 0.3j])
    def test_routes_displacement_ignores_the_drive(self, epsilon, delta):
        p = SystemParams(lam=1.0, epsilon=epsilon, delta=delta, gamma=1e3)
        assert derived_params(p).beta == 1.0 / (2.0 * p.lam)


    # the unitary limit at eps = 0, where the full Hamiltonian (the
    # full-oracle route) revives at about twice the time of the displaced
    # core that every dispersive route evolves
    @pytest.mark.parametrize("delta, anchor", [(20.0, 2.05), (40.0, 2.01)])
    def test_revival_ratio_of_full_hamiltonian_to_displaced_core(
            self, delta, anchor):
        p = SystemParams(lam=1.0, epsilon=0.0, delta=delta, gamma=1e12,
                         alpha=2.5, dcut=64)
        unit = math.pi / abs(derived_params(p).chi)
        # 100 samples per unit time: about 15 per period of sigma_x's
        # oscillation at about delta, up to delta = 40
        times = np.linspace(0.0, 2.4 * unit, int(240 * unit))

        def revival(values):
            # the first |sigma_x| > 0.5 after 0.3 pi/|chi|, then the peak
            # of that revival: the largest |sigma_x| within 0.3 pi/|chi|
            # after it, past the fast oscillation's own local peaks
            a = np.abs(values)
            first = times[np.flatnonzero((times > 0.3 * unit) & (a > 0.5))[0]]
            lobe = (times >= first) & (times <= first + 0.3 * unit)
            return times[np.argmax(np.where(lobe, a, -1.0))] / unit

        prop = SpectralPropagator(interaction_hamiltonian(p))
        full, = eigenbasis_series(*prop.eigenbasis(initial_state(p)),
                                  [SIGMA_X], times, milburn_factor, p.gamma)
        core = revival(sigma_x_closed_form(p, times))
        assert core == pytest.approx(1.0, abs=0.01)
        assert revival(full) / core == pytest.approx(anchor, abs=0.03)


class TestSmallRotation:
    def _h_int(self, dcut=16):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                         alpha=2.5, dcut=dcut)
        return p, interaction_hamiltonian(p)

    def test_zero_angle_is_identity(self):
        _, h = self._h_int()
        np.testing.assert_allclose(small_rotation_exact(h, 0.0), h)
        np.testing.assert_allclose(small_rotation_first_order(h, 0.0), h)

    def test_rotation_is_unitary(self):
        from milburnsim.fock import matrix_exponential
        from milburnsim.hamiltonians import _rotation_generator

        r = matrix_exponential(-0.5 * _rotation_generator(32))
        gap = r.conj().T @ r - np.eye(64)
        assert np.max(np.abs(gap)) <= 1e-10

    def test_trace_invariance(self):
        _, h = self._h_int()
        assert abs(np.trace(small_rotation_exact(h, -0.5))
                   - np.trace(h)) <= 1e-9

    def test_identity_commutes(self):
        out = small_rotation_first_order(np.eye(32, dtype=complex), 0.3)
        np.testing.assert_allclose(out, np.eye(32), atol=1e-14)

    def test_first_order_error_is_second_order(self):
        _, h = self._h_int()
        gaps = {}
        for eta in (0.1, 0.05):
            diff = small_rotation_exact(h, eta) \
                - small_rotation_first_order(h, eta)
            gaps[eta] = np.linalg.norm(diff, 2)
        assert 3.5 <= gaps[0.1] / gaps[0.05] <= 4.5

    def test_spectrum_preserved_away_from_edge(self):
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3, dcut=32)
        h = interaction_hamiltonian(p)
        hr = small_rotation_exact(h, -0.5)
        e1 = np.sort(np.linalg.eigvalsh(h))
        e2 = np.sort(np.linalg.eigvalsh(0.5 * (hr + hr.conj().T)))
        assert np.max(np.abs(e1[:40] - e2[:40])) <= 1e-8


class TestCompareOperators:
    def test_equal_operators(self):
        m = np.arange(16.0).reshape(4, 4)
        assert compare_operators(m, m, 3) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_operators(np.eye(4), np.eye(6), 2)

    def test_first_order_accuracy_bound(self):
        # measured gap at eta = -0.1 on the low-photon-number corner;
        # the full truncated block reaches ~0.58
        p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3, dcut=16)
        h = interaction_hamiltonian(p)
        gap = compare_operators(small_rotation_exact(h, -0.1),
                                small_rotation_first_order(h, -0.1), 8)
        assert gap <= 0.25
