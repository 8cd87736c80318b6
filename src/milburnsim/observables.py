"""Atomic observables: the closed-form series, state-based
expectations, and collapse/revival metrics."""

import numpy as np

from .fock import (
    SIGMA_X,
    atom_field,
    coherent_state,
    density_from_state,
    expectation,
    identity_field,
)
from .hamiltonians import (
    displaced_photon_weights, effective_core_blocks, rabi_blocks)
from .params import SystemParams, warn_if_not_dispersive
from .dynamics import eigenbasis_series, milburn_factor
from dataclasses import dataclass

ATOM_STATE = np.ones(2, dtype=complex) / np.sqrt(2.0)  # (|e> + |g>)/sqrt(2)


@dataclass(frozen=True)
class RevivalMetrics:
    collapse_floor: float
    revival_peak: float
    revival_time: float


def initial_state(p: SystemParams):
    """Joint initial state vector: atom in ATOM_STATE, field coherent."""
    return np.kron(ATOM_STATE, coherent_state(p.alpha, p.dcut))


def initial_density(p: SystemParams):
    """The density matrix of initial_state, for the state-level routes."""
    return density_from_state(initial_state(p))


def block_eigenbasis(p: SystemParams):
    """The state's eigenbasis in the blocks h_n of the displaced frame, for
    eigenbasis_series: there the field is |alpha - beta> at every time and
    an atom_op (x) I commutes with D(beta).  In the eigenbasis V_n of h_n
    (a batched 2x2 eigh) the amplitudes are sqrt(p_n) V_n^dag ATOM_STATE,
    p_n = displaced_photon_weights, and image(atom_op) is the blocks
    V_n^dag atom_op V_n.  p_n ends at the last nonzero weight, so the cost
    follows the state, not the cutoff."""
    warn_if_not_dispersive(p)
    p_n = displaced_photon_weights(p)
    _, vectors = np.linalg.eigh(effective_core_blocks(p, len(p_n)))
    # eigh orders eigenvectors s = 0, 1 of block n as (-Omega_n, Omega_n),
    # which rabi_blocks gives to half an ulp, keeping long runs in phase
    amp = (ATOM_STATE @ vectors.conj()) * np.sqrt(p_n)[:, None]
    omega_n = rabi_blocks(p, np.arange(len(p_n)))[1]
    return (amp, np.stack([-omega_n, omega_n], axis=1),
            lambda op: np.swapaxes(vectors.conj(), 1, 2) @ op @ vectors)


def closed_form_series(p: SystemParams, atom_op, t):
    """Tr(rho(t) atom_op (x) I) under Milburn's equation (``atom_op=None``:
    purity), vectorized over t, from block_eigenbasis."""
    t = np.asarray(t, dtype=float)
    values, = eigenbasis_series(*block_eigenbasis(p), [atom_op],
                                np.atleast_1d(t), milburn_factor, p.gamma)
    return float(values[0]) if t.ndim == 0 else values


def sigma_x_closed_form(p: SystemParams, t):
    """Closed-form atomic polarization <sigma_x>(t)."""
    return closed_form_series(p, SIGMA_X, t)


def state_expectation(rho, atom_op):
    """Tr(rho atom_op (x) I) of a joint density matrix, ``atom_op=None``:
    the purity Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    if atom_op is None:
        return float(np.trace(rho @ rho).real)
    op = atom_field(atom_op, identity_field(len(rho) // 2))
    return float(expectation(rho, op).real)


def revival_metrics(times, values, collapse_window, revival_window):
    """Max |value| over the collapse window, max |value| and its location
    over the revival window.  Windows are (t_lo, t_hi) inclusive."""
    times = np.asarray(times, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))

    def window_mask(lo, hi):
        mask = (times >= lo) & (times <= hi)
        if not np.any(mask):
            raise ValueError(f"window [{lo}, {hi}] contains no samples")
        return mask

    c_mask = window_mask(*collapse_window)
    r_mask = window_mask(*revival_window)
    r_idx = np.flatnonzero(r_mask)
    peak_idx = r_idx[np.argmax(values[r_idx])]
    return RevivalMetrics(
        collapse_floor=float(values[c_mask].max()),
        revival_peak=float(values[peak_idx]),
        revival_time=float(times[peak_idx]),
    )
