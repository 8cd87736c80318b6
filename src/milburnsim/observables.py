"""Atomic observables: the closed-form polarization series, state-based
expectations, and collapse/revival metrics."""

import numpy as np

from .fock import (
    SIGMA_X,
    SIGMA_Z,
    atom_field,
    coherent_state,
    density_from_state,
    expectation,
    identity_field,
    photon_weights,
)
from .params import SystemParams, derived_params, warn_if_not_dispersive
from .dynamics import (
    TimeSeries, folded_series, milburn_factor, prune_weights, rabi_blocks)
from dataclasses import dataclass


@dataclass(frozen=True)
class RevivalMetrics:
    collapse_floor: float
    revival_peak: float
    revival_time: float


def initial_density(p: SystemParams):
    """Joint initial state: atom in (|g> + |e>)/sqrt(2), field coherent."""
    field = coherent_state(p.alpha, p.dcut)
    atom = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return density_from_state(np.kron(atom, field))


def sigma_x_closed_form(p: SystemParams, t):
    """Closed-form atomic polarization <sigma_x>(t).

    Sum over the photon-number blocks of the displaced frame, weighted by
    photon_weights(|alpha - beta|^2, dcut): block n contributes
    (|eps|^2 + Re F(2 Omega_n, t) Delta_n^2) / Omega_n^2 with Milburn's
    factor F, evaluated by dynamics.folded_series.  Vectorized over t.  A
    block with vanishing Rabi frequency does not evolve and contributes
    its full weight.

    The evolving blocks are pruned like the series kernel's weights
    (dynamics.prune_weights, dropped mass <= DROP_BUDGET) and the kept
    weights are rescaled to the full mass of the evolving blocks, so
    the value at t = 0 is unchanged and the result deviates from the
    unpruned sum by at most 2 * DROP_BUDGET.
    """
    warn_if_not_dispersive(p)
    d = derived_params(p)
    t = np.asarray(t, dtype=float)
    weights = photon_weights(abs(p.alpha - d.beta) ** 2, p.dcut)
    detuned, omega = rabi_blocks(p, np.arange(p.dcut))

    # prune the evolving blocks; rescale the kept ones to their full mass
    live = np.flatnonzero(omega)
    keep, _ = prune_weights(weights[live])
    n = live[keep]
    kept = weights[n]
    if n.size:
        kept = kept * (weights[live].sum() / kept.sum())
    # ratios, not Delta_n^2 / Omega_n^2, which overflows for huge Delta_n
    constant = (weights[omega == 0].sum()
                + (kept * (abs(p.epsilon) / omega[n]) ** 2).sum())
    values = folded_series(constant, kept * (detuned[n] / omega[n]) ** 2,
                           2.0 * omega[n], np.atleast_1d(t), milburn_factor,
                           p.gamma)
    return float(values[0]) if t.ndim == 0 else values


def sigma_x_from_state(rho):
    """<sigma_x> of a joint density matrix."""
    dcut = rho.shape[0] // 2
    val = expectation(rho, atom_field(SIGMA_X, identity_field(dcut)))
    return float(val.real)


def atomic_inversion(rho):
    """<sigma_z> of a joint density matrix."""
    dcut = rho.shape[0] // 2
    val = expectation(rho, atom_field(SIGMA_Z, identity_field(dcut)))
    return float(val.real)


def purity(rho):
    """Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def revival_metrics(series: TimeSeries, collapse_window, revival_window):
    """Max |value| over the collapse window, max |value| and its location
    over the revival window.  Windows are (t_lo, t_hi) inclusive."""
    values = np.abs(np.asarray(series.values, dtype=float))

    def window_mask(lo, hi):
        mask = (series.times >= lo) & (series.times <= hi)
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
        revival_time=float(series.times[peak_idx]),
    )
