"""Atomic observables: the closed-form polarization series, state-based
expectations, and collapse/revival metrics."""

import numpy as np

from .fock import (
    SIGMA_X,
    SIGMA_Z,
    CutoffTooSmallError,
    atom_field,
    coherent_state,
    density_from_state,
    expectation,
    identity_field,
    poisson_pmf,
)
from .params import SystemParams, derived_params
from .dynamics import TimeSeries, rabi_blocks
from dataclasses import dataclass


POISSON_TAIL_TOL = 1e-12


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


def _poisson_weights(mean, n_max):
    w = poisson_pmf(np.arange(n_max), mean)
    tail = 1.0 - w.sum()
    if tail > POISSON_TAIL_TOL:
        raise CutoffTooSmallError(
            f"photon-number series truncated at {n_max} leaves tail mass "
            f"{tail:.3e}; increase the cutoff"
        )
    return w


def sigma_x_closed_form(p: SystemParams, t, n_max=None):
    """Closed-form atomic polarization <sigma_x>(t).

    Poisson-weighted sum over photon-number blocks; each block carries
    the drive term |eps|^2 plus a damped, phase-rotated dispersive term.
    Vectorized over t.  A block with vanishing Rabi frequency does not
    evolve and contributes its full weight.
    """
    d = derived_params(p)
    if n_max is None:
        n_max = p.dcut
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)

    shifted_mean = abs(p.alpha - d.beta) ** 2
    weights = _poisson_weights(shifted_mean, n_max)

    detuned, omega = rabi_blocks(p, np.arange(n_max))
    eps2 = abs(p.epsilon) ** 2
    omega2 = detuned**2 + eps2

    # stable forms of gamma t (1 - cos(2 Omega/gamma)) and
    # gamma t sin(2 Omega/gamma)
    x = omega / p.gamma
    damp = np.exp(-2.0 * p.gamma * np.sin(x) ** 2 * t[:, None])
    phase = np.cos(p.gamma * np.sin(2.0 * x) * t[:, None])

    with np.errstate(invalid="ignore", divide="ignore"):
        block = (eps2 + damp * detuned**2 * phase) / omega2
    block[:, omega2 == 0] = 1.0  # frozen block

    out = (weights * block).sum(axis=1)
    return float(out[0]) if scalar else out


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
