"""Truncated Fock-space linear algebra.

Dense complex matrices throughout.  Field operators live on a truncated
photon-number basis 0..dcut-1; joint operators on the atom (x) field space
use atom-major ordering with the excited state first, so index s*dcut + n
means atomic level s (0 = |e>, 1 = |g>) and photon number n.
"""

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, xlogy


class TruncationError(ValueError):
    """Requested operation would push weight past the Fock cutoff."""


class CutoffTooSmallError(ValueError):
    """Coherent-state tail mass beyond the cutoff exceeds tolerance."""


# 2x2 atomic operators, basis (|e>, |g>)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS

COHERENT_TAIL_TOL = 1e-12


def _check_cutoff(dcut):
    if not isinstance(dcut, (int, np.integer)) or dcut < 2:
        raise ValueError(f"Fock cutoff must be an integer >= 2, got {dcut!r}")


def annihilation(dcut):
    """Annihilation operator a: entry (n-1, n) = sqrt(n)."""
    _check_cutoff(dcut)
    return np.diag(np.sqrt(np.arange(1, dcut, dtype=float)), 1).astype(complex)


def creation(dcut):
    """Creation operator a^dagger."""
    return annihilation(dcut).conj().T


def number(dcut):
    """Number operator N = diag(0, 1, ..., dcut-1)."""
    _check_cutoff(dcut)
    return np.diag(np.arange(dcut, dtype=float)).astype(complex)


def identity_field(dcut):
    _check_cutoff(dcut)
    return np.eye(dcut, dtype=complex)


def check_displacement_guard(beta, dcut):
    """Truncation guard for displacing by beta: |beta|^2 + 6|beta| < dcut."""
    b = abs(beta)
    if not np.isfinite(b):
        raise ValueError("displacement amplitude must be finite")
    if b * b + 6.0 * b >= dcut:
        raise TruncationError(
            f"displacement beta={beta} too large for cutoff {dcut}: "
            f"need |beta|^2 + 6|beta| < dcut"
        )


def displacement(beta, dcut):
    """Glauber displacement D(beta) = exp(beta a^dag - beta* a), truncated."""
    _check_cutoff(dcut)
    check_displacement_guard(beta, dcut)
    a = annihilation(dcut)
    return matrix_exponential(beta * a.conj().T - np.conjugate(beta) * a)


def coherent_state(alpha, dcut):
    """Coherent state |alpha> on the truncated basis, renormalized.

    Rejects cutoffs that leave more than COHERENT_TAIL_TOL of the Poisson
    photon distribution beyond dcut-1.
    """
    _check_cutoff(dcut)
    n = np.arange(dcut)
    # log-space for large |alpha|; amplitudes e^{-|a|^2/2} a^n / sqrt(n!)
    mean = abs(alpha) ** 2
    log_mod = -0.5 * mean + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1) \
        if alpha != 0 else np.concatenate(([0.0], np.full(dcut - 1, -np.inf)))
    phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones(dcut)
    amps = np.exp(log_mod) * phase
    tail = 1.0 - np.sum(np.abs(amps) ** 2)
    if tail > COHERENT_TAIL_TOL:
        raise CutoffTooSmallError(
            f"coherent state alpha={alpha} has tail mass {tail:.3e} beyond "
            f"cutoff {dcut}; increase the cutoff"
        )
    return amps / np.linalg.norm(amps)


def poisson_pmf(m, mean):
    """Poisson probabilities p_m = e^{-mean} mean^m / m!, in log space so
    that large means neither overflow nor underflow.  The same formula as
    scipy.stats.poisson.pmf, without importing scipy.stats."""
    return np.exp(xlogy(m, mean) - gammaln(m + 1) - mean)


def atom_field(atom_op, field_op):
    """Joint operator atom_op (x) field_op, atom-major Kronecker product."""
    atom_op = np.asarray(atom_op, dtype=complex)
    field_op = np.asarray(field_op, dtype=complex)
    if atom_op.shape != (2, 2):
        raise ValueError(f"atom operator must be 2x2, got {atom_op.shape}")
    if field_op.ndim != 2 or field_op.shape[0] != field_op.shape[1]:
        raise ValueError(f"field operator must be square, got {field_op.shape}")
    return np.kron(atom_op, field_op)


def matrix_exponential(m):
    """Matrix exponential (Pade scaling-and-squaring via scipy)."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite input")
    return expm(m)


def expectation(state, op):
    """<op> for a state vector or a density matrix."""
    state = np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if state.ndim == 1:
        if state.shape[0] != op.shape[0]:
            raise ValueError(
                f"dimension mismatch: state {state.shape} vs op {op.shape}")
        return complex(state.conj() @ op @ state)
    if state.shape != op.shape:
        raise ValueError(
            f"dimension mismatch: state {state.shape} vs op {op.shape}")
    return complex(np.trace(state @ op))


def density_from_state(psi):
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())
