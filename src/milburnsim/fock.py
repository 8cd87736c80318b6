"""Truncated Fock-space linear algebra.

Dense matrices: complex, except the displacement D(beta) of a real beta,
which is float64 (hamiltonians builds float64 Hamiltonians from it and
real field factors).  Field operators live on a truncated photon-number
basis 0..dcut-1; joint operators on the atom (x) field space, which only
the reference routes and validate build, use atom-major ordering with the
excited state first, so index s*dcut + n means atomic level s (0 = |e>,
1 = |g>) and photon number n.
"""

import math

import numpy as np


class CutoffTooSmallError(ValueError):
    """Photon-number tail mass beyond the cutoff exceeds tolerance."""


# 2x2 atomic operators, basis (|e>, |g>)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS

COHERENT_TAIL_TOL = 1e-12  # photon-number mass a cutoff may leave out

# ln m! for m < 64 from math.lgamma; the Stirling series takes over above
_LOG_FACTORIAL_TABLE = np.array([math.lgamma(m + 1.0) for m in range(64)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def displacement(beta, dcut):
    """Glauber displacement D(beta) = exp(G), G = beta a^dag - beta* a,
    truncated: the exact exponential of the truncated generator for any
    finite beta.  iG = P S P^dag with P = diag(c^n), c = i e^{i arg beta}
    (as i^(n mod 4) e^{i n arg beta}), and S real symmetric tridiagonal
    (eigh reads its lower triangle): with S = V diag(e) V^T, D = P V
    diag(exp(-i e)) V^T P^dag.  A real beta gives an exactly real D, as
    Pade expm does, returned as float64 (the imaginary part is rounding
    only): a real drive's displaced Hamiltonian is then float64, and its
    eigh and basis change run in real arithmetic."""
    _check_cutoff(dcut)
    if not np.isfinite(beta):
        raise ValueError("displacement amplitude must be finite")
    n = np.arange(dcut)
    e, v = np.linalg.eigh(np.diag(abs(beta) * np.sqrt(n[1:]), -1))
    phase = 1j ** (n % 4) * np.exp(1j * n * np.angle(beta))
    d = phase[:, None] * ((v * np.exp(-1j * e)) @ v.T) * phase.conj()
    return d.real.copy() if np.imag(beta) == 0 else d


def photon_weights(mean, dcut, state="a coherent state"):
    """Poisson photon-number weights of a coherent state, n = 0 up to the
    last one that is nonzero in float64, at most dcut-1: the weights past
    it are exact zeros, so a cutoff far above the state costs nothing.
    The one truncation rule: CutoffTooSmallError naming ``state`` when the
    mass beyond dcut-1 exceeds COHERENT_TAIL_TOL, ValueError if not finite.
    Past the mean that mass is the sum of the weights beyond dcut-1 up to
    the first that underflows (n = 239 at mean 4, 1 038 646 at mean 1e6)."""
    _check_cutoff(dcut)
    if not np.isfinite(mean):
        raise ValueError(f"mean photon number must be finite, got {mean}")
    # above the mean the weights fall: once one is 0, so is every later one
    count = min(dcut, 64)
    weights = poisson_pmf(np.arange(count), mean)
    while count < dcut and (weights[-1] > 0 or count <= mean):
        count = min(dcut, 2 * count)
        weights = poisson_pmf(np.arange(count), mean)
    # the mass at n >= count: below the mean it is large, and 1 - sum holds
    # it well.  Above, each weight is at most q = mean/count times the one
    # before, so the mass is at most weights[-1] q/(1 - q); past the
    # tolerance the weights past count are summed up to the first 0, so
    # that the tail does not carry the rounding of the bulk's sum
    if count <= mean:
        tail = 1.0 - weights.sum()
    else:
        q = mean / count
        tail = weights[-1] * q / (1.0 - q)
        if tail > COHERENT_TAIL_TOL:
            tail, start, size, last = 0.0, count, 64, weights[-1]
            while last > 0:
                terms = poisson_pmf(np.arange(start, start + size), mean)
                tail, last = tail + terms.sum(), terms[-1]
                start, size = start + size, 2 * size
    if tail > COHERENT_TAIL_TOL:
        raise CutoffTooSmallError(
            f"{state} of mean photon number {mean:.6g} leaves tail "
            f"mass {tail:.3e} beyond cutoff {dcut}; increase the cutoff")
    return weights[:np.flatnonzero(weights)[-1] + 1]


def coherent_state(alpha, dcut):
    """Coherent state |alpha> on the truncated basis, renormalized:
    amplitudes sqrt(photon_weights(|alpha|^2, dcut)) e^{i n arg alpha},
    zero past the last nonzero weight."""
    weights = photon_weights(abs(alpha) ** 2, dcut)
    amps = np.zeros(dcut, dtype=complex)
    amps[:len(weights)] = np.sqrt(weights) * np.exp(
        1j * np.arange(len(weights)) * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def log_factorial(m):
    """ln m! for integer array-like m >= 0: math.lgamma values for
    m < 64, above that the Stirling series in x = m + 1 through its 1/x^7
    term.  Within 3 ulp of ln m!, as is math.lgamma, up to m = 3.91e7,
    the largest kick count that a Poisson window may hold."""
    m = np.asarray(m)
    small = m < len(_LOG_FACTORIAL_TABLE)
    x = np.where(small, len(_LOG_FACTORIAL_TABLE), m + 1.0)
    r = 1.0 / (x * x)
    series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / x
    stirling = (x - 0.5) * np.log(x) - x + _HALF_LOG_2PI + series
    table = _LOG_FACTORIAL_TABLE[np.minimum(m, len(_LOG_FACTORIAL_TABLE) - 1)]
    return np.where(small, table, stirling)


def poisson_pmf(m, mean, log_factorials=None):
    """Poisson probabilities p_m = e^{-mean} mean^m / m! for integer m and
    a mean that broadcasts against m (a column of means gives one row
    each), in log space so that large means neither overflow nor
    underflow: exp(m ln(mean) - log_factorial(m) - mean), 0^0 = 1 at mean
    0, with ``log_factorials`` as ln m! if given.  Over the window of
    dynamics.poisson_window it is within 3.2e-15 of scipy.stats.poisson.pmf
    for means up to 100 and 6.5e-13 up to 1e6; both carry the rounding of
    m ln(mean), which grows with the mean (1.2e-13 from the exact value at
    mean 1e4)."""
    m, mean = np.asarray(m), np.asarray(mean, dtype=float)
    # math.log: np.log differs from it in the last bit of some means
    log_mean = np.reshape([math.log(x) if x > 0 else -math.inf
                           for x in mean.flat], mean.shape)
    with np.errstate(invalid="ignore"):  # 0 * -inf at mean 0
        log_p = np.asarray(m * log_mean)  # 0-d m too
    np.copyto(log_p, 0.0, where=m == 0)
    log_p -= log_factorial(m) if log_factorials is None else log_factorials
    return np.exp(np.subtract(log_p, mean, out=log_p), out=log_p)


def atom_field(atom_op, field_op):
    """Joint operator atom_op (x) field_op, atom-major Kronecker product."""
    atom_op = np.asarray(atom_op, dtype=complex)
    field_op = np.asarray(field_op, dtype=complex)
    if atom_op.shape != (2, 2):
        raise ValueError(f"atom operator must be 2x2, got {atom_op.shape}")
    if field_op.ndim != 2 or field_op.shape[0] != field_op.shape[1]:
        raise ValueError(f"field operator must be square, got {field_op.shape}")
    return np.kron(atom_op, field_op)


def real_if_real(m):
    """m as a float64 array if it has no imaginary part, else as complex."""
    m = np.asarray(m)
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m.astype(np.result_type(m, float), copy=False)


def matrix_exponential(m):
    """Matrix exponential by Pade scaling-and-squaring (scipy's expm).

    Only the oracle routes use it (schrodinger_evolve,
    milburn_poisson_evolve, small_rotation_exact, and validate's checks
    and GAP lines), so they stay independent of the eigh kernel; scipy
    is imported here, on first use, and never on the path of `run`."""
    from scipy.linalg import expm

    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential of non-finite input")
    return expm(m)


def expectation(state, op):
    """<op> for a state vector or a density matrix."""
    state = np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if state.shape != op.shape[:state.ndim]:
        raise ValueError(
            f"dimension mismatch: state {state.shape} vs op {op.shape}")
    if state.ndim == 1:
        return complex(state.conj() @ op @ state)
    return complex(np.trace(state @ op))


def density_from_state(psi):
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())
