"""Time evolution under the displaced effective Hamiltonian.

Routes:
  * analytic per-photon-number 2x2 propagator blocks and their
    block-diagonal assembly (exact for the effective Hamiltonian);
  * the series kernel SpectralPropagator.expectation_series: every
    density-matrix route is diagonal in the eigenbasis of H, so an
    observable's time series is one eigendecomposition plus one scalar
    factor per eigenfrequency (Milburn's, the windowed Poisson kick sum,
    the first-order master equation's, or the unitary phase);
  * state-level routes kept as independent references for that kernel:
    exact intrinsic-decoherence evolution as a Poisson-weighted sum of
    repeated unitary kicks or in spectral closed form, a fixed-step RK4
    integrator for the first-order (double-commutator) master equation,
    and plain unitary (Schrodinger) evolution.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import atom_field, displacement, matrix_exponential, poisson_pmf
from .params import SystemParams, derived_params


@dataclass(frozen=True)
class PropagatorBlock:
    """2x2 unitary at fixed photon number n."""

    n: int
    omega_n: float
    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def as_matrix(self):
        return np.array([[self.u11, self.u12], [self.u21, self.u22]])


@dataclass(frozen=True)
class MilburnConfig:
    gamma: float
    tail_tol: float = 1e-12
    max_terms: int = 100_000

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.tail_tol < 1e-6:
            raise ValueError(f"tail_tol out of range: {self.tail_tol}")


@dataclass
class TimeSeries:
    """Ordered (t, value) records on a strictly increasing grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = "value"

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        if self.times.shape != self.values.shape[:1]:
            raise ValueError("times and values length mismatch")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


class WindowBudgetError(RuntimeError):
    """Poisson window exceeds the term budget; use the spectral route."""


def rabi_frequency(n, d, epsilon):
    """Omega_n = sqrt((chi n + delta_tilde)^2 + |epsilon|^2).

    Returns exactly 0.0 in the degenerate case epsilon = 0 and
    chi n + delta_tilde = 0.
    """
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    detuned = d.chi * n + d.delta_tilde
    return math.hypot(detuned, abs(epsilon))


def propagator_block(n, t, p: SystemParams) -> PropagatorBlock:
    """Analytic 2x2 propagator at photon number n and time t."""
    d = derived_params(p)
    omega = rabi_frequency(n, d, p.epsilon)
    detuned = d.chi * n + d.delta_tilde
    cos_t = math.cos(omega * t)
    # sin(omega t)/omega -> t as omega -> 0
    sinc_t = t * np.sinc(omega * t / math.pi)
    return PropagatorBlock(
        n=n,
        omega_n=omega,
        u11=cos_t - 1j * detuned * sinc_t,
        u12=-1j * p.epsilon * sinc_t,
        u21=-1j * np.conjugate(p.epsilon) * sinc_t,
        u22=cos_t + 1j * detuned * sinc_t,
    )


def core_propagator(t, p: SystemParams):
    """Block-diagonal propagator of the undisplaced core, assembled from
    the analytic 2x2 blocks in atom-major layout."""
    d = derived_params(p)
    n = np.arange(p.dcut)
    detuned = d.chi * n + d.delta_tilde
    omega = np.sqrt(detuned**2 + abs(p.epsilon) ** 2)
    cos_t = np.cos(omega * t)
    sinc_t = t * np.sinc(omega * t / math.pi)
    u = np.zeros((2 * p.dcut, 2 * p.dcut), dtype=complex)
    idx = np.arange(p.dcut)
    u[idx, idx] = cos_t - 1j * detuned * sinc_t
    u[idx, idx + p.dcut] = -1j * p.epsilon * sinc_t
    u[idx + p.dcut, idx] = -1j * np.conjugate(p.epsilon) * sinc_t
    u[idx + p.dcut, idx + p.dcut] = cos_t + 1j * detuned * sinc_t
    return u


def effective_propagator(t, p: SystemParams):
    """U(t) = D(beta) [block-diagonal core propagator] D^dag(beta).

    Conjugation order matches the displaced Hamiltonian construction, so
    this equals exp(-i H t) for that Hamiltonian.
    """
    d = derived_params(p)
    disp = atom_field(np.eye(2), displacement(d.beta, p.dcut))
    return disp @ core_propagator(t, p) @ disp.conj().T


def _check_hermitian(h, tol=1e-9):
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise ValueError("Hamiltonian must be Hermitian")


def schrodinger_evolve(rho0, h, t):
    """Unitary conjugation U rho0 U^dag with U = exp(-i h t)."""
    _check_hermitian(h)
    u = matrix_exponential(-1j * np.asarray(h, dtype=complex) * t)
    return u @ rho0 @ u.conj().T


def poisson_window(mean, tail_tol, max_terms):
    """Central index window retaining all but ~tail_tol of Poisson(mean).

    Returns (m_lo, m_hi) inclusive.  A half-width of k standard
    deviations with k ~ 8 keeps the excluded mass far below tail_tol for
    the rates of interest.
    """
    k = 8.0
    half = k * math.sqrt(mean + 1.0)
    m_lo = max(0, int(math.floor(mean - half)))
    m_hi = int(math.ceil(mean + half))
    if m_hi - m_lo + 1 > max_terms:
        raise WindowBudgetError(
            f"Poisson window [{m_lo}, {m_hi}] exceeds {max_terms} terms; "
            "use the spectral route for large gamma*t"
        )
    return m_lo, m_hi


def _kick_weights(t, cfg: MilburnConfig):
    """Kick counts in the Poisson window at time t and their
    probabilities, renormalized over the window."""
    mean = cfg.gamma * t
    m_lo, m_hi = poisson_window(mean, cfg.tail_tol, cfg.max_terms)
    kicks = np.arange(m_lo, m_hi + 1)
    weights = poisson_pmf(kicks, mean)
    return kicks, weights / weights.sum()


def milburn_poisson_evolve(rho0, h, t, cfg: MilburnConfig):
    """Exact intrinsic-decoherence evolution as a Poisson-weighted sum of
    repeated applications of the single kick U1 = exp(-i h / gamma).

    Weights are renormalized over the retained window; the discarded
    mass is bounded by cfg.tail_tol.
    """
    _check_hermitian(h)
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    kicks, weights = _kick_weights(t, cfg)

    u1 = matrix_exponential(-1j * np.asarray(h, dtype=complex) / cfg.gamma)
    u_lo = np.linalg.matrix_power(u1, kicks[0])
    rho_m = u_lo @ rho0 @ u_lo.conj().T
    out = weights[0] * rho_m
    for w in weights[1:]:
        rho_m = u1 @ rho_m @ u1.conj().T
        out += w * rho_m
    return out


SERIES_BLOCK = 2**15  # factor entries the series kernel evaluates at once
DROP_BUDGET = 1e-14   # summed |weight| the series kernel may drop


def milburn_factor(gamma):
    """Milburn's factor exp(gamma t (e^{-i w/gamma} - 1)) per
    eigenfrequency w, in a numerically stable split of modulus and
    phase."""

    def factor(omega, t):
        x = omega / gamma
        # gamma t (cos x - 1) = -2 gamma t sin^2(x/2), stable for tiny x
        log_mod = -2.0 * gamma * t * np.sin(0.5 * x) ** 2
        phase = -gamma * t * np.sin(x)
        return np.exp(log_mod + 1j * phase)

    return factor


def poisson_factor(cfg: MilburnConfig):
    """The kick sum sum_m p_m(gamma t) e^{-i m w/gamma} over the same
    renormalized window as milburn_poisson_evolve; raises
    WindowBudgetError where that route would."""

    def factor(omega, t):
        theta = omega / cfg.gamma
        chunk = max(1, SERIES_BLOCK // max(1, len(theta)))
        out = np.zeros((np.size(t), len(theta)), dtype=complex)
        for row, ti in zip(out, np.ravel(t)):
            kicks, weights = _kick_weights(ti, cfg)
            for s in range(0, len(kicks), chunk):
                phases = np.multiply.outer(kicks[s:s + chunk], theta)
                row += weights[s:s + chunk] @ np.exp(-1j * phases)
        return out

    return factor


def first_order_factor(gamma):
    """Factor exp(-i w t - w^2 t / 2 gamma) of the first-order master
    equation drho/dt = -i[h, rho] - (1/2 gamma) [h, [h, rho]]."""

    def factor(omega, t):
        return np.exp(-1j * omega * t - omega**2 * t / (2.0 * gamma))

    return factor


def unitary_factor(omega, t):
    """Schrodinger phase exp(-i w t), the gamma -> infinity limit."""
    return np.exp(-1j * omega * t)


def prune_weights(weights):
    """Drop the smallest weights while their summed modulus stays within
    DROP_BUDGET.

    Returns the flat indices of the kept weights, in ascending order, and
    the dropped sum.  Every route's factor has |F| <= 1, so the dropped
    sum bounds the error of the pruned series.
    """
    modulus = np.abs(weights).ravel()
    order = np.argsort(modulus, kind="stable")
    cumulative = np.cumsum(modulus[order])
    n_drop = int(np.searchsorted(cumulative, DROP_BUDGET, side="right"))
    dropped = float(cumulative[n_drop - 1]) if n_drop else 0.0
    return np.sort(order[n_drop:]), dropped


@dataclass
class SpectralPropagator:
    """Eigendecomposition of h and the series kernel of every
    density-matrix route.  Read-only after construction; safe to share
    across workers."""

    h: np.ndarray
    gamma: float
    energies: np.ndarray = field(init=False)
    vectors: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        _check_hermitian(h)
        self.energies, self.vectors = np.linalg.eigh(h)

    def _frequencies(self):
        return self.energies[:, None] - self.energies[None, :]

    def _to_eigenbasis(self, m):
        return self.vectors.conj().T @ np.asarray(m, dtype=complex) @ self.vectors

    def decay_factors(self, t):
        """Milburn's factor at time t for every eigenpair, w = E_j - E_k."""
        return milburn_factor(self.gamma)(self._frequencies(), t)

    def evolve(self, rho0, t):
        rho_e = self._to_eigenbasis(rho0) * self.decay_factors(t)
        return self.vectors @ rho_e @ self.vectors.conj().T

    def expectation_series(self, rho0, op, times, factor=None):
        """Tr(rho(t) op) on a time grid without building any density
        matrix: sum_jk w_jk F(w_jk, t) with weights
        w_jk = rho_e[j,k] op_e[k,j] in the eigenbasis of h.

        ``op=None`` gives the purity Tr(rho(t)^2), with weights
        |rho_e[j,k]|^2 and factor |F|^2.  ``factor(omega, t)`` maps
        eigenfrequencies (1-D) and a column of times to one factor per
        pair; the default is Milburn's at this propagator's gamma.
        Weights are pruned by prune_weights, and the factor is evaluated
        in blocks of time rows of at most SERIES_BLOCK entries.  Returns
        a complex array.
        """
        if factor is None:
            factor = milburn_factor(self.gamma)
        rho_e = self._to_eigenbasis(rho0)
        if op is None:
            weights = np.abs(rho_e) ** 2
        else:
            weights = rho_e * self._to_eigenbasis(op).T
        keep, _ = prune_weights(weights)
        weights = weights.ravel()[keep]
        omega = self._frequencies().ravel()[keep]
        times = np.asarray(times, dtype=float)
        out = np.empty(len(times), dtype=complex)
        rows = max(1, SERIES_BLOCK // max(1, len(keep)))
        for start in range(0, len(times), rows):
            f = factor(omega, times[start:start + rows, None])
            if op is None:
                f = f.real**2 + f.imag**2
            out[start:start + rows] = f @ weights
        return out


def milburn_spectral_evolve(rho0, h, t, gamma):
    """Exact intrinsic-decoherence evolution in spectral closed form."""
    return SpectralPropagator(h=h, gamma=gamma).evolve(rho0, t)


class StepSizeError(RuntimeError):
    """Trace drift indicates the integrator step is too large."""


def lindblad_first_order_evolve(rho0, h, t, gamma, dt):
    """First-order-in-1/gamma master equation,
    drho/dt = -i[h, rho] - (1/2 gamma) [h, [h, rho]],
    integrated with fixed-step RK4.  Hermiticity is re-symmetrized each
    step; trace drift beyond 1e-6 aborts.
    """
    _check_hermitian(h)
    h = np.asarray(h, dtype=complex)

    def rhs(rho):
        comm = h @ rho - rho @ h
        dcomm = h @ comm - comm @ h
        return -1j * comm - dcomm / (2.0 * gamma)

    rho = np.asarray(rho0, dtype=complex).copy()
    trace0 = np.trace(rho).real
    n_steps = max(1, int(math.ceil(t / dt)))
    step = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    drift = abs(np.trace(rho).real - trace0)
    if not np.isfinite(drift) or drift > 1e-6:
        raise StepSizeError(f"trace drifted by {drift:.3e}; reduce dt")
    return rho
