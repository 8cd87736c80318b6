"""Time evolution under the displaced effective Hamiltonian.

Routes:
  * the exact 2x2 propagator blocks of the effective Hamiltonian per
    photon number, and effective_propagator, their displaced assembly
    (hamiltonians.displaced_blocks), for tests and validate, not run;
  * the series kernel: every density-matrix route is diagonal in the
    eigenbasis of H, so an observable's time series is one scalar factor
    per eigenfrequency (Milburn's, the windowed Poisson kick sum, the
    first-order master equation's, or the unitary phase) on weights.  A
    run builds the pure state's eigenbasis once, from H alone, by one of
    two builders (observables.block_eigenbasis, a 2x2 block per photon
    number solved in closed form by traceless_eigh, or
    SpectralPropagator(h).eigenbasis, one dense block from eigh or, for
    the full-oracle route, interaction_eigh, an SVD whose 2x2 blocks
    traceless_eigh solves too), and eigenbasis_series turns it into every
    column: block_pair_weights folds the weights onto half the eigenpairs,
    factor.series, where gamma enters, sums them in real arithmetic.  An
    exponential factor on an equispaced grid is a product of anchors and
    offsets, one vector-matrix product per anchor; the kick sum is a
    series over the kick count at ascending times, whose per-count sums
    and ln m! are each carried through the blocks as one run of counts,
    and whose purity takes that series at all its lags in one call;
  * state-level routes kept as independent references for that kernel:
    exact intrinsic-decoherence evolution as a Poisson-weighted sum of
    repeated unitary kicks (milburn_poisson_evolve) or in spectral
    closed form (SpectralPropagator.evolve), a fixed-step RK4 integrator
    for the first-order (double-commutator) master equation, and plain
    unitary (Schrodinger) evolution.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import (log_factorial, matrix_exponential, poisson_pmf,
                   real_if_real)
from .hamiltonians import displaced_blocks, effective_core_blocks, rabi_blocks
from .params import SystemParams


POISSON_MAX_TERMS = 100_000  # kick counts a Poisson window may hold
HERMITIAN_TOL = 1e-9  # max |h - h^dag| a Hamiltonian may have


def block_propagators(t, p: SystemParams):
    """The (dcut, 2, 2) array of analytic block propagators
    exp(-i t h_n) = cos(Omega_n t) - i h_n sin(Omega_n t)/Omega_n for
    n = 0 .. dcut-1, since h_n^2 = Omega_n^2."""
    _, omega = rabi_blocks(p, np.arange(p.dcut))
    # sin(omega t)/omega -> t as omega -> 0
    sinc_t = t * np.sinc(omega * t / math.pi)
    return (np.cos(omega * t)[:, None, None] * np.eye(2)
            - 1j * sinc_t[:, None, None] * effective_core_blocks(p))


def effective_propagator(t, p: SystemParams):
    """U(t) = D(beta) [block-diagonal core propagator] D^dag(beta).

    Conjugation order matches the displaced Hamiltonian construction, so
    this equals exp(-i H t) for that Hamiltonian.
    """
    return displaced_blocks(p, block_propagators(t, p))


def _check_hermitian(h):
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise ValueError("Hamiltonian must be Hermitian")


def schrodinger_evolve(rho0, h, t):
    """Unitary conjugation U rho0 U^dag with U = exp(-i h t)."""
    _check_hermitian(h)
    u = matrix_exponential(-1j * np.asarray(h, dtype=complex) * t)
    return u @ rho0 @ u.conj().T


def poisson_window(mean):
    """Central window of kick counts m of Poisson(mean), 8 standard
    deviations (of mean + 1) to either side.

    Returns (m_lo, m_hi) inclusive.  The discarded mass is below 1e-10
    for every mean: it peaks at 8.4e-11 near mean 2.67 (window [0, 18]),
    falls below 1e-12 from a mean of about 43 on and tends to the
    two-sided 8 sigma Gaussian tail, 1.2e-15, for large means.

    Floor and ceil widen the window by less than 2, so it holds fewer
    than 2 half + 3 counts.  A mean is refused, with a MemoryError, when
    that bound passes POISSON_MAX_TERMS, before any rounding: the bound
    grows with the mean, so every mean above a refused one is refused too,
    and a huge mean, whose half width is lost in mean +- half, cannot
    pass as a one-count window.
    """
    half = 8.0 * math.sqrt(mean + 1.0)
    terms = 2.0 * half + 3.0
    if terms > POISSON_MAX_TERMS:
        raise MemoryError(
            f"Poisson window of up to {terms:.6g} kick counts at mean "
            f"{mean:.6g} exceeds {POISSON_MAX_TERMS} terms; "
            "use the spectral route for large gamma*t"
        )
    return max(0, int(math.floor(mean - half))), int(math.ceil(mean + half))


def milburn_poisson_evolve(rho0, h, t, gamma):
    """Exact intrinsic-decoherence evolution as a Poisson-weighted sum of
    repeated applications of the single kick U1 = exp(-i h / gamma).

    Weights are renormalized over the window of poisson_window, which
    discards a Poisson mass below 1e-10.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _check_hermitian(h)
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    m_lo, m_hi = poisson_window(gamma * t)
    weights = poisson_pmf(np.arange(m_lo, m_hi + 1), gamma * t)
    weights /= weights.sum()

    u1 = matrix_exponential(-1j * np.asarray(h, dtype=complex) / gamma)
    u_lo = np.linalg.matrix_power(u1, m_lo)
    rho_m = u_lo @ rho0 @ u_lo.conj().T
    out = weights[0] * rho_m
    for w in weights[1:]:
        rho_m = u1 @ rho_m @ u1.conj().T
        out += w * rho_m
    return out


# factor entries the series kernel evaluates at once (cli.write_csv has
# its own block, cli.CSV_BLOCK)
SERIES_BLOCK = 2**15
DROP_BUDGET = 1e-14   # summed |weight| the series kernel may drop
PHASE_TOL = 1e-6      # phase the eigenfrequencies' rounding may cost
PAIR_BUDGET = 2**25   # purity pairs, about 80 B each, a table may hold


@dataclass(frozen=True)
class ExponentialFactor:
    """Route factor F(w, t, gamma) = exp(t c(w, gamma)), declared by its
    exponent: ``exponent(omega, gamma)`` returns (Re c, Im c), even and
    odd in w, so F(-w) = conj F(w) and |F|^2 = exp(2 t Re c)."""

    exponent: Callable

    def __call__(self, omega, t, gamma):
        rate, freq = self.exponent(omega, gamma)
        return np.exp(rate * t + 1j * (freq * t))

    def series(self, weights, omega, times, gamma, squared):
        """Re sum_p weights_p F(omega_p, t), or sum_p weights_p |F|^2, in
        real arithmetic: |F|^2 as exp(2 t Re c).

        F is exponential in t, so row a r + j of a grid equal to
        np.linspace(times[0], times[-1], n) takes F(t_{a r}) F(j h): F is
        evaluated only at the anchors t_{a r} and the r offsets j h.  r is
        about sqrt(n), at most SERIES_BLOCK // pairs; any other grid takes
        r = 1, one anchor per row and the single offset F(0) = 1.  An
        anchor A's r rows are one vector-matrix product,
        Re sum_p (w_p A_p) O_jp = [Re wA, Im wA] . [Re O; -Im O]_j (for
        |F|^2 the real w A times O), taken as a stack of products, one per
        anchor: unlike one matrix product over all anchors, its bits do not
        depend on the BLAS thread count.  Real weights take both parts of
        A and O too, as Re(w A O) needs Im A Im O.  The t = 0 row takes
        exact ones and zeros, so it is the sum of the weights' real parts.
        A block of anchors holds at most SERIES_BLOCK anchor factors and
        SERIES_BLOCK rows, or one anchor, so memory does not grow with the
        grid."""
        rate, freq = self.exponent(omega, gamma)
        if squared:
            rate, freq = 2.0 * rate, None

        def parts(t):  # (Re F, Im F), or (|F|^2, None), at the times t
            damp = np.exp(rate * t[:, None])
            if freq is None:
                return damp, None
            return (damp * np.cos(freq * t[:, None]),
                    damp * np.sin(freq * t[:, None]))

        wr, wi = weights.real, weights.imag
        n, pairs = len(times), len(omega)
        r = rows_per_anchor(times, pairs)
        step = (times[-1] - times[0]) / (n - 1) if r > 1 else 0.0
        off_re, off_im = parts(np.arange(r) * step)
        offsets = off_re.T if freq is None else np.vstack([off_re.T,
                                                           -off_im.T])
        out = np.empty(n)
        anchors = max(1, SERIES_BLOCK // max(r, 2 * pairs))
        for start in range(0, n, anchors * r):
            stop = min(n, start + anchors * r)
            a_re, a_im = parts(times[start:stop:r])
            lhs = (a_re * wr if freq is None else
                   np.hstack([a_re * wr - a_im * wi, a_re * wi + a_im * wr]))
            rows = (lhs[:, None, :] @ offsets).ravel()
            out[start:stop] = rows[:stop - start]
        return out


def rows_per_anchor(times, pairs):
    """The r of ExponentialFactor.series: ceil(sqrt(n)) rows per anchor on
    a grid equal to np.linspace(times[0], times[-1], n), but no more than
    SERIES_BLOCK // pairs, and 1 on any other grid."""
    n = len(times)
    if n < 2 or not np.array_equal(
            times, np.linspace(times[0], times[-1], n)):
        return 1
    return max(1, min(math.isqrt(n - 1) + 1, SERIES_BLOCK // max(1, pairs)))


def milburn_exponent(omega, gamma):
    """Milburn's exponent gamma (e^{-i w/gamma} - 1), split as
    (-2 gamma sin^2(w/2 gamma), -gamma sin(w/gamma)), stable for tiny
    w/gamma."""
    x = omega / gamma
    return -2.0 * gamma * np.sin(0.5 * x) ** 2, -gamma * np.sin(x)


def first_order_exponent(omega, gamma):
    """Exponent -i w - w^2 / 2 gamma of the first-order master equation
    drho/dt = -i[h, rho] - (1/2 gamma) [h, [h, rho]]."""
    return -omega**2 / (2.0 * gamma), -omega


def unitary_exponent(omega, gamma):
    """Schrodinger exponent -i w, the gamma -> infinity limit; gamma is
    ignored."""
    return np.zeros_like(omega), -omega


milburn_factor = ExponentialFactor(milburn_exponent)
first_order_factor = ExponentialFactor(first_order_exponent)
unitary_factor = ExponentialFactor(unitary_exponent)


def _carried(run, lo, hi, evaluate):
    """The run (lo, values) of evaluate at the counts lo, lo + 1, .. up to
    hi or past it, from the run (first <= lo, values) before it: the
    counts that run holds are sliced, those above it evaluated at once."""
    first, values = run
    fresh = np.arange(max(lo, first + len(values)), hi + 1)
    return lo, np.concatenate([values[lo - first:], evaluate(fresh)])


class KickCountFactor:
    """Milburn's kick sum F(w, t) = sum_m p_m(gamma t) e^{-i m w/gamma}
    over milburn_poisson_evolve's renormalized window, summed over the
    kick count m.  With theta_p = omega_p/gamma, a linear observable is
    sum_m p_m g_m, g_m = Re sum_p w_p e^{-i m theta_p}; the purity is
    A_0 g_0 + 2 sum_{d>=1} A_d g_d over the lags d, with the
    autocorrelation A_d = sum_m p_m p_{m+d} of each row's weights from one
    rfft per block of rows.  g is unitary_factor's series at the times m.
    The purity's lags run from 0 to the widest window's width, so g at
    all of them is one call before the blocks.  The times ascend (it
    refuses any that descend), so the windows only move up, and g at the
    kick counts and ln m! are each one run (first count, values) carried
    through the blocks: a block evaluates the counts above it as one
    equispaced run; both runs then start at the block's first count, and
    one index m - first reads a row's window in each.  A block holds at
    most SERIES_BLOCK/2 window weights and counts, or one row."""

    def series(self, weights, omega, times, gamma, squared):
        if np.any(np.diff(times) < 0):
            raise ValueError("the kick sum takes times in ascending order")
        means = gamma * times
        # every window is checked before any array is allocated
        windows = np.array([poisson_window(x) for x in means],
                           dtype=np.int64).reshape(-1, 2)
        width = int(np.max(np.diff(windows), initial=0)) + 1
        rows, theta = max(1, SERIES_BLOCK // (2 * width)), omega / gamma

        def kick_sums(m):  # g at the kick counts (or lags) m
            return unitary_factor.series(weights, theta, m.astype(float),
                                         gamma, False)

        g = (0, kick_sums(np.arange(width)) if squared else np.empty(0))
        ln_fact = (0, np.empty(0))
        out = np.empty(len(times))
        start = 0
        while start < len(times):  # rows whose counts fit, or one row
            stop = max(start + 1, min(start + rows, np.searchsorted(
                windows[:, 1], windows[start, 0] + SERIES_BLOCK // 2)))
            m_lo, m_hi = windows[start:stop].T
            offset = np.arange(np.max(m_hi - m_lo) + 1)
            kicks = np.add.outer(m_lo, offset)
            # both runs start at m_lo[0]; ln m! reaches kicks[-1, -1], g only
            # max(m_hi), so g is read clipped where p is 0
            ln_fact = _carried(ln_fact, m_lo[0], kicks[-1, -1], log_factorial)
            if not squared:
                g = _carried(g, m_lo[0], np.max(m_hi), kick_sums)
            at = kicks - m_lo[0]
            p = poisson_pmf(kicks, means[start:stop, None],
                            log_factorials=ln_fact[1][at])
            p[kicks > m_hi[:, None]] = 0.0
            p /= p.sum(axis=1, keepdims=True)
            if squared:  # A_0, 2 A_1, 2 A_2, ... on the lags as kick counts
                n = 1 << (2 * len(offset) - 1).bit_length()  # no wrap-around
                spectrum = np.fft.rfft(p, n)
                p = np.fft.irfft(spectrum.real**2 + spectrum.imag**2,
                                 n)[:, :len(offset)]
                p[:, 1:] *= 2.0
                at = np.broadcast_to(offset, p.shape)
            out[start:stop] = np.einsum(
                "ij,ij->i", p, np.take(g[1], at, mode="clip"))
            start = stop
        return out


kick_count_factor = KickCountFactor()


def prune_weights(weights):
    """Drop the smallest weights while their summed modulus stays within
    DROP_BUDGET; of the moduli equal to the largest dropped one, those of
    the lowest flat indices go first, as a stable sort would order them.

    Returns the flat indices of the kept weights, in ascending order, and
    the dropped sum.
    """
    modulus = np.abs(weights).ravel()
    ordered = np.sort(modulus)
    cumulative = np.cumsum(ordered)
    n_drop = int(np.searchsorted(cumulative, DROP_BUDGET, side="right"))
    dropped = float(cumulative[n_drop - 1]) if n_drop else 0.0
    cut = ordered[n_drop - 1] if n_drop else -np.inf
    drop = modulus < cut
    ties = np.flatnonzero(modulus == cut)  # lowest indices go first
    drop[ties[:n_drop - np.count_nonzero(drop)]] = True
    return np.flatnonzero(~drop), dropped


@functools.lru_cache(maxsize=4)  # read-only, the last four sizes
def _pair_table(size):  # j < k in the order of np.nonzero(np.less.outer)
    table = np.array(np.triu_indices(size, 1))
    table.flags.writeable = False
    return table


def block_pair_weights(amp, energies, op_blocks):
    """The series of Tr(rho(t) op) of a pure state, folded onto the
    eigenpairs j < k that may be nonzero, in an eigenbasis taken as
    blocks: amp and energies (blocks, m) hold the state's amplitudes and
    the eigenvalues, op_blocks (blocks, m, m) the operator's image, which
    joins only the eigenvectors of one block.  The operator's weights are
    w_jk = rho_e[j,k] op_e[k,j] = amp_j amp_k* op[k, j] on the pairs
    inside each block; the purity's (op_blocks None, factor |F|^2)
    |amp_j|^2 |amp_k|^2 on every pair of populated eigenvectors, in the
    order of energies.T.ravel().  As w_kj = conj w_jk, F(0) = 1 and
    F(-w) = conj F(w), the series is the diagonal sum |amp|^2 diag(op)
    (purity: sum |amp|^4) + Re sum_{j<k} 2 w_jk F(E_j - E_k, t).  Pairs
    that prune_weights drops are frozen at F = 1, their real parts
    joining the constant: the t = 0 value is kept and, as |F| <= 1, the
    error is at most twice the dropped sum.  Returns (constant, kept
    folded weights 2 w_jk, their omega, dropped sum)."""
    prob = np.abs(amp) ** 2
    if op_blocks is None:
        energies, prob = energies.T.ravel(), prob.T.ravel()
        live = np.flatnonzero(prob)  # ascending, so j < k as in the table
        count = len(live) * (len(live) - 1) // 2
        if count > PAIR_BUDGET:  # refused before the table is built
            raise MemoryError(
                f"the purity of {len(live)} populated eigenvectors needs "
                f"{count} pairs, more than {PAIR_BUDGET}; lower --alpha "
                "or leave purity out of --observables")
        # a table wider than the eigenbasis (a block route's purity) is not
        # cached: tables of up to PAIR_BUDGET pairs would outlive the call
        build = (_pair_table if len(live) <= amp.shape[1]
                 else _pair_table.__wrapped__)
        j, k = live[build(len(live))]
        diagonal, pairs = prob @ prob, prob[j] * prob[k]
        omega = energies[j] - energies[k]
    else:
        j, k = _pair_table(amp.shape[1])
        diagonal = (prob * np.diagonal(op_blocks, 0, 1, 2)).sum().real
        pairs = (amp[:, j] * amp[:, k].conj() * op_blocks[:, k, j]).ravel()
        omega = (energies[:, j] - energies[:, k]).ravel()
    folded = 2.0 * pairs
    keep, dropped = prune_weights(folded)
    constant = diagonal + np.delete(folded, keep).real.sum()
    return float(constant), folded[keep], omega[keep], dropped


def eigenbasis_series(amp, energies, image, atom_ops, times, factor, gamma):
    """Tr(rho(t) op (x) I) of a pure state for each atom operator of
    atom_ops (None: the purity) under the route's factor, from its
    eigenbasis, amp and energies (blocks, m) and image(op) (blocks, m, m):
    the factor's series over the kept pairs of block_pair_weights plus
    their constant.  One array per operator.

    Raises FloatingPointError where the phase that rounding an
    operator's kept eigenfrequencies can cost, 2^-52 max|omega| max|t|,
    passes PHASE_TOL.  On an equispaced grid an ExponentialFactor takes
    t = t_a + j h for the rounded row time, which adds at most about one
    more 2^-52 |omega| max|t| of phase: the same quantity, so the guard
    covers it.
    """
    times = np.asarray(times, dtype=float)
    top_t = float(np.max(np.abs(times), initial=0.0))
    series = []
    for op in atom_ops:
        constant, weights, omega, _ = block_pair_weights(
            amp, energies, None if op is None else image(op))
        top_omega = float(np.max(np.abs(omega), initial=0.0))
        lost = 2.0**-52 * top_omega * top_t
        if lost > PHASE_TOL:
            raise FloatingPointError(
                f"eigenfrequencies up to {top_omega:.3g} at times up to "
                f"{top_t:.3g} can lose {lost:.3g} rad of phase to rounding, "
                f"more than {PHASE_TOL:g}")
        series.append(factor.series(weights, omega, times, gamma, op is None)
                      + constant)
    return series


def traceless_eigh(d, c):
    """Closed-form eigh of the traceless Hermitian 2x2 blocks
    [[d, c], [c*, -d]], broadcast over d and c: -+r, r = hypot(d, |c|), on
    (-sin u, ph cos u) and (cos u, ph sin u), at the half angle
    u = atan2(|c|, d)/2 and the phase ph = c*/|c|: -+1 for a real c (1 at
    c = 0), so V is float64, and exp(-i arg c) for a complex one, as
    numpy's complex division by a subnormal |c| overflows.  |c| is
    hypot(Re c, Im c), as Python's abs takes it: numpy's complex abs can
    differ from it in the last bit.  At d = c = 0, r is exactly 0 and V
    the atom basis, with no division.  Returns (r, V), V[..., :, 0] the -r
    column."""
    mod = np.hypot(np.real(c), np.imag(c))
    half = np.arctan2(mod, d) / 2
    cos, sin, r = np.cos(half), np.sin(half), np.hypot(d, mod)
    ph = (np.exp(-1j * np.angle(c)) if np.iscomplexobj(c)
          else np.where(c < 0, -1.0, 1.0))
    return r, np.stack([-sin, cos, ph * cos, ph * sin], -1).reshape(
        *np.shape(half), 2, 2)


def interaction_eigh(h):
    """eigh of an h = [[a I, C], [C^dag, -a I]] by the SVD C = U S W^dag:
    on (u_k, w_k) h is the block [[a, s_k], [s_k, -a]], whose traceless_eigh
    gives -+hypot(a, s_k) and the coefficients of u_k and w_k, in
    ascending order; None for an h not of this form."""
    n, a = len(h) // 2, h[0, 0].real
    if not (np.array_equal(h[:n, :n], a * np.eye(n))
            and np.array_equal(h[n:, n:], -h[:n, :n])):
        return None
    u, s, w_dag = np.linalg.svd(h[:n, n:])  # s descends, so -r ascends
    r, v = traceless_eigh(a, s)
    (neg_u, pos_u), (neg_w, pos_w) = v.transpose(1, 2, 0)
    w = w_dag.conj().T
    return np.concatenate([-r, r[::-1]]), np.block(
        [[neg_u * u, (pos_u * u)[:, ::-1]], [neg_w * w, (pos_w * w)[:, ::-1]]])


class SpectralPropagator:
    """Eigendecomposition of h, the eigenbasis of the dense routes
    (spectral, full-oracle).  An h of the interaction form (atom blocks
    a I and -a I on the diagonal, as the full-oracle route's) is
    diagonalised by interaction_eigh, one SVD of its off-diagonal block,
    any other h (the spectral route's) by a dense eigh.  A real h (no
    imaginary part, whatever its dtype) is diagonalised in float64 and its
    eigenvectors are real; a real state or operator then reaches the
    eigenbasis in float64 too.  The rate enters only through evolve."""

    def __init__(self, h):
        h = real_if_real(h)
        _check_hermitian(h)
        self.energies, self.vectors = interaction_eigh(h) or np.linalg.eigh(h)

    def evolve(self, rho0, t, gamma):
        """rho(t) under Milburn's equation at rate gamma: rho0's eigenbasis
        entries times Milburn's factor at w = E_j - E_k."""
        omega = self.energies[:, None] - self.energies[None, :]
        rho_e = (self.vectors.conj().T @ real_if_real(rho0) @ self.vectors
                 * milburn_factor(omega, t, gamma))
        return self.vectors @ rho_e @ self.vectors.conj().T

    def eigenbasis(self, psi):
        """The pure state psi in the eigenbasis of h, taken as one block,
        for eigenbasis_series: (amp, energies, image) with the amplitudes
        V^dag psi, the eigenvalues and image(op) = V^dag (op (x) I) V of a
        2x2 atom operator, which acts on V's two atom halves."""
        v_dag, v = self.vectors.conj().T, self.vectors
        return ((v_dag @ real_if_real(psi))[None], self.energies[None],
                lambda op: (v_dag @ (real_if_real(op) @ v.reshape(2, -1))
                            .reshape(v.shape))[None])


def lindblad_first_order_evolve(rho0, h, t, gamma, dt):
    """First-order-in-1/gamma master equation,
    drho/dt = -i[h, rho] - (1/2 gamma) [h, [h, rho]],
    integrated with fixed-step RK4.  Hermiticity is re-symmetrized each
    step; trace drift beyond 1e-6, a step too large, raises a
    FloatingPointError.
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
        raise FloatingPointError(f"trace drifted by {drift:.3e}; reduce dt")
    return rho
