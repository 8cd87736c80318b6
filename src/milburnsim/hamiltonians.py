"""Hamiltonian construction on the joint atom-field space.

Three forms are provided: the interaction-picture Hamiltonian, the
dispersive effective Hamiltonian obtained via a small rotation, and the
displaced form whose inner core is diagonal in photon number (up to the
classical drive), built by displaced_blocks like the displaced
propagator.  The effective form is built exactly as its expanded
expression is written; `compare_operators` measures its gaps from the
rotated interaction Hamiltonian and the displaced form for `validate`'s
GAP lines rather than hiding them.
"""

import numpy as np

from .fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    annihilation,
    atom_field,
    creation,
    displacement,
    identity_field,
    matrix_exponential,
    number,
    photon_weights,
    real_if_real,
)
from .params import SystemParams, derived_params, warn_if_not_dispersive


def interaction_hamiltonian(p: SystemParams):
    """H_I = delta sz/2 + lam (a^dag s- + s+ a) + eps s+ + eps* s-, written
    as its atom blocks [[delta/2, lam a + eps], [lam a^dag + eps*,
    -delta/2]] of field operators: float64 when eps is real."""
    a = annihilation(p.dcut).real
    ident = np.eye(p.dcut)
    half = 0.5 * p.delta * ident
    return np.block([[half, p.lam * a + p.epsilon * ident],
                     [p.lam * a.T + np.conjugate(p.epsilon) * ident, -half]])


def effective_hamiltonian(p: SystemParams):
    """Dispersive effective Hamiltonian in expanded form:

    sz [ (2 lam^2/delta)(2N+1) + (2 lam/delta)(eps a^dag + eps* a)
         + delta/2 ] + eps s+ + eps* s-
    """
    warn_if_not_dispersive(p)
    a = annihilation(p.dcut)
    n_op = number(p.dcut)
    ident = identity_field(p.dcut)
    shift = 2.0 * p.lam**2 / p.delta
    drive = 2.0 * p.lam / p.delta
    field_part = (
        shift * (2.0 * n_op + ident)
        + drive * (p.epsilon * creation(p.dcut) + np.conjugate(p.epsilon) * a)
        + 0.5 * p.delta * ident
    )
    h = atom_field(SIGMA_Z, field_part)
    h += p.epsilon * atom_field(SIGMA_PLUS, ident)
    h += np.conjugate(p.epsilon) * atom_field(SIGMA_MINUS, ident)
    return h


def rabi_blocks(p: SystemParams, n):
    """Detuning Delta_n = chi n + delta_tilde and Rabi frequency
    Omega_n = hypot(Delta_n, |epsilon|) of the photon-number blocks h_n
    of the undisplaced core, for array-like n >= 0.  Omega_n is exactly
    0.0 in the degenerate case epsilon = 0 and Delta_n = 0."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"photon number must be >= 0, got {n.min()}")
    d = derived_params(p)
    detuned = d.chi * n + d.delta_tilde
    return detuned, np.hypot(detuned, abs(p.epsilon))


def effective_core_blocks(p: SystemParams):
    """The (dcut, 2, 2) stack of photon-number blocks of the undisplaced
    core, h_n = [[Delta_n, eps], [eps*, -Delta_n]] in the atom basis
    (|e>, |g>), with Delta_n from rabi_blocks."""
    detuned, _ = rabi_blocks(p, np.arange(p.dcut))
    blocks = np.empty((len(detuned), 2, 2), dtype=complex)
    blocks[:, 0, 0], blocks[:, 1, 1] = detuned, -detuned
    blocks[:, 0, 1], blocks[:, 1, 0] = p.epsilon, np.conjugate(p.epsilon)
    return blocks


def displaced_photon_weights(p: SystemParams):
    """Photon weights of |alpha - beta>, the field of the core's frame at
    every time, as the core conserves photon number, up to the last
    nonzero one; refuses a cutoff that it does not fit
    (fock.photon_weights), naming alpha and beta."""
    beta = derived_params(p).beta
    return photon_weights(
        abs(p.alpha - beta) ** 2, p.dcut,
        f"|alpha - beta> (alpha = {p.alpha:g}, beta = {beta:g})")


def displaced_blocks(p: SystemParams, blocks):
    """(I (x) D) blockdiag(blocks) (I (x) D^dag) of a (dcut, 2, 2) stack
    of atom blocks, one per photon number, with D = D(beta): its atom
    blocks (D diag(blocks[:, s, r])) D^dag, four products of dcut x dcut
    field factors, after displaced_photon_weights has checked the
    cutoff.  Float64 when beta and the blocks are real."""
    displaced_photon_weights(p)
    d = displacement(derived_params(p).beta, p.dcut)
    d_dag, blocks = d.conj().T, real_if_real(blocks)
    # each product scales D first, as (I (x) D) blockdiag(blocks) does
    return np.block([[(d * blocks[:, s, r]) @ d_dag for r in (0, 1)]
                     for s in (0, 1)])


def effective_hamiltonian_displaced(p: SystemParams):
    """D(beta) {sz [chi N + delta_tilde] + eps s+ + eps* s-} D^dag(beta):
    displaced_blocks of the core's blocks h_n, in float64 when beta and
    eps are real.  Returns the Hermitian part, which drops the rounding
    skew of the products."""
    warn_if_not_dispersive(p)
    h = displaced_blocks(p, effective_core_blocks(p))
    return 0.5 * (h + h.conj().T)


def _rotation_generator(dcut):
    return (atom_field(SIGMA_MINUS, creation(dcut))
            - atom_field(SIGMA_PLUS, annihilation(dcut)))


def small_rotation_exact(op, eta):
    """R op R^dag with R = exp[eta (a^dag s- - s+ a)], at op's cutoff."""
    rot = matrix_exponential(eta * _rotation_generator(len(op) // 2))
    return rot @ op @ rot.conj().T


def small_rotation_first_order(op, eta):
    """First-order rotation op + eta [a^dag s- - s+ a, op] at op's cutoff."""
    gen = _rotation_generator(len(op) // 2)
    return op + eta * (gen @ op - op @ gen)


def compare_operators(op_a, op_b, subblock):
    """Max-abs difference on the top-left subblock x subblock region.

    Restricting to a sub-block keeps truncation-edge artifacts out of
    the comparison.
    """
    op_a = np.asarray(op_a)
    op_b = np.asarray(op_b)
    if op_a.shape != op_b.shape:
        raise ValueError(f"shape mismatch: {op_a.shape} vs {op_b.shape}")
    if not 0 < subblock <= op_a.shape[0]:
        raise ValueError(f"subblock {subblock} out of range for {op_a.shape}")
    k = subblock
    return float(np.max(np.abs(op_a[:k, :k] - op_b[:k, :k])))
