"""Hamiltonian construction on the joint atom-field space.

Three forms are provided: the interaction-picture Hamiltonian, the
dispersive effective Hamiltonian obtained via a small rotation, and the
displaced form whose inner core is diagonal in photon number (up to the
classical drive).  The effective form is built exactly as its expanded
expression is written; `compare_operators` exists to quantify how far it
sits from the exactly rotated interaction Hamiltonian rather than hiding
the gap.
"""

import numpy as np

from .fock import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    annihilation,
    atom_field,
    displacement,
    identity_field,
    matrix_exponential,
    number,
    photon_weights,
)
from .params import SystemParams, derived_params, warn_if_not_dispersive


def interaction_hamiltonian(p: SystemParams):
    """H_I = delta sz/2 + lam (a^dag s- + s+ a) + eps s+ + eps* s-."""
    a = annihilation(p.dcut)
    ident = identity_field(p.dcut)
    h = 0.5 * p.delta * atom_field(SIGMA_Z, ident)
    h += p.lam * (atom_field(SIGMA_MINUS, a.conj().T) + atom_field(SIGMA_PLUS, a))
    h += p.epsilon * atom_field(SIGMA_PLUS, ident)
    h += np.conjugate(p.epsilon) * atom_field(SIGMA_MINUS, ident)
    return h


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
        + drive * (p.epsilon * a.conj().T + np.conjugate(p.epsilon) * a)
        + 0.5 * p.delta * ident
    )
    h = atom_field(SIGMA_Z, field_part)
    h += p.epsilon * atom_field(SIGMA_PLUS, ident)
    h += np.conjugate(p.epsilon) * atom_field(SIGMA_MINUS, ident)
    return h


def effective_core(p: SystemParams):
    """Undisplaced core sz [chi N + delta_tilde] + eps s+ + eps* s-."""
    d = derived_params(p)
    n_op = number(p.dcut)
    ident = identity_field(p.dcut)
    h = atom_field(SIGMA_Z, d.chi * n_op + d.delta_tilde * ident)
    h += p.epsilon * atom_field(SIGMA_PLUS, ident)
    h += np.conjugate(p.epsilon) * atom_field(SIGMA_MINUS, ident)
    return h


def displaced_frame(p: SystemParams):
    """The joint displacement I (x) D(beta) into the frame of the core.

    The core conserves photon number, so the field's photon distribution
    there is that of |alpha - beta> at every time; refuses a cutoff that
    it does not fit (fock.photon_weights).
    """
    d = derived_params(p)
    photon_weights(abs(p.alpha - d.beta) ** 2, p.dcut)
    return atom_field(np.eye(2), displacement(d.beta, p.dcut))


def effective_hamiltonian_displaced(p: SystemParams):
    """D(beta) {sz [chi N + delta_tilde] + eps s+ + eps* s-} D^dag(beta),
    with the displacement acting on the field factor only.  Returns the
    Hermitian part, which drops the rounding skew of the products."""
    warn_if_not_dispersive(p)
    disp = displaced_frame(p)
    h = disp @ effective_core(p) @ disp.conj().T
    return 0.5 * (h + h.conj().T)


def _rotation_generator(dcut):
    a = annihilation(dcut)
    return atom_field(SIGMA_MINUS, a.conj().T) - atom_field(SIGMA_PLUS, a)


def small_rotation_exact(op, eta, dcut):
    """R op R^dag with R = exp[eta (a^dag s- - s+ a)]."""
    rot = matrix_exponential(eta * _rotation_generator(dcut))
    return rot @ op @ rot.conj().T


def small_rotation_first_order(op, eta, dcut):
    """First-order rotation op + eta [a^dag s- - s+ a, op]."""
    gen = _rotation_generator(dcut)
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
