#!/usr/bin/env python3
"""Report how far the expanded dispersive Hamiltonian sits from rotated
forms of the interaction Hamiltonian.

The expanded form carries coefficients 2*lam^2/delta and 2*lam/delta,
while a direct first-order commutator calculation produces half those
coefficients plus an identity-proportional term, so the two
constructions disagree; this script records the numeric gaps instead of
silently adopting either convention.  The dynamics and the closed-form polarization use the
displaced (chi N + delta_tilde) core throughout, which is internally
consistent.
"""

import numpy as np

from milburnsim.hamiltonians import (
    compare_operators,
    effective_hamiltonian,
    effective_hamiltonian_displaced,
    interaction_hamiltonian,
    small_rotation_exact,
    small_rotation_first_order,
)
from milburnsim.params import SystemParams, derived_params


def report(dcut=16, subblock=8):
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=dcut)
    d = derived_params(p)
    h_int = interaction_hamiltonian(p)
    h_exp = effective_hamiltonian(p)
    h_disp = effective_hamiltonian_displaced(p)
    rot_first = small_rotation_first_order(h_int, d.eta, dcut)
    rot_exact = small_rotation_exact(h_int, d.eta, dcut)

    print(f"couplings: lam={p.lam}, delta={p.delta}, eps={p.epsilon}, "
          f"eta={d.eta}, chi={d.chi}, dcut={dcut}, "
          f"compared on top-left {subblock}x{subblock}")
    rows = [
        ("expanded form vs first-order rotation", h_exp, rot_first),
        ("expanded form vs exact rotation", h_exp, rot_exact),
        ("expanded form vs displaced core form", h_exp, h_disp),
        ("exact vs first-order rotation", rot_exact, rot_first),
        ("displaced core form vs exact rotation", h_disp, rot_exact),
    ]
    for name, a, b in rows:
        print(f"  {name}: max|diff| = "
              f"{compare_operators(a, b, subblock):.6f}")


if __name__ == "__main__":
    report()
