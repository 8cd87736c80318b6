"""Output checks for the benchmark's CLI invocations.

Each check reads a CSV the CLI wrote, applies the basic checks (header,
grid, finite values, physical bounds) and compares ``sigma_x`` with a
reference computed by an independent route.  A failed check raises
``CheckFailed``; a passed one returns the largest deviation it saw.
"""

import numpy as np
from scipy.linalg import expm

from milburnsim.fock import SIGMA_X, atom_field, identity_field
from milburnsim.hamiltonians import (
    effective_hamiltonian_displaced,
    interaction_hamiltonian,
)
from milburnsim.observables import initial_density
from milburnsim.params import SystemParams

BOUND_TOL = 1e-9  # slack on |sigma| <= 1 and purity <= 1


class CheckFailed(Exception):
    pass


def read_series(path, names, tmax, steps):
    """Parse a CLI time-series CSV and apply the basic checks.

    Returns {name: column}.
    """
    with open(path) as f:
        lines = [line for line in f if not line.startswith("#")]
    header = lines[0].rstrip("\n") if lines else ""
    expected = "t," + ",".join(names)
    if header != expected:
        raise CheckFailed(f"{path}: header {header!r}, expected {expected!r}")
    try:
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
    except ValueError as e:
        raise CheckFailed(f"{path}: unparsable value ({e})")
    if data.shape != (steps, len(names) + 1):
        raise CheckFailed(f"{path}: shape {data.shape}, expected "
                          f"{(steps, len(names) + 1)}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path}: non-finite value")
    if np.max(np.abs(data[:, 0] - np.linspace(0.0, tmax, steps))) > 1e-12:
        raise CheckFailed(f"{path}: time grid differs from linspace(0, "
                          f"{tmax}, {steps})")
    cols = dict(zip(names, data[:, 1:].T))
    for name, col in cols.items():
        if name == "purity":
            if np.any(col <= 0) or np.any(col > 1 + BOUND_TOL):
                raise CheckFailed(f"{path}: purity outside (0, 1]")
        elif np.any(np.abs(col) > 1 + BOUND_TOL):
            raise CheckFailed(f"{path}: |{name}| > 1")
    return cols


def compare(path, values, reference, tol):
    err = float(np.max(np.abs(values - reference)))
    if not err <= tol:
        raise CheckFailed(f"{path}: sigma_x deviates from its reference "
                          f"by {err:.3e} > {tol:.0e}")
    return err


def sample_indices(steps, count=5):
    return np.unique(np.linspace(0, steps - 1, count).astype(int))


def _hermitian(h):
    return 0.5 * (h + h.conj().T)


def milburn_state(p: SystemParams, times):
    """<sigma_x>(t) from the displaced effective Hamiltonian's own
    eigendecomposition, with Milburn's factor exp(gamma t (e^{-iw/gamma} - 1))
    per eigenfrequency difference w."""
    energies, vectors = np.linalg.eigh(_hermitian(
        effective_hamiltonian_displaced(p)))
    rho_e = vectors.conj().T @ initial_density(p) @ vectors
    x_e = vectors.conj().T @ atom_field(SIGMA_X, identity_field(p.dcut)) \
        @ vectors
    weights = rho_e * x_e.T
    omega = energies[:, None] - energies[None, :]
    rate = np.expm1(-1j * omega / p.gamma) * p.gamma
    return np.array([np.sum(weights * np.exp(rate * t)).real for t in times])


def unitary_dense(p: SystemParams, times):
    """<sigma_x>(t) under the full interaction Hamiltonian, one dense
    expm per time; the gamma -> infinity limit of the full-oracle route."""
    h = _hermitian(interaction_hamiltonian(p))
    rho0 = initial_density(p)
    x_op = atom_field(SIGMA_X, identity_field(p.dcut))
    out = []
    for t in times:
        u = expm(-1j * t * h)
        out.append(np.trace(u @ rho0 @ u.conj().T @ x_op).real)
    return np.array(out)
