"""Physical parameters and the quantities derived from them.

All rates are in units of the atom-field coupling, time in its inverse.
hbar = 1 throughout.
"""

import cmath
import warnings
from dataclasses import dataclass


DISPERSIVE_RATIO = 5.0  # warn below |delta| = 5 * lam


class DispersiveValidityWarning(UserWarning):
    """Detuning is not large compared to the coupling."""


@dataclass(frozen=True)
class SystemParams:
    """Free physical inputs: coupling, classical drive, detuning,
    decoherence rate, initial coherent amplitude, Fock cutoff."""

    lam: float = 1.0
    epsilon: complex = 0.0
    delta: float = 2.0
    gamma: float = 1e6
    alpha: complex = 2.5
    dcut: int = 64

    def __post_init__(self):
        for name in ("lam", "epsilon", "delta", "gamma", "alpha"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.lam <= 0:
            raise ValueError(f"coupling must be positive, got {self.lam}")
        if self.delta == 0:
            raise ValueError("detuning must be nonzero (dispersive regime)")
        if self.gamma <= 0:
            raise ValueError(f"decoherence rate must be positive, got {self.gamma}")
        if self.dcut < 2:
            raise ValueError(f"Fock cutoff must be >= 2, got {self.dcut}")


@dataclass(frozen=True)
class DerivedParams:
    """Rotation parameter, dispersive rate, displacement amplitude and
    shifted detuning implied by a SystemParams."""

    eta: float
    chi: float
    beta: float
    delta_tilde: float


def warn_if_not_dispersive(p: SystemParams):
    """Emit a warning when the detuning is too small for the dispersive
    approximation to be trustworthy.  Never refuses."""
    if abs(p.delta) < DISPERSIVE_RATIO * p.lam:
        warnings.warn(
            f"detuning |{p.delta}| < {DISPERSIVE_RATIO}x coupling {p.lam}: "
            "dispersive approximation is marginal",
            DispersiveValidityWarning,
            stacklevel=3,
        )


def derived_params(p: SystemParams) -> DerivedParams:
    """eta = -lam/delta, chi = -2 lam^2/delta, beta = eta/chi,
    delta_tilde = delta - |epsilon|^2/chi."""
    if p.delta == 0:
        raise ValueError("detuning must be nonzero")
    if p.lam == 0:
        raise ValueError("coupling must be nonzero (dispersive rate vanishes)")
    eta = -p.lam / p.delta
    chi = -2.0 * p.lam**2 / p.delta
    beta = eta / chi
    delta_tilde = p.delta - abs(p.epsilon) ** 2 / chi
    return DerivedParams(eta=eta, chi=chi, beta=beta, delta_tilde=delta_tilde)
