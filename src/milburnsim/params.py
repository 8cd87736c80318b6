"""Physical parameters and the quantities derived from them.

All rates are in units of the atom-field coupling, time in its inverse.
hbar = 1 throughout.
"""

import cmath
import math
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
        beta = derived_params(self).beta
        try:
            means = abs(self.alpha) ** 2 + abs(self.alpha - beta) ** 2
        except OverflowError:
            means = math.inf
        if not math.isfinite(means):
            raise ValueError(f"|alpha|^2 and |alpha - beta|^2 must be finite, "
                             f"got alpha = {self.alpha}, beta = {beta}")


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
    delta_tilde = delta - |epsilon|^2/chi.

    Raises ValueError when one of them is not finite (chi underflowing
    to zero, or a square overflowing)."""
    try:
        eta = -p.lam / p.delta
        chi = -2.0 * p.lam**2 / p.delta
        beta = eta / chi
        delta_tilde = p.delta - abs(p.epsilon) ** 2 / chi
        finite = all(map(math.isfinite, (eta, chi, beta, delta_tilde)))
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise ValueError(f"eta, chi, beta and delta_tilde must be finite, got "
                         f"lambda = {p.lam}, delta = {p.delta}, "
                         f"epsilon = {p.epsilon}")
    return DerivedParams(eta=eta, chi=chi, beta=beta, delta_tilde=delta_tilde)
