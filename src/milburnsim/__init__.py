"""Two-level atom coupled to a quantized and a classical field in the
dispersive regime, evolving under intrinsic decoherence."""

from .params import SystemParams, DerivedParams, derived_params
from .fock import (
    annihilation,
    creation,
    number,
    displacement,
    coherent_state,
    atom_field,
    matrix_exponential,
    expectation,
)
from .hamiltonians import (
    interaction_hamiltonian,
    effective_hamiltonian,
    effective_core,
    effective_hamiltonian_displaced,
    small_rotation_exact,
    small_rotation_first_order,
    compare_operators,
)
from .dynamics import (
    MilburnConfig,
    TimeSeries,
    SpectralPropagator,
    rabi_blocks,
    block_propagators,
    effective_propagator,
    schrodinger_evolve,
    milburn_poisson_evolve,
    milburn_spectral_evolve,
    lindblad_first_order_evolve,
)
from .observables import (
    RevivalMetrics,
    initial_density,
    closed_form_series,
    sigma_x_closed_form,
    sigma_x_from_state,
    atomic_inversion,
    purity,
    revival_metrics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
