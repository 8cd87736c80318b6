"""Two-level atom coupled to a quantized and a classical field in the
dispersive regime, evolving under intrinsic decoherence."""

__version__ = "0.1.0"
