"""ncqo: coherent and cat states of a minimal-length (noncommutative)
harmonic oscillator — squeezing diagnostics, Mandel statistics and
beam-splitter entanglement, each backed by an independent truncated
Fock-space oracle."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CutoffError,
    DegenerateStateError,
    DimensionError,
    HermiticityError,
    NcqoError,
    SingularMetricError,
)
from .fock import FockVector
from .states import DeformedState, StateFamily, StateKind, build_cat, build_coherent
from .observables import NumberMoments, QuadratureMoments
from .beamsplitter import SplitterParams

__all__ = [
    "__version__",
    "NcqoError",
    "DimensionError",
    "HermiticityError",
    "SingularMetricError",
    "DegenerateStateError",
    "CutoffError",
    "ConfigError",
    "FockVector",
    "DeformedState",
    "StateFamily",
    "StateKind",
    "build_cat",
    "build_coherent",
    "QuadratureMoments",
    "NumberMoments",
    "SplitterParams",
]
