"""Crystal-basis spin chains: exact ladder-operator Hamiltonians, spectral
time averaging of transition probabilities, and Yule/Zipf rank-size fits."""

__version__ = "0.1.0"

from .analysis import (
    FitError,
    FitResult,
    ModelComparison,
    PlateauxGroup,
    PlateauxReport,
    RankedDistribution,
    UnderdeterminedFitError,
    compare_models,
    fit_log_linear,
    fit_refine,
    plateaux_report,
    rank_order,
)
from .crystal import (
    MAX_CHAIN_LENGTH,
    MIN_CHAIN_LENGTH,
    BasisMap,
    enumerate_basis,
)
from .dynamics import (
    SpectralDecomposition,
    StableHorizonError,
    TransitionProfile,
    eigendecompose,
    find_stable_T,
    infinite_time_average,
    time_averaged_profile,
)
from .hamiltonian import (
    CouplingValues,
    SymbolicHamiltonian,
    build_hamming,
    build_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
