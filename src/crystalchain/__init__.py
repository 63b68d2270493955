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
    ranked_from_values,
)
from .crystal import (
    MAX_CHAIN_LENGTH,
    MIN_CHAIN_LENGTH,
    BasisMap,
    CrystalLabels,
    Spin,
    SpinWord,
    enumerate_basis,
    hamming_distance,
    labels_from_word,
    labels_valid,
    validate_labels,
    word_from_labels,
)
from .dynamics import (
    SpectralDecomposition,
    StableHorizonError,
    TransitionProfile,
    eigendecompose,
    find_stable_T,
    infinite_time_average,
    time_averaged_profile,
    transition_probability,
)
from .hamiltonian import (
    CouplingValues,
    LadderResult,
    SymbolicHamiltonian,
    apply_a,
    apply_a_dagger,
    apply_a_ik,
    apply_a_ik_dagger,
    apply_j_minus,
    apply_j_plus,
    build_hamming,
    build_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
