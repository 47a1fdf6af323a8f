"""Discrete-time quantum walks on the N-cycle with coin decoherence.

Simulation (density-matrix and momentum-space paths), superoperator spectra,
and mixing-time analysis, with a CLI front end (``cyclewalk --help``).
"""

__version__ = "0.1.0"

from .core import (
    NumericalCheckError,
    WalkConfig,
    build_kraus_family,
    coin_state,
    hadamard_coin_momentum,
    pauli_compose,
    pauli_decompose,
)
from .fourier import superop_closed_form, superop_definitional
from .spectral import (
    SpectrumReport,
    char_poly,
    eigenvalues,
    spectral_gap,
)
from .evolution import (
    PositionDistribution,
    classical_reference,
    fourier_trajectory,
    position_marginal,
)
from .analysis import (
    MixingReport,
    limiting_distribution,
    mixing_time_averaged,
    mixing_time_instantaneous,
    time_averaged,
    total_variation,
    uniform_deviation_bound,
    verify_geometric_sum,
)

__all__ = [
    "__version__",
    "NumericalCheckError",
    "WalkConfig",
    "build_kraus_family",
    "coin_state",
    "hadamard_coin_momentum",
    "pauli_compose",
    "pauli_decompose",
    "superop_closed_form",
    "superop_definitional",
    "SpectrumReport",
    "char_poly",
    "eigenvalues",
    "spectral_gap",
    "PositionDistribution",
    "classical_reference",
    "fourier_trajectory",
    "position_marginal",
    "MixingReport",
    "limiting_distribution",
    "mixing_time_averaged",
    "mixing_time_instantaneous",
    "time_averaged",
    "total_variation",
    "uniform_deviation_bound",
    "verify_geometric_sum",
]
