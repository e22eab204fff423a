"""rmtlab: a numerical laboratory for bulk spectral statistics of random matrices.

Subpackages by task:

    rng         reproducible counter-based random streams
    ensembles   sparse Erdos-Renyi, generic sparse, and GOE samplers
    spectral    eigendecomposition and single-matrix spectral functionals
    flow        the matrix Ornstein-Uhlenbeck flow and its Gaussian split
    free_conv   free-convolution fixed point, deformed density and quantiles
    statistics  gaps, repulsion, correlation averages, paired comparisons
    experiments config-driven runner behind the ``rmtlab`` CLI
    acceptance  the 11-criterion desk-scale verification suite
"""

from .ensembles import (
    EnsembleSpec,
    SymmetricTridiagonal,
    sample_goe,
    sample_goe_tridiagonal,
    sample_matrix,
)
from .errors import (
    AccuracyError,
    BranchError,
    DegenerateSpectrumError,
    FixedPointError,
    InfeasibleDecompositionError,
    NumericalError,
)
from .flow import FlowParams, FlowSample, decompose_sample, evolve, theta_t
from .free_conv import (
    DensityProfile,
    FreeConvInput,
    classical_location_t,
    density_from_stieltjes,
    density_on_support,
    deviation_report,
    solve_m_t,
)
from .rng import RngStream, derive_stream, trial_map
from .spectral import (
    DeformationSelector,
    SpectralDecomposition,
    bulk_indices,
    classical_location,
    eigenvalue_derivatives,
    eigenvalues_of,
    eigh,
    local_law_deviation,
    m_sc,
    rho_sc,
    semicircle_cdf,
    stieltjes_empirical,
)
from .statistics import (
    CutoffSpec,
    ObservableSpec,
    bulk_gaps,
    chi_m,
    chi_q_flow_comparison,
    correlation_average,
    green_trace_comparison,
    ks_distance,
    ks_distance_to_cdf,
    level_repulsion_probability,
    q_statistic,
    sample_spectra,
    wilson_interval,
)

__version__ = "0.1.0"
