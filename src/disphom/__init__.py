"""Windowed Hong-Ou-Mandel coincidence modeling for dispersed SPDC pairs.

Closed-form coincidence rate under a finite rectangular coincidence window,
a brute-force quadrature reference, global multi-dataset fitting with shared
dispersion/spectral parameters, and synthetic-campaign tooling.
"""

from .erfkernel import erf_real, scaled_dip_term
from .fitting import (
    FitParams,
    FitProblem,
    FitResult,
    lm_fit,
    profile_scale,
)
from .io import (
    CampaignConfig,
    DatasetFormatError,
    generate_synthetic,
    poisson_counts,
    read_dataset,
    write_dataset,
)
from .model import (
    C_MM_PER_PS,
    C_NM_PER_PS,
    ChannelParams,
    Dataset,
    DerivedSpectral,
    EpmCheck,
    FilterConvention,
    FilterParams,
    FwhmResult,
    HomCurve,
    SourceParams,
    broadened_rho,
    canonical_eta,
    check_epm,
    coincidence_curve,
    derive_gammas,
    derive_spectral,
    eta_prime,
    extract_fwhm,
    filter_variance,
    oscillation_period,
)
from .oracle import QuadratureError, windowed_rate_numeric

__version__ = "0.1.0"

__all__ = [
    "C_MM_PER_PS",
    "C_NM_PER_PS",
    "CampaignConfig",
    "ChannelParams",
    "Dataset",
    "DatasetFormatError",
    "DerivedSpectral",
    "EpmCheck",
    "FilterConvention",
    "FilterParams",
    "FitParams",
    "FitProblem",
    "FitResult",
    "FwhmResult",
    "HomCurve",
    "QuadratureError",
    "SourceParams",
    "broadened_rho",
    "canonical_eta",
    "check_epm",
    "coincidence_curve",
    "derive_gammas",
    "derive_spectral",
    "erf_real",
    "eta_prime",
    "extract_fwhm",
    "filter_variance",
    "generate_synthetic",
    "lm_fit",
    "oscillation_period",
    "poisson_counts",
    "profile_scale",
    "read_dataset",
    "scaled_dip_term",
    "windowed_rate_numeric",
    "write_dataset",
]
