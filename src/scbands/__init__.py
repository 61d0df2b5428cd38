"""Simultaneous confidence bands for functional data.

The package estimates bands of the form center +/- q * sd / rate that
cover a functional target (a mean curve or surface, a group difference,
or a whole family of smoothed means) simultaneously over its domain.
The critical value q comes either from the expected Euler characteristic
of the excursion sets of a limiting process, with the domain's intrinsic
volumes estimated from residuals, or from resampling (the nonparametric
bootstrap-t, or multiplier processes, which include direct Gaussian
simulation).
"""

from .bands import (
    METHOD_NAMES,
    SCBand,
    band_to_dict,
    covers,
    normed_residuals,
    parse_method,
    scb_one_sample,
    scb_scale_space,
    scb_two_sample,
    two_sample_residuals,
)
from .bootstrap import (
    GAUSSIAN_MULTIPLIERS,
    RADEMACHER_MULTIPLIERS,
    BootstrapConfig,
    MultiplierLaw,
    boots_t_quantile,
    ceiling_rank_quantile,
    mult_t_quantile,
)
from .errors import DegenerateVarianceError, QuantileNoSolutionError
from .experiments import ExperimentConfig, run_coverage, run_width
from .fdata import (
    FunctionalSample,
    Grid1D,
    Grid2D,
    gradient,
    grids_equal,
    pointwise_sd,
    rectangle_boundary,
)
from .kinematic import ECDensityModel, LKCVector, ec_density, eec, tgkf_quantile
from .lkc import (
    LambdaField,
    lambda_hat,
    lkc_1d,
    lkc_2d,
    lkc_estimate,
    tau_sq_1d,
)
from .models import (
    ModelSpec,
    add_observation_noise,
    bernstein_basis,
    bump_basis_1d,
    bump_basis_2d,
    gen_model,
    gen_model_block,
    model_amplitude,
    model_mean,
)
from .rng import child_sequence, substream
from .sampleio import (
    format_report_table,
    read_sample,
    write_band,
    write_report_csv,
    write_report_json,
    write_sample,
)
from .scalespace import (
    ScaleGrid,
    gaussian_kernel,
    smooth_sample,
    weight_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "BootstrapConfig",
    "DegenerateVarianceError",
    "ECDensityModel",
    "ExperimentConfig",
    "FunctionalSample",
    "GAUSSIAN_MULTIPLIERS",
    "Grid1D",
    "Grid2D",
    "LKCVector",
    "LambdaField",
    "METHOD_NAMES",
    "ModelSpec",
    "MultiplierLaw",
    "QuantileNoSolutionError",
    "RADEMACHER_MULTIPLIERS",
    "SCBand",
    "ScaleGrid",
    "add_observation_noise",
    "band_to_dict",
    "bernstein_basis",
    "boots_t_quantile",
    "bump_basis_1d",
    "bump_basis_2d",
    "ceiling_rank_quantile",
    "child_sequence",
    "covers",
    "ec_density",
    "eec",
    "format_report_table",
    "gaussian_kernel",
    "gen_model",
    "gen_model_block",
    "gradient",
    "grids_equal",
    "lambda_hat",
    "lkc_1d",
    "lkc_2d",
    "lkc_estimate",
    "model_amplitude",
    "model_mean",
    "mult_t_quantile",
    "normed_residuals",
    "parse_method",
    "pointwise_sd",
    "read_sample",
    "rectangle_boundary",
    "run_coverage",
    "run_width",
    "scb_one_sample",
    "scb_scale_space",
    "scb_two_sample",
    "smooth_sample",
    "substream",
    "tau_sq_1d",
    "tgkf_quantile",
    "two_sample_residuals",
    "weight_matrix",
    "write_band",
    "write_report_csv",
    "write_report_json",
    "write_sample",
]
