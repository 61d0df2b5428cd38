"""Simultaneous confidence bands for functional data.

The package estimates bands of the form center +/- q * sd / rate that
cover a functional target (a mean curve or surface, a group difference,
or a whole family of smoothed means) simultaneously over its domain.
The critical value q comes either from the expected Euler characteristic
of the excursion sets of a limiting process, with the domain's intrinsic
volumes estimated from residuals, or from resampling (the nonparametric
bootstrap-t, or multiplier processes, which include direct Gaussian
simulation).

The names below are the public API; every other module-level name is
internal and may change without notice.
"""

from .bands import (
    METHOD_NAMES,
    SCBand,
    band_to_dict,
    covers,
    normed_residuals,
    scb_one_sample,
    scb_scale_space,
    scb_two_sample,
    two_sample_residuals,
)
from .bootstrap import ceiling_rank_quantile
from .errors import DegenerateVarianceError, QuantileNoSolutionError
from .experiments import ExperimentConfig, run_coverage, run_width
from .fdata import FunctionalSample, Grid1D, Grid2D
from .kinematic import ECDensityModel, LKCVector, eec, tgkf_quantile
from .lkc import lambda_hat, lkc_1d, lkc_2d, lkc_estimate
from .models import ModelSpec, add_observation_noise, gen_model, gen_model_block, model_mean
from .rng import substream
from .sampleio import (
    format_report_table,
    read_sample,
    write_band,
    write_report_csv,
    write_report_json,
    write_sample,
)
from .scalespace import ScaleGrid, gaussian_kernel, smooth_sample, weight_matrix

__version__ = "1.0.0"

__all__ = [
    "DegenerateVarianceError",
    "ECDensityModel",
    "ExperimentConfig",
    "FunctionalSample",
    "Grid1D",
    "Grid2D",
    "LKCVector",
    "METHOD_NAMES",
    "ModelSpec",
    "QuantileNoSolutionError",
    "SCBand",
    "ScaleGrid",
    "add_observation_noise",
    "band_to_dict",
    "ceiling_rank_quantile",
    "covers",
    "eec",
    "format_report_table",
    "gaussian_kernel",
    "gen_model",
    "gen_model_block",
    "lambda_hat",
    "lkc_1d",
    "lkc_2d",
    "lkc_estimate",
    "model_mean",
    "normed_residuals",
    "read_sample",
    "run_coverage",
    "run_width",
    "scb_one_sample",
    "scb_scale_space",
    "scb_two_sample",
    "smooth_sample",
    "substream",
    "tgkf_quantile",
    "two_sample_residuals",
    "weight_matrix",
    "write_band",
    "write_report_csv",
    "write_report_json",
    "write_sample",
]
