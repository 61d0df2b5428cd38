"""Simultaneous confidence bands for functional data.

The package estimates bands of the form center +/- q * sd / rate that
cover a functional target (a mean curve or surface, a group difference,
or a whole family of smoothed means) simultaneously over its domain.
The critical value q comes either from the expected Euler characteristic
of the excursion sets of a limiting process, with the domain's intrinsic
volumes estimated from residuals, or from resampling (the nonparametric
bootstrap-t, or multiplier processes, which include direct Gaussian
simulation).

The public API is the union of the modules' __all__ lists (all but the
command line's, scbands.cli), re-exported here; every other module-level
name is internal and may change without notice.
"""

from . import bands, bootstrap, errors, experiments, fdata, kinematic, lkc, models, rng
from . import sampleio, scalespace
from .bands import *  # noqa: F403
from .bootstrap import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .fdata import *  # noqa: F403
from .kinematic import *  # noqa: F403
from .lkc import *  # noqa: F403
from .models import *  # noqa: F403
from .rng import *  # noqa: F403
from .sampleio import *  # noqa: F403
from .scalespace import *  # noqa: F403

__version__ = "1.0.0"
__all__ = sorted(name for module in (bands, bootstrap, errors, experiments, fdata, kinematic, lkc,
                                     models, rng, sampleio, scalespace) for name in module.__all__)
