"""Synthetic signal-plus-noise processes for simulations.

Each model draws Y = mu + amplitude * Z where Z(s) = c' K(s) / |K(s)| with
a fixed basis K and iid unit-variance coefficients c, so Z has pointwise
variance exactly 1 under every coefficient law and the pointwise sd of Y
equals the amplitude profile.

    Model A: curves on [0, 1]; mean sin(8 pi s) exp(-3 s); amplitude
             ((0.6 - s)^2 + 1) / 6; 7-function Bernstein basis (smooth,
             strongly dependent noise).
    Model B: same mean and amplitude; 21 Gaussian bumps at i/21 with
             widths 0.04 (i <= 9), 0.2 (i = 10, 11), 0.08 (i >= 12) giving
             rough, locally varying noise.
    Model C: surfaces on [0, 1]^2; mean x y; amplitude (x + 1)/(y^2 + 1);
             6 x 6 lattice of Gaussian bumps with width 0.06.

Coefficient laws: "gaussian" (standard normal), "t3" (t_3 / sqrt(3)), and
"chisq" ((chi^2_nu - nu) / sqrt(2 nu), skewed but asymptotically normal).

The grid of a ModelSpec, and its normalised basis, mean and amplitude (its
_MODELS entry at the grid's nodes), are built once and cached;
gen_model_block draws a stack of samples from them.
"""

import functools
import inspect
from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from .errors import _check_sigma_obs, _count, _flag, _integer
from .fdata import FunctionalSample, Grid1D, Grid2D

__all__ = ["ModelSpec", "gen_model", "gen_model_block", "add_observation_noise", "model_mean"]

_MODEL_B_CENTERS = np.arange(1, 22) / 21.0
_MODEL_B_WIDTHS = np.array([0.04] * 9 + [0.2, 0.2] + [0.08] * 10)


def bernstein_basis(s):
    """The seven degree-6 Bernstein polynomials, one row per function."""
    i = np.arange(7)[:, None]
    return comb(6, i) * s[None, :] ** i * (1.0 - s[None, :]) ** (6 - i)


def bump_basis_1d(s):
    """21 Gaussian bumps exp(-(s - x_i)^2 / (2 h_i^2)), one row per bump."""
    d = s[None, :] - _MODEL_B_CENTERS[:, None]
    return np.exp(-0.5 * (d / _MODEL_B_WIDTHS[:, None]) ** 2)


def bump_basis_2d(x, y):
    """36 Gaussian bumps of width 0.06 centred on the lattice (i/6, j/6), i, j = 1..6."""
    centers = np.array([(i / 6.0, j / 6.0) for i in range(1, 7) for j in range(1, 7)])
    d2 = (x[None, :] - centers[:, 0:1]) ** 2 + (y[None, :] - centers[:, 1:2]) ** 2
    return np.exp(-0.5 * d2 / 0.06**2)


# name -> (mean, amplitude, basis), each a function of the nodes' float coordinate
# arrays, a grid's lattice_coords(): (s,) on the curve models', (x, y) on C's.
_CURVE = (lambda s: np.sin(8.0 * np.pi * s) * np.exp(-3.0 * s),
          lambda s: ((0.6 - s) ** 2 + 1.0) / 6.0)
_MODELS = {
    "A": (*_CURVE, bernstein_basis),
    "B": (*_CURVE, bump_basis_1d),
    "C": (lambda x, y: x * y, lambda x, y: (x + 1.0) / (y**2 + 1.0), bump_basis_2d),
}


def _model(name):
    """_MODELS[name], or ValueError for a name that is not a model's."""
    if not isinstance(name, str) or name not in _MODELS:
        raise ValueError(f"unknown model {name!r}")
    return _MODELS[name]


def _profile(name, part, coords):
    """_model(name)[part] at the coordinate arrays coords, or ValueError for a
    coordinate count that is not the model's."""
    fn = _model(name)[part]
    dim = len(inspect.signature(fn).parameters)
    if len(coords) != dim:
        raise ValueError(f"model {name} takes {dim} coordinate array{'s' * (dim > 1)}, "
                         f"got {len(coords)}")
    return fn(*(np.asarray(c, dtype=float) for c in coords))


def model_mean(name, *coords):
    """True mean function of the model at the given coordinates."""
    return _profile(name, 0, coords)


def model_amplitude(name, *coords):
    """Pointwise noise sd profile of the model."""
    return _profile(name, 1, coords)


@dataclass(frozen=True)
class ModelSpec:
    """Which process to simulate and on what grid.

    resolution is the grid size (per axis for the surface model C).
    midpoint_grid=True places curve measurements at s_p = (p - 0.5) / P,
    the fixed design of the discrete-observation experiments; otherwise
    the grid spans [0, 1] endpoints inclusive.
    """

    model: str = "A"
    coef_law: str = "gaussian"
    nu: int = 7
    resolution: int = 200
    midpoint_grid: bool = False

    def __post_init__(self):
        for name in ("nu", "resolution"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "midpoint_grid", _flag("midpoint_grid", self.midpoint_grid))
        _model(self.model)
        if self.coef_law not in ("gaussian", "t3", "chisq"):
            raise ValueError(f"unknown coefficient law {self.coef_law!r}")
        if self.resolution < 3:
            raise ValueError("resolution must be at least 3")
        if self.nu < 1:
            raise ValueError("chi-square dof must be at least 1")

    def make_grid(self):
        if self.model == "C":
            axis = np.linspace(0.0, 1.0, self.resolution)
            return Grid2D(axis, axis)
        if self.midpoint_grid:
            pts = (np.arange(self.resolution) + 0.5) / self.resolution
        else:
            pts = np.linspace(0.0, 1.0, self.resolution)
        return Grid1D(pts)


def _draw_coefficients(spec, shape, gen):
    if spec.coef_law == "gaussian":
        return gen.standard_normal(shape)
    if spec.coef_law == "t3":
        return gen.standard_t(3, shape) / np.sqrt(3.0)
    nu = spec.nu
    return (gen.chisquare(nu, shape) - nu) / np.sqrt(2.0 * nu)


@functools.lru_cache(maxsize=16)
def _model_parts(spec):
    """(grid, basis, mean, amplitude) of a spec, read-only and shared by every draw.

    basis holds one column-normalised basis function per row, so the
    field c' basis has unit pointwise variance.
    """
    grid = spec.make_grid()
    coords = grid.lattice_coords()
    mu, amp, basis = (fn(*coords) for fn in _MODELS[spec.model])
    basis = basis / np.linalg.norm(basis, axis=0)
    for arr in (basis, mu, amp):
        arr.setflags(write=False)
    return grid, basis, mu, amp


def gen_model_block(spec, n, rng, replicates):
    """(R, N, P) array of R = replicates samples of N paths, all from the Generator rng.

    The (R, N, K) coefficients come from one draw of rng, so sample r
    holds the draws that follow sample r - 1's, and the stacked product
    computes each sample as its own (N, K) @ (K, P) matmul. One replicate
    is gen_model(spec, n, rng) bit for bit.
    """
    n, replicates = _count("n", n, positive=True), _count("replicates", replicates)
    _, basis, mu, amp = _model_parts(spec)
    shape = (replicates, n, basis.shape[0])
    values = _draw_coefficients(spec, shape, rng) @ basis
    values *= amp
    values += mu  # mu + amp * (coeffs @ basis), without two (R, N, P) temporaries
    return values


def gen_model(spec, n, rng):
    """Draw N sample paths of the model from the Generator rng."""
    return FunctionalSample(gen_model_block(spec, n, rng, 1)[0], _model_parts(spec)[0])


def add_observation_noise(sample, sigma_obs, rng):
    """Add iid N(0, sigma_obs) noise from the Generator rng to every entry."""
    _check_sigma_obs(sigma_obs)
    noise = rng.normal(0.0, sigma_obs, size=sample.values.shape)
    return FunctionalSample(sample.values + noise, sample.grid)
