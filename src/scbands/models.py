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

The grid, normalised basis, mean and amplitude of a ModelSpec are built
once and cached; gen_model_block draws a stack of samples from them.
"""

import functools
from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import comb

from .fdata import FunctionalSample, Grid1D, Grid2D

__all__ = ["ModelSpec", "gen_model", "gen_model_block", "add_observation_noise", "model_mean"]

_MODEL_B_CENTERS = np.arange(1, 22) / 21.0
_MODEL_B_WIDTHS = np.array([0.04] * 9 + [0.2, 0.2] + [0.08] * 10)


def bernstein_basis(s):
    """The seven degree-6 Bernstein polynomials, one row per function."""
    s = np.asarray(s, dtype=float)
    i = np.arange(7)[:, None]
    return comb(6, i) * s[None, :] ** i * (1.0 - s[None, :]) ** (6 - i)


def bump_basis_1d(s):
    """21 Gaussian bumps exp(-(s - x_i)^2 / (2 h_i^2)), one row per bump."""
    s = np.asarray(s, dtype=float)
    d = s[None, :] - _MODEL_B_CENTERS[:, None]
    return np.exp(-0.5 * (d / _MODEL_B_WIDTHS[:, None]) ** 2)


def bump_basis_2d(x, y):
    """36 Gaussian bumps of width 0.06 centred on the lattice (i/6, j/6), i, j = 1..6."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    centers = np.array([(i / 6.0, j / 6.0) for i in range(1, 7) for j in range(1, 7)])
    d2 = (x[None, :] - centers[:, 0:1]) ** 2 + (y[None, :] - centers[:, 1:2]) ** 2
    return np.exp(-0.5 * d2 / 0.06**2)


def model_mean(name, *coords):
    """True mean function of the model at the given coordinates."""
    if name in ("A", "B"):
        (s,) = coords
        s = np.asarray(s, dtype=float)
        return np.sin(8.0 * np.pi * s) * np.exp(-3.0 * s)
    if name == "C":
        x, y = coords
        return np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
    raise ValueError(f"unknown model {name!r}")


def model_amplitude(name, *coords):
    """Pointwise noise sd profile of the model."""
    if name in ("A", "B"):
        (s,) = coords
        s = np.asarray(s, dtype=float)
        return ((0.6 - s) ** 2 + 1.0) / 6.0
    if name == "C":
        x, y = coords
        return (np.asarray(x, dtype=float) + 1.0) / (np.asarray(y, dtype=float) ** 2 + 1.0)
    raise ValueError(f"unknown model {name!r}")


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
        object.__setattr__(self, "midpoint_grid", bool(self.midpoint_grid))
        if self.model not in ("A", "B", "C"):
            raise ValueError(f"unknown model {self.model!r}")
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


def _is_real(value):
    """True for a real number that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_alpha(alpha):
    """ValueError unless alpha is a real number in (0, 1) that is not a bool."""
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_sigma_obs(sigma_obs):
    """ValueError unless the noise sd is a finite, non-negative real that is not a bool."""
    if not (_is_real(sigma_obs) and 0.0 <= sigma_obs < np.inf):
        raise ValueError(f"sigma_obs must be finite and non-negative, got {sigma_obs!r}")


def _integer(name, value):
    """int(value), or ValueError when value is not an integer-valued real
    number (10.0 is; True, "10" and None are not)."""
    if not (_is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    if spec.model == "C":
        x, y = grid.lattice_coords()
        basis = bump_basis_2d(x, y)
        mu = model_mean("C", x, y)
        amp = model_amplitude("C", x, y)
    else:
        s = grid.points
        basis = bernstein_basis(s) if spec.model == "A" else bump_basis_1d(s)
        mu = model_mean(spec.model, s)
        amp = model_amplitude(spec.model, s)
    basis = basis / np.linalg.norm(basis, axis=0)
    for arr in (basis, mu, amp):
        arr.setflags(write=False)
    return grid, basis, mu, amp


def gen_model_block(spec, n, rngs):
    """(R, N, P) array of R samples of N paths, sample r drawn from rngs[r].

    Sample r takes its coefficients from the Generator rngs[r] alone, and
    the stacked product computes each sample as its own (N, K) @ (K, P)
    matmul, so sample r equals gen_model(spec, n, rngs[r]) bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one sample path")
    _, basis, mu, amp = _model_parts(spec)
    shape = (int(n), basis.shape[0])
    values = np.stack([_draw_coefficients(spec, shape, gen) for gen in rngs]) @ basis
    values *= amp
    values += mu  # mu + amp * (coeffs @ basis), without two (R, N, P) temporaries
    return values


def gen_model(spec, n, rng):
    """Draw N sample paths of the model from the Generator rng."""
    return FunctionalSample(gen_model_block(spec, n, [rng])[0], _model_parts(spec)[0])


def add_observation_noise(sample, sigma_obs, rng):
    """Add iid N(0, sigma_obs) noise from the Generator rng to every entry."""
    _check_sigma_obs(sigma_obs)
    noise = rng.normal(0.0, sigma_obs, size=sample.values.shape)
    return FunctionalSample(sample.values + noise, sample.grid)
