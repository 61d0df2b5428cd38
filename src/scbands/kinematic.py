"""Euler characteristic densities and the band quantile solver.

The expected Euler characteristic (EEC) of the excursion set of a unit
field T above u expands as

    EEC(u) = L0 * rho_0(u) + sum_d L_d * rho_d(u),

with the Lipschitz-Killing curvatures L_d of the domain under the field
metric and family-specific EC densities rho_d. Solving EEC(u) = alpha/2 on
the decreasing tail gives the critical value of a two-sided simultaneous
band, since for one- and two-dimensional domains the EEC dominates the
excursion probability of max |T|.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import QuantileNoSolutionError

__all__ = ["LKCVector", "ECDensityModel", "ec_density", "eec", "tgkf_quantile"]

_TWO_PI = 2.0 * np.pi

# Bracketing knobs for the quantile solver: coarse scan that locates the
# last stationary point of the EEC, then bisection on the decreasing tail.
_SCAN_HI = 10.0
_SCAN_STEP = 0.01
_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class LKCVector:
    """Intrinsic volumes (L0, L1[, L2]) of a domain under the field metric.

    l0 is the Euler characteristic of the domain (1 for the intervals and
    rectangles used here, 0 admitted for algebra like the EEC linearity
    identity); curvatures holds (L1,) in 1-D or (L1, L2) in 2-D.
    """

    l0: int
    curvatures: tuple

    def __post_init__(self):
        curv = tuple(float(c) for c in self.curvatures)
        if not 1 <= len(curv) <= 2:
            raise ValueError("only 1-D and 2-D domains are supported")
        if any(not np.isfinite(c) or c < 0 for c in curv):
            raise ValueError("curvatures must be finite and non-negative")
        if int(self.l0) < 0:
            raise ValueError("L0 must be non-negative")
        object.__setattr__(self, "l0", int(self.l0))
        object.__setattr__(self, "curvatures", curv)


@dataclass(frozen=True)
class ECDensityModel:
    """EC density family: the Gaussian limit or a t field with dof degrees."""

    family: str
    dof: float = None

    def __post_init__(self):
        if self.family not in ("gaussian", "student_t"):
            raise ValueError(f"unknown EC density family {self.family!r}")
        if self.family == "student_t":
            if self.dof is None or not np.isfinite(self.dof) or self.dof < 1:
                raise ValueError("student_t needs dof >= 1")
            object.__setattr__(self, "dof", float(self.dof))
        elif self.dof is not None:
            raise ValueError("dof only applies to the student_t family")

    @classmethod
    def gaussian(cls):
        return cls("gaussian")

    @classmethod
    def student_t(cls, dof):
        return cls("student_t", float(dof))


def ec_density(model, d, u):
    """d-th EC density rho_d(u) of the model's field family, vectorized in u.

    Gaussian:
        rho_0 = 1 - Phi(u) = Phi(-u)
        rho_1 = exp(-u^2/2) / (2 pi)
        rho_2 = u exp(-u^2/2) / (2 pi)^(3/2)
    Student t with nu degrees of freedom:
        rho_0 = upper tail of t_nu at u = F_nu(-u)
        rho_1 = (1 + u^2/nu)^(-(nu-1)/2) / (2 pi)
        rho_2 = Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu/2))
                * u (1 + u^2/nu)^(-(nu-1)/2) / (2 pi)^(3/2)
    """
    if d not in (0, 1, 2):
        raise ValueError(f"EC densities are defined for d in 0..2, got {d}")
    uu = np.asarray(u, dtype=float)
    if model.family == "gaussian":
        if d == 0:
            out = special.ndtr(-uu)
        elif d == 1:
            out = np.exp(-0.5 * uu * uu) / _TWO_PI
        else:
            out = uu * np.exp(-0.5 * uu * uu) * _TWO_PI**-1.5
    else:
        nu = model.dof
        if d == 0:
            out = special.stdtr(nu, -uu)
        else:
            # log1p keeps (1 + u^2/nu)^(-(nu-1)/2) accurate for huge nu,
            # where the direct power underflows to 1^(-inf) noise.
            shape = np.exp(-0.5 * (nu - 1.0) * np.log1p(uu * uu / nu))
            if d == 1:
                out = shape / _TWO_PI
            else:
                lg = special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
                const = np.exp(lg) / np.sqrt(0.5 * nu)
                out = const * uu * shape * _TWO_PI**-1.5
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def eec(lkc, model, u):
    """Expected Euler characteristic of the excursion set above u."""
    total = lkc.l0 * ec_density(model, 0, u)
    for d, ld in enumerate(lkc.curvatures, start=1):
        total = total + ld * ec_density(model, d, u)
    return total


def tgkf_quantile(lkc, model, alpha):
    """Largest u solving EEC(u) = alpha/2, to absolute tolerance 1e-9.

    The EEC can rise before it decays (the d=2 density vanishes at u=0 and
    peaks near u=1), so the bracket starts at the last stationary point of
    a coarse scan over [0, 10] and expands to the right by doubling before
    bisection. Raises QuantileNoSolutionError when alpha/2 exceeds the EEC
    maximum on the tail, i.e. when no solution exists there.
    """
    if not 0.0 < alpha < 1.0:
        raise QuantileNoSolutionError(f"alpha must lie in (0, 1), got {alpha}")
    target = 0.5 * alpha

    scan_u = np.arange(0.0, _SCAN_HI + _SCAN_STEP, _SCAN_STEP)
    scan_v = np.asarray(eec(lkc, model, scan_u))
    if not np.all(np.isfinite(scan_v)):
        raise QuantileNoSolutionError("EEC evaluated to a non-finite value")
    slopes = np.diff(scan_v)
    turns = np.flatnonzero((slopes[:-1] >= 0) & (slopes[1:] < 0))
    u_lo = float(scan_u[turns[-1] + 1]) if turns.size else 0.0

    if eec(lkc, model, u_lo) < target:
        raise QuantileNoSolutionError(
            f"alpha={alpha} too large: EEC never reaches {target} on the tail"
        )

    step = 1.0
    u_hi = u_lo + step
    while eec(lkc, model, u_hi) >= target:
        step *= 2.0
        u_hi = u_lo + step
        if step > 1e12:
            raise QuantileNoSolutionError("EEC tail failed to drop below alpha/2")

    lo, hi = u_lo, u_hi
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if eec(lkc, model, mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
