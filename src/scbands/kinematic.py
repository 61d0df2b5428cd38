"""Euler characteristic densities and the band quantile solver.

The expected Euler characteristic (EEC) of the excursion set of a unit
field T above u expands as

    EEC(u) = L0 * rho_0(u) + sum_d L_d * rho_d(u),

with the Lipschitz-Killing curvatures L_d of the domain under the field
metric and family-specific EC densities rho_d. Solving EEC(u) = alpha/2 on
the decreasing tail gives the critical value of a two-sided simultaneous
band, since for one- and two-dimensional domains the EEC dominates the
excursion probability of max |T|.

The root is bracketed by [hi/2, hi] for the first doubling hi with EEC(hi) <
alpha/2, or by [0, 1] if EEC(1) < alpha/2: L0 >= 1, so EEC(0) >= rho_0(0) =
1/2 > alpha/2, and for u > 0 the slope is (1 + u^2/nu)^(-(nu+1)/2) times
-L0 c - L1 (nu-1) u / (2 pi nu) + L2 k (1 - (nu-2) u^2 / nu) with c, k > 0,
which decreases in u for nu >= 2 and in the Gaussian limit. So the EEC
rises at most once, then falls, and crosses alpha/2 exactly once: at the
largest root. For nu < 2, rho_2 grows like u^(2-nu): with L2 > 0 the EEC
has no last crossing, and is rejected.

tgkf_quantile is the one solver, for one curvature vector and for the R
rows of a block of replicates. Each row's search is the generator _root;
the rows step in lockstep, one eec call per step over the rows still
searching, so a block pays the per-call overhead of the EC densities once
per step instead of once per row. Each row's arithmetic is its own, so
each quantile is bitwise the row's solve alone.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import QuantileNoSolutionError, _check_alpha, _count, _is_real, _sequence

__all__ = ["LKCVector", "ECDensityModel", "eec", "tgkf_quantile"]

_TWO_PI = 2.0 * np.pi
_LKC_ROWS = "an LKCVector or a sequence of LKCVectors of one dimension"


@dataclass(frozen=True)
class LKCVector:
    """Intrinsic volumes (L0, L1[, L2]) of a domain under the field metric.

    l0 is the Euler characteristic of the domain, a positive integer (1 for
    the intervals and rectangles used here); curvatures holds (L1,) in 1-D
    or (L1, L2) in 2-D.
    """

    l0: int
    curvatures: tuple

    def __post_init__(self):
        curv, l0 = _sequence("curvatures", self.curvatures), _count("L0", self.l0, positive=True)
        if not 1 <= len(curv) <= 2:
            raise ValueError("only 1-D and 2-D domains are supported")
        if not all(_is_real(c) and 0.0 <= c < np.inf for c in curv):
            raise ValueError(f"curvatures must be finite non-negative numbers, got {curv!r}")
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "curvatures", tuple(map(float, curv)))


@dataclass(frozen=True)
class ECDensityModel:
    """EC density family: the Gaussian limit or a t field with dof degrees."""

    family: str
    dof: float = None

    def __post_init__(self):
        if self.family not in ("gaussian", "student_t"):
            raise ValueError(f"unknown EC density family {self.family!r}")
        if self.family == "student_t":
            if not (_is_real(self.dof) and 1 <= self.dof < np.inf):
                raise ValueError(f"student_t needs a finite dof >= 1, got {self.dof!r}")
            object.__setattr__(self, "dof", float(self.dof))
        elif self.dof is not None:
            raise ValueError("dof only applies to the student_t family")

    @classmethod
    def gaussian(cls):
        return cls("gaussian")

    @classmethod
    def student_t(cls, dof):
        return cls("student_t", dof)


def ec_density(model, d, u):
    """d-th EC density rho_d(u) of the model's field family, vectorized in u.

    Each family supplies an upper tail, a shape and a constant c:

        rho_0 = tail(u)
        rho_1 = shape(u) / (2 pi)
        rho_2 = c u shape(u) / (2 pi)^(3/2)

    Gaussian: tail Phi(-u), shape exp(-u^2/2), c = 1.
    Student t with nu degrees of freedom: tail F_nu(-u), shape
    (1 + u^2/nu)^(-(nu-1)/2), c = Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu/2)).
    As nu grows, the t family tends to the Gaussian one and c to 1.
    """
    if d not in (0, 1, 2):
        raise ValueError(f"EC densities are defined for d in 0..2, got {d}")
    uu = np.asarray(u, dtype=float)
    gaussian, nu = model.family == "gaussian", model.dof
    if d == 0:
        out = special.ndtr(-uu) if gaussian else special.stdtr(nu, -uu)
    else:
        if gaussian:
            shape, const = np.exp(-0.5 * uu * uu), 1.0
        else:
            # log1p keeps the shape accurate for huge nu, where the direct
            # power underflows to 1^(-inf) noise, and poch(nu/2, 1/2) is c's
            # Gamma ratio without a difference of two huge log-Gammas.
            shape = np.exp(-0.5 * (nu - 1.0) * np.log1p(uu * uu / nu))
            const = special.poch(0.5 * nu, 0.5) / np.sqrt(0.5 * nu) if d == 2 else 1.0
        out = shape / _TWO_PI if d == 1 else const * uu * shape * _TWO_PI**-1.5
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def eec(lkc, model, u):
    """Expected Euler characteristic of the excursion set above u.

    lkc is an LKCVector, or (in the lockstep solver) any l0 and curvatures
    whose entries broadcast with u: the EEC of each row at its own u.
    """
    total = lkc.l0 * ec_density(model, 0, u)
    for d, ld in enumerate(lkc.curvatures, start=1):
        total = total + ld * ec_density(model, d, u)
    return total


# Rows of curvatures in eec's form: an (R,) array of L0 and one (R,) array per L_d.
_Rows = namedtuple("_Rows", "l0 curvatures")


def _root(target):
    """One row's search for the largest u with EEC(u) = target, as a generator:
    it yields each u to evaluate, is sent EEC(u), and returns the root."""
    lo, hi = 0.0, 1.0
    while (yield hi) >= target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise QuantileNoSolutionError("EEC tail failed to drop below alpha/2")

    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (yield mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tgkf_quantile(lkc, model, alpha):
    """Largest u solving EEC(u) = alpha/2, for one LKCVector (a float) or
    for each of a sequence of R LKCVectors of one dimension (an (R,) array).

    hi doubles from 1 until EEC(hi) < alpha/2; the bisection then starts
    from [hi/2, hi], the last bracket the doubling proved ([0, 1] when
    EEC(1) is already below; the module docstring shows it holds one root),
    so no u is evaluated twice. It stops at a width of 1e-9 or at adjacent
    doubles (past about 4.5e6). So u lies within max(1e-9, one ulp) of a
    sign change of the floating EEC; rounding blurs where that is, e.g. near
    a root of 4e5 the floating EEC changes sign several times within 7e-10.

    Each row's search is _root; R rows step in lockstep, one eec call per
    step over the rows still searching, each at its own u, and the last
    row left (the only one, for one LKCVector or a lone band's list of one)
    steps alone on its own LKCVector. Every row's arithmetic is its own, so
    each quantile is bitwise the row's solve alone.

    Raises QuantileNoSolutionError for alpha outside (0, 1); for dof < 2 on
    a 2-D domain with L2 > 0; and when the EEC is still at least alpha/2 at
    u = 2^39, as flat or slowly decaying tails (nu <= 2) can be; for R rows,
    when any row has that error.
    """
    _check_alpha(alpha, QuantileNoSolutionError)
    one = isinstance(lkc, LKCVector)
    vectors = (lkc,) if one else _sequence("lkc", lkc, _LKC_ROWS)
    if not (vectors and all(isinstance(v, LKCVector) for v in vectors)
            and len({len(v.curvatures) for v in vectors}) == 1):
        raise ValueError(f"lkc must be {_LKC_ROWS}, got {lkc!r}")
    # curvatures[1:] holds L2 on a 2-D domain and nothing on a 1-D one.
    if model.family == "student_t" and model.dof < 2 and any(sum(v.curvatures[1:]) > 0
                                                             for v in vectors):
        raise QuantileNoSolutionError(
            f"2-D tGKF needs dof >= 2 (at least 3 surfaces), got dof={model.dof:g}"
        )
    searches = [_root(0.5 * alpha) for _ in vectors]
    probes = {i: next(search) for i, search in enumerate(searches)}
    stacks, roots = {}, [None] * len(vectors)  # stacks: the _Rows of each set of live rows
    while len(probes) > 1:
        live = tuple(probes)
        if live not in stacks:
            rows = [vectors[i] for i in live]
            stacks[live] = _Rows(np.array([v.l0 for v in rows]),
                                 np.array([v.curvatures for v in rows]).T)
        values = eec(stacks[live], model, np.array(list(probes.values()))).tolist()
        probes = {}
        for i, value in zip(live, values):
            try:
                probes[i] = searches[i].send(value)
            except StopIteration as done:
                roots[i] = done.value
    for i, u in probes.items():  # a last live row steps alone, on its own LKCVector
        try:
            while True:
                u = searches[i].send(eec(vectors[i], model, u))
        except StopIteration as done:
            roots[i] = done.value
    return roots[0] if one else np.array(roots)
