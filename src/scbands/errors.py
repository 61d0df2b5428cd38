"""Shared exception types, and the input checks of every module (each raises a
ValueError naming the field): the import root, importing nothing from the package.
Every array read from outside goes through _real_array; its caller checks only
shape, size and order."""

from numbers import Real

import numpy as np

__all__ = ["DegenerateVarianceError", "QuantileNoSolutionError"]


class DegenerateVarianceError(ValueError):
    """A pointwise standard deviation needed for studentization is zero."""


class QuantileNoSolutionError(ValueError):
    """The tail equation EEC(u) = alpha/2 has no admissible solution."""


def _is_real(value):
    """True for a real number that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_alpha(alpha, error=ValueError):
    """Raise error, a ValueError type, unless alpha is a real in (0, 1) that is not a bool."""
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise error(f"alpha must lie in (0, 1), got {alpha!r}")


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


def _count(name, value, positive=False):
    """_integer(name, value), or ValueError when it is negative (or zero, if positive)."""
    value = _integer(name, value)
    if value < 0 or positive and value == 0:
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {sign}, got {value}")
    return value


def _flag(name, value):
    """bool(value), or ValueError unless value is a Python or numpy bool
    (a JSON "false" or a 0 is not)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def _sequence(name, value, what="a list"):
    """tuple(value), or ValueError "<name> must be <what>" when value is a
    string, a mapping or not iterable (a lone number where a list belongs)."""
    if isinstance(value, (str, bytes, dict)) or not np.iterable(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return tuple(value)


def _real_array(name, value, ndim, what):
    """A fresh read-only float64 copy of value, or ValueError "<name> must be
    <what>" (ragged, or not ndim dimensions), "<name> must hold real numbers,
    got <value>" (a dtype other than int or float: strings, bools, ints past
    the largest double; input that is not an ndarray is judged entry by entry
    too, so a bool among numbers is caught) or "<name> contains non-finite
    entries"."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting numpy cannot stack
        arr = None
    if arr is None or arr.ndim != ndim:
        raise ValueError(f"{name} must be {what}")
    if not (arr.dtype.kind in "iuf" and (isinstance(value, np.ndarray)
            or all(map(_is_real, np.asarray(value, dtype=object).flat)))):
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr
