"""Malformed-array cases shared by every validation test of an array argument."""

import numpy as np
import pytest


def _malformed(good, name, what):
    """(bad input, exact error message) pairs derived from good, a valid float
    array with at least 3 entries along its first axis: a ragged list, strings,
    a list that mixes in a bool, a bool ndarray, and NaN and inf entries."""
    rows = good.tolist()
    if good.ndim == 1:
        ragged = [rows[:1], rows[1:]]
    else:
        ragged = rows[:-1] + [rows[-1][:-1]]
    mixed = good.astype(object)
    mixed.flat[0] = True
    cases = [(ragged, f"{name} must be {what}")]
    for bad in (good.astype(str).tolist(), mixed.tolist(), np.ones(good.shape, dtype=bool)):
        cases.append((bad, f"{name} must hold real numbers, got {bad!r}"))
    for value in (np.nan, np.inf):
        bad = good.copy()
        bad.flat[-1] = value
        cases.append((bad, f"{name} contains non-finite entries"))
    return cases


@pytest.fixture
def malformed():
    """_malformed: every case names the field, none shows numpy's own text."""
    return _malformed
