"""Counter-based random streams with addressable substreams.

Every random draw in this package comes from a generator made by
``substream(seed, *path)``, the only constructor of generators: it keys a
counter-based generator by the SeedSequence that
``child_sequence(seed, *path)`` addresses. ``seed`` is an integer or
a SeedSequence (a branch of a caller's stream tree) and ``path`` is a
tuple of integers. A stream addressed by ``(seed, *path)`` always gives
the same draws, in whatever order (or on however many threads) the streams
are used.

STREAM_LAYOUT numbers the layout below; the sweep reports carry it, since
a new layout moves seeded outputs. A resampling band draws all of its
replicates from one stream (Rademacher signs as the bits of
``Generator.bytes``). A sweep replicate draws its curves, and its noise,
from one stream each. A block of the width table's reference row draws the
curves, and the noise, of all of its replicates from one stream each; its
boundaries depend only on N, the grid and the block's value budget.
"""

import numpy as np

from .errors import _count

__all__ = ["substream"]

STREAM_LAYOUT = 2


def child_sequence(seed, *path):
    """Child SeedSequence of ``seed`` addressed by the integers in ``path``.

    A SeedSequence seed extends its own spawn key, so callers can hand out
    branches of an existing stream tree; with an empty path an integer
    seed gives its root sequence.
    """
    key = tuple(_count("stream path entry", p) for p in path)
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key + key)
    return np.random.SeedSequence(entropy=_count("seed", seed), spawn_key=key)  # root key ()


def substream(seed, *path):
    """Philox generator for the child stream addressed by ``path``."""
    return np.random.Generator(np.random.Philox(child_sequence(seed, *path)))
