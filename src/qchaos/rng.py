"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream): Philox is counter-based, so a stream's output is a pure
function of its key and position.  A routine that draws from several streams
numbers them 0, 1, 2, ... under the caller's seed: the census one per chunk,
the optimizer one per restart.
"""

from __future__ import annotations

import numpy as np

from .phases import require_integer


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """A Generator for the given (seed, stream) key; same key, same output.
    Both must be integers (``require_integer``) in [0, 2^64): no two keys share a stream."""
    seed, stream = require_integer("seed", seed), require_integer("stream", stream)
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        raise ValueError(f"seed and stream must lie in [0, 2**64), got {seed} and {stream}")
    key = (seed << 64) | stream
    return np.random.Generator(np.random.Philox(key=key))
