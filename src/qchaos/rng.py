"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream): Philox is counter-based, so a stream's output is a pure
function of its key and position.  Parallel workers own disjoint stream ids
and results merge independently of scheduling.
"""

from __future__ import annotations

import numpy as np


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """A Generator for the given (seed, stream) key; same key, same output.
    Both must be integers (numpy integers pass, bools do not) in [0, 2^64),
    so that no two keys share a stream."""
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (seed, stream)):
        raise ValueError("seed and stream must be integers")
    seed, stream = int(seed), int(stream)
    if not (0 <= seed < 1 << 64 and 0 <= stream < 1 << 64):
        raise ValueError(f"seed and stream must lie in [0, 2**64), got {seed} and {stream}")
    key = (seed << 64) | stream
    return np.random.Generator(np.random.Philox(key=key))
