"""Deterministic sampling helpers.

All randomness in the package flows through Philox, a counter-based generator:
the pair (seed, stream) fully determines a draw sequence, so per-sample and
per-sweep-cell streams can be derived without any shared generator state and
results do not depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import sized

_MASK = 0xFFFFFFFFFFFFFFFF
_ZEROS = np.zeros(4, np.uint64)


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([seed & _MASK, stream & _MASK], np.uint64)


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream); independent streams for distinct keys."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def restart(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """rng, a generator from `rng_stream`, moved to the start of stream (seed, stream)
    (counter 0, empty buffers, no saved uint32): it then draws what
    rng_stream(seed, stream) draws, at a fraction of the cost of building that."""
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": _key(seed, stream)},
                               "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def sample_on_section(rng: np.random.Generator, n: int, lo: float, hi: float, count: int) -> np.ndarray:
    """Uniform states on the section: one uniformly chosen coordinate is pinned
    to 0, the others are uniform in [lo, hi]."""
    out = sized(rng.uniform, lo, hi, size=(count, n))
    faces = rng.integers(0, n, size=count)
    out[np.arange(count), faces] = 0.0
    return out
