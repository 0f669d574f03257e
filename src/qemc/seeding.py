"""Deterministic seed derivation for trial-level parallelism.

All randomness in the package flows through one master seed per experiment.
Child streams are derived by hashing a tag path (experiment name, instance
index, trial index, ...) into a :class:`numpy.random.SeedSequence`, so results
never depend on scheduling order and any single trial can be replayed from the
master seed plus its tags alone.

A child's entropy is the 32-bit words of its int tags (masked to 64 bits) and
of the first 8 bytes of the SHA-256 of any other tag's ``repr``: the words numpy
made of the tuple of ints earlier versions passed, so every stream is unchanged
and only a derived sequence's ``.entropy`` reads differently (a uint32 array).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

__all__ = ["child_sequence", "child_rng", "derive_seed"]


def _words(value: int) -> list:
    """numpy's little-endian 32-bit words of an int >= 0: no leading zero word,
    and zero as one zero word."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


@lru_cache(maxsize=1024)
def _repr_words(text: str) -> tuple:
    """Words of a non-int tag whose ``repr`` is ``text``.  Keyed by the repr, not
    the tag: 0.5 and np.float64(0.5) are equal keys but hash differently here."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return tuple(_words(int.from_bytes(digest[:8], "little")))


def _tag_words(tag):
    if isinstance(tag, (int, np.integer)):
        return _words(int(tag) & 0xFFFFFFFFFFFFFFFF)
    return _repr_words(repr(tag))


def _entropy_words(value) -> list:
    """Words of a SeedSequence's entropy or spawn key: an int, or a (nested)
    sequence or array of ints, word by word."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.ravel().tolist()
    if isinstance(value, (int, np.integer)):
        return _words(int(value))
    return [word for item in value for word in _entropy_words(item)]


def child_sequence(seed, *tags) -> np.random.SeedSequence:
    """Derive a named child SeedSequence from ``seed`` and a tag path.

    The same (seed, tags) always yields the same stream; distinct tag paths
    yield statistically independent streams.  ``seed`` may itself be a
    SeedSequence, whose entropy and spawn key are folded in.
    """
    if isinstance(seed, np.random.SeedSequence):
        # numpy fills the entropy in when none is given
        words = _entropy_words(seed.entropy) + _entropy_words(seed.spawn_key)
    else:
        words = [*_tag_words(seed)]
    for tag in tags:
        words += _tag_words(tag)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def child_rng(seed, *tags) -> np.random.Generator:
    """Generator seeded from :func:`child_sequence`."""
    return np.random.default_rng(child_sequence(seed, *tags))


def derive_seed(seed, *tags) -> int:
    """Plain integer seed derived from a tag path (for configs that store one)."""
    return int(child_sequence(seed, *tags).generate_state(1, np.uint64)[0])
