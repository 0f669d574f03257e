"""Deterministic seed derivation for trial-level parallelism.

All randomness in the package flows through one master seed per experiment.
Child streams are derived by hashing a tag path (experiment name, instance
index, trial index, ...) into a :class:`numpy.random.SeedSequence`, so results
never depend on scheduling order and any single trial can be replayed from the
master seed plus its tags alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["child_sequence", "child_rng", "derive_seed"]


def _tag_to_int(tag) -> int:
    """Map a tag (int, str, float, ...) to a stable 64-bit integer."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def child_sequence(seed, *tags) -> np.random.SeedSequence:
    """Derive a named child SeedSequence from ``seed`` and a tag path.

    The same (seed, tags) always yields the same stream; distinct tag paths
    yield statistically independent streams.  ``seed`` may itself be a
    SeedSequence, whose entropy and spawn key are folded in.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy     # numpy fills it in when none is given
        base = (tuple(int(e) for e in entropy) if isinstance(entropy, (list, tuple))
                else (int(entropy),))
        base = base + tuple(int(k) for k in seed.spawn_key)
    else:
        base = (_tag_to_int(seed),)
    return np.random.SeedSequence(base + tuple(_tag_to_int(t) for t in tags))


def child_rng(seed, *tags) -> np.random.Generator:
    """Generator seeded from :func:`child_sequence`."""
    return np.random.default_rng(child_sequence(seed, *tags))


def derive_seed(seed, *tags) -> int:
    """Plain integer seed derived from a tag path (for configs that store one)."""
    return int(child_sequence(seed, *tags).generate_state(1, np.uint64)[0])
