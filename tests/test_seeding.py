import hashlib

import numpy as np
import pytest

from qemc.seeding import child_sequence, derive_seed


def _state(sequence):
    return sequence.generate_state(2).tolist()


def _tuple_tag(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    return int.from_bytes(hashlib.sha256(repr(tag).encode("utf-8")).digest()[:8], "little")


def _tuple_sequence(seed, *tags):
    """The reference: a SeedSequence of a tuple of 64-bit ints, which numpy
    coerces to 32-bit words itself (how child_sequence built it before it
    passed the words directly)."""
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        base = (tuple(int(e) for e in np.ravel(entropy))
                if isinstance(entropy, (list, tuple, np.ndarray)) else (int(entropy),))
        base += tuple(int(k) for k in seed.spawn_key)
    else:
        base = (_tuple_tag(seed),)
    return np.random.SeedSequence(base + tuple(_tuple_tag(t) for t in tags))


INTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, -1, -2**63]
TAGS = INTS + [np.int64(-3), np.uint64(2**64 - 1), np.int8(7), True, False, np.True_,
               "", "a", "shots", 0.5, np.float64(0.5), -0.0, float("nan"), float("inf"),
               None, (1, 2)]


def _parents():
    derived = child_sequence(5, "shift", 2**40)
    return [np.random.SeedSequence(0), np.random.SeedSequence(2**64),
            np.random.SeedSequence([1, 2**40, 0]),
            np.random.SeedSequence(),                       # numpy draws the entropy
            np.random.SeedSequence(7).spawn(3)[2],
            np.random.SeedSequence(7).spawn(1)[0].spawn(2)[1],
            np.random.SeedSequence(123, spawn_key=(2**40, 0)),
            derived, derived.spawn(2)[1], child_sequence(derived, 0)]


class TestStreamsPinned:
    """child_sequence builds the words numpy makes of the reference's tuple, so
    every pool, and so every stream, is the reference's."""

    @pytest.mark.parametrize("tag", TAGS, ids=repr)
    def test_seed_and_tag(self, tag):
        for seed in INTS + [np.int64(-3), True, "master", 0.25]:
            assert (child_sequence(seed, tag).generate_state(8).tolist()
                    == _tuple_sequence(seed, tag).generate_state(8).tolist()), seed

    @pytest.mark.parametrize("tags", [(), ("shift",), (0,), (2**64 - 1, "z", 0.5)], ids=repr)
    @pytest.mark.parametrize("index", range(len(_parents())))
    def test_seed_sequence_parent(self, index, tags):
        parent = _parents()[index]
        assert (child_sequence(parent, *tags).generate_state(8).tolist()
                == _tuple_sequence(parent, *tags).generate_state(8).tolist())

    def test_nested_derivations(self):
        for parent in _parents():
            new = child_sequence(child_sequence(parent, "a", 3), "b")
            reference = _tuple_sequence(_tuple_sequence(parent, "a", 3), "b")
            assert new.generate_state(8).tolist() == reference.generate_state(8).tolist()

    def test_entropy_is_a_word_array(self):
        entropy = child_sequence(2**32, "x").entropy
        assert entropy.dtype == np.uint32 and entropy[:2].tolist() == [0, 1]

    def test_derive_seed_literals(self):
        # Taken from the tuple construction; a numpy that coerces seeds
        # differently fails here.
        assert derive_seed(0) == 15793235383387715774
        assert derive_seed(0, "grid", 1, 0.5, 0) == 13164402806602059899
        assert derive_seed(2718, "shots", 7) == 6588115186111854823
        assert derive_seed(-1, "init") == 3215562363477502983
        assert derive_seed(2**64 - 1, 2**32) == 6916139761357819287
        assert derive_seed("x", np.int64(3), True) == 18077241666697701496
        assert derive_seed(np.random.SeedSequence(5).spawn(2)[1], "shift") == 9363224912688959919
        assert (child_sequence(2718, "shift", 3).generate_state(4).tolist()
                == [3541179510, 1245412193, 503645005, 41870970])


class TestChildSequence:
    def test_seed_sequence_parent_folds_entropy_and_spawn_key(self):
        parent = np.random.SeedSequence(5)
        assert _state(child_sequence(parent, "a")) == _state(child_sequence(5, "a"))
        first, second = parent.spawn(2)
        assert _state(child_sequence(first, "a")) != _state(child_sequence(second, "a"))

    def test_parent_without_given_entropy_still_derives(self):
        parent = np.random.SeedSequence()   # numpy draws the entropy itself
        assert _state(child_sequence(parent, "a")) == _state(child_sequence(parent, "a"))

    def test_array_entropy_parent(self):
        parent = np.random.SeedSequence(np.array([1, 2**40], dtype=np.uint64))
        assert (_state(child_sequence(parent, "x"))
                == _state(child_sequence(np.random.SeedSequence([1, 2**40]), "x")))

    def test_unhashable_tag(self):
        assert _state(child_sequence(0, [1, 2])) == _state(_tuple_sequence(0, [1, 2]))

    def test_derive_seed_depends_on_every_tag(self):
        assert derive_seed(0, "grid", 1, 0.5, 0) == derive_seed(0, "grid", 1, 0.5, 0)
        assert derive_seed(0, "grid", 1, 0.5, 0) != derive_seed(0, "grid", 1, 0.5, 1)
