import numpy as np

from qemc.seeding import child_sequence, derive_seed


def _state(sequence):
    return sequence.generate_state(2).tolist()


class TestChildSequence:
    def test_seed_sequence_parent_folds_entropy_and_spawn_key(self):
        parent = np.random.SeedSequence(5)
        assert _state(child_sequence(parent, "a")) == _state(child_sequence(5, "a"))
        first, second = parent.spawn(2)
        assert _state(child_sequence(first, "a")) != _state(child_sequence(second, "a"))

    def test_parent_without_given_entropy_still_derives(self):
        parent = np.random.SeedSequence()   # numpy draws the entropy itself
        assert _state(child_sequence(parent, "a")) == _state(child_sequence(parent, "a"))

    def test_derive_seed_depends_on_every_tag(self):
        assert derive_seed(0, "grid", 1, 0.5, 0) == derive_seed(0, "grid", 1, 0.5, 0)
        assert derive_seed(0, "grid", 1, 0.5, 0) != derive_seed(0, "grid", 1, 0.5, 1)
