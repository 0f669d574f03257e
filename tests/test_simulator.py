import numpy as np
import pytest

from qemc import simulator
from qemc.errors import ConfigError, InvalidCount, ShapeMismatch
from qemc.seeding import child_sequence
from qemc.simulator import (
    ANALYTIC,
    PARAMETER_SHIFT,
    AnsatzConfig,
    gate_count,
    num_qubits_for,
    probabilities,
    probability_jacobian,
    probability_vjp,
    random_parameters,
    run_circuit,
    sample_histogram,
)


def dense_circuit_oracle(config: AnsatzConfig, params) -> np.ndarray:
    """Reference statevector built from explicit 2^n x 2^n gate matrices."""
    n = config.num_qubits
    dim = 1 << n

    def embed(mat, qubit):
        ops = [np.eye(2, dtype=complex)] * n
        ops[qubit] = mat
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        return full

    def cnot(control, target):
        mat = np.zeros((dim, dim))
        for i in range(dim):
            j = i ^ (1 << (n - 1 - target)) if (i >> (n - 1 - control)) & 1 else i
            mat[j, i] = 1.0
        return mat

    def rz(a):
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])

    def ry(a):
        return np.array([[np.cos(a / 2), -np.sin(a / 2)],
                         [np.sin(a / 2), np.cos(a / 2)]], dtype=complex)

    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    unitary = np.eye(dim, dtype=complex)
    for q in range(n):
        unitary = embed(hadamard, q) @ unitary
    angles = np.asarray(params, dtype=float).reshape(config.num_layers, n, 3)
    for layer in range(config.num_layers):
        for q in range(n):
            phi, theta, omega = angles[layer, q]
            unitary = embed(rz(omega) @ ry(theta) @ rz(phi), q) @ unitary
        if n >= 2:
            stride = config.entangler_strides[layer]
            for q in range(n):
                unitary = cnot(q, (q + stride) % n) @ unitary
    start = np.zeros(dim, dtype=complex)
    start[0] = 1.0
    return unitary @ start


def per_circuit_shift_jacobian(config: AnsatzConfig, params, shots=None, seed=None):
    """Reference parameter-shift Jacobian that simulates every shifted circuit
    on its own and, with shots, samples them one by one in the order
    (0, +), (0, -), (1, +), ... from one generator seeded as the batched
    sweep seeds it."""
    rng = None if shots is None else np.random.default_rng(child_sequence(seed, "shift"))

    def evaluate(p):
        probs = probabilities(config, p)
        if shots is None:
            return probs
        return rng.multinomial(shots, probs / probs.sum()) / shots

    jac = np.empty((config.dim, config.num_parameters))
    for i in range(config.num_parameters):
        shifted = np.array(params, dtype=float)
        shifted[i] += np.pi / 2.0
        plus = evaluate(shifted)
        shifted[i] -= np.pi
        jac[:, i] = (plus - evaluate(shifted)) / 2.0
    return jac


class TestShapes:
    def test_num_qubits_for(self):
        assert num_qubits_for(8) == 3
        assert num_qubits_for(2048) == 11
        assert num_qubits_for(6) == 3
        assert num_qubits_for(2) == 1
        with pytest.raises(ShapeMismatch):
            num_qubits_for(1)

    def test_default_strides(self):
        assert AnsatzConfig(3, 2).entangler_strides == (1, 2)
        assert AnsatzConfig(2, 3).entangler_strides == (1, 1, 1)
        assert AnsatzConfig(1, 4).entangler_strides == ()
        assert AnsatzConfig(4, 5).entangler_strides == (1, 2, 3, 1, 2)

    @pytest.mark.parametrize("shape", [(0, 1), (3, -1), (3, 1.5), (2.0, 1)],
                             ids=["no-qubits", "negative-layers", "fractional-layers",
                                  "float-qubits"])
    def test_shape_must_be_counts(self, shape):
        with pytest.raises(ShapeMismatch):
            AnsatzConfig(*shape)

    def test_parameter_count(self):
        assert AnsatzConfig(3, 2).num_parameters == 18
        assert AnsatzConfig(4, 0).num_parameters == 0

    def test_gate_count(self):
        assert gate_count(AnsatzConfig(3, 2)) == 3 + 2 * 6
        assert gate_count(AnsatzConfig(1, 3)) == 1 + 3

    def test_wrong_parameter_length(self):
        with pytest.raises(ShapeMismatch):
            run_circuit(AnsatzConfig(2, 1), np.zeros(5))


class TestRunCircuit:
    def test_single_hadamard(self):
        state = run_circuit(AnsatzConfig(1, 0), [])
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_two_qubit_uniform(self):
        state = run_circuit(AnsatzConfig(2, 0), [])
        assert np.allclose(state, 0.25 ** 0.5)

    def test_zero_angles_keep_uniform_probabilities(self):
        # CNOTs only permute basis states, so the uniform distribution is fixed.
        assert np.allclose(probabilities(AnsatzConfig(2, 1), np.zeros(6)), 0.25)
        assert np.allclose(probabilities(AnsatzConfig(3, 4), np.zeros(36)), 0.125)

    @pytest.mark.parametrize(
        "num_qubits,num_layers",
        [(1, 2), (2, 1), (2, 3), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (6, 2),
         (9, 1)],
        ids=["1-2", "2-1", "2-3", "3-2", "4-2", "5-2", "3-3", "4-3", "6-2", "9-1"])
    def test_matches_dense_oracle(self, num_qubits, num_layers):
        config = AnsatzConfig(num_qubits, num_layers)
        params = random_parameters(config, seed=42 + num_qubits)
        assert np.allclose(run_circuit(config, params),
                           dense_circuit_oracle(config, params), atol=1e-12)

    def test_norm_preserved_over_random_draws(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            config = AnsatzConfig(int(rng.integers(1, 5)), int(rng.integers(0, 4)))
            params = rng.uniform(0, 2 * np.pi, config.num_parameters)
            state = run_circuit(config, params)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_negated_rotation_is_inverse(self):
        # Rot(phi, theta, omega) followed by Rot(-omega, -theta, -phi) cancels;
        # on one qubit there are no entanglers in between.
        rng = np.random.default_rng(7)
        for _ in range(25):
            phi, theta, omega = rng.uniform(0, 2 * np.pi, 3)
            params = [phi, theta, omega, -omega, -theta, -phi]
            state = run_circuit(AnsatzConfig(1, 2), params)
            reference = run_circuit(AnsatzConfig(1, 0), [])
            assert np.allclose(state, reference, atol=1e-10)


class TestProbabilities:
    def test_exact_mode(self):
        probs = probabilities(AnsatzConfig(1, 0), [])
        assert probs.dtype == np.float64
        assert np.allclose(probs, [0.5, 0.5])

    def test_three_qubit_uniform(self):
        assert np.allclose(probabilities(AnsatzConfig(3, 0), []), 0.125)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            config = AnsatzConfig(int(rng.integers(1, 5)), int(rng.integers(0, 4)))
            params = rng.uniform(0, 2 * np.pi, config.num_parameters)
            assert abs(probabilities(config, params).sum() - 1.0) < 1e-9


class TestSampling:
    def test_large_shot_count_close_to_exact(self):
        sample = sample_histogram(np.full(2, 0.5), shots=10 ** 6, seed=3)
        assert abs(sample[0] - 0.5) < 0.005
        assert abs(sample[1] - 0.5) < 0.005

    def test_single_shot(self):
        sample = sample_histogram(np.full(4, 0.25), shots=1, seed=5)
        assert sorted(sample.tolist()) == [0.0, 0.0, 0.0, 1.0]

    def test_deterministic(self):
        config = AnsatzConfig(2, 1)
        probs = probabilities(config, random_parameters(config, seed=8))
        a = sample_histogram(probs, shots=100, seed=21)
        b = sample_histogram(probs, shots=100, seed=21)
        assert np.array_equal(a, b)

    def test_counts_are_ratios(self):
        sample = sample_histogram(np.full(4, 0.25), shots=7, seed=0)
        counts = sample * 7
        assert np.allclose(counts, np.round(counts))
        assert sample.sum() == pytest.approx(1.0, abs=0)

    def test_weights_are_normalized(self):
        probs = np.array([0.1, 0.3, 0.2, 0.4])
        assert np.array_equal(sample_histogram(10 * probs, shots=50, seed=4),
                              sample_histogram(probs, shots=50, seed=4))

    def test_shots_must_be_positive(self):
        with pytest.raises(InvalidCount):
            sample_histogram(np.full(2, 0.5), shots=0, seed=0)

    def test_shots_must_be_integral(self):
        with pytest.raises(InvalidCount):
            sample_histogram(np.full(2, 0.5), shots=2.5, seed=0)

    def test_probs_must_be_one_dimensional(self):
        with pytest.raises(ShapeMismatch):
            sample_histogram(np.full((2, 2), 0.25), shots=10, seed=0)

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan], [0.5, np.inf], [1.5, -0.5], [0.0, 0.0], []],
        ids=["nan", "inf", "negative", "zero-sum", "empty"])
    def test_probs_must_be_a_distribution(self, probs):
        with pytest.raises(ConfigError):
            sample_histogram(np.array(probs), shots=10, seed=0)


class TestJacobian:
    def test_no_parameters_empty(self):
        jac = probability_jacobian(AnsatzConfig(2, 0), [])
        assert jac.shape == (4, 0)

    def test_columns_sum_to_zero(self):
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=2)
        jac = probability_jacobian(config, params)
        assert np.abs(jac.sum(axis=0)).max() < 1e-9

    def test_matches_finite_differences(self):
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=12)
        jac = probability_jacobian(config, params)
        h = 1e-5
        for i in range(config.num_parameters):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd = (probabilities(config, up) - probabilities(config, down)) / (2 * h)
            assert np.all(np.abs(jac[:, i] - fd) <= 1e-8 + 1e-4 * np.abs(fd))

    def test_analytic_agrees_with_parameter_shift(self):
        for seed, (n, layers) in enumerate([(1, 1), (2, 2), (3, 2), (4, 1)]):
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=seed)
            analytic = probability_jacobian(config, params, ANALYTIC)
            shifted = probability_jacobian(config, params, PARAMETER_SHIFT)
            assert np.abs(analytic - shifted).max() < 1e-9

    def test_sampled_shift_deterministic(self):
        config = AnsatzConfig(2, 1)
        params = random_parameters(config, seed=1)
        a = probability_jacobian(config, params, PARAMETER_SHIFT, shots=64, seed=4)
        b = probability_jacobian(config, params, PARAMETER_SHIFT, shots=64, seed=4)
        assert np.array_equal(a, b)
        assert np.abs(a.sum(axis=0)).max() < 1e-12  # each histogram sums to 1

    @pytest.mark.parametrize("shots", [None, 64], ids=["exact", "sampled"])
    @pytest.mark.parametrize(
        "num_qubits,num_layers",
        [(3, 0), (1, 3), (4, 5), (6, 2), (4, 3), (5, 3), (7, 2), (9, 1)],
        ids=["3-0", "1-3", "4-5", "6-2", "4-3", "5-3", "7-2", "9-1"])
    def test_shift_matches_per_circuit_reference(self, num_qubits, num_layers, shots):
        config = AnsatzConfig(num_qubits, num_layers)
        params = random_parameters(config, seed=30 + num_qubits)
        batched = probability_jacobian(config, params, PARAMETER_SHIFT, shots=shots,
                                       seed=17)
        reference = per_circuit_shift_jacobian(config, params, shots=shots, seed=17)
        assert batched.shape == (config.dim, config.num_parameters)
        assert np.array_equal(batched, reference)

    def test_shift_simulates_no_circuit_on_its_own(self, monkeypatch):
        runs = []
        real_run = simulator._run
        monkeypatch.setattr(simulator, "_run",
                            lambda *args: runs.append(1) or real_run(*args))
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=3)
        probability_jacobian(config, params, PARAMETER_SHIFT)
        probability_jacobian(config, params, PARAMETER_SHIFT, shots=32, seed=1)
        assert runs == []

    def test_shift_builds_rotations_once_per_call(self, monkeypatch):
        calls = []
        real_rotations = simulator._rotations
        monkeypatch.setattr(simulator, "_rotations",
                            lambda *args: calls.append(1) or real_rotations(*args))
        counts = []
        for num_layers in (1, 6):
            config = AnsatzConfig(3, num_layers)
            params = random_parameters(config, seed=3)
            calls.clear()
            probability_jacobian(config, params, PARAMETER_SHIFT, shots=32, seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_sampled_shift_rows_are_independent(self):
        # A last-layer omega acts after the last rotation's RY and before the
        # CNOT ring, which only permutes basis states: both of its shifted
        # circuits have the same exact distribution, and its exact column is 0.
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=5)
        column = config.num_parameters - 1
        exact = probability_jacobian(config, params, PARAMETER_SHIFT)
        assert np.abs(exact[:, column]).max() < 1e-12
        diffs = np.array([
            probability_jacobian(config, params, PARAMETER_SHIFT, shots=256,
                                 seed=seed)[:, column]
            for seed in range(200)])
        # (plus - minus) / 2 is 0 in every seed only if the two rows share a draw.
        assert np.count_nonzero(np.abs(diffs).max(axis=1)) >= 190
        # Each entry has standard deviation at most sqrt(2 / (4 * 256)) / 2 ~ 0.022
        # per seed, so its mean over 200 seeds (~0.0016) stays well within 0.01.
        assert np.abs(diffs.mean(axis=0)).max() < 0.01

    def test_sampled_shift_converges_like_one_over_root_shots(self):
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=8)
        exact = probability_jacobian(config, params, PARAMETER_SHIFT)

        def median_error(shots):
            return np.median([
                np.abs(probability_jacobian(config, params, PARAMETER_SHIFT,
                                            shots=shots, seed=seed) - exact).max()
                for seed in range(20)])

        # 100 times the shots should cut the error by sqrt(100) = 10.
        ratio = median_error(10 ** 3) / median_error(10 ** 5)
        assert 5.0 < ratio < 20.0

    def test_sampled_shift_needs_seed(self):
        config = AnsatzConfig(2, 1)
        with pytest.raises(ConfigError):
            probability_jacobian(config, np.zeros(6), PARAMETER_SHIFT, shots=16)

    def test_analytic_takes_no_shots(self):
        with pytest.raises(ConfigError):
            probability_jacobian(AnsatzConfig(2, 1), np.zeros(6), ANALYTIC, shots=16)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            probability_jacobian(AnsatzConfig(2, 1), np.zeros(6), "finite_difference")

    @pytest.mark.parametrize("shots", [0, 2.5], ids=["zero", "fractional"])
    def test_sampled_shift_shots_checked(self, shots):
        with pytest.raises(InvalidCount):
            probability_jacobian(AnsatzConfig(2, 1), np.zeros(6), PARAMETER_SHIFT,
                                 shots=shots, seed=0)

    def test_vjp_matches_jacobian_contraction(self):
        rng = np.random.default_rng(9)
        for n, layers in [(2, 1), (3, 2), (4, 2), (6, 2)]:
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=n * 10 + layers)
            weights = rng.normal(size=config.dim)
            direct = probability_vjp(config, params, weights)
            via_jacobian = probability_jacobian(config, params).T @ weights
            assert np.allclose(direct, via_jacobian, atol=1e-12)

    def test_vjp_matches_parameter_shift_contraction(self):
        rng = np.random.default_rng(11)
        for n, layers in [(1, 2), (3, 2), (4, 3), (5, 1), (6, 2)]:
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=n * 10 + layers)
            weights = rng.normal(size=config.dim)
            direct = probability_vjp(config, params, weights)
            shifted = probability_jacobian(config, params, PARAMETER_SHIFT).T @ weights
            assert np.abs(direct - shifted).max() < 1e-9

    def test_vjp_with_state_is_bit_identical(self):
        for n, layers in [(3, 2), (6, 2)]:
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=n)
            weights = np.random.default_rng(n).normal(size=config.dim)
            given = probability_vjp(config, params, weights,
                                    state=run_circuit(config, params))
            assert np.array_equal(given, probability_vjp(config, params, weights))

    def test_vjp_state_length_checked(self):
        with pytest.raises(ShapeMismatch):
            probability_vjp(AnsatzConfig(2, 1), np.zeros(6), np.ones(4),
                            state=np.ones(8, dtype=complex))

    def test_vjp_weight_length_checked(self):
        with pytest.raises(ShapeMismatch):
            probability_vjp(AnsatzConfig(2, 1), np.zeros(6), np.ones(3))
