import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qemc import simulator
from qemc.errors import ConfigError, InvalidCount, ShapeMismatch, TooLarge
from qemc.seeding import child_sequence
from qemc.simulator import (
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


def per_layer_vjp(config: AnsatzConfig, params, weights) -> np.ndarray:
    """Reference adjoint sweep that forms each layer's cross densities and
    marginals block by block as it goes, for weight rows ``weights``."""
    params = np.asarray(params, dtype=float)
    ws = simulator._loaded(config, params)
    blocks, psi = ws.blocks, ws.state
    k = weights.shape[0]
    rows = np.vstack([psi, weights * psi])
    transitions = np.empty((config.num_layers, config.num_qubits, k, 2, 2),
                           dtype=complex)
    inverses = simulator._layout(config).inverses
    for layer in reversed(range(config.num_layers)):
        rows = rows[:, inverses[layer]]
        first = 0
        for block in blocks:
            dim = block.shape[-1]
            width = dim.bit_length() - 1
            split = rows.reshape(k + 1, dim, -1)
            rho = split[1:].conj() @ split[0].T
            marginals = rho.reshape(k, -1)[:, simulator._marginal_index(width)].sum(-1)
            transitions[layer, first:first + width] = marginals.swapaxes(0, 1)
            # The adjoint of the block on the leading bits, which then move last.
            rows = (split.swapaxes(1, 2) @ block[layer].conj()).reshape(rows.shape)
            first += width
    grad = np.einsum("lqsab,lqkab->klqs", simulator._generators(ws, params),
                     transitions)
    return 2.0 * grad.real.reshape(k, -1)


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

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
    def test_layers_of_one_stride_share_its_ring(self, num_qubits):
        # One permutation and one inverse per stride, not per layer; a lone
        # qubit's layers share one identity.
        layout = simulator._layout(AnsatzConfig(num_qubits, 9))
        period = max(num_qubits - 1, 1)
        for layer in range(9 - period):
            assert layout.perms[layer] is layout.perms[layer + period]
            assert layout.inverses[layer] is layout.inverses[layer + period]
        assert len({id(perm) for perm in layout.perms}) == period
        assert len({id(inverse) for inverse in layout.inverses}) == period

    @pytest.mark.parametrize("shape", [(0, 1), (3, -1), (3, 1.5), (2.0, 1)],
                             ids=["no-qubits", "negative-layers", "fractional-layers",
                                  "float-qubits"])
    def test_shape_must_be_counts(self, shape):
        with pytest.raises(ShapeMismatch):
            AnsatzConfig(*shape)

    def test_qubit_cap(self):
        with pytest.raises(TooLarge):
            AnsatzConfig(40, 1)
        assert AnsatzConfig(11, 120).num_parameters == 3 * 11 * 120

    def test_parameter_count(self):
        assert AnsatzConfig(3, 2).num_parameters == 18
        assert AnsatzConfig(4, 0).num_parameters == 0

    def test_gate_count(self):
        assert gate_count(AnsatzConfig(3, 2)) == 3 + 2 * 6
        assert gate_count(AnsatzConfig(1, 3)) == 1 + 3

    def test_wrong_parameter_length(self):
        with pytest.raises(ShapeMismatch):
            run_circuit(AnsatzConfig(2, 1), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameters_rejected(self, bad):
        # Rejected before any arithmetic: no NaN result and no RuntimeWarning.
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=0)
        params[4] = bad
        calls = [lambda: run_circuit(config, params),
                 lambda: probabilities(config, params),
                 lambda: probability_vjp(config, params, np.ones(config.dim)),
                 lambda: probability_jacobian(config, params),
                 lambda: probability_jacobian(config, params, shots=8, seed=0)]
        for call in calls:
            with pytest.raises(ConfigError, match="must be finite"):
                call()


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

    def test_caller_array_unchanged(self):
        probs = np.array([1.0, 3.0, 2.0, 4.0])
        sample_histogram(probs, shots=50, seed=4)
        assert probs.tolist() == [1.0, 3.0, 2.0, 4.0]

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
        # Row k of the exact shift Jacobian is the VJP of the one-hot weight e_k.
        for seed, (n, layers) in enumerate([(1, 1), (2, 2), (3, 2), (4, 1)]):
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=seed)
            shifted = probability_jacobian(config, params)
            analytic = [probability_vjp(config, params, e) for e in np.eye(config.dim)]
            assert np.abs(shifted - analytic).max(initial=0.0) < 1e-14

    def test_sampled_shift_deterministic(self):
        config = AnsatzConfig(2, 1)
        params = random_parameters(config, seed=1)
        a = probability_jacobian(config, params, shots=64, seed=4)
        b = probability_jacobian(config, params, shots=64, seed=4)
        assert np.array_equal(a, b)
        assert np.abs(a.sum(axis=0)).max() < 1e-12  # each histogram sums to 1

    @pytest.mark.parametrize("shots", [None, 64], ids=["exact", "sampled"])
    @pytest.mark.parametrize(
        "num_qubits,num_layers",
        [(3, 0), (1, 3), (4, 5), (6, 2), (4, 3), (5, 3), (7, 2), (9, 1), (11, 2)],
        ids=["3-0", "1-3", "4-5", "6-2", "4-3", "5-3", "7-2", "9-1", "11-2"])
    def test_shift_matches_per_circuit_reference(self, num_qubits, num_layers, shots):
        config = AnsatzConfig(num_qubits, num_layers)
        params = random_parameters(config, seed=30 + num_qubits)
        batched = probability_jacobian(config, params, shots=shots, seed=17)
        reference = per_circuit_shift_jacobian(config, params, shots=shots, seed=17)
        assert batched.shape == (config.dim, config.num_parameters)
        if shots is None:
            # The sweep forms 2 Re(conj(psi) chi), which rounds unlike the
            # difference of two simulated distributions.
            assert np.abs(batched - reference).max(initial=0.0) <= 1e-14
        else:
            # Rounding-level differences in the distributions move no draw.
            assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("num_qubits,num_layers", [(1, 2), (3, 2), (5, 2), (9, 1)])
    def test_tangent_rows_match_finite_differences(self, num_qubits, num_layers):
        config = AnsatzConfig(num_qubits, num_layers)
        params = random_parameters(config, seed=40 + num_qubits)
        rows = simulator._tangents(config, params)
        assert rows.shape == (1 + config.num_parameters, config.dim)
        assert np.abs(rows[0] - run_circuit(config, params)).max() < 1e-14
        h = 1e-6
        for i in range(config.num_parameters):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd = (run_circuit(config, up) - run_circuit(config, down)) / (2 * h)
            assert np.abs(rows[1 + i] - fd).max() < 1e-8

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
            probability_jacobian(config, params, shots=32, seed=1)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_sampled_shift_rows_are_independent(self):
        # A last-layer omega acts after the last rotation's RY and before the
        # CNOT ring, which only permutes basis states: both of its shifted
        # circuits have the same exact distribution, and its exact column is 0.
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=5)
        column = config.num_parameters - 1
        exact = probability_jacobian(config, params)
        assert np.abs(exact[:, column]).max() < 1e-12
        diffs = np.array([
            probability_jacobian(config, params, shots=256, seed=seed)[:, column]
            for seed in range(200)])
        # (plus - minus) / 2 is 0 in every seed only if the two rows share a draw.
        assert np.count_nonzero(np.abs(diffs).max(axis=1)) >= 190
        # Each entry has standard deviation at most sqrt(2 / (4 * 256)) / 2 ~ 0.022
        # per seed, so its mean over 200 seeds (~0.0016) stays well within 0.01.
        assert np.abs(diffs.mean(axis=0)).max() < 0.01

    def test_sampled_shift_converges_like_one_over_root_shots(self):
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=8)
        exact = probability_jacobian(config, params)

        def median_error(shots):
            return np.median([
                np.abs(probability_jacobian(config, params, shots=shots, seed=seed)
                       - exact).max()
                for seed in range(20)])

        # 100 times the shots should cut the error by sqrt(100) = 10.
        ratio = median_error(10 ** 3) / median_error(10 ** 5)
        assert 5.0 < ratio < 20.0

    def test_sampled_shift_takes_any_seed_sequence(self):
        config = AnsatzConfig(2, 1)
        params = random_parameters(config, seed=1)
        words = np.random.SeedSequence(np.array([1, 2], dtype=np.uint64))
        jac = probability_jacobian(config, params, shots=64, seed=words)
        same = probability_jacobian(config, params, shots=64, seed=np.random.SeedSequence([1, 2]))
        assert np.array_equal(jac, same)
        assert np.abs(jac.sum(axis=0)).max() < 1e-12

    def test_sampled_shift_needs_seed(self):
        config = AnsatzConfig(2, 1)
        with pytest.raises(ConfigError):
            probability_jacobian(config, np.zeros(6), shots=16)

    @pytest.mark.parametrize("shots", [0, 2.5], ids=["zero", "fractional"])
    def test_sampled_shift_shots_checked(self, shots):
        with pytest.raises(InvalidCount):
            probability_jacobian(AnsatzConfig(2, 1), np.zeros(6), shots=shots, seed=0)

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
            # Every shifted circuit simulated on its own.
            shifted = per_circuit_shift_jacobian(config, params).T @ weights
            assert np.abs(direct - shifted).max() < 1e-9

    def test_vjp_from_cold_memos_is_bit_identical(self, monkeypatch):
        for n, layers in [(3, 2), (6, 2)]:
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=n)
            weights = np.random.default_rng(n).normal(size=config.dim)
            monkeypatch.setattr(simulator, "_workspaces", threading.local())
            cold = probability_vjp(config, params, weights)
            run_circuit(config, params)
            assert np.array_equal(cold, probability_vjp(config, params, weights))

    @pytest.mark.parametrize("num_layers", [0, 1, 2, 5])
    @pytest.mark.parametrize("num_qubits", range(1, 12))
    def test_vjp_matches_per_layer_reference(self, num_qubits, num_layers):
        # n = 5, 6, 7, 9, 10 and 11 end in a block narrower than 4 qubits.
        config = AnsatzConfig(num_qubits, num_layers)
        params = random_parameters(config, seed=num_qubits * 10 + num_layers)
        weights = np.random.default_rng(num_qubits).normal(size=config.dim)
        assert np.array_equal(probability_vjp(config, params, weights),
                              per_layer_vjp(config, params, weights[np.newaxis])[0])

    def test_flush_size_does_not_change_bits(self, monkeypatch):
        cases = []
        for n, layers in [(3, 6), (5, 4), (9, 3)]:
            config = AnsatzConfig(n, layers)
            params = random_parameters(config, seed=n)
            weights = np.random.default_rng(n).normal(size=config.dim)
            cases.append((config, params, weights,
                          probability_vjp(config, params, weights),
                          probability_jacobian(config, params)))
        monkeypatch.setattr(simulator, "_SWEEP_BYTES", 1)    # one layer per flush
        for config, params, weights, vjp, jac in cases:
            # A workspace sizes its flush when it is built.
            monkeypatch.setattr(simulator, "_workspaces", threading.local())
            assert np.array_equal(probability_vjp(config, params, weights), vjp)
            assert simulator._workspaces.current.chunk == 1
            assert np.array_equal(probability_jacobian(config, params), jac)

    def test_analytic_jacobian_memory_bounded(self):
        # Exact and sampled.  Two (1 + P, 2^n) complex buffers take 4.2 MiB here
        # and the float (P, 2, 2^n) shifted densities 2.1 MiB.  The peaks read
        # 4.6 and 8.5 MiB; with a fresh array of rows per block and a complex
        # copy of the shifted states they read 8.1 and 12.7 MiB.
        config = AnsatzConfig(9, 10)
        params = random_parameters(config, seed=1)
        probability_jacobian(config, params)     # the workspace is not counted
        for shots, bound_mib in [(None, 6.0), (100, 10.5)]:
            tracemalloc.start()
            try:
                probability_jacobian(config, params, shots=shots, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib * 2 ** 20, shots

    def test_results_are_independent_copies(self):
        config = AnsatzConfig(5, 2)
        params = random_parameters(config, seed=0)
        weights = np.random.default_rng(0).normal(size=config.dim)
        results = [run_circuit(config, params), probabilities(config, params),
                   probability_vjp(config, params, weights),
                   probability_jacobian(config, params)]
        expected = [r.copy() for r in results]
        buffers = [a for a in vars(simulator._workspaces.current).values()
                   if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(r, b) for r in results for b in buffers)
        other = random_parameters(config, seed=1)
        run_circuit(config, other)
        probability_vjp(config, other, weights)
        probability_jacobian(config, other)
        assert all(np.array_equal(r, e) for r, e in zip(results, expected))

    def test_run_circuit_result_is_a_writable_copy(self):
        config = AnsatzConfig(3, 2)
        params = random_parameters(config, seed=2)
        weights = np.random.default_rng(2).normal(size=config.dim)
        state = run_circuit(config, params)
        expected = (state.copy(), probabilities(config, params),
                    probability_vjp(config, params, weights))
        state[:] = 0.0
        assert np.array_equal(run_circuit(config, params), expected[0])
        assert np.array_equal(probabilities(config, params), expected[1])
        assert np.array_equal(probability_vjp(config, params, weights), expected[2])

    def test_vjp_weight_length_checked(self):
        with pytest.raises(ShapeMismatch):
            probability_vjp(AnsatzConfig(2, 1), np.zeros(6), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_weights_rejected(self, bad):
        config = AnsatzConfig(2, 1)
        with pytest.raises(ConfigError, match="weights must be finite"):
            probability_vjp(config, random_parameters(config, 0), [1.0, bad, 1.0, 1.0])


def training_step(config, params, weights):
    return probabilities(config, params), probability_vjp(config, params, weights)


class TestWorkspace:
    def test_step_allocates_little(self):
        # The per-step arrays took 1781 KiB here when each step allocated them.
        config = AnsatzConfig(8, 50)
        weights = np.random.default_rng(0).normal(size=config.dim)
        training_step(config, random_parameters(config, 0), weights)
        params = random_parameters(config, 1)
        tracemalloc.start()
        try:
            training_step(config, params, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 10

    def test_threads_do_not_share_workspaces(self):
        # More threads than the two cores this was written on: two share a
        # config at different parameters, and n = 9 ends in a one-qubit block.
        cases = []
        for n, layers, first in [(6, 4, 0), (6, 4, 10), (9, 2, 0)]:
            config = AnsatzConfig(n, layers)
            steps = [(random_parameters(config, seed),
                      np.random.default_rng(seed).normal(size=config.dim))
                     for seed in range(first, first + 6)]
            cases.append((config, steps, [probability_vjp(config, p, w) for p, w in steps]))
        results = [[] for _ in cases]
        barrier = threading.Barrier(len(cases), timeout=10)

        def work(index):
            config, steps, _ = cases[index]
            for params, weights in steps * 5:
                barrier.wait()    # each VJP starts while the other threads run theirs
                results[index].append(probability_vjp(config, params, weights))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for (_, _, serial), got in zip(cases, results):
            assert len(got) == len(serial) * 5
            assert all(np.array_equal(g, s) for g, s in zip(got, serial * 5))

    def test_switching_configs_keeps_cold_bits(self, monkeypatch):
        a, b = AnsatzConfig(8, 3), AnsatzConfig(5, 4)
        params_a, params_b = random_parameters(a, 1), random_parameters(b, 2)
        weights_a = np.random.default_rng(1).normal(size=a.dim)
        weights_b = np.random.default_rng(2).normal(size=b.dim)
        monkeypatch.setattr(simulator, "_workspaces", threading.local())
        cold = training_step(a, params_a, weights_a) + (probability_jacobian(a, params_a),)
        training_step(b, params_b, weights_b)
        probability_jacobian(b, params_b)
        again = training_step(a, params_a, weights_a) + (probability_jacobian(a, params_a),)
        assert all(np.array_equal(x, y) for x, y in zip(cold, again))
