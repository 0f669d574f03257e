"""Statevector simulation of the strongly-entangling-layers ansatz.

Circuit layout: starting from |0...0>, one uncounted layer of Hadamards, then
each layer applies a general single-qubit rotation to every qubit followed by
a ring of CNOTs q -> q + r (mod n) whose stride r cycles through 1 .. n-1
from layer to layer.  The rotation convention is

    Rot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)

with phi applied first; step-size recommendations elsewhere in the package
were tuned under this convention and the cyclic strides, so both are fixed
here rather than left configurable per call.

Basis-state index k uses the standard decimal-to-binary mapping with qubit 0
as the most significant bit.  Parameter vectors are flat arrays of length
3 * num_qubits * num_layers in (layer, qubit, slot) order, slots being
(phi, theta, omega).

The simulation works layer by layer.  The Hadamard layer on |0...0> is the
uniform start state 2^(-n/2); all rotation matrices are built at once from
the parameter array, and each layer's rotations of up to four consecutive
qubits are fused into one Kronecker block (a 16x16 matrix), so a layer costs
one matmul per block: 1 for n <= 4, 2 for n = 8, 3 for n = 11.  What the
sweeps need from the ``AnsatzConfig`` alone is built once per config and read
with one lookup: each layer's CNOT ring composed into one index permutation
and its inverse, the block widths with their marginal index tables, and the
bytes a row fills per layer, from which the adjoint sweep sizes its chunks.
A training step therefore rebuilds only what depends on the parameters.

One reverse sweep, the adjoint method of Jones & Gacon (arXiv:2009.02823),
serves both the vector-Jacobian product and the analytic Jacobian, which runs
it with the identity as the weight rows.  The sweep only undoes the circuit
and keeps its rows before each block; for a chunk of layers at a time,
bounded in bytes, a few stacked calls per block form the cross densities
between adjoints and state and sum them to each qubit's 2x2 transition
matrix.

Callers pass parameters, never circuits or states.  One-entry memos keyed on
the parameters' bytes keep the last rotations and blocks and, separately,
the last final state, so a training step that asks for the distribution and
then the VJP builds and simulates its circuit once.

Distributions are plain float64 arrays of length 2^n: ``probabilities``
returns |amplitude|^2, and ``sample_histogram`` turns any such array into
the frequencies of a multinomial draw.

The parameter-shift Jacobian simulates its 2P shifted circuits in one batched
sweep over a (2P + 1, 2^n) array whose row 0 is the unshifted circuit, with
the shifted rotations built once per call.  A circuit shifted in layer l
equals the unshifted one up to layer l, so its row starts there as row 0 times
that layer's blocks with its one rotation shifted; the rows already started
share one matmul per block.  This does about half the row-layer work of
simulating every shifted circuit in full.  With a shot budget, one generator
seeded from the call's seed draws every shifted row's histogram in one
multinomial call, row by row in the order (0, +), (0, -), (1, +), ...; each
row is an independent draw of ``shots`` samples from its own circuit.

All functions are pure and safe to call concurrently; the only shared state
is those two read-only memos, and ``run_circuit`` returns a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeMismatch, check_count
from .seeding import child_sequence

__all__ = [
    "AnsatzConfig",
    "ANALYTIC",
    "PARAMETER_SHIFT",
    "num_qubits_for",
    "random_parameters",
    "gate_count",
    "run_circuit",
    "probabilities",
    "sample_histogram",
    "probability_jacobian",
    "probability_vjp",
]

ANALYTIC = "analytic"
PARAMETER_SHIFT = "parameter_shift"

# Rotations of this many consecutive qubits are fused into one 16x16 matrix
# per layer.  Forward pass plus VJP was timed at widths 1-6 on a 2-core x86
# VM: 4 was fastest or within noise of it for n in {3, 4, 6, 8, 11}; wider
# blocks cost more in the matmul than they save in calls (n=8, L=50:
# 5.5-5.8 ms at width 4, 5.8-6.4 ms at 5, 16-18 ms at 6).
_BLOCK_QUBITS = 4

# The adjoint sweep keeps at most this many bytes of rows (but always one
# layer's) between its stacked density calls.  Timed at 256 KiB-1 MiB on a
# 2-core x86 VM, min of 25 rounds: the n=8, L=50 VJP took 1.4-1.5 ms up to
# 512 KiB and 2.2 ms from 768 KiB on; n=11, L=50 stayed at 5.0-6.5 ms.
_SWEEP_BYTES = 1 << 19

# -iZ/2, the generator of the phi and omega rotations, and its diagonal.
_HALF_IZ = np.array([-0.5j, 0.5j])
_HALF_IZ_MATRIX = np.diag(_HALF_IZ)


def num_qubits_for(num_nodes: int) -> int:
    """Qubits needed to index ``num_nodes`` basis states: ceil(log2 N)."""
    if check_count("num_nodes", num_nodes, error=ShapeMismatch) < 2:
        raise ShapeMismatch(f"need at least 2 nodes, got {num_nodes}")
    return (int(num_nodes) - 1).bit_length()


@dataclass(frozen=True)
class AnsatzConfig:
    """Circuit shape: qubit count and layer count."""

    num_qubits: int
    num_layers: int

    def __post_init__(self):
        check_count("num_qubits", self.num_qubits, error=ShapeMismatch)
        check_count("num_layers", self.num_layers, 0, ShapeMismatch)

    @property
    def entangler_strides(self) -> tuple[int, ...]:
        """Cyclic CNOT-ring strides: layer l (1-based) uses ((l-1) mod (n-1)) + 1;
        empty for one qubit, which admits no entanglers."""
        if self.num_qubits == 1:
            return ()
        return tuple(l % (self.num_qubits - 1) + 1 for l in range(self.num_layers))

    @property
    def num_parameters(self) -> int:
        return 3 * self.num_qubits * self.num_layers

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def random_parameters(config: AnsatzConfig, seed) -> np.ndarray:
    """Uniform [0, 2pi) initialization for every angle (seeded)."""
    rng = np.random.default_rng(child_sequence(seed, "init"))
    return rng.uniform(0.0, 2.0 * np.pi, size=config.num_parameters)


def gate_count(config: AnsatzConfig) -> int:
    """Elementary gates per circuit execution (Hadamards + rotations + CNOTs)."""
    n, layers = config.num_qubits, config.num_layers
    cnots_per_layer = n if n >= 2 else 0
    return n + layers * (n + cnots_per_layer)


# -- per-layer form ---------------------------------------------------------------


def _cnot_permutation(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    control_bit = 1 << (num_qubits - 1 - control)
    target_bit = 1 << (num_qubits - 1 - target)
    return np.where(idx & control_bit, idx ^ target_bit, idx)


class _Layout(NamedTuple):
    """What every sweep over one ``AnsatzConfig`` reads, whatever the parameters."""

    perms: tuple        # per layer, the CNOT ring as one index permutation
    inverses: tuple     # per layer, that permutation's inverse
    widths: tuple       # qubits per Kronecker block, in qubit order
    marginals: tuple    # per block, its ``_marginal_index`` table
    row_bytes: int      # bytes one state row fills at the blocks of one layer


@lru_cache(maxsize=128)
def _layout(config: AnsatzConfig) -> _Layout:
    """The config's ``_Layout``, built on first use.  The sweep's chunk size in
    layers also depends on its row count and on ``_SWEEP_BYTES``, so it is
    ``_SWEEP_BYTES // (rows * row_bytes)``, taken per call."""
    n = config.num_qubits
    widths = tuple(min(_BLOCK_QUBITS, n - first) for first in range(0, n, _BLOCK_QUBITS))
    strides = config.entangler_strides
    perms, inverses = [], []
    for layer in range(config.num_layers):
        perm = np.arange(config.dim, dtype=np.int64)
        if n >= 2:
            for q in range(n):
                perm = perm[_cnot_permutation(n, q, (q + strides[layer]) % n)]
        perms.append(perm)
        inverses.append(np.argsort(perm))
    for array in perms + inverses:
        array.setflags(write=False)
    return _Layout(perms=tuple(perms),
                   inverses=tuple(inverses),
                   widths=widths,
                   marginals=tuple(_marginal_index(width) for width in widths),
                   row_bytes=len(widths) * config.dim * np.dtype(np.complex128).itemsize)


def _rotations(angles: np.ndarray) -> np.ndarray:
    """Rot(phi, theta, omega) for angles of shape (..., 3): shape (..., 2, 2)."""
    phi, theta, omega = angles[..., 0], angles[..., 1], angles[..., 2]
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    plus = np.exp(-0.5j * (phi + omega))
    minus = np.exp(-0.5j * (phi - omega))
    rots = np.empty(angles.shape[:-1] + (2, 2), dtype=np.complex128)
    rots[..., 0, 0], rots[..., 0, 1] = plus * c, -minus.conj() * s
    rots[..., 1, 0], rots[..., 1, 1] = minus * s, plus.conj() * c
    return rots


def _generators(rots: np.ndarray, params: np.ndarray) -> np.ndarray:
    """d(Rot)/d(angle) @ Rot^dagger for every (layer, qubit, slot): (L, n, 3, 2, 2).

    With Rot = RZ(omega) RY(theta) RZ(phi) these are R (-iZ/2) R^dagger,
    RZ(omega) (-iY/2) RZ(omega)^dagger and -iZ/2.
    """
    omega = params.reshape(rots.shape[:2] + (3,))[..., 2]
    gens = np.zeros(rots.shape[:2] + (3, 2, 2), dtype=np.complex128)
    gens[..., 0, :, :] = (rots * _HALF_IZ) @ rots.conj().swapaxes(-1, -2)
    gens[..., 1, 0, 1] = -0.5 * np.exp(-1j * omega)
    gens[..., 1, 1, 0] = 0.5 * np.exp(1j * omega)
    gens[..., 2, :, :] = _HALF_IZ_MATRIX
    return gens


def _blocks(rots: np.ndarray) -> list:
    """Fuse each layer's rotations into Kronecker blocks of consecutive qubits.

    Returns one (L, 2^b, 2^b) array per block of up to ``_BLOCK_QUBITS``
    qubits, in qubit order; within a block the first qubit is the most
    significant bit, as in the full index.
    """
    num_layers, n = rots.shape[:2]
    # Layer axis last, so that each product runs long inner loops over layers
    # rather than loops of two.
    by_qubit = np.ascontiguousarray(rots.transpose(1, 2, 3, 0))
    blocks = []
    for first in range(0, n, _BLOCK_QUBITS):
        mat = by_qubit[first]
        for q in range(first + 1, min(first + _BLOCK_QUBITS, n)):
            size = 2 * mat.shape[0]
            mat = (mat[:, None, :, None]
                   * by_qubit[q, None, :, None, :]).reshape(size, size, num_layers)
        blocks.append(np.ascontiguousarray(mat.transpose(2, 0, 1)))
    return blocks


def _marginal_index(width: int) -> np.ndarray:
    """Flat indices into a 2^b x 2^b matrix that sum it to each qubit's 2x2 block.

    ``m.reshape(..., -1)[..., idx].sum(-1)`` has shape (..., b, 2, 2): entry
    [i, a, c] sums m over the pairs of indices that agree on every qubit but
    i, where they read a and c (the partial trace over the other qubits).
    """
    dim = 1 << width
    idx = np.arange(dim)
    out = np.empty((width, 2, 2, dim // 2), dtype=np.int64)
    for i in range(width):
        bit = 1 << (width - 1 - i)
        rest = idx[idx & bit == 0]
        for a in range(2):
            for c in range(2):
                out[i, a, c] = (rest | a * bit) * dim + (rest | c * bit)
    out.setflags(write=False)
    return out


def _rotate_leading(mat: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """Apply ``mat`` to the leading log2(mat.shape[-1]) index bits of every row
    and move those bits last, into the contiguous ``out`` if it is given.

    ``mat`` is one matrix for all rows, or a stack with one per row (one row
    broadcasts to the stack).  Calling this once per block, in qubit order,
    acts on every qubit and leaves the index layout as it was.
    """
    split = rows.reshape(rows.shape[0], mat.shape[-1], -1).swapaxes(1, 2)
    if out is None:
        return (split @ mat.swapaxes(-1, -2)).reshape(-1, rows.shape[1])
    np.matmul(split, mat.swapaxes(-1, -2), out=out.reshape(len(out), -1, mat.shape[-1]))
    return out


def _check_params(config: AnsatzConfig, params) -> np.ndarray:
    p = np.asarray(params, dtype=np.float64).reshape(-1)
    if p.size != config.num_parameters:
        raise ShapeMismatch(
            f"expected {config.num_parameters} parameters, got {p.size}")
    return p


def _run(config: AnsatzConfig, blocks: list) -> np.ndarray:
    # The Hadamard layer on |0...0> is the uniform start state.
    state = np.full((1, config.dim), 2.0 ** (-config.num_qubits / 2.0),
                    dtype=np.complex128)
    for layer, perm in enumerate(_layout(config).perms):
        for block in blocks:
            state = _rotate_leading(block[layer], state)
        state = state.take(perm, axis=1, mode="clip")
    return state[0]


@lru_cache(maxsize=1)
def _circuit(config: AnsatzConfig, key: bytes) -> tuple:
    """Read-only rotations and Kronecker blocks of the float64 parameters ``key``;
    a training step asks for them twice, so the last build is kept."""
    rots = _rotations(np.frombuffer(key).reshape(config.num_layers, config.num_qubits, 3))
    blocks = tuple(_blocks(rots))
    for array in (rots, *blocks):
        array.setflags(write=False)
    return rots, blocks


@lru_cache(maxsize=1)
def _state(config: AnsatzConfig, key: bytes) -> np.ndarray:
    """Read-only final state of the float64 parameters ``key``; an analytic
    training step needs it for the distribution and again for the VJP."""
    state = _run(config, _circuit(config, key)[1])
    state.setflags(write=False)
    return state


def run_circuit(config: AnsatzConfig, params) -> np.ndarray:
    """Statevector prepared by the ansatz: complex array of length 2^n."""
    params = _check_params(config, params)
    return _state(config, params.tobytes()).copy()


def probabilities(config: AnsatzConfig, params) -> np.ndarray:
    """Exact measurement distribution |amplitude|^2: float64 array of length 2^n."""
    return np.abs(run_circuit(config, params)) ** 2


def _draw(probs: np.ndarray, shots: int,
          seed_sequence: np.random.SeedSequence) -> np.ndarray:
    """Frequencies of a multinomial draw of ``shots`` samples from each
    distribution along the last axis of ``probs``.

    One generator draws the rows of a stack in order, each from its own
    distribution, as consecutive one-row draws from that generator would.
    """
    rng = np.random.default_rng(seed_sequence)
    return rng.multinomial(shots, probs / probs.sum(axis=-1, keepdims=True)) / shots


def sample_histogram(probs, shots: int, seed) -> np.ndarray:
    """Frequencies of a multinomial draw of ``shots`` samples from ``probs``.

    ``probs`` is a 1-D array of non-negative weights, normalized before the
    draw.  ``seed`` is a ``SeedSequence`` used as given, or a seed from which
    one is derived.
    """
    check_count("shots", shots)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D distribution, got shape {probs.shape}")
    total = probs.sum()
    if not (np.isfinite(total) and total > 0 and probs.min() >= 0):
        raise ConfigError(
            "probabilities must be finite and non-negative with a positive sum")
    if not isinstance(seed, np.random.SeedSequence):
        seed = child_sequence(seed, "sample")
    return _draw(probs, shots, seed)


# -- differentiation ---------------------------------------------------------------


def _vjp(config: AnsatzConfig, params: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """g[k, i] = sum_j weights[k, j] * d p(j) / d params[i] for each weight row k.

    One reverse sweep from the final state psi carries psi itself as row 0 and
    the adjoints lambda_k = weights[k] * psi as rows 1..K.  It keeps the rows
    met before each rotation block, ``_SWEEP_BYTES`` of layers at a time; one
    stacked matmul per block then forms their cross densities rho[A, B] = sum
    conj(lambda_A) psi_B, each summed to one 2x2 transition matrix T per qubit.
    T gives the qubit's three angle derivatives as 2 Re sum(G * T), G being
    d(Rot)/d(angle) Rot^dagger.  Undoing the layer's other rotations first
    leaves T unchanged: they act on other qubits.
    """
    key = params.tobytes()
    rots, blocks = _circuit(config, key)
    _, inverses, widths, marginal_index, row_bytes = _layout(config)
    psi = _state(config, key)
    k = weights.shape[0]
    rows = np.empty((k + 1, config.dim), dtype=np.complex128)
    rows[0] = psi
    np.multiply(weights, psi, out=rows[1:])
    adjoints = [block.conj().swapaxes(-1, -2) for block in blocks]
    chunk = max(1, _SWEEP_BYTES // ((k + 1) * row_bytes))
    points = np.empty((min(chunk, config.num_layers), len(blocks)) + rows.shape,
                      dtype=np.complex128)
    transitions = np.empty((config.num_layers, config.num_qubits, k, 2, 2),
                           dtype=np.complex128)
    for top in range(config.num_layers, 0, -chunk):
        bottom = max(top - chunk, 0)
        # points[i] holds layer top - 1 - i: the sweep meets the layers downwards.
        for i, layer in enumerate(range(top - 1, bottom - 1, -1)):
            rows.take(inverses[layer], axis=1, out=points[i, 0], mode="clip")
            for b, adjoint in enumerate(adjoints):
                out = points[i, b + 1] if b + 1 < len(blocks) else rows
                _rotate_leading(adjoint[layer], points[i, b], out=out)
        count = top - bottom
        first = 0
        for b, width in enumerate(widths):
            split = points[:count, b].reshape(count, k + 1, 1 << width, -1)
            rho = split[:, 1:].conj() @ split[:, :1].swapaxes(-1, -2)
            # take keeps the gathered sum contiguous, so it rounds as one row's.
            marginals = rho.reshape(count, k, -1).take(
                marginal_index[b], axis=-1).sum(axis=-1)
            transitions[bottom:top, first:first + width] = marginals[::-1].swapaxes(1, 2)
            first += width
    grad = np.einsum("lqsab,lqkab->klqs", _generators(rots, params), transitions)
    return 2.0 * grad.real.reshape(k, -1)


def probability_vjp(config: AnsatzConfig, params, weights) -> np.ndarray:
    """Vector-Jacobian product  g[i] = sum_k weights[k] * d p(k) / d theta[i].

    One reverse sweep uncomputes the circuit layer by layer, so the cost is
    proportional to the gate count rather than gates x parameters.  This is
    the workhorse behind analytic training gradients.  Right after a
    ``run_circuit`` or ``probabilities`` call at the same parameters, the
    sweep starts from the state that call simulated.
    """
    params = _check_params(config, params)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != config.dim:
        raise ShapeMismatch(f"expected {config.dim} weights, got {w.size}")
    return _vjp(config, params, w[np.newaxis])[0]


def _shifted_states(config: AnsatzConfig, params: np.ndarray) -> np.ndarray:
    """Final states of the circuit and of all its parameter-shifted copies.

    Row 0 is the circuit at ``params``; rows 2i + 1 and 2i + 2 are the circuits
    with params[i] shifted to params[i] + pi/2 and to (params[i] + pi/2) - pi.
    A circuit shifted in layer l equals row 0 before layer l, so its row starts
    there by applying its own blocks to row 0, while the rows started earlier
    share one matmul per block.  Every layer's shifted rotations are built up
    front; only one layer's per-row blocks exist at a time.
    """
    n = config.num_qubits
    angles = params.reshape(config.num_layers, n, 3)
    rots, blocks = _circuit(config, params.tobytes())
    per_layer = 6 * n
    # Row r of a layer shifts angle (r // 6, slot[r]): + for even r, - for odd.
    row = np.arange(per_layer)
    slot = np.tile(np.repeat(np.arange(3), 2), n)
    triples = np.repeat(angles, 6, axis=1)
    plus = angles + np.pi / 2.0
    triples[:, row, slot] = np.stack([plus, plus - np.pi], -1).reshape(-1, per_layer)
    shifted_rots = np.repeat(rots[:, np.newaxis], per_layer, axis=1)
    shifted_rots[:, row, row // 6] = _rotations(triples)
    rows = np.empty((1 + per_layer * config.num_layers, config.dim),
                    dtype=np.complex128)
    rows[0] = 2.0 ** (-n / 2.0)
    for layer, perm in enumerate(_layout(config).perms):
        done = 1 + per_layer * layer
        started = rows[:1]
        for block in _blocks(shifted_rots[layer]):
            started = _rotate_leading(block, started)
        active = rows[:done]
        for block in blocks:
            active = _rotate_leading(block[layer], active)
        # perm is a permutation, so "clip" clips nothing; it skips buffering out.
        active.take(perm, axis=1, out=rows[:done], mode="clip")
        started.take(perm, axis=1, out=rows[done:done + per_layer], mode="clip")
    return rows


def _jacobian_parameter_shift(config, params, shots, seed):
    probs = np.abs(_shifted_states(config, params)[1:]) ** 2
    if shots is not None:
        probs = _draw(probs, shots, child_sequence(seed, "shift"))
    # Row-major (2^n, P), so that products such as jac.T @ w round as before.
    return np.ascontiguousarray(((probs[0::2] - probs[1::2]) / 2.0).T)


def probability_jacobian(config: AnsatzConfig, params, mode: str = ANALYTIC,
                         *, shots: int | None = None, seed=None) -> np.ndarray:
    """Matrix of d p(k) / d theta[i], shape (2^n, 3nL).

    ``analytic`` differentiates through the statevector.  ``parameter_shift``
    uses two evaluations per parameter at theta[i] +- pi/2, exact by the shift
    rule because every angle parameterizes a Pauli rotation; with a ``shots``
    budget the two evaluations are sampled instead of exact.
    """
    params = _check_params(config, params)
    if mode == ANALYTIC:
        if shots is not None:
            raise ConfigError("analytic mode does not take a shot budget")
        return _vjp(config, params, np.eye(config.dim))
    if mode == PARAMETER_SHIFT:
        if shots is not None:
            check_count("shots", shots)
            if seed is None:
                raise ConfigError("sampled parameter shift needs a seed")
        return _jacobian_parameter_shift(config, params, shots, seed)
    raise ConfigError(f"unknown jacobian mode {mode!r}")
