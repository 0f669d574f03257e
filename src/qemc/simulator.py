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
the parameter array, and each layer's rotations are fused into ceil(n/4)
Kronecker blocks of consecutive qubits, near-equal and at most four qubits
wide (a 16x16 matrix), so a layer costs one matmul per block.  Each thread
keeps one workspace, the simulator's only per-config object, for the config
it last simulated.  It holds what the sweeps read from the ``AnsatzConfig``
alone (the CNOT ring of each of the n - 1 strides as one index permutation,
the block widths, the index tables), one copy of each matrix a step reads,
and every array a step writes, with prebuilt views of them: a training step
allocates no per-step arrays, and builds and simulates its circuit once for
the distribution and the gradient.  Only a Jacobian builds the tangent
sweep's index tables.

The reverse sweep, the adjoint method of Jones & Gacon (arXiv:2009.02823),
serves the vector-Jacobian product.  It runs on conjugated rows and undoes
each block B with B itself, as conj(B^dagger x) = B^T conj(x) exactly.  It
keeps its rows before each block; per chunk of layers, bounded in bytes, a
few stacked calls per block form the cross densities of adjoint and state
and sum them, over a gathered table's leading axis, to each qubit's 2x2
transition matrix.

Callers pass parameters, never circuits or states.

Distributions are plain float64 arrays of length 2^n: ``probabilities``
returns |amplitude|^2, and ``sample_histogram`` turns any such array into
the frequencies of a multinomial draw.

The Jacobian, exact or sampled, simulates no shifted circuit.  Every angle
parameterizes a Pauli rotation, so a +-pi/2 shift turns its rotation R into
(I +- 2G) R / sqrt(2), G = d(Rot)/d(angle) Rot^dagger being the generator the
adjoint sweep uses too: the shifted states are (psi +- 2 chi_i) / sqrt(2),
chi_i = d psi / d theta_i.  One forward sweep over 1 + P rows carries psi and
every chi_i, which starts at its layer as G applied to psi's row.  Exact, the
Jacobian is 2 Re(conj(psi) chi_i), but no training gradient needs it: those
are VJPs.  With a shot budget, one generator seeded from the call's seed
draws every shifted histogram, |psi +- 2 chi_i|^2 / 2, in one multinomial
call, in the order (0, +), (0, -), (1, +), ...; each row is an independent
draw of ``shots`` samples from its own circuit.

All functions are pure and safe to call from concurrent threads: no thread
reads another's workspace, and every public function returns a fresh array.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, ShapeMismatch, TooLarge, check_count
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

# A layer's blocks are at most this many qubits wide: ceil(n/4) of them, widths
# differing by at most one.  Forward pass plus VJP at L=50 on a 2-core Sapphire
# Rapids VM, medians of 30 alternating rounds against blocks of 4 and a narrow
# last one: n=5 -16%, 6 -7%, 9 -16%, 10 -6%, 13 -18% (unchanged splits: -4 to +4%).
# Uniform width 4 beat 3, 5 and 6 at n = 4, 7, 8, 11 (n=8: 1.74 ms, 2.29 at 5).
_BLOCK_QUBITS = 4

# The adjoint sweep keeps at most this many bytes of rows (but always one
# layer's) between its stacked density calls.  Medians of 30-40 alternating rounds
# on a 2-core Sapphire Rapids VM: the n=8, L=50 VJP took 0.98 ms at 256 KiB, 1.03-1.06
# up to 2 MiB; n=11, L=20 took 2.46 at 256 KiB, 2.13 at 512 KiB, 1.97-2.04 from 768 KiB.
_SWEEP_BYTES = 1 << 20

# At this cap a thread's workspace always holds 304 MiB of CNOT rings and their
# inverses, 16 (n - 1) 2^n bytes; the tangent sweep's ``fronts`` and ``backs``,
# 32 n 2^n bytes, add 640 MiB once a Jacobian runs.  One state takes 16 MiB;
# the paper's 2048-node graphs need 11 qubits.
_MAX_QUBITS = 20


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
        if self.num_qubits > _MAX_QUBITS:
            raise TooLarge(f"{self.num_qubits} qubits exceeds the qubit cap of {_MAX_QUBITS}")

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


def _rotations(angles: np.ndarray, rots: np.ndarray) -> None:
    """Rot(phi, theta, omega) for angles of shape (..., 3), into ``rots``: (..., 2, 2)."""
    phi, theta, omega = angles[..., 0], angles[..., 1], angles[..., 2]
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    plus = np.exp(-0.5j * (phi + omega))
    minus = np.exp(-0.5j * (phi - omega))
    rots[..., 0, 0], rots[..., 0, 1] = plus * c, -minus.conj() * s
    rots[..., 1, 0], rots[..., 1, 1] = minus * s, plus.conj() * c


def _generators(ws: _Workspace, params: np.ndarray) -> np.ndarray:
    """d(Rot)/d(angle) @ Rot^dagger for every (layer, qubit, slot), into ``ws.gens``.

    With Rot = RZ(omega) RY(theta) RZ(phi), RZ(phi) commuting with Z, they are
    R (-iZ/2) R^dagger = -(i/2) (cos theta Z + sin theta (cos omega X + sin omega Y)),
    RZ(omega) (-iY/2) RZ(omega)^dagger and -iZ/2 (set once, with the zeros).
    """
    angles = params.reshape(ws.grad.shape)
    turn = np.exp(1j * angles[..., 2])
    cos, sin = -0.5j * np.cos(angles[..., 1]), -0.5j * np.sin(angles[..., 1])
    ws.gens[..., 0, 0, 0], ws.gens[..., 0, 1, 1] = cos, -cos
    ws.gens[..., 0, 0, 1], ws.gens[..., 0, 1, 0] = sin * turn.conj(), sin * turn
    ws.gens[..., 1, 0, 1], ws.gens[..., 1, 1, 0] = -0.5 * turn.conj(), 0.5 * turn
    return ws.gens


def _blocks(ws: _Workspace) -> None:
    """Fuse each layer's rotations, ``ws.by_qubit``, into ``ws.blocks``: one
    (L, 2^b, 2^b) array per block of ``ws.widths`` consecutive qubits, its
    first qubit the most significant bit, as in the full index."""
    # numpy buffers a broadcast ufunc operand, 128 KiB at a time, so both
    # factors are copied to full size first.
    for products, layer_first, block in ws.fusions:
        for left, right, wide, out in products:
            np.copyto(out, left)
            np.copyto(wide, right)
            np.multiply(out, wide, out=out)
        np.copyto(block, layer_first)


def _marginal_index(width: int) -> np.ndarray:
    """Flat indices into a 2^b x 2^b matrix that sum it to each qubit's 2x2 block.

    Its shape is (2^(b-1), b, 2, 2), and ``m.reshape(-1)[idx].sum(0)`` has shape
    (b, 2, 2): entry [i, a, c] sums m over the pairs of indices that agree on
    every qubit but i, where they read a and c (the partial trace over the others).
    """
    dim = 1 << width
    idx = np.arange(dim)
    out = np.empty((dim // 2, width, 2, 2), dtype=np.int64)
    for i in range(width):
        bit = 1 << (width - 1 - i)
        rest = idx[idx & bit == 0]
        for a in range(2):
            for c in range(2):
                out[:, i, a, c] = (rest | a * bit) * dim + (rest | c * bit)
    out.setflags(write=False)
    return out


def _check_vector(name: str, values, size: int) -> np.ndarray:
    """``values`` as a flat float64 array of ``size`` finite reals, called ``name``."""
    if (v := np.asarray(values)).dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be real numbers, got dtype {v.dtype}")
    v = v.astype(np.float64, copy=False).reshape(-1)
    if v.size != size:
        raise ShapeMismatch(f"expected {size} {name}, got {v.size}")
    if not np.isfinite(v).all():
        raise ConfigError(f"{name} must be finite")
    return v


def _run(ws: _Workspace) -> None:
    # The Hadamard layer on |0...0> is the uniform start state.
    ws.state[:] = 2.0 ** (-ws.config.num_qubits / 2.0)
    for mats, perm in zip(ws.block_mats, ws.perms):
        for (split, out), mat in zip(ws.run_views, mats):
            np.matmul(split, mat, out=out)
        ws.forward[-1].take(perm, axis=1, out=ws.forward[0], mode="clip")


class _Workspace:
    """Everything a sweep at one ``AnsatzConfig`` reads or writes, with prebuilt
    views: the config's CNOT rings, block widths and index tables, and one copy
    of each array a step writes (the rotations, blocks and final ``state`` of
    the parameters whose bytes are ``key``, and the buffers of ``_generators``
    and the adjoint sweep).  ``tangent_tables`` waits for the first Jacobian."""

    def __init__(self, config: AnsatzConfig):
        n, num_layers, dim = config.num_qubits, config.num_layers, config.dim
        # ceil(n / 4) blocks whose widths differ by at most one, wider first.
        count = -(-n // _BLOCK_QUBITS)
        self.widths = widths = tuple(n // count + (b < n % count) for b in range(count))
        firsts = [sum(widths[:b]) for b in range(count)]
        # The strides cycle with period n - 1: layers of one stride share its ring.
        strides = config.entangler_strides or (0,) * num_layers   # one qubit: no ring
        rings = {}
        for stride in dict.fromkeys(strides):
            perm = np.arange(dim, dtype=np.int64)
            for q in range(n if stride else 0):
                perm = perm[_cnot_permutation(n, q, (q + stride) % n)]
            rings[stride] = perm, np.argsort(perm)
            for array in rings[stride]:
                array.setflags(write=False)
        self.perms = tuple(rings[stride][0] for stride in strides)
        self.inverses = tuple(rings[stride][1] for stride in strides)
        widest = max(widths)
        new = partial(np.empty, dtype=np.complex128)
        self.config, self.key = config, None
        self.gens = np.zeros((num_layers, n, 3, 2, 2), dtype=np.complex128)
        self.gens[..., 2, 0, 0], self.gens[..., 2, 1, 1] = -0.5j, 0.5j
        # The rotations, layer axis last for long inner loops, and per block
        # _blocks' products (the k-th into ``stages[k]``, each right factor
        # copied into ``wide``), the last stage's layer-first view and the block.
        self.by_qubit = new((n, 2, 2, num_layers))
        stages = [new(num_layers << 2 * k) for k in range(2, widest + 1)]
        wide = new(num_layers << 2 * widest)
        self.blocks, self.fusions = [new((num_layers, 1 << w, 1 << w)) for w in widths], []
        for first, width, block in zip(firsts, widths, self.blocks):
            mat, products = self.by_qubit[first], []
            for stage, q in zip(stages, range(first + 1, first + width)):
                shape = (len(mat), 2, len(mat), 2, num_layers)
                products.append((mat[:, None, :, None], self.by_qubit[q, None, :, None, :],
                                 wide[:stage.size].reshape(shape), stage.reshape(shape)))
                mat = stage.reshape(2 * len(mat), 2 * len(mat), num_layers)
            self.fusions.append((products, mat.transpose(2, 0, 1), block))
        # Forward rows: block b turns row b into row b + 1, and the CNOT ring
        # gathers the last row back into row 0, the state.
        self.forward = new((len(widths) + 1, 1, dim))
        self.state = self.forward[0, 0]

        # Per block, its matmul's operand (its leading index bits moved last) and
        # result; the blocks, in qubit order, leave the index layout as it was.
        def views(rows, outs):
            return [(row.reshape(len(row), 1 << w, -1).swapaxes(1, 2),
                     out.reshape(len(out), -1, 1 << w)) for w, row, out in zip(widths, rows, outs)]
        self.run_views = views(self.forward, self.forward[1:])
        # Per layer, each block transposed for the forward sweep and as it is
        # for the adjoint sweep, whose rows are conjugated.
        self.block_mats = list(zip(*(block.transpose(0, 2, 1) for block in self.blocks)))
        self.layer_blocks = list(zip(*self.blocks))
        # The adjoint sweep: its rows (conj psi, conj lambda), the rows met before
        # each block for a chunk of layers, and each block's cross densities.
        self.chunk = max(1, _SWEEP_BYTES // (2 * len(widths) * dim * 16))
        self.rows = new((2, dim))
        depth = min(self.chunk, num_layers)
        self.points = new((depth, len(widths), 2, dim))
        self.sweep_steps = [views(points, [*points[1:], self.rows]) for points in self.points]
        # The blocks take turns with one state, density and gather buffer.
        psi, rho, gathered = (new(depth * k) for k in (dim, 1 << 2 * widest, widest << widest + 1))
        self.densities = []
        for b, (first, w) in enumerate(zip(firsts, widths)):
            split = self.points[:, b].reshape(depth, 2, 1 << w, dim >> w)
            index, state = _marginal_index(w), psi.reshape(split[:, 0].shape)
            self.densities.append((
                split[:, 1], split[:, 0], state, state.swapaxes(1, 2),
                rho[:depth << 2 * w].reshape(depth, 1 << w, 1 << w), index,
                gathered[:depth * index.size].reshape((depth,) + index.shape),
                new((depth, w, 2, 2)), slice(first, first + w)))
        self.transitions, self.grad = new((num_layers, n, 2, 2)), new((num_layers, n, 3))

    @cached_property
    def tangent_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fronts, backs)``: (n, 2^n), per qubit the state's order with its bit
        first, and (3n, 2^n) flat indices that undo ``fronts`` per slot."""
        n, dim = self.config.num_qubits, self.config.dim
        axes = np.arange(dim).reshape((2,) * n)
        fronts = np.stack([np.moveaxis(axes, q, 0).reshape(-1) for q in range(n)])
        backs = (np.arange(3 * n)[:, np.newaxis] * dim
                 + np.repeat(np.argsort(fronts, axis=1), 3, axis=0))
        for array in (fronts, backs):
            array.setflags(write=False)
        return fronts, backs


_workspaces = threading.local()


def _loaded(config: AnsatzConfig, params: np.ndarray) -> _Workspace:
    """This thread's workspace for ``config``, holding the circuit of ``params``."""
    ws = getattr(_workspaces, "current", None)
    if ws is None or ws.config != config:
        ws = _workspaces.current = _Workspace(config)
    if (key := params.tobytes()) != ws.key:
        ws.key = None      # a load that fails part way leaves no stale key
        _rotations(params.reshape(ws.grad.shape), ws.by_qubit.transpose(3, 0, 1, 2))
        _blocks(ws)
        _run(ws)
        ws.key = key
    return ws


def run_circuit(config: AnsatzConfig, params) -> np.ndarray:
    """Statevector prepared by the ansatz: complex array of length 2^n."""
    params = _check_vector("parameters", params, config.num_parameters)
    return _loaded(config, params).state.copy()


def probabilities(config: AnsatzConfig, params) -> np.ndarray:
    """Exact measurement distribution |amplitude|^2: float64 array of length 2^n."""
    params = _check_vector("parameters", params, config.num_parameters)
    return np.abs(_loaded(config, params).state) ** 2


def _draw(probs: np.ndarray, shots: int,
          seed_sequence: np.random.SeedSequence) -> np.ndarray:
    """Frequencies of a multinomial draw of ``shots`` samples from each
    distribution along the last axis of ``probs``.

    One generator draws the rows of a stack in order, each from its own
    distribution, as consecutive one-row draws from that generator would.
    ``probs`` is normalized in place.
    """
    probs /= probs.sum(axis=-1, keepdims=True)
    return np.random.default_rng(seed_sequence).multinomial(shots, probs) / shots


def sample_histogram(probs, shots: int, seed) -> np.ndarray:
    """Frequencies of a multinomial draw of ``shots`` samples from ``probs``.

    ``probs`` is a 1-D array of non-negative weights, normalized before the
    draw.  ``seed`` is a ``SeedSequence`` used as given, or a seed from which
    one is derived.
    """
    check_count("shots", shots)
    if (probs := np.asarray(probs)).dtype.kind not in "iuf":
        raise ConfigError(f"probabilities must be real numbers, got dtype {probs.dtype}")
    probs = probs.astype(np.float64)     # a copy: _draw normalizes it in place
    if probs.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D distribution, got shape {probs.shape}")
    with np.errstate(over="ignore"):     # an infinite total is refused below
        total = probs.sum()
    if not (np.isfinite(total) and total > 0 and probs.min() >= 0):
        raise ConfigError(
            "probabilities must be finite and non-negative with a positive sum")
    if not isinstance(seed, np.random.SeedSequence):
        seed = child_sequence(seed, "sample")
    return _draw(probs, shots, seed)


# -- differentiation ---------------------------------------------------------------


def _vjp(config: AnsatzConfig, params: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """g[i] = sum_j weights[j] * d p(j) / d params[i].

    One reverse sweep from the final state psi carries conj(psi) as row 0 and
    conj(lambda) = weights * conj(psi) as row 1, and undoes each block B with
    B itself: conj(B^dagger x) = B^T conj(x) exactly.  It keeps the rows met
    before each rotation block, ``_SWEEP_BYTES`` of layers at a time; one
    stacked matmul per block then forms their cross density rho[A, B] = sum
    conj(lambda_A) psi_B, summed to one 2x2 transition matrix T per qubit.
    T gives the qubit's three angle derivatives as 2 Re sum(G * T), G being
    d(Rot)/d(angle) Rot^dagger.  Undoing the layer's other rotations first
    leaves T unchanged: they act on other qubits.
    """
    ws = _loaded(config, params)
    np.multiply(weights, np.conjugate(ws.state, out=ws.rows[0]), out=ws.rows[1])
    for top in range(config.num_layers, 0, -ws.chunk):
        bottom = max(top - ws.chunk, 0)
        # points[i] holds layer top - 1 - i: the sweep meets the layers downwards.
        for i, layer in enumerate(range(top - 1, bottom - 1, -1)):
            ws.rows.take(ws.inverses[layer], axis=1, out=ws.points[i, 0], mode="clip")
            for (split, out), mat in zip(ws.sweep_steps[i], ws.layer_blocks[layer]):
                np.matmul(split, mat, out=out)
        count = top - bottom
        for left, rows, psi, right, rho, index, gathered, marginals, qubits in ws.densities:
            # psi, conjugated back in place: a strided operand would be buffered.
            np.copyto(psi[:count], rows[:count])
            np.conjugate(psi[:count], out=psi[:count])
            np.matmul(left[:count], right[:count], out=rho[:count])
            # Leading-axis sums add whole rows; a last-axis complex sum stalls after zgemm.
            rho[:count].reshape(count, -1).take(index, axis=-1, out=gathered[:count],
                                                 mode="clip")
            gathered[:count].sum(axis=1, out=marginals[:count])
            ws.transitions[bottom:top, qubits] = marginals[count - 1::-1]
    np.einsum("lqsab,lqab->lqs", _generators(ws, params), ws.transitions, out=ws.grad)
    return (2.0 * ws.grad.real).reshape(-1)


def probability_vjp(config: AnsatzConfig, params, weights) -> np.ndarray:
    """Vector-Jacobian product  g[i] = sum_k weights[k] * d p(k) / d theta[i].

    One reverse sweep uncomputes the circuit layer by layer, so the cost is
    proportional to the gate count rather than gates x parameters.  Every
    exact training gradient, in either mode, is one.  The sweep starts from
    the workspace's final state, so right after a ``run_circuit`` or
    ``probabilities`` call at the same parameters it simulates no circuit.
    """
    params = _check_vector("parameters", params, config.num_parameters)
    return _vjp(config, params, _check_vector("weights", weights, config.dim))


def _tangents(config: AnsatzConfig, params: np.ndarray) -> np.ndarray:
    """Row 0 is the final state psi, row 1 + i its tangent d psi / d params[i].

    A tangent row starts at its layer as G = d(Rot)/d(angle) Rot^dagger applied
    on its qubit to row 0, then shares each later block's matmul and CNOT ring
    with the rows before it.  One matmul applies a layer's 3n generators, to n
    copies of row 0 each with its qubit's bit moved first.  The rows move
    between two (1 + P, 2^n) buffers: each block's matmul, as in the forward
    sweep, and each ring write the other buffer, so no step allocates an array
    of the rows' size.
    """
    n, per_layer = config.num_qubits, 3 * config.num_qubits
    ws = _loaded(config, params)
    gens, (fronts, backs) = _generators(ws, params), ws.tangent_tables
    rows, work = (np.empty((1 + config.num_parameters, config.dim), dtype=np.complex128)
                  for _ in range(2))
    rows[0] = 2.0 ** (-n / 2.0)
    for layer, perm in enumerate(ws.perms):
        done = 1 + per_layer * layer
        for width, mat in zip(ws.widths, ws.block_mats[layer]):
            split = rows[:done].reshape(done, 1 << width, -1).swapaxes(1, 2)
            np.matmul(split, mat, out=work[:done].reshape(done, -1, 1 << width))
            rows, work = work, rows
        front = rows[0].take(fronts).reshape(n, 1, 2, -1)
        # Index tables are permutations: "clip" clips nothing, and skips buffering out.
        (gens[layer] @ front).take(backs, out=rows[done:done + per_layer], mode="clip")
        rows[:done + per_layer].take(perm, axis=1, out=work[:done + per_layer], mode="clip")
        rows, work = work, rows
    return rows


def probability_jacobian(config: AnsatzConfig, params, *, shots: int | None = None,
                         seed=None) -> np.ndarray:
    """Matrix of d p(k) / d theta[i], shape (2^n, 3nL): exact without ``shots``,
    sampled parameter shift with them.

    One forward sweep over 1 + P rows, the state psi and its tangents chi_i,
    gives the exact Jacobian 2 Re(conj(psi) chi_i).  Sampled parameter shift
    draws ``shots`` samples from each of the two evaluations per parameter at
    theta[i] +- pi/2, exact by the shift rule because every angle
    parameterizes a Pauli rotation: the shift turns its rotation R into
    (I +- 2G) R / sqrt(2), G its generator, so the shifted states are
    (psi +- 2 chi_i) / sqrt(2).
    """
    params = _check_vector("parameters", params, config.num_parameters)
    if shots is not None:
        check_count("shots", shots)
        if seed is None:
            raise ConfigError("sampled parameter shift needs a seed")
    rows = _tangents(config, params)
    psi, chi = rows[0], rows[1:]
    if shots is None:
        # (|psi + 2 chi|^2 - |psi - 2 chi|^2) / 4, formed in the tangent rows
        np.multiply(chi, psi.conj(), out=chi)
        jac = chi.real
        jac *= 2.0
    else:
        chi *= 2.0
        dens = np.empty((len(chi), 2, config.dim))
        np.abs(psi + chi, out=dens[:, 0])
        np.abs(np.subtract(psi, chi, out=chi), out=dens[:, 1])
        dens = dens.reshape(-1, config.dim)
        np.square(dens, out=dens)
        dens /= 2.0
        probs = _draw(dens, shots, child_sequence(seed, "shift"))
        jac = (probs[0::2] - probs[1::2]) / 2.0
    # Row-major (2^n, P): the layout ``train``'s gradient product reads.
    return np.ascontiguousarray(jac.T)
