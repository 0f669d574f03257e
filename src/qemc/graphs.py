"""Undirected weighted graphs, random regular generation, cuts and the exhaustive oracle.

Node indices are 0-based.  Edges are stored canonically as (u, v, w) with
u < v, no self-loops and no duplicates; graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    ConfigError,
    DuplicateEdge,
    GenerationFailed,
    InvalidBlueCount,
    InvalidDegree,
    ParseError,
    RuntimeFailure,
    SelfLoop,
    SizeMismatch,
    TooLarge,
    check_count,
    check_finite,
)
from .seeding import child_rng

__all__ = [
    "WHITE",
    "BLUE",
    "Graph",
    "Partition",
    "generate_regular",
    "cut_value",
    "exhaustive_maxcut",
    "random_star_partition",
    "parse_edge_list",
    "write_edge_list",
    "read_edge_list_file",
    "write_edge_list_file",
    "complete_graph",
    "complete_bipartite_graph",
]

WHITE = 0
BLUE = 1

#: default node cap for exhaustive enumeration (2^(N-1) partitions)
EXHAUSTIVE_NODE_CAP = 28

#: masks evaluated per vectorized chunk of the exhaustive search
_CHUNK_BITS = 20

#: stub-pairing attempts generate_regular makes before giving up
_MAX_RETRIES = 1000


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph with ``num_nodes`` nodes and canonical edge arrays.

    ``edge_u`` and ``edge_v`` must be one-dimensional integer arrays (bools are
    not integers) and ``edge_w`` a one-dimensional array of finite reals; any
    other raises :class:`ConfigError`."""

    num_nodes: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    def __post_init__(self):
        check_count("num_nodes", self.num_nodes)
        u = _integers("edge_u", self.edge_u, "iu").astype(np.int64, copy=False)
        v = _integers("edge_v", self.edge_v, "iu").astype(np.int64, copy=False)
        w = np.asarray(check_finite("edge weights", self.edge_w), dtype=np.float64)
        if w.ndim != 1:
            raise ConfigError(f"edge weights must be one-dimensional, got shape {w.shape}")
        if not (u.shape == v.shape == w.shape):
            raise ConfigError("edge arrays must have equal length")
        if u.size:
            if u.min() < 0 or v.max() >= self.num_nodes:
                raise ConfigError("edge endpoint out of range")
            if np.any(u == v):
                raise SelfLoop("self-loop in edge set")
            if np.any(u > v):
                raise ConfigError("edges must be stored as u < v")
            keys = u * self.num_nodes + v
            if np.unique(keys).size != keys.size:
                raise DuplicateEdge("duplicate edge in edge set")
        for name, arr in (("edge_u", u), ("edge_v", v), ("edge_w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_edges(cls, num_nodes, edges) -> "Graph":
        """Build a graph from (u, v) or (u, v, w) tuples; orientation is canonicalized.

        Endpoints must equal integers (``2`` or ``2.0``) without being bools, and
        weights be finite real numbers; any other raises :class:`ConfigError`."""
        us, vs, ws = [], [], []
        for e in edges:
            u, v = int(e[0]), int(e[1])
            bools = isinstance(e[0], (bool, np.bool_)) or isinstance(e[1], (bool, np.bool_))
            if bools or u != e[0] or v != e[1]:
                raise ConfigError(f"edge endpoints must be integers, got {e[0]!r}, {e[1]!r}")
            if u == v:
                raise SelfLoop(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            us.append(u)
            vs.append(v)
            if len(e) < 3:
                ws.append(1.0)
            elif isinstance(e[2], (bool, np.bool_)):     # among floats, cast to 1.0 or 0.0
                raise ConfigError(f"edge weights must be finite, got {e[2]!r}")
            else:
                ws.append(e[2])
        return cls(num_nodes, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), ws)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(u), int(v), float(w))
                for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)]

    @property
    def total_weight(self) -> float:
        return float(self.edge_w.sum())

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.edge_u, 1)
        np.add.at(deg, self.edge_v, 1)
        return deg

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix (fine at the sizes this package targets)."""
        a = np.zeros((self.num_nodes, self.num_nodes))
        a[self.edge_u, self.edge_v] = self.edge_w
        a[self.edge_v, self.edge_u] = self.edge_w
        return a

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0; every edge connects,
        whatever its weight.  Each sweep marks the nodes one hop further."""
        source = np.concatenate([self.edge_u, self.edge_v])
        target = np.concatenate([self.edge_v, self.edge_u])
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[0] = True
        while True:
            reached = np.count_nonzero(seen)
            seen[source[seen[target]]] = True
            if np.count_nonzero(seen) == reached:
                return bool(seen.all())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v)
                and np.array_equal(self.edge_w, other.edge_w))

    def __repr__(self):
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


@dataclass(frozen=True, eq=False)
class Partition:
    """Two-coloring of the nodes; ``colors[k]`` is WHITE (0) or BLUE (1), given as a
    one-dimensional bool or integer array."""

    colors: np.ndarray

    def __post_init__(self):
        c = _integers("colors", self.colors, "biu")
        if c.size and (c.min() < 0 or c.max() > 1):
            raise ConfigError("colors must be 0 (white) or 1 (blue)")
        c = c.astype(np.uint8, copy=False)
        c.setflags(write=False)
        object.__setattr__(self, "colors", c)

    @property
    def num_nodes(self) -> int:
        return int(self.colors.size)

    @property
    def blue_count(self) -> int:
        return int(self.colors.sum())

    def flipped(self) -> "Partition":
        """Partition with the two colors exchanged."""
        return Partition(1 - self.colors)

    def blue_nodes(self) -> list[int]:
        return np.flatnonzero(self.colors == BLUE).tolist()

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.colors, other.colors)

    def __repr__(self):
        return f"Partition(blue={self.blue_nodes()}, num_nodes={self.num_nodes})"


def _integers(name, values, kinds) -> np.ndarray:
    """``values`` as a one-dimensional array whose dtype kind is one of ``kinds``
    (``b`` bool, ``i`` signed, ``u`` unsigned), else :class:`ConfigError`; an
    empty list passes, whatever dtype numpy gives it."""
    with contextlib.suppress(ValueError):     # a ragged list makes no array
        array = np.asarray(values)
        if array.ndim == 1 and (array.dtype.kind in kinds or not array.size):
            return array
    raise ConfigError(f"{name} must be a one-dimensional array of integers")


def complete_graph(num_nodes: int) -> Graph:
    """K_N with unit weights."""
    check_count("num_nodes", num_nodes)
    return Graph.from_edges(num_nodes, [(u, v) for u in range(num_nodes)
                                        for v in range(u + 1, num_nodes)])


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """K_{left,right}: nodes 0..left-1 on one side, the rest on the other."""
    check_count("left", left, 0)
    check_count("right", right, 0)
    return Graph.from_edges(left + right, [(u, left + v) for u in range(left)
                                           for v in range(right)])


# -- random regular generation --------------------------------------------------


def _pair_stubs(num_nodes, degree, rng):
    """One pass of the stub-pairing model; re-shuffles clashing stubs until the
    edge set is complete or provably stuck (then returns None)."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degree)
    while stubs.size:
        rng.shuffle(stubs)
        leftover: dict[int, int] = {}
        for i in range(0, stubs.size, 2):
            a, b = int(stubs[i]), int(stubs[i + 1])
            if a > b:
                a, b = b, a
            if a != b and (a, b) not in edges:
                edges.add((a, b))
            else:
                leftover[a] = leftover.get(a, 0) + 1
                leftover[b] = leftover.get(b, 0) + 1
        if leftover and not _has_suitable_pair(edges, leftover):
            return None
        stubs = np.array([n for n, c in leftover.items() for _ in range(c)],
                         dtype=np.int64)
    return edges


def _has_suitable_pair(edges, leftover):
    return any((min(a, b), max(a, b)) not in edges for a, b in combinations(leftover, 2))


def generate_regular(num_nodes: int, degree: int, seed) -> Graph:
    """Simple connected d-regular graph via the stub-pairing model.

    Pairings that clash (self-loop or duplicate) re-shuffle the clashing stubs;
    a stuck pairing or a disconnected result rejects the whole attempt, and
    ``_MAX_RETRIES`` rejected attempts raise ``GenerationFailed``.
    Deterministic for a fixed seed.
    """
    check_count("num_nodes", num_nodes, 2, InvalidDegree)
    check_count("degree", degree, 1, InvalidDegree)
    if degree >= num_nodes:
        raise InvalidDegree(f"degree {degree} must be < num_nodes {num_nodes}")
    if (num_nodes * degree) % 2 != 0:
        raise InvalidDegree(f"num_nodes*degree = {num_nodes * degree} must be even")

    rng = child_rng(seed, "generate_regular", num_nodes, degree)
    for _ in range(_MAX_RETRIES):
        edges = _pair_stubs(num_nodes, degree, rng)
        if edges is None:
            continue
        graph = Graph.from_edges(num_nodes, sorted(edges))
        if graph.is_connected():
            return graph
    raise GenerationFailed(
        f"no simple connected {degree}-regular graph on {num_nodes} nodes "
        f"after {_MAX_RETRIES} attempts")


# -- cuts ------------------------------------------------------------------------


def cut_value(graph: Graph, partition: Partition) -> float:
    """Total weight of edges whose endpoints have different colors."""
    if partition.num_nodes != graph.num_nodes:
        raise SizeMismatch(
            f"partition has {partition.num_nodes} nodes, graph has {graph.num_nodes}")
    return _crossing_weight(graph, partition.colors)


def _crossing_weight(graph: Graph, colors: np.ndarray) -> float:
    """Total weight of the edges whose endpoints differ in ``colors``, a length-N
    array of node colors or blue flags."""
    crossing = colors[graph.edge_u] != colors[graph.edge_v]
    return float(graph.edge_w[crossing].sum())


@np.errstate(over="ignore", invalid="ignore")  # exhaustive_maxcut checks the best cut
def _chunk_cuts(graph, masks):
    """Cut value for each enumeration mask (bit i-1 of the mask colors node i;
    node 0 is fixed white)."""
    acc = np.zeros(masks.size)
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        bu = (masks >> (u - 1)) & 1 if u > 0 else np.zeros(masks.size, dtype=masks.dtype)
        bv = (masks >> (v - 1)) & 1
        acc += w * (bu != bv)
    return acc


def exhaustive_maxcut(graph: Graph, *, node_cap: int = EXHAUSTIVE_NODE_CAP):
    """Globally optimal cut by enumeration of all 2^(N-1) partitions.

    Node 0 is fixed white, which halves the search space by the global
    color-flip symmetry.  Returns ``(cut_star, partition)`` where the
    partition is the first optimum in enumeration order (deterministic).
    Raises ``RuntimeFailure`` if the weights overflow the best cut.
    """
    n = graph.num_nodes
    if n > check_count("node_cap", node_cap):
        raise TooLarge(f"{n} nodes exceeds the exhaustive cap of {node_cap}")
    total = 1 << (n - 1)
    best_cut = -np.inf
    best_mask = 0
    chunk = 1 << _CHUNK_BITS
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cuts = _chunk_cuts(graph, masks)
        i = int(np.argmax(cuts))
        if not np.isfinite(cuts[i]):
            raise RuntimeFailure(f"exhaustive_maxcut: the best cut is not finite ({cuts[i]})")
        if cuts[i] > best_cut:
            best_cut = float(cuts[i])
            best_mask = int(masks[i])
    colors = ((best_mask << 1) >> np.arange(n)) & 1     # node k > 0: mask bit k - 1
    return best_cut, Partition(colors)


def random_star_partition(num_nodes: int, blue_count: int, seed) -> Partition:
    """Uniformly random partition with exactly ``blue_count`` blue nodes."""
    check_count("num_nodes", num_nodes)
    check_count("blue_count", blue_count, error=InvalidBlueCount)
    if blue_count > num_nodes:
        raise InvalidBlueCount(
            f"blue_count must be in [1, {num_nodes}], got {blue_count}")
    rng = child_rng(seed, "random_star", num_nodes, blue_count)
    colors = np.zeros(num_nodes, dtype=np.uint8)
    colors[rng.permutation(num_nodes)[:blue_count]] = BLUE
    return Partition(colors)


# -- edge-list text format -------------------------------------------------------
#
# UTF-8 text, one edge per line as "u v" or "u v w"; '#' starts a comment line;
# the first non-comment line may be "N <num_nodes>" to declare isolated-node
# padding, otherwise N = max index + 1.


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph; raises ParseError with a line number."""
    if not isinstance(text, str):
        raise ParseError(f"edge list must be text, got {type(text).__name__}")
    declared_n = None
    seen_edge = False
    edges: list[tuple[int, int, float]] = []
    keys: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "N":
            if seen_edge or declared_n is not None:
                raise ParseError("node-count declaration must be the first "
                                 "non-comment line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'N <num_nodes>'", lineno)
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad node count {parts[1]!r}", lineno) from None
            if declared_n < 1:
                raise ParseError("node count must be positive", lineno)
            continue
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'u v' or 'u v w', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"bad edge line {line!r}", lineno) from None
        if not np.isfinite(w):
            raise ParseError(f"edge weight must be finite, got {parts[2]!r}", lineno)
        if u < 0 or v < 0:
            raise ParseError("node indices must be non-negative", lineno)
        if u == v:
            raise SelfLoop(f"self-loop at node {u}", lineno)
        if u > v:
            u, v = v, u
        if (u, v) in keys:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})", lineno)
        keys.add((u, v))
        edges.append((u, v, w))
        seen_edge = True

    max_index = max((v for _, v, _ in edges), default=-1)
    num_nodes = declared_n if declared_n is not None else max_index + 1
    if num_nodes <= max_index:
        raise ParseError(f"declared N={num_nodes} but edges reference node {max_index}")
    if num_nodes < 1:
        raise ParseError("empty edge list without a node-count declaration")
    return Graph.from_edges(num_nodes, edges)


def write_edge_list(graph: Graph) -> str:
    """Serialize a Graph to edge-list text; parse(write(g)) == g.

    The "N <num_nodes>" header is emitted only when the node count cannot be
    inferred from the edges (isolated trailing nodes).
    """
    lines = []
    max_index = int(graph.edge_v.max()) if graph.num_edges else -1
    if max_index + 1 != graph.num_nodes:
        lines.append(f"N {graph.num_nodes}")
    for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
        if w == 1.0:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {float(w)!r}")
    return "\n".join(lines) + "\n"


def read_edge_list_file(path) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def write_edge_list_file(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_edge_list(graph))
