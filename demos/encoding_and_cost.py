"""How the probability-threshold encoding and the edge cost work, by hand.

A graph on N nodes is represented by the measurement distribution of a
ceil(log2 N)-qubit state: basis state |k> carries node k.  Assuming B blue
nodes, node k is blue exactly when p(k) exceeds the threshold 1/(2B).  The
cost pushes every edge toward one endpoint at probability 0 and the other at
1/B, i.e. toward distinctly white / distinctly blue endpoints.  A histogram
is a plain float64 array of length 2^n, as the simulator returns it.
"""

import numpy as np

from qemc import (
    EncodingConfig,
    complete_bipartite_graph,
    cost,
    cost_gradient_wrt_probs,
    cut_value,
    decode,
)

# K_{3,3}: six nodes, nine edges, bipartite, so the full edge set is cuttable.
graph = complete_bipartite_graph(3, 3)
encoding = EncodingConfig(blue_count=3, num_nodes=6)
print(f"threshold p_th = 1/(2B) = {encoding.threshold}")

# Three qubits cover six nodes; the two extra basis states are zero padding.
ideal = np.array([1/3, 1/3, 1/3, 0, 0, 0, 0, 0])
partition = decode(ideal, encoding)
print(f"ideal histogram decodes to blue set {partition.blue_nodes()}")
print(f"cut value: {cut_value(graph, partition):g} of {graph.num_edges} edges")
print(f"cost at the ideal histogram: {cost(ideal, graph, encoding):.2e}")

# Any deviation raises the cost: move a little probability across the split.
smeared = np.array([0.30, 1/3, 1/3, 0.2/6, 0.2/6, 0.2/6, 0, 0])
print(f"cost after smearing some weight: {cost(smeared, graph, encoding):.4f}")

# The uniform state sits far from any solution: every node looks identical
# and lands exactly on the threshold, decoding to all white.
uniform = np.full(8, 0.125)
print(f"uniform decodes {decode(uniform, encoding).blue_count} blue nodes, "
      f"cost {cost(uniform, graph, encoding):.4f}")

# The cost gradient with respect to the probabilities drives the optimizer;
# at the ideal histogram it vanishes.
grad = cost_gradient_wrt_probs(ideal, graph, encoding)
print(f"gradient norm at the ideal histogram: {np.linalg.norm(grad):.2e}")
grad = cost_gradient_wrt_probs(uniform, graph, encoding)
print(f"gradient at the uniform histogram (per node): {np.round(grad, 3)}")
