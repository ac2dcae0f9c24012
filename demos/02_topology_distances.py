"""Anchor nodes, truncated hop distances and correlation weights.

Run:  python demos/02_topology_distances.py
"""

import numpy as np

from rgtrec import tensor as T
from rgtrec.data import build_graph_from_edges
from rgtrec.topology import (TopologyEncoder, correlation_weights, sample_anchors,
                             shortest_paths)

# a small two-community bipartite graph: users 0-3, items 4-9
edges = np.array([
    [0, 4], [0, 5], [1, 4], [1, 6],        # community A
    [2, 7], [2, 8], [3, 8], [3, 9],        # community B
    [1, 7],                                 # one bridge
])
g = build_graph_from_edges(4, 6, edges)

# the anchors are a plain sorted array of node ids
anchors = sample_anchors(g, m=3, seed=7)
print("anchor nodes:", anchors.tolist())

distances = shortest_paths(g, anchors, q=2)
print("\nhop distances to each anchor (inf = beyond cutoff):")
with np.printoptions(precision=0, suppress=True):
    print(distances)

omega = correlation_weights(distances, q=2)
print("\ncorrelation weights 1/(d+1), zero past q=2 hops:")
with np.printoptions(precision=3, suppress=True):
    print(omega)

# nodes on the same side of the bridge share anchors within reach,
# which is what the encoder turns into a global position signal; it takes
# the anchors sampled above and computes the same weights from them
encoder = TopologyEncoder(g, anchors, q=2, latdim=4, num_layers=2, seed=7)
h_id = T.Tensor(np.random.default_rng(0).normal(size=(g.num_nodes, 4)))
h_out = encoder.encode(h_id)
print("\nencoded shape:", h_out.shape, "(identity-injected: output = input + refinement)")
drift = np.linalg.norm(h_out.values - h_id.values, axis=1)
print("refinement magnitude per node:", np.round(drift, 3))
