"""Edge rationale probabilities and the three subgraph samplers.

The attention scores turn every edge into a probability of being an
informative ("rationale") interaction.  The rationale sample keeps the
likely-informative edges; the masked and complement samples invert the
distribution so informative edges are preferentially dropped/collected.

Run:  python demos/03_rationale_scores_and_sampling.py
"""

import numpy as np

from rgtrec import tensor as T
from rgtrec.attention import AttentionParams, attention_scores, edge_rationale_probs
from rgtrec.data import build_graph_from_edges
from rgtrec.sampling import build_masked_graph, sample_complement, sample_rationale

rng = np.random.default_rng(3)
edges = np.array([(u, 5 + i) for u in range(5) for i in range(5) if rng.random() < 0.5]
                 + [(u, 5 + u) for u in range(5)])
g = build_graph_from_edges(5, 5, np.unique(edges, axis=0))
print(f"graph: {g.num_edges} edges")

params = AttentionParams(latdim=8, heads=2, seed=1)
h = T.Tensor(rng.normal(size=(g.num_nodes, 8)))
# one probability per undirected edge, as a plain array the samplers take
probs = edge_rationale_probs(attention_scores(h, g, params).values, g)
print("edge probabilities sum to", round(float(probs.sum()), 9))
top = np.argsort(-probs)[:3]
print("three most informative edges:",
      [tuple(map(int, g.edge_list[e])) for e in top])

# each sampler checks only its own rate; TrainConfig.validate checks that
# they fit together (rho_m > rho_r and rho_c <= rho_m / 4, as here)
sub_r = sample_rationale(probs, rho_r=0.4, seed=11)
sub_m = build_masked_graph(probs, rho_m=0.8, seed=11)
sub_c = sample_complement(probs, rho_c=0.1, seed=11)
print(f"\nrationale sample:  {len(sub_r)} edges {sub_r.edge_indices.tolist()}")
print(f"masked (retained): {len(sub_m)} edges; reconstruction targets = "
      f"{sub_m.complement_indices(g.num_edges).tolist()}")
print(f"complement:        {len(sub_c)} edges {sub_c.edge_indices.tolist()}")

# the inversion at work: high-probability edges are retained least often
retained = np.zeros(g.num_edges)
for seed in range(2000):
    retained[build_masked_graph(probs, 0.5, seed=seed).edge_indices] += 1
order = np.argsort(-probs)
print("\nedge probability vs masked-retention frequency (sorted by probability):")
for e in order[:5]:
    print(f"  edge {tuple(map(int, g.edge_list[e]))}: "
          f"p={probs[e]:.3f}  retained {retained[e] / 2000:.2f}")
