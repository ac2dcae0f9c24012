"""Residual graph-transformer recommender with rationale-aware generative SSL.

The package is organized as a small numpy/scipy library:

- ``tensor``      reverse-mode autodiff substrate and the Adam optimizer
- ``data``        interaction loading, per-user splits, the bipartite graph
- ``topology``    anchor distances and position-aware embedding refinement
- ``attention``   sparse multi-head attention and edge rationale scores
- ``sampling``    rationale / masked / complement subgraph draws
- ``propagation`` degree-normalized propagation and the masked encoder
- ``losses``      all objective terms and their weighted sum
- ``training``    configs, model state, the epoch loop and checkpoints
- ``evaluation``  all-rank Recall@K / NDCG@K
- ``mf_baseline`` pairwise matrix-factorization reference baseline
- ``cli``         the ``rgtrec`` command

See the demos/ directory for narrative walkthroughs of each capability.
"""

from .data import (BipartiteGraph, InteractionDataset, build_graph,
                   load_interactions, load_prepared, save_prepared, split)
from .evaluation import RankingResult, evaluate
from .losses import LossReport
from .sampling import SampledSubgraph, build_masked_graph, sample_complement, sample_rationale
from .synthetic import make_block_dataset
from .training import (DistillPair, ModelState, TrainConfig, checkpoint_config, fit,
                       init_pair, load_checkpoint_into, load_config, predict_embeddings,
                       read_checkpoint, write_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "InteractionDataset", "build_graph", "load_interactions",
    "load_prepared", "save_prepared", "split",
    "RankingResult", "evaluate",
    "LossReport",
    "SampledSubgraph", "build_masked_graph", "sample_complement", "sample_rationale",
    "make_block_dataset",
    "DistillPair", "ModelState", "TrainConfig", "checkpoint_config", "fit", "init_pair",
    "load_checkpoint_into", "load_config", "predict_embeddings",
    "read_checkpoint", "write_checkpoint",
    "__version__",
]
