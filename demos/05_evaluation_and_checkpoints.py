"""All-rank metrics worked by hand, plus checkpoint round-tripping.

Run:  python demos/05_evaluation_and_checkpoints.py
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from rgtrec.data import TEST, InteractionDataset, build_graph, split
from rgtrec.evaluation import evaluate, ndcg_at_k, recall_at_k
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import (TrainConfig, checkpoint_config, fit, init_pair,
                             load_checkpoint_into, predict_embeddings, read_checkpoint)

# --- metrics on a tiny hand-ranked list --------------------------------------
ranking = np.array([12, 7, 3, 40, 9])
relevant = {7, 40}
print("ranking:", ranking.tolist(), "relevant:", relevant)
for k in (1, 2, 4):
    print(f"  recall@{k} = {recall_at_k(ranking, relevant, k):.3f}   "
          f"ndcg@{k} = {ndcg_at_k(ranking, relevant, k):.4f}")
# DCG@4 = 1/log2(3) + 1/log2(5); ideal = 1 + 1/log2(3)
expect = (1 / math.log2(3) + 1 / math.log2(5)) / (1 + 1 / math.log2(3))
print(f"  ndcg@4 by hand = {expect:.4f}")

# ties break toward the smaller item id, so rankings are reproducible
# one user, four items scored 1, 5, 5, 0 by 1-d embeddings; item 3 is its test item
tie_ds = InteractionDataset(1, 4, np.array([[0, 3]]),
                            split_assignment=np.array([TEST], dtype=np.int8))
tie_s = np.array([[1.0], [1.0], [5.0], [5.0], [0.0]])
print("\ntie handling:", evaluate(tie_s, tie_ds, TEST, ks=(4,)).topk[0].tolist(),
      "(items 1 and 2 tie)")

# --- checkpoints: train briefly, save, reload, compare -----------------------
ds = split(make_block_dataset(40, 40, 4, 0.9, 12, seed=1), seed=1)
cfg = TrainConfig(latdim=16, heads=2, gcn_layers=1, gt_layers=1, pnn_layers=1,
                  anchor_set=8, batch_size=512, lr=0.01, epochs=3, patience=0, seed=1)

with tempfile.TemporaryDirectory() as tmp:
    pair, _ = fit(ds, cfg, out_dir=tmp)
    ckpt = Path(tmp) / "model.ckpt"
    members = read_checkpoint(ckpt)  # a zip of .npy members; numpy.load opens it too
    print(f"\ncheckpoint holds {len(members)} members, e.g.:")
    for name in list(members)[:5]:
        print("  ", name, members[name].dtype, members[name].shape)

    # the checkpoint stores its config and the hash of the graph it trained on,
    # and loads only into a model of that config on that graph
    graph = build_graph(ds)
    saved_cfg = checkpoint_config(ckpt)
    assert saved_cfg == cfg
    original = predict_embeddings(pair.teacher, graph, cfg)
    restored_pair = init_pair(graph, saved_cfg)
    for p in restored_pair.teacher.parameters().values():
        p.values += 1.0  # so that only the load can make the outputs agree
    assert not np.array_equal(original, predict_embeddings(restored_pair.teacher, graph, cfg))
    load_checkpoint_into(ckpt, restored_pair)
    restored = predict_embeddings(restored_pair.teacher, graph, cfg)
    assert np.array_equal(original, restored)
    print("round trip bit-exact: True")
    try:
        load_checkpoint_into(ckpt, init_pair(graph, TrainConfig(**{**cfg.__dict__, "heads": 4})))
    except ValueError as exc:
        print("refused for a model with 4 heads:", str(exc).split(": ", 1)[1])
    else:
        raise AssertionError("a model with 4 heads loaded a 2-head checkpoint")
