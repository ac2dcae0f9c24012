"""End-to-end training on the block-structured synthetic benchmark.

200 users x 200 items in 10 aligned blocks, 90% of interactions within the
block.  A model that discovers the block structure ranks the held-out
within-block items near the top.  Takes ~10 seconds on a laptop CPU.

Run:  python demos/04_train_synthetic.py
"""

from pathlib import Path

from rgtrec.data import TEST, build_graph, split
from rgtrec.evaluation import evaluate
from rgtrec.mf_baseline import BPRMatrixFactorization
from rgtrec.synthetic import make_block_dataset
from rgtrec.training import TrainConfig, fit, load_config, predict_embeddings

ds = split(make_block_dataset(200, 200, 10, 0.9, 15, seed=0), seed=0)
print(f"{ds.num_users} users, {ds.num_items} items, {ds.num_interactions} interactions")

config_path = Path(__file__).resolve().parent.parent / "configs" / "synthetic.cfg"
cfg = load_config(config_path,
                  overrides={"epochs": 40, "patience": 0, "seed": 0})
pair, history = fit(ds, cfg)

print("\nepoch  total   rec    mae    rank   val_r@20")
for rec in history[::5]:
    print(f"{rec['epoch']:5d}  {rec['total']:.3f}  {rec['rec']:.3f}  "
          f"{rec['mae']:.3f}  {rec['ranking']:.3f}  {rec.get('val_recall@20', 0):.3f}")

graph = build_graph(ds)
s = predict_embeddings(pair.teacher, graph, cfg)
result = evaluate(s, ds, TEST)
print("\ntest metrics:", {k: round(v, 4) for k, v in result.summary().items()})

# plain matrix factorization is a strong baseline on clean block data;
# the pipeline's extra machinery targets sparse, noisy real interactions
baseline = BPRMatrixFactorization(ds.num_users, ds.num_items, factors=32, seed=0)
baseline.fit(ds, epochs=20)
base = evaluate(baseline.embeddings(), ds, TEST)
print("factorization baseline:", {k: round(v, 4) for k, v in base.summary().items()})
print(f"\nrecall@40: model {result.macro('recall', 40):.3f} "
      f"vs baseline {base.macro('recall', 40):.3f}")
