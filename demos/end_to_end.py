"""End-to-end walkthrough: from fixations over source code to eye vectors.

Run with ``python demos/end_to_end.py``. Each step prints what it produced,
mirroring how the library is meant to be composed.
"""

import numpy as np

import eye2vec as e2v
from eye2vec.data import sample_source

# 1. Parse a program; every leaf and node carries an exact line/column span.
source = sample_source("accumulator")
root = e2v.parse(source)
leaf_list = e2v.leaves(root)
print(f"parsed {len(source.splitlines())} lines into {len(leaf_list)} leaves")
print("first leaves:", [leaf.text for leaf in leaf_list[:6]])

# 2. Path contexts: the AST route between two leaves.
ctx = e2v.path_between(root, leaf_list[2], leaf_list[4])
print("\na path context:", ctx.context_string)
print("capped enumeration yields", len(e2v.all_path_contexts(root)), "contexts")

# 3. Synthesize two kinds of readers: line-order scanning vs def-use chasing.
recordings = {}
for strategy_name in ("linear", "defuse"):
    for seed in range(6):
        strategy = e2v.Strategy(strategy_name, jitter_cols=1, seed=seed)
        rec_id = f"{strategy_name}_{seed}"
        recordings[rec_id] = e2v.simulate(root, strategy, 50, recording_id=rec_id)
print(f"\nsimulated {len(recordings)} recordings of 50 fixations")

# 4. Link fixations to leaves and count path-context transitions.
profiles = {rid: e2v.build_profile(rec, root) for rid, rec in recordings.items()}
example = profiles["defuse_0"]
top_context, top_count = example.sorted_entries()[0]
top_ratio = top_count / example.total_transitions
print(f"defuse_0: {example.total_transitions} transitions, "
      f"top context {top_context.context_string!r} with ratio {top_ratio:.2f}")

# 5. Compress ratio-weighted context embeddings into one eye vector each.
table = e2v.EmbeddingTable(dim=64, fallback_seed=42)
vectors = {rid: e2v.compress(profile, table) for rid, profile in profiles.items()}
any_vector = next(iter(vectors.values()))
print(f"\neye vectors have dim {any_vector.dim}, unit norm "
      f"{np.linalg.norm(any_vector.values):.6f}")

# 6. Compare comprehension patterns as distances in the vector space.
same = e2v.cosine_similarity(vectors["linear_0"], vectors["linear_1"])
cross = e2v.cosine_similarity(vectors["linear_0"], vectors["defuse_0"])
print(f"cosine within strategy {same:.3f} vs across strategies {cross:.3f}")

# 7. Cluster recordings and predict strategy labels.
ordered = sorted(vectors)
assignments = e2v.kmeans([vectors[rid] for rid in ordered], k=2, seed=7)
print("\nclusters:")
for rid, cluster in zip(ordered, assignments):
    print(f"  {rid}\t{cluster}")

labeled = e2v.LabeledSet([(vectors[rid], rid.split("_")[0]) for rid in ordered])
accuracy = e2v.leave_one_out(labeled)
print(f"\nleave-one-out accuracy over {len(ordered)} recordings: {accuracy:.2f}")
