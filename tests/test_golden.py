"""Golden bytes: SHA-256 digests of outputs the pipeline writes.

Any change to parsing, linking, path encoding, fallback embeddings, JSON
rendering or the analyses that alters an output byte fails here without
running the benchmark. Update a digest only in a change that is meant to
alter outputs, and say so.
"""

import hashlib
import json

import numpy as np
import pytest

from eye2vec.analysis import LabeledSet, kmeans, leave_one_out, nearest_centroid_predict
from eye2vec.compressor import EyeVector, compress
from eye2vec.embeddings import EmbeddingTable, fallback_vector
from eye2vec.linker import build_profile
from eye2vec.simulator import Strategy, simulate

EYE_VECTOR_JSON_SHA256 = {
    "point": "b2461b4c08c07bef1c704fbd80bffe2aa66e148b725093670c2cf0191a4a9b33",
    "accumulator": "1c2a7bec595a82a65b52712914cc81fc258d7dad032f8fae2f4e4e4e3f4f6f5b",
    "lookup": "944750465cec57af38376bc6ac40b82c092e1c49c491db729b66ce498a85a222",
}

FALLBACK_VECTOR_SHA256 = [
    ("tok:count", 128, 42, "ced340d730b6c8fff96cd4e8a01caf8e89c043a903a304726ccea5cace05fb67"),
    ("path:Name↑Assign↓Name", 128, 42,
     "c131f7c13aa94e6f80627d200c043679a5af656dadca06f72acf4b5072cfa458"),
    ("tok:", 8, 0, "3d3f334457a106c5f3847316213a8575be39868db53cf29576ad5012196d0c59"),
    ("path:Name↑BinExpr:+↓IntLit", 24, 2**64 - 1,
     "82f24f33cf117208ee80dc1d5812a474bb4c01b7991cc047a0fe6b4de0d72db1"),
]

ANALYSIS_SHA256 = "a97397056b136046f230042175f7eb99500edaab7ebdc46159692f785c1fa728"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EYE_VECTOR_JSON_SHA256))
def test_sample_eye_vector_json(sample_roots, name):
    root = sample_roots[name]
    # jitter 2 makes some fixations snap to a neighbouring leaf or drop
    recording = simulate(root, Strategy("defuse", jitter_cols=2, seed=7), 80)
    vector = compress(build_profile(recording, root), EmbeddingTable(dim=128, fallback_seed=42))
    assert _sha256(vector.to_json().encode("utf-8")) == EYE_VECTOR_JSON_SHA256[name]


@pytest.mark.parametrize("key,dim,seed,digest", FALLBACK_VECTOR_SHA256)
def test_fallback_vector_bytes(key, dim, seed, digest):
    assert _sha256(fallback_vector(key, dim, seed).tobytes()) == digest


def test_analysis_outputs():
    # 60 unit vectors of dim 24 around three noisy prototypes, labels a, b, c
    # in turn; every fourth vector is held out as the test set.
    rng = np.random.default_rng(2024)
    prototypes = rng.normal(size=(3, 24))
    vectors, labels = [], []
    for i in range(60):
        raw = prototypes[i % 3] + 2.5 * rng.normal(size=24)
        vectors.append(EyeVector(f"r{i:02d}", 24, raw / np.linalg.norm(raw), True, {}))
        labels.append("abc"[i % 3])
    train = LabeledSet([(v, label) for i, (v, label) in enumerate(zip(vectors, labels)) if i % 4])
    test = [v for i, v in enumerate(vectors) if not i % 4]
    outputs = {
        "assignments": kmeans(vectors, 3, seed=11),
        "predictions": nearest_centroid_predict(train, test),
        "loo_accuracy": leave_one_out(train),
    }
    assert _sha256(json.dumps(outputs).encode("utf-8")) == ANALYSIS_SHA256
