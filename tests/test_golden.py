"""Golden bytes: SHA-256 digests of outputs the pipeline writes.

Any change to parsing, linking, path encoding, fallback embeddings, JSON
rendering or the analyses that alters an output byte fails here without
running the benchmark. Update a digest only in a change that is meant to
alter outputs, and say so.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from eye2vec.analysis import LabeledSet, kmeans, leave_one_out, nearest_centroid_predict
from eye2vec.compressor import EyeVector, compress
from eye2vec.data import SAMPLE_NAMES, sample_source
from eye2vec.embeddings import EmbeddingTable, fallback_vector
from eye2vec.errors import LexError, ParseError
from eye2vec.linker import LinkOptions, build_profile
from eye2vec.minilang import LeafToken, parse
from eye2vec.simulator import Strategy, simulate
from progen import generate_program

EYE_VECTOR_JSON_SHA256 = {
    "point": "b2461b4c08c07bef1c704fbd80bffe2aa66e148b725093670c2cf0191a4a9b33",
    "accumulator": "1c2a7bec595a82a65b52712914cc81fc258d7dad032f8fae2f4e4e4e3f4f6f5b",
    "lookup": "944750465cec57af38376bc6ac40b82c092e1c49c491db729b66ce498a85a222",
}

# Profile JSON of a linear read with jitter 6 (120 fixations, seed 7): with
# the default snap tolerance of 3 some fixations drop and some land on the
# leaf before them, so each (chain, self_transitions) pair gives other bytes.
PROFILE_JSON_SHA256 = {
    ("point", "skip", "drop"): "6bd526293b445d220ad9f8d2459bd3da7453d8ffef3b66f3cfdb74c266241eee",
    ("point", "skip", "keep"): "2d869ef3a0241ed705457afb80bef811e1a5a964073f9a9d4ed16b5e5f93e172",
    ("point", "strict", "drop"): "ca36ea196f995f5f54fb03d1cb568e63c6aeecbf8f5f0f11f1bc0ec7cd5f4ca9",
    ("point", "strict", "keep"): "a3c7dc941edf8683802a29b374995431d6f2d5ab26ef63fcf7ddc293d6a62dcc",
    ("accumulator", "skip", "drop"):
        "eb7db581a27883b731459066ce9c12cae1d5afd0079a217986a674bb362d077a",
    ("accumulator", "skip", "keep"):
        "edf675e2893ba86241f84c9361546caac1f2744a5178766d8096a1042440f71e",
    ("accumulator", "strict", "drop"):
        "fb3dd57d1f84811259f0420f8b71e7646c7247f8b7d44a9d02777b126d083225",
    ("accumulator", "strict", "keep"):
        "9b9cbd7292ac1a905faf90d15647c155b9e76f5c45cde9a74e9277a8be842941",
    ("lookup", "skip", "drop"): "60c58143b41329de75a0d5560366b209fc2a02d9087cdc9471f3a6b0bb8e3407",
    ("lookup", "skip", "keep"): "bd481179b624e0b5c7f224572ce147e8104991174126e050ef179b8eb31f25b3",
    ("lookup", "strict", "drop"): "995b3f1d256f21318f11501602710630fbb18552e647a106643a263eb74b2718",
    ("lookup", "strict", "keep"): "934137413c86c3eccda62f5cd9faf07270236124ca9a25e653f4f966fef0ac91",
}

FALLBACK_VECTOR_SHA256 = [
    ("tok:count", 128, 42, "ced340d730b6c8fff96cd4e8a01caf8e89c043a903a304726ccea5cace05fb67"),
    ("path:Name↑Assign↓Name", 128, 42,
     "c131f7c13aa94e6f80627d200c043679a5af656dadca06f72acf4b5072cfa458"),
    ("tok:", 8, 0, "3d3f334457a106c5f3847316213a8575be39868db53cf29576ad5012196d0c59"),
    ("path:Name↑BinExpr:+↓IntLit", 24, 2**64 - 1,
     "82f24f33cf117208ee80dc1d5812a474bb4c01b7991cc047a0fe6b4de0d72db1"),
]

PARSE_OUTCOMES_SHA256 = "9ecf1831f1e2c658f34758f74b24ca4795c449a102b5b0c7035a71feffe05784"

ANALYSIS_SHA256 = "a97397056b136046f230042175f7eb99500edaab7ebdc46159692f785c1fa728"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EYE_VECTOR_JSON_SHA256))
def test_sample_eye_vector_json(sample_roots, name):
    root = sample_roots[name]
    # jitter 2 makes some fixations snap to a neighbouring leaf; none drop, as
    # each lands within 2 columns of its target, inside the tolerance of 3
    recording = simulate(root, Strategy("defuse", jitter_cols=2, seed=7), 80)
    vector = compress(build_profile(recording, root), EmbeddingTable(dim=128, fallback_seed=42))
    assert _sha256(vector.to_json().encode("utf-8")) == EYE_VECTOR_JSON_SHA256[name]


@pytest.mark.parametrize("name,chain,self_transitions", sorted(PROFILE_JSON_SHA256))
def test_sample_profile_json(sample_roots, name, chain, self_transitions):
    root = sample_roots[name]
    recording = simulate(root, Strategy("linear", jitter_cols=6, seed=7), 120)
    options = LinkOptions(chain=chain, self_transitions=self_transitions)
    profile = build_profile(recording, root, options)
    digest = PROFILE_JSON_SHA256[name, chain, self_transitions]
    assert _sha256(profile.to_json().encode("utf-8")) == digest


# Lexemes spliced into generated programs to derail the parser.
_INSERTS = ["{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "==", "+", "-", "!",
            "class", "int", "void", "if", "else", "while", "for", "return", "x", "1", "\"s\""]


def _parse_corpus() -> list[str]:
    """The samples, the empty program, nesting past the limit, and seeded
    generated programs whole, with a character range deleted, with a lexeme
    inserted, and cut short."""
    corpus = [sample_source(name) for name in SAMPLE_NAMES] + [""]
    corpus += [
        "class A { void f() { " + "{" * 70 + "}" * 70 + " } }",
        "class A { int f() { return " + "(" * 70 + "1" + ")" * 70 + "; } }",
    ]
    for seed in range(150):
        source = generate_program(seed, max_leaves=30 if seed % 2 else 80)
        rng = random.Random(seed)
        cut = rng.randrange(len(source))
        insert_at = rng.randrange(len(source) + 1)
        corpus += [
            source,
            source[:cut] + source[cut + rng.randint(1, 8):],
            source[:insert_at] + f" {rng.choice(_INSERTS)} " + source[insert_at:],
            source[: rng.randrange(len(source))],
        ]
    return corpus


def _span(span) -> list[int]:
    return [span.start_line, span.start_col, span.end_line, span.end_col]


def _parse_outcome(source: str) -> list:
    """The error's fields, or every node's label and span and every leaf's
    kind, text, index and span in pre-order."""
    try:
        root = parse(source)
    except (LexError, ParseError) as error:
        return [type(error).__name__, str(error), error.line, error.col,
                getattr(error, "expected", None), getattr(error, "found", None)]
    outcome: list = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, LeafToken):
            outcome.append([item.kind, item.text, item.leaf_index, _span(item.span)])
        else:
            outcome.append([item.label, _span(item.span)])
            stack += item.children[::-1]
    return outcome


def test_parse_outcomes():
    digest = hashlib.sha256()
    for source in _parse_corpus():
        digest.update(json.dumps(_parse_outcome(source)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == PARSE_OUTCOMES_SHA256


@pytest.mark.parametrize("source,line,col,expected,found", [
    ("x", 1, 1, "'class'", "'x'"),
    ("class A {", 1, 10, "member declaration or '}'", "end of input"),
    ("class", 1, 6, "class name", "end of input"),
    ("class A { void f() { a = } }", 1, 25, "expression", "'}'"),
])
def test_parse_error_fields(source, line, col, expected, found):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.line, exc.value.col, exc.value.expected, exc.value.found) == (
        line, col, expected, found)


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
