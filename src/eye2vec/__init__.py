"""eye2vec: distributed representations of eye movements over source code.

The pipeline parses a small Java-like language into a span-annotated AST,
maps fixation positions onto AST leaves, counts path-context transitions
between consecutive fixations, and aggregates ratio-weighted context
embeddings into one eye vector per recording. Analysis helpers compare,
cluster, and classify those vectors.
"""

from .analysis import (
    DistanceMatrix,
    LabeledSet,
    cosine_similarity,
    distance_matrix,
    kmeans,
    leave_one_out,
    nearest_centroid_predict,
)
from .compressor import EyeVector, compress, read_eye_vector
from .embeddings import EmbeddingTable, context_vector, fallback_vector, load_table, lookup
from .errors import (
    DegenerateVector,
    DimMismatch,
    EmptyClass,
    EmptyProfileError,
    Eye2vecError,
    FormatError,
    InsufficientData,
    InvalidK,
    LexError,
    NoIdentifiers,
    NotALeaf,
    OutOfViewport,
    ParseError,
    SameLeaf,
    ZeroVectorError,
)
from .gaze import (
    Fixation,
    FontGrid,
    GridPos,
    PixelPos,
    Recording,
    convert_recording,
    read_fixations,
    read_labels,
    to_grid,
    write_fixations,
)
from .hashing import SplitMix64, fnv1a64
from .linker import (
    LinkOptions,
    MappedFixation,
    TransitionProfile,
    build_profile,
    map_fixation,
)
from .minilang import (
    AstNode,
    LeafToken,
    SourceSpan,
    Token,
    ast_equal,
    leaves,
    parse,
    pretty_print,
    tokenize,
)
from .pathctx import PathContext, all_path_contexts, path_between
from .simulator import Strategy, simulate

__version__ = "0.1.0"

__all__ = [
    "AstNode",
    "DegenerateVector",
    "DimMismatch",
    "DistanceMatrix",
    "EmbeddingTable",
    "EmptyClass",
    "EmptyProfileError",
    "Eye2vecError",
    "EyeVector",
    "Fixation",
    "FontGrid",
    "FormatError",
    "GridPos",
    "InsufficientData",
    "InvalidK",
    "LabeledSet",
    "LeafToken",
    "LexError",
    "LinkOptions",
    "MappedFixation",
    "NoIdentifiers",
    "NotALeaf",
    "OutOfViewport",
    "ParseError",
    "PathContext",
    "PixelPos",
    "Recording",
    "SameLeaf",
    "SourceSpan",
    "SplitMix64",
    "Strategy",
    "Token",
    "TransitionProfile",
    "ZeroVectorError",
    "all_path_contexts",
    "ast_equal",
    "build_profile",
    "compress",
    "context_vector",
    "convert_recording",
    "cosine_similarity",
    "distance_matrix",
    "fallback_vector",
    "fnv1a64",
    "kmeans",
    "leave_one_out",
    "leaves",
    "load_table",
    "lookup",
    "map_fixation",
    "nearest_centroid_predict",
    "parse",
    "path_between",
    "pretty_print",
    "read_eye_vector",
    "read_fixations",
    "read_labels",
    "simulate",
    "to_grid",
    "tokenize",
    "write_fixations",
]
