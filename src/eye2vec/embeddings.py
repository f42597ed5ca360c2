"""Embedding vectors for token texts and path encodings.

Vectors come from a loaded table when available, otherwise from a seeded
hash-based generator, so the pipeline runs reproducibly with or without a
pretrained export. Keys are namespaced ``tok:<text>`` and
``path:<encoding>``.

An ``EmbeddingTable`` is frozen: its ``dim`` (1 to ``MAX_DIM``) and
``fallback_seed`` are checked once, where it is made, and cannot be
reassigned; ``dataclasses.replace`` makes a new table. Each table keeps
its entries in a dict of its own, never the one it was given, and shows
them only as a read-only ``entries`` mapping, so every entry is one that
passed the checks. A fallback vector's splitmix64 stream is generated as
one ``np.uint64`` array, and each table computes it once per absent key:
``lookup`` keeps it in the table's private memo, keyed by the key alone.
The memo costs one ``dim``-float vector per distinct absent key for the
table's lifetime; it never enters ``entries``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DegenerateVector, FormatError, _read_input
from .hashing import fnv1a64, splitmix64_block
from .pathctx import PathContext

HEADER_PREFIX = "eye2vec-embeddings v1 dim="
DEFAULT_DIM = 128
DEFAULT_SEED = 42
# The largest embedding dimension accepted, checked before any vector is
# allocated; an eye vector then holds at most 3 * MAX_DIM floats (1.5 MiB).
MAX_DIM = 65536


def check_dim(dim: int) -> None:
    """Raise ``ValueError`` unless ``1 <= dim <= MAX_DIM``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim > MAX_DIM:
        raise ValueError(f"dim must be at most {MAX_DIM}")


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    entries: Mapping[str, np.ndarray] = field(default_factory=dict)
    fallback_seed: int = DEFAULT_SEED
    _fallbacks: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_dim(self.dim)
        object.__setattr__(self, "fallback_seed", self.fallback_seed & 0xFFFFFFFFFFFFFFFF)
        entries = {}
        for key, vec in self.entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dim,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"entry {key!r} is not a finite vector of length {self.dim}")
            arr.flags.writeable = False
            entries[key] = arr
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __reduce__(self):
        # A mapping proxy does not pickle; the table is made again from a dict.
        return type(self), (self.dim, dict(self.entries), self.fallback_seed)


def load_table(path: str | Path) -> EmbeddingTable:
    """Load a TSV table: header line, then ``key<TAB>f1 f2 ... fd`` rows, each
    ended by ``\\n`` only, so a key may hold any other line break."""
    lines = _read_input(path).split("\n")
    if not lines[-1]:
        lines.pop()  # a final line break ends the last row, it starts none
    if not lines or not lines[0].startswith(HEADER_PREFIX):
        raise FormatError(1, f"expected header {HEADER_PREFIX!r}<d>")
    try:
        dim = int(lines[0][len(HEADER_PREFIX) :])
    except ValueError:
        raise FormatError(1, "dimension in header is not an integer") from None
    if dim < 1:
        raise FormatError(1, "dimension must be positive")
    if dim > MAX_DIM:
        raise FormatError(1, f"dimension must be at most {MAX_DIM}")

    entries: dict[str, np.ndarray] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(line_no, "expected exactly one tab between key and values")
        key, values_text = parts
        if not (key.startswith("tok:") or key.startswith("path:")):
            raise FormatError(line_no, f"key {key!r} must be namespaced 'tok:' or 'path:'")
        if key in entries:
            raise FormatError(line_no, f"duplicate key {key!r}")
        components = values_text.split()
        if len(components) != dim:
            raise FormatError(line_no, f"expected {dim} components, got {len(components)}")
        try:
            vector = np.array(components, dtype=np.float64)  # float() on each string
        except ValueError:
            raise FormatError(line_no, "non-numeric vector component") from None
        if not np.all(np.isfinite(vector)):
            raise FormatError(line_no, "vector components must be finite")
        entries[key] = vector
    return EmbeddingTable(dim=dim, entries=entries)


def fallback_vector(key: str, dim: int, fallback_seed: int) -> np.ndarray:
    """Deterministic unit vector for a key absent from the table."""
    check_dim(dim)
    # The float operations of 2.0 * SplitMix64.next_float01() - 1.0, in the
    # same order, so every component has the same bits.
    top53 = splitmix64_block(fnv1a64(key) ^ fallback_seed, dim) >> np.uint64(11)
    raw = top53.astype(np.float64)
    raw /= 2.0**53
    raw *= 2.0
    raw -= 1.0
    norm = math.sqrt(float(np.dot(raw, raw)))
    if norm == 0.0:
        raise DegenerateVector(f"fallback vector for key {key!r} is all zeros")
    out = raw / norm
    out.flags.writeable = False
    return out


def lookup(table: EmbeddingTable, key: str) -> np.ndarray:
    """Stored vector for ``key``, or the seeded fallback when absent.

    A fallback is computed once per table and returned as the same read-only
    array on every later lookup.
    """
    if not (key.startswith("tok:") or key.startswith("path:")):
        raise ValueError(f"key {key!r} must be namespaced 'tok:' or 'path:'")
    stored = table.entries.get(key)
    if stored is not None:
        return stored
    vector = table._fallbacks.get(key)
    if vector is None:
        vector = table._fallbacks[key] = fallback_vector(key, table.dim, table.fallback_seed)
    return vector


def context_vector(table: EmbeddingTable, context: PathContext) -> np.ndarray:
    """Concatenated (source token, path, target token) embedding, length 3*dim."""
    return np.concatenate(
        [
            lookup(table, "tok:" + context.source_text),
            lookup(table, "path:" + context.path_encoding),
            lookup(table, "tok:" + context.target_text),
        ]
    )
