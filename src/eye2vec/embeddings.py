"""Embedding vectors for token texts and path encodings.

Vectors come from a loaded table when available, otherwise from a seeded
hash-based generator, so the pipeline runs reproducibly with or without a
pretrained export. Keys are namespaced ``tok:<text>`` and
``path:<encoding>``.

An ``EmbeddingTable`` is frozen: its ``dim`` (1 to ``MAX_DIM``) and
``fallback_seed`` are checked once, where it is made, by the integer rule
``errors._check_int``, and cannot be reassigned; ``dataclasses.replace``
makes a new table. Each table keeps its entries in a dict of its own, never
the one it was given, and shows them only as a read-only ``entries``
mapping, so every entry is one that passed the checks. An entry is a
read-only array that shares no writeable memory with the caller: a view of
another array is copied, an array that owns its memory (a ``load_table``
row) is made read-only in place. A fallback vector's splitmix64 stream is
generated as one ``np.uint64`` array; it never enters ``entries``.

Each table keeps one private memo: a fallback vector under its key, and a
``PathContext``'s three part vectors (source token, path, target token)
under the context, so ``compress`` and ``context_vector`` make no key
string and no ``lookup`` for a context seen before. The parts are the very
arrays ``lookup`` returns, an ``entries`` value or a fallback, never copies,
so the bytes are those of three lookups. The memo is an ``errors._Memo``:
every entry is charged ``3 * dim`` floats against a budget of
``_MEMO_FLOATS`` (2**21, 16 MiB), so it never holds more than that at any
``dim``. The memo starts empty in a table made by ``dataclasses.replace``,
unpickled or deep-copied.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DegenerateVector, FormatError, _Memo, _check_int, _read_input
from .hashing import fnv1a64, splitmix64_block
from .pathctx import PathContext

HEADER_PREFIX = "eye2vec-embeddings v1 dim="
DEFAULT_DIM = 128
DEFAULT_SEED = 42
# The largest embedding dimension accepted, checked before any vector is
# allocated; an eye vector then holds at most 3 * MAX_DIM floats (1.5 MiB).
MAX_DIM = 65536
_NAMESPACES = ("tok:", "path:")  # every key starts with one of these
_MEMO_FLOATS = 2**21  # a table memo's budget, 3 * dim floats an entry (16 MiB)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, copied first if it is a view of memory it does
    not own, so the result shares no writeable memory with the caller. An
    array that owns its memory is not copied; a view of it taken before
    this call stays writeable, which numpy gives no way to detect."""
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)  # entries are arrays: compare and hash by identity
class EmbeddingTable:
    dim: int
    entries: Mapping[str, np.ndarray] = field(default_factory=dict)
    fallback_seed: int = DEFAULT_SEED
    # fallbacks by key and context parts by PathContext; see the module docstring
    _memo: _Memo = field(default_factory=lambda: _Memo(_MEMO_FLOATS), init=False, repr=False)

    def __post_init__(self) -> None:
        _check_int("dim", self.dim, 1, MAX_DIM)
        _check_int("fallback_seed", self.fallback_seed)
        object.__setattr__(self, "fallback_seed", self.fallback_seed & 0xFFFFFFFFFFFFFFFF)
        entries = {}
        for key, vec in self.entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dim,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"entry {key!r} is not a finite vector of length {self.dim}")
            entries[key] = _frozen(arr)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __reduce__(self):
        # A mapping proxy does not pickle; the table is made again from a dict.
        return type(self), (self.dim, dict(self.entries), self.fallback_seed)


def load_table(path: str | Path) -> EmbeddingTable:
    """Load a TSV table: header line, then ``key<TAB>f1 f2 ... fd`` rows. A
    row ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as ``open()`` reads
    text, so a key may hold any other line break."""
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
        if not key.startswith(_NAMESPACES):
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
    _check_int("dim", dim, 1, MAX_DIM)
    _check_int("fallback_seed", fallback_seed)
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

    A fallback is a read-only array, computed once per key while the
    table's memo has room and then returned as the same array.
    """
    if not key.startswith(_NAMESPACES):
        raise ValueError(f"key {key!r} must be namespaced 'tok:' or 'path:'")
    stored = table.entries.get(key)
    if stored is not None:
        return stored
    vector = table._memo.get(key)
    if vector is None:
        vector = table._memo.store(
            key, fallback_vector(key, table.dim, table.fallback_seed), 3 * table.dim)
    return vector


def _context_parts(
    table: EmbeddingTable, context: PathContext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (source token, path, target token) vectors of ``context``, as the
    read-only arrays ``lookup`` returns, kept in the table's memo."""
    parts = table._memo.get(context)
    if parts is None:
        parts = (
            lookup(table, "tok:" + context.source_text),
            lookup(table, "path:" + context.path_encoding),
            lookup(table, "tok:" + context.target_text),
        )
        table._memo.store(context, parts, 3 * table.dim)
    return parts


def context_vector(table: EmbeddingTable, context: PathContext) -> np.ndarray:
    """Concatenated (source token, path, target token) embedding, length 3*dim."""
    return np.concatenate(_context_parts(table, context))
