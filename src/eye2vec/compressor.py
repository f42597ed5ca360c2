"""Aggregate a transition profile into one eye vector per recording.

The eye vector is the ratio-weighted sum of the profile's context vectors;
the more often a context was traversed, the more its embedding contributes.
Summation runs in the profile's canonical order, by context string, so
outputs are bit-stable.

``compress`` reads each context's three part vectors from the table's
memo (see ``embeddings``) and gathers a block of contexts into one
``(k, 3 * dim)`` matrix with a single ``np.concatenate``. It scales the
block in place by the column of ``count / total`` weights and adds its rows
to the sum one at a time, in entry order, starting from zeros. So every
element goes through the same IEEE multiply and add as in a loop of
``raw += count / total * context_vector(table, context)``, and the output
bits are the same. A block holds at most ``_BLOCK_FLOATS`` (2**18) floats,
at least one row, so the gather needs O(block + 3 * dim) memory whatever
``dim`` is.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .embeddings import EmbeddingTable, _context_parts, _frozen
from .errors import (EmptyProfileError, FormatError, ZeroVectorError, _Memo, _check_int,
                     _check_recording_id, _read_input)
from .linker import TransitionProfile

_BLOCK_FLOATS = 2**18
_READ_MEMO_CHARS = 2**23  # the read memo's budget, charged by text length
_read_memo = _Memo(_READ_MEMO_CHARS)  # SHA-256 of a text -> its vector


@dataclass(frozen=True)
class EyeVector:
    """One recording's eye vector. It is checked where it is made and cannot
    be changed after: ``values`` is a read-only array that shares no
    writeable memory with the caller (a view is copied, an array that owns
    its memory is made read-only in place) and ``meta`` a read-only mapping
    of the vector's own."""

    recording_id: str
    dim: int
    values: np.ndarray
    normalized: bool
    meta: Mapping

    def __post_init__(self) -> None:
        _check_recording_id(self.recording_id)
        _check_int("dim", self.dim)
        if not isinstance(self.normalized, bool):
            raise TypeError(f"normalized must be a boolean, not {type(self.normalized).__name__}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.dim,):
            raise ValueError(f"values must have length {self.dim}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if self.normalized and abs(float(np.linalg.norm(values)) - 1.0) > 1e-9:
            raise ValueError("vector is marked normalized but its L2 norm is not 1")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    def __reduce__(self):
        # A mapping proxy does not pickle; the vector is made again from a dict.
        return type(self), (self.recording_id, self.dim, self.values, self.normalized,
                            dict(self.meta))

    def to_json_dict(self) -> dict:
        return {
            "recording_id": self.recording_id,
            "dim": self.dim,
            "normalized": self.normalized,
            "meta": dict(self.meta),
            "values": self.values.tolist(),
        }

    def to_json(self) -> str:
        # json.dumps renders floats via repr(), the shortest round-trip form.
        return json.dumps(self.to_json_dict(), ensure_ascii=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "EyeVector":
        try:
            recording_id, dim, values, normalized, meta = (
                data[key] for key in ("recording_id", "dim", "values", "normalized", "meta"))
            if not isinstance(meta, dict):
                raise TypeError(f"meta must be a JSON object, not {type(meta).__name__}")
            # exact types: a bool is an int, and numpy would convert "1.5"
            if not {float, int}.issuperset(map(type, values)):
                raise TypeError("values must be JSON numbers")
            return cls(recording_id, dim, values, normalized, meta)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(1, f"bad eye-vector JSON: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "EyeVector":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(exc.lineno, f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise FormatError(1, "invalid JSON: nested too deeply") from None
        return cls.from_json_dict(data)


def read_eye_vector(path: str | Path) -> EyeVector:
    """The eye vector in the JSON file at ``path``.

    The file is read on every call, so a changed file is never served
    stale. Its text is then parsed through a module-level memo keyed by the
    text's SHA-256 digest (``errors._Memo.parsed``), so a text parsed before
    is not parsed again: the memo holds the (immutable) vector and a 32-byte
    key, never the text. Each entry is charged its text's length against a
    budget of ``_READ_MEMO_CHARS`` (8 Mi characters). A text that does not
    parse raises ``FormatError`` every time.

    The memo pays off only on repeated reads in one process; a one-shot read
    costs one digest more.
    """
    return _read_memo.parsed(_read_input(path), EyeVector.from_json)


def compress(
    profile: TransitionProfile, table: EmbeddingTable, normalize: bool = True
) -> EyeVector:
    """Ratio-weighted sum of the profile's context vectors.

    Each context weighs ``count / total_transitions``. The profile stores its
    entries sorted by context string, so the floating-point result does not
    depend on the order its counts were given in.
    """
    if profile.total_transitions == 0:
        raise EmptyProfileError(f"profile {profile.recording_id!r} has no transitions")
    out_dim = 3 * table.dim
    raw = np.zeros(out_dim, dtype=np.float64)
    total = profile.total_transitions
    items = list(profile.entries.items())
    step = max(1, _BLOCK_FLOATS // out_dim)
    for start in range(0, len(items), step):
        block = items[start : start + step]
        rows = np.concatenate(
            [part for context, _ in block for part in _context_parts(table, context)]
        ).reshape(len(block), out_dim)
        rows *= np.array([count / total for _, count in block])[:, None]
        for row in rows:
            raw += row
    if normalize:
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            raise ZeroVectorError("weighted context vectors cancel to the zero vector")
        values = raw / norm
    else:
        values = raw
    meta = {
        "total_transitions": profile.total_transitions,
        "distinct_contexts": len(profile.entries),
        "embedding_seed": table.fallback_seed,
        "created_from": str(profile.content_hash()),
    }
    return EyeVector(
        recording_id=profile.recording_id,
        dim=out_dim,
        values=values,
        normalized=normalize,
        meta=meta,
    )
