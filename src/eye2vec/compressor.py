"""Aggregate a transition profile into one eye vector per recording.

The eye vector is the ratio-weighted sum of the profile's context vectors;
the more often a context was traversed, the more its embedding contributes.
Summation runs in the profile's canonical order, by context string, so
outputs are bit-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingTable, context_vector
from .errors import EmptyProfileError, FormatError, ZeroVectorError, _read_input
from .linker import TransitionProfile


@dataclass
class EyeVector:
    recording_id: str
    dim: int
    values: np.ndarray
    normalized: bool
    meta: dict

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.dim,):
            raise ValueError(f"values must have length {self.dim}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.normalized and abs(float(np.linalg.norm(self.values)) - 1.0) > 1e-9:
            raise ValueError("vector is marked normalized but its L2 norm is not 1")
        self.values.flags.writeable = False

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
            if not isinstance(recording_id, str) or not recording_id:
                raise TypeError("recording_id must be a nonempty string")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise TypeError(f"dim must be an integer, not {type(dim).__name__}")
            if not isinstance(normalized, bool):
                raise TypeError(f"normalized must be a boolean, not {type(normalized).__name__}")
            if not isinstance(meta, dict):
                raise TypeError(f"meta must be a JSON object, not {type(meta).__name__}")
            # exact types: a bool is an int, and numpy would convert "1.5"
            if not {float, int}.issuperset(map(type, values)):
                raise TypeError("values must be JSON numbers")
            return cls(recording_id, dim, values, normalized, dict(meta))
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
    return EyeVector.from_json(_read_input(path))


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
    for context, count in profile.entries.items():
        raw += count / total * context_vector(table, context)
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
