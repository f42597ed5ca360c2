"""Vector-space analyses over eye vectors: similarity, clustering, prediction.

All operations are deterministic given their inputs and seeds; clustering
uses a splitmix64-driven k-means++ so results reproduce across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compressor import EyeVector
from .errors import DimMismatch, EmptyClass, InsufficientData, InvalidK, ZeroVectorError
from .hashing import SplitMix64

MAX_ITERS = 100


def _stack(vectors) -> np.ndarray:
    """One float row per vector; ``vectors`` holds EyeVectors or arrays."""
    rows = [np.asarray(v.values if isinstance(v, EyeVector) else v, dtype=np.float64)
            for v in vectors]
    shapes = {row.shape for row in rows}
    if len(shapes) > 1:
        raise DimMismatch(f"vectors have mixed shapes: {sorted(shapes)}")
    return np.stack(rows)


def _unit_rows(data: np.ndarray) -> np.ndarray:
    """Each row divided by its own L2 norm.

    The norm is taken per row with ``np.dot`` so that each row gets the same
    bits as ``row / np.linalg.norm(row)``; a matrix-wide norm sums in another
    order.
    """
    norms = np.sqrt([np.dot(row, row) for row in data])
    if not np.all(norms):
        raise ZeroVectorError("cannot normalize a zero vector")
    return data / norms[:, None]


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between ``u`` and ``v``, clamped to [-1, 1]."""
    u, v = _stack([u, v])
    return _cosine(u, float(np.dot(u, u)), v)


def _cosine(u: np.ndarray, uu: float, v: np.ndarray) -> float:
    """``cosine_similarity`` of two checked rows, given ``uu = dot(u, u)``."""
    if np.array_equal(u, v):
        if not np.any(u):
            raise ZeroVectorError("cosine similarity of a zero vector is undefined")
        return 1.0
    vv = float(np.dot(v, v))
    if uu == 0.0 or vv == 0.0:
        raise ZeroVectorError("cosine similarity of a zero vector is undefined")
    value = float(np.dot(u, v)) / math.sqrt(uu * vv)
    return max(-1.0, min(1.0, value))


@dataclass
class DistanceMatrix:
    ids: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (n, n):
            raise ValueError("matrix shape must match the number of ids")


def distance_matrix(vectors: Sequence[EyeVector]) -> DistanceMatrix:
    """Pairwise cosine distances (1 - similarity) from one product of the unit rows.

    The upper triangle is mirrored, so the matrix is exactly symmetric with a
    zero diagonal, and equal input vectors are exactly 0 apart.
    """
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
    data = _stack(vectors)
    unit = _unit_rows(data)
    upper = np.triu(1.0 - np.clip(unit @ unit.T, -1.0, 1.0), 1)
    values = upper + upper.T
    # Rows with equal bytes are equal vectors; adding 0.0 turns -0.0 into 0.0.
    first: dict[bytes, int] = {}
    group = np.array([first.setdefault((row + 0.0).tobytes(), i) for i, row in enumerate(data)])
    values[group[:, None] == group] = 0.0
    return DistanceMatrix([v.recording_id for v in vectors], values)


def kmeans(vectors, k: int, seed: int) -> list[int]:
    """Seeded k-means++ plus Lloyd iterations over L2-normalized vectors.

    On unit vectors, squared Euclidean distance orders points exactly like
    cosine distance (||u - v||^2 = 2 - 2 cos), so this clusters by angle.
    Empty clusters are re-seeded with the point farthest from its centroid
    (smallest index among ties). Assignments are deterministic given the
    inputs and seed.
    """
    data = _stack(vectors)
    if data.ndim != 2:
        raise ValueError("vectors must form a 2-D matrix")
    n = data.shape[0]
    if k < 1 or k > n:
        raise InvalidK(f"k must be in 1..{n}, got {k}")
    norms = np.linalg.norm(data, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("vectors must be L2-normalized")

    stream = SplitMix64(seed)
    centers = _kmeanspp_init(data, k, stream)
    n_centers = centers.shape[0]

    assignments = np.full(n, -1, dtype=np.int64)
    previous_sse = math.inf
    for _ in range(MAX_ITERS):
        dist2 = _pairwise_sq_dists(data, centers)
        new_assignments = np.argmin(dist2, axis=1)
        own = dist2[np.arange(n), new_assignments]

        reseeded = False
        for j in range(n_centers):
            if np.any(new_assignments == j):
                continue
            candidates = np.flatnonzero(own > 0)
            if candidates.size == 0:
                continue  # every point sits on its centroid; leave empty
            farthest = candidates[np.argmax(own[candidates])]
            centers[j] = data[farthest]
            new_assignments[farthest] = j
            own[farthest] = 0.0
            reseeded = True

        sse = float(own.sum())
        if sse > previous_sse + 1e-9:
            raise AssertionError("k-means objective increased between iterations")
        previous_sse = sse

        stable = not reseeded and np.array_equal(new_assignments, assignments)
        assignments = new_assignments
        if stable:
            break
        for j in range(n_centers):
            members = data[assignments == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return [int(a) for a in assignments]


def _kmeanspp_init(data: np.ndarray, k: int, stream: SplitMix64) -> np.ndarray:
    n = data.shape[0]
    chosen = [stream.randint(n)]
    while len(chosen) < k:
        d2 = np.min(_pairwise_sq_dists(data, data[chosen]), axis=1)
        total = float(d2.sum())
        if total == 0.0:
            break  # fewer distinct points than k; extra clusters stay empty
        r = stream.next_float01() * total
        cumulative = np.cumsum(d2)
        index = int(np.searchsorted(cumulative, r, side="right"))
        if index >= n:  # r rounded up to the total weight
            index = int(np.flatnonzero(d2 > 0)[-1])
        chosen.append(index)
    return data[chosen].astype(np.float64, copy=True)


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass
class LabeledSet:
    """Eye vectors paired with labels for supervised use."""

    items: list[tuple[EyeVector, str]]

    def __post_init__(self) -> None:
        if not self.items:
            raise EmptyClass("labeled set is empty")
        dims = {v.dim for v, _ in self.items}
        if len(dims) > 1:
            raise DimMismatch(f"vectors have mixed dims: {sorted(dims)}")
        if any(not label for _, label in self.items):
            raise ValueError("labels must be nonempty")
        if len({label for _, label in self.items}) < 2:
            raise InsufficientData("need at least two distinct labels")


def _centroids(
    unit: np.ndarray, labels: np.ndarray, keep: np.ndarray
) -> list[tuple[str, np.ndarray]]:
    """Normalized mean of each label's kept unit rows, labels in sorted order."""
    names = sorted(set(labels[keep].tolist()))
    means = np.stack([unit[keep & (labels == name)].mean(axis=0) for name in names])
    return list(zip(names, _unit_rows(means)))


def _nearest(row: np.ndarray, centroids: list[tuple[str, np.ndarray]]) -> str:
    """Label of the centroid most cosine-similar to the checked ``row``."""
    uu = float(np.dot(row, row))
    best_label, best_score = None, -math.inf
    for label, centroid in centroids:
        score = _cosine(row, uu, centroid)
        if score > best_score:
            best_label, best_score = label, score
    return best_label


def nearest_centroid_predict(train: LabeledSet, test: Sequence[EyeVector]) -> list[str]:
    """Label each test vector with its most cosine-similar class centroid.

    Training vectors are normalized before the mean is taken, so rescaling
    any of them cannot change a prediction. Ties go to the label that sorts
    first.
    """
    labels = np.array([label for _, label in train.items])
    unit = _unit_rows(_stack([v for v, _ in train.items]))
    centroids = _centroids(unit, labels, np.ones(len(labels), dtype=bool))
    # Stacking each test vector with a centroid checks its length.
    return [_nearest(_stack([vector, centroids[0][1]])[0], centroids) for vector in test]


def leave_one_out(train: LabeledSet) -> float:
    """Accuracy of nearest-centroid prediction with each item held out once.

    Each fold masks one row out of the same unit matrix.
    """
    labels = np.array([label for _, label in train.items])
    if np.any(np.unique(labels, return_counts=True)[1] < 2):
        raise InsufficientData("leave-one-out needs at least 2 items per label")
    data = _stack([v for v, _ in train.items])
    unit = _unit_rows(data)
    keep = np.ones(len(labels), dtype=bool)
    correct = 0
    for i, (_, label) in enumerate(train.items):
        keep[i] = False
        correct += _nearest(data[i], _centroids(unit, labels, keep)) == label
        keep[i] = True
    return correct / len(train.items)
