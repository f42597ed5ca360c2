"""Vector-space analyses over eye vectors: similarity, clustering, prediction.

All operations are deterministic given their inputs and seeds; clustering
uses a splitmix64-driven k-means++ so results reproduce across platforms.

Each call stacks its vectors once and works on the whole matrix, with the
same results as the row-by-row code it replaced:

- Row norms come from one batched product of each row with itself, which
  runs the same ``dot`` as ``np.dot(row, row)`` and so gives its bits.
- The distance matrix is one product of unit rows. Equal vectors are set
  exactly 0 apart, and only rows with a partner within rounding of
  distance 0 are compared byte for byte to find them.
- k-means scores every row against every centre with one product,
  ``|x|**2 - 2 x.c + |c|**2``. A row whose best two scores lie within
  ``_MARGIN`` is scored again with exact differences, one centre at a
  time, as k-means++ scores its centres. The distances that re-seeding and
  the objective check read are exact differences to the assigned centre.
- Prediction and leave-one-out score every row with one product and send
  near-ties back to one exact cosine at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compressor import EyeVector
from .errors import DimMismatch, EmptyClass, InsufficientData, InvalidK, ZeroVectorError, _check_int
from .hashing import SplitMix64

MAX_ITERS = 100
# Rows whose best two scores lie within this gap are decided by exact scores.
_MARGIN = 1e-9
# A held-out row's class remainder at most this times the class size n may be
# a rounded zero: its squared norm, taken from dot products, rounds by about
# (dim + n) * n * n * eps.
_NEAR_ZERO = 1e-4
# Squared norms between these bounds keep ``_cosine``'s products normal floats.
_NORMAL_SQUARES = (1e-300, 1e300)
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


def _stack(vectors) -> np.ndarray:
    """One float row per vector; ``vectors`` holds EyeVectors or arrays.

    An EyeVector's values were checked finite when it was made, so only the
    other rows are checked here.
    """
    rows = [v.values if isinstance(v, EyeVector) else _finite(v) for v in vectors]
    shapes = {row.shape for row in rows}
    if len(shapes) > 1:
        raise DimMismatch(f"vectors have mixed shapes: {sorted(shapes)}")
    return np.concatenate(rows, axis=None).reshape(len(rows), *shapes.pop())


def _finite(vector) -> np.ndarray:
    """``vector`` as a float row, refused if any value is not finite."""
    row = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(row)):
        raise ValueError("vectors must be finite")
    return row


def _unit_rows(data: np.ndarray) -> np.ndarray:
    """Each row divided by its own L2 norm.

    The squared norms come from ``_row_squares``, so each row gets the same
    bits as ``row / np.linalg.norm(row)``. A row whose squared norm is not a
    normal float (it overflowed, underflowed or is zero) is first divided by
    its largest magnitude.
    """
    squares = _row_squares(data)
    odd = ~_is_normal(squares)
    if odd.any():
        data = data.copy()
        data[odd] = [_shrunk(row) for row in data[odd]]
        squares[odd] = _row_squares(data[odd])
    norms = np.sqrt(squares)
    if not np.all(norms):
        raise ZeroVectorError("cannot normalize a zero vector")
    return data / norms[:, None]


def _row_squares(data: np.ndarray) -> np.ndarray:
    """``np.dot(row, row)`` for every row of ``data``, inf where it overflows.

    One batched ``matmul`` of each 1 x d row by itself as a d x 1 column:
    numpy runs the same ``dot`` for each product as ``np.dot`` does, so each
    square has its bits. ``np.einsum`` sums in another order.
    """
    with np.errstate(over="ignore"):
        return np.matmul(data[:, None, :], data[:, :, None])[:, 0, 0]


def _is_normal(square):
    """Whether a squared norm is a normal float: not zero, subnormal or inf."""
    return (square >= _TINY) & (square < math.inf)


def _shrunk(row: np.ndarray) -> np.ndarray:
    """``row`` over its largest magnitude, so its squared norm lies in
    [1, len(row)]; a zero or empty row stays as it is."""
    top = np.abs(row).max(initial=0.0)
    return row / top if top else row


def _square(row: np.ndarray) -> float:
    """``dot(row, row)``, inf where it overflows."""
    with np.errstate(over="ignore"):
        return float(np.dot(row, row))


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between ``u`` and ``v``, clamped to [-1, 1]."""
    u, v = _stack([u, v])
    return _cosine(u, _square(u), v)


def _cosine(u: np.ndarray, uu: float, v: np.ndarray) -> float:
    """``cosine_similarity`` of two checked rows, given ``uu = dot(u, u)``.

    Where ``uu``, ``dot(v, v)`` or their product is not a normal float, both
    rows are first divided by their largest magnitudes, so the result does
    not overflow or underflow; other rows keep their exact products.
    """
    if np.array_equal(u, v):
        if not np.any(u):
            raise ZeroVectorError("cosine similarity of a zero vector is undefined")
        return 1.0
    vv = _square(v)
    if not (_is_normal(uu) and _is_normal(vv) and _is_normal(uu * vv)):
        u, v = _shrunk(u), _shrunk(v)
        uu, vv = float(np.dot(u, u)), float(np.dot(v, v))
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
    zero diagonal, and equal input vectors are exactly 0 apart. Equal vectors
    have equal unit rows, whose distance rounds to at most about
    ``(dim + 2) * eps``, so only rows with a partner within twice that are
    compared byte for byte; ``-0.0`` and ``0.0`` compare equal. Rows one ulp
    apart are not equal and keep the distance the product gives them.
    """
    if len(vectors) < 2:
        raise ValueError("need at least two vectors")
    data = _stack(vectors)
    unit = _unit_rows(data)
    upper = np.triu(1.0 - np.clip(unit @ unit.T, -1.0, 1.0), 1)
    values = upper + upper.T
    # The diagonal is 0, so a row with a near-zero partner counts two.
    near = np.flatnonzero(np.count_nonzero(values <= 2 * (data.shape[1] + 2) * _EPS, axis=1) > 1)
    first: dict[bytes, int] = {}
    group = np.array([first.setdefault(row.tobytes(), i) for i, row in zip(near, data[near] + 0.0)])
    same_a, same_b = np.nonzero(group[:, None] == group)
    values[near[same_a], near[same_b]] = 0.0
    return DistanceMatrix([v.recording_id for v in vectors], values)


def kmeans(vectors, k: int, seed: int) -> list[int]:
    """Seeded k-means++ plus Lloyd iterations over L2-normalized vectors.

    On unit vectors, squared Euclidean distance orders points exactly like
    cosine distance (||u - v||^2 = 2 - 2 cos), so this clusters by angle.
    Each point goes to its nearest centroid, the first among equally near
    ones. One product scores every point against every centroid by
    ``|x|^2 - 2 x.c + |c|^2``; a point whose best two scores lie within
    ``_MARGIN`` is scored again with exact differences, so near-ties fall
    as the exact distances order them. Empty clusters are re-seeded with the
    point farthest from its centroid (smallest index among ties), by exact
    differences. Assignments are deterministic given the inputs and seed.
    """
    _check_int("k", k)
    _check_int("seed", seed)
    rows = list(vectors)
    data = _stack(rows) if rows else np.empty((0, 0))
    if data.ndim != 2:
        raise ValueError("vectors must form a 2-D matrix")
    n = data.shape[0]
    if k < 1 or k > n:
        raise InvalidK(f"k must be in 1..{n}, got {k}")
    squares = _row_squares(data)
    if np.any(np.abs(np.sqrt(squares) - 1.0) > 1e-6):
        raise ValueError("vectors must be L2-normalized")

    stream = SplitMix64(seed)
    centers = _kmeanspp_init(data, k, stream)
    n_centers = centers.shape[0]

    assignments = np.full(n, -1, dtype=np.int64)
    previous_sse = math.inf
    for _ in range(MAX_ITERS):
        new_assignments = _nearest_centers(data, squares, centers)
        diff = centers[new_assignments]
        diff -= data  # c - x is exactly -(x - c), and one n x d array fewer
        own = _sq_lengths(diff)

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
    """k-means++ centres: each next one drawn with weight ``d2``, a point's
    squared distance to its nearest chosen centre, kept as a running minimum
    over the centres chosen so far."""
    n = data.shape[0]
    chosen = [stream.randint(n)]
    d2 = np.full(n, math.inf)
    while len(chosen) < k:
        d2 = np.minimum(d2, _sq_lengths(data - data[chosen[-1]]))
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


def _nearest_centers(data: np.ndarray, squares: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest centre, the first among exactly equal distances.

    ``squares`` holds each row's ``dot(x, x)``. A row whose best two scores
    ``|x|^2 - 2 x.c + |c|^2`` lie within ``_MARGIN`` is scored again by
    ``_pairwise_sq_dists``; the rounding of either score is far below it.
    """
    scores = squares[:, None] - 2.0 * (data @ centers.T) + _row_squares(centers)
    best = np.argmin(scores, axis=1)
    if centers.shape[0] > 1:
        top = np.partition(scores, 1, axis=1)
        close = np.flatnonzero(top[:, 1] - top[:, 0] <= _MARGIN)
        if close.size:
            best[close] = np.argmin(_pairwise_sq_dists(data[close], centers), axis=1)
    return best


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from every point to every centre, one centre at a time."""
    return np.stack([_sq_lengths(points - center) for center in centers], axis=1)


def _sq_lengths(diff: np.ndarray) -> np.ndarray:
    """Each row's squared length, summed in the order that an ``einsum`` over
    an n x k x d array of differences sums each of its rows."""
    return np.einsum("ij,ij->i", diff, diff)


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
    uu = _square(row)
    best_label, best_score = None, -math.inf
    for label, centroid in centroids:
        score = _cosine(row, uu, centroid)
        if score > best_score:
            best_label, best_score = label, score
    return best_label


def _clear_best(scores: np.ndarray, uu: np.ndarray, slack) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best column of ``scores``, and whether that choice is clear.

    A choice is clear when the row's scores are finite, the best beats the
    runner-up by more than ``slack``, and the raw row's squared norm ``uu``
    lies well inside the normal float range, where ``_nearest`` rounds its
    cosines to within a few ulps of these. A row that is not clear is
    decided by ``_nearest``, so near-ties and extreme magnitudes keep its
    exact scores and its tie rule.
    """
    top = np.sort(scores, axis=1)
    clear = (np.isfinite(top).all(axis=1) & (top[:, -1] - top[:, -2] > slack)
             & (uu > _NORMAL_SQUARES[0]) & (uu < _NORMAL_SQUARES[1]))
    return np.argmax(scores, axis=1), clear


def nearest_centroid_predict(train: LabeledSet, test: Sequence[EyeVector]) -> list[str]:
    """Label each test vector with its most cosine-similar class centroid.

    Training vectors are normalized before the mean is taken, so rescaling
    any of them cannot change a prediction. Ties go to the label that sorts
    first. One product scores every test vector against every centroid;
    a vector whose two best scores lie within ``_MARGIN`` is scored again
    by ``_nearest``, one exact cosine per centroid, so near-ties resolve as
    they would one vector at a time.
    """
    labels = np.array([label for _, label in train.items])
    unit = _unit_rows(_stack([v for v, _ in train.items]))
    centroids = _centroids(unit, labels, np.ones(len(labels), dtype=bool))
    # Stacking the test vectors with a centroid checks their lengths.
    rows = _stack([*test, centroids[0][1]])[:-1]
    uu = _sq_lengths(rows)
    with np.errstate(all="ignore"):
        scores = rows @ np.stack([c for _, c in centroids]).T / np.sqrt(uu)[:, None]
    best, clear = _clear_best(scores, uu, _MARGIN)
    return [centroids[b][0] if ok else _nearest(row, centroids)
            for row, b, ok in zip(rows, best, clear)]


def leave_one_out(train: LabeledSet) -> float:
    """Accuracy of nearest-centroid prediction with each item held out once."""
    predicted = _held_out_predictions(train)
    return sum(p == label for p, (_, label) in zip(predicted, train.items)) / len(train.items)


def _held_out_predictions(train: LabeledSet) -> list[str]:
    """Each item's label as predicted from the others, in item order.

    Holding a row out changes only its own class's centroid: the direction
    of that class's sum of unit rows minus the row. So each class is summed
    once, and one product of the unit rows scores every row against the
    full-data centroids and the class sums. From it, the remainder
    ``r = s - u`` of a row ``u`` in a class with sum ``s`` has
    ``|r|**2 = s.s - 2 u.s + u.u`` and own-class score ``(u.s - u.u) / |r|``;
    no fold copies a row. Two kinds of row are decided by the per-fold code
    instead, which masks the row out, takes its class's mean again and
    labels it with ``_nearest``:

    - a row whose two best scores lie within ``_MARGIN`` times the square of
      its class size over ``|r|``, the factor by which the rounding of the
      own-class score grows as the remainder cancels, so near-ties keep
      their exact scores and tie rule;
    - a row whose remainder is within rounding of zero, ``|r|`` at most
      ``_NEAR_ZERO`` times the class size, where the per-fold code may
      raise ``ZeroVectorError``.

    The per-fold rows run in order after the others, none of which can
    raise, so the labels and any ``ZeroVectorError`` are those of running
    every fold.
    """
    labels = np.array([label for _, label in train.items])
    names, index, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if np.any(counts < 2):
        raise InsufficientData("leave-one-out needs at least 2 items per label")
    data = _stack([v for v, _ in train.items])
    unit = _unit_rows(data)
    full = _centroids(unit, labels, np.ones(len(labels), dtype=bool))
    rows, k = np.arange(len(labels)), len(names)
    sums = (index == np.arange(k)[:, None]).astype(np.float64) @ unit
    products = unit @ np.concatenate([np.stack([c for _, c in full]), sums]).T
    scores, toward_sum = products[:, :k], products[rows, k + index]
    self_dots = _sq_lengths(unit)
    rest_norms = np.sqrt(np.maximum(
        _sq_lengths(sums)[index] - 2.0 * toward_sum + self_dots, 0.0))
    own_counts = counts[index]
    with np.errstate(all="ignore"):
        scores[rows, index] = (toward_sum - self_dots) / rest_norms
        best, clear = _clear_best(scores, _sq_lengths(data),
                                  _MARGIN * (own_counts / rest_norms) ** 2)
    clear &= rest_norms > _NEAR_ZERO * own_counts
    predicted = names[best].tolist()
    for i in np.flatnonzero(~clear):
        keep = labels == labels[i]
        keep[i] = False
        own = _centroids(unit, labels, keep)[0]
        predicted[i] = _nearest(data[i], [own if name == own[0] else (name, c) for name, c in full])
    return predicted
