import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_distance_matrix, oracle_leave_one_out, oracle_nearest_centroid

from eye2vec.analysis import (
    LabeledSet,
    cosine_similarity,
    distance_matrix,
    kmeans,
    leave_one_out,
    nearest_centroid_predict,
)
from eye2vec.compressor import EyeVector
from eye2vec.errors import (
    DimMismatch,
    InsufficientData,
    InvalidK,
    ZeroVectorError,
)


def ev(recording_id, values, normalized=False):
    values = np.asarray(values, dtype=np.float64)
    return EyeVector(recording_id, len(values), values, normalized, {})


def unit(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr / np.linalg.norm(arr)


class TestCosineSimilarity:
    def test_identity(self):
        v = np.array([0.3, -0.4, 0.5])
        assert cosine_similarity(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five_degrees(self):
        assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865475, abs=1e-12
        )

    def test_exactly_one_for_equal_arrays(self):
        # even when sqrt(dot*dot) would wobble in the last ulp
        for seed in range(50):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=37)
            assert cosine_similarity(v, v.copy()) == 1.0

    def test_clamped_to_unit_interval(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            u, v = rng.normal(size=8), rng.normal(size=8)
            assert -1.0 <= cosine_similarity(u, v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [0.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            cosine_similarity([1.0], [1.0, 0.0])

    def test_accepts_eye_vectors(self):
        assert cosine_similarity(ev("a", [1, 0]), ev("b", [0, 1])) == 0.0


class TestDistanceMatrix:
    def test_identical_vectors(self):
        dm = distance_matrix([ev("a", [1, 0]), ev("b", [1, 0])])
        assert np.array_equal(dm.values, np.zeros((2, 2)))
        assert dm.ids == ["a", "b"]

    def test_orthogonal_pair(self):
        dm = distance_matrix([ev("a", [1, 0]), ev("b", [0, 1])])
        assert dm.values[0, 1] == 1.0 and dm.values[1, 0] == 1.0

    def test_exactly_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(3)
        vectors = [ev(f"v{i}", unit(rng.normal(size=5))) for i in range(6)]
        dm = distance_matrix(vectors)
        assert np.array_equal(dm.values, dm.values.T)
        assert np.array_equal(np.diag(dm.values), np.zeros(6))
        assert np.all(dm.values >= 0) and np.all(dm.values <= 2)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            distance_matrix([ev("a", [1, 0])])


def brute_force_best_partition(points, k):
    """All k-partitions by assignment enumeration; minimal within-cluster SSE."""
    n = len(points)
    best_sse, best_groups = math.inf, None
    for assignment in itertools.product(range(k), repeat=n):
        groups = [[i for i in range(n) if assignment[i] == c] for c in range(k)]
        if any(not g for g in groups):
            continue
        sse = 0.0
        for group in groups:
            pts = points[group]
            center = pts.mean(axis=0)
            sse += float(((pts - center) ** 2).sum())
        if sse < best_sse:
            best_sse = sse
            best_groups = {frozenset(g) for g in groups}
    return best_sse, best_groups


def groups_of(assignments):
    return {
        frozenset(i for i, a in enumerate(assignments) if a == c)
        for c in set(assignments)
    }


class TestKmeans:
    def test_k_equals_n_distinct_points(self):
        points = np.array([unit([1, 0]), unit([0, 1]), unit([-1, 0]), unit([0, -1])])
        assignments = kmeans(points, 4, seed=0)
        assert sorted(assignments) == [0, 1, 2, 3]

    def test_identical_points_share_cluster(self):
        points = np.array([unit([1, 0]), unit([1, 0]), unit([0, 1])])
        assignments = kmeans(points, 3, seed=0)
        assert assignments[0] == assignments[1]
        assert assignments[2] != assignments[0]

    def test_two_group_example_against_sse_oracle(self):
        # L2-normalizing the raw points makes (0, 0.1) and (0.1, 0) land on
        # opposite ends of the unit arc, so the SSE-optimal split isolates
        # one of them; the oracle decides which.
        raw = np.array([[0.0, 0.1], [0.1, 0.0], [10.0, 10.0], [10.0, 11.0]])
        points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        best_sse, best_groups = brute_force_best_partition(points, 2)
        assert best_groups == {frozenset([1]), frozenset([0, 2, 3])}
        assignments = kmeans(points, 2, seed=2)
        assert groups_of(assignments) == best_groups

    def test_well_separated_clusters(self):
        rng = np.random.default_rng(11)
        a = [unit([1, 0, 0] + 0.05 * rng.normal(size=3)) for _ in range(8)]
        b = [unit([0, 0, 1] + 0.05 * rng.normal(size=3)) for _ in range(8)]
        points = np.array(a + b)
        assignments = kmeans(points, 2, seed=5)
        assert len(set(assignments[:8])) == 1
        assert len(set(assignments[8:])) == 1
        assert assignments[0] != assignments[8]

    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        points = np.array([unit(rng.normal(size=4)) for _ in range(20)])
        first = kmeans(points, 3, seed=99)
        second = kmeans(points, 3, seed=99)
        assert first == second

    def test_invalid_k(self):
        points = np.array([unit([1, 0]), unit([0, 1])])
        with pytest.raises(InvalidK):
            kmeans(points, 0, seed=0)
        with pytest.raises(InvalidK):
            kmeans(points, 3, seed=0)

    def test_unnormalized_vectors_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.array([[2.0, 0.0], [0.0, 1.0]]), 2, seed=0)

    def test_accepts_eye_vectors(self):
        vectors = [ev("a", unit([1, 0])), ev("b", unit([0, 1]))]
        assert len(kmeans(vectors, 2, seed=0)) == 2


class TestNearestCentroid:
    def test_nearer_centroid_wins(self):
        train = LabeledSet([(ev("e", [1.0, 0.0]), "expert"), (ev("n", [0.0, 1.0]), "novice")])
        assert nearest_centroid_predict(train, [ev("t", [0.9, 0.1])]) == ["expert"]

    def test_vector_equal_to_centroid(self):
        train = LabeledSet([(ev("e", [1.0, 0.0]), "expert"), (ev("n", [0.0, 1.0]), "novice")])
        assert nearest_centroid_predict(train, [ev("t", [0.0, 1.0])]) == ["novice"]

    def test_equidistant_tie_goes_to_first_label(self):
        train = LabeledSet([(ev("1", [1.0, 0.0]), "a"), (ev("2", [0.0, 1.0]), "b")])
        assert nearest_centroid_predict(train, [ev("t", [1.0, 1.0])]) == ["a"]

    def test_scaling_training_vector_does_not_change_predictions(self):
        items = [
            (ev("a1", [1.0, 0.2]), "a"),
            (ev("a2", [0.9, 0.1]), "a"),
            (ev("b1", [0.1, 1.0]), "b"),
            (ev("b2", [0.2, 0.8]), "b"),
        ]
        tests = [ev(f"t{i}", v) for i, v in enumerate([[1, 0], [0, 1], [0.7, 0.6]])]
        base = nearest_centroid_predict(LabeledSet(items), tests)
        scaled_items = [(ev("a1", [173.0, 34.6]), "a")] + items[1:]
        scaled = nearest_centroid_predict(LabeledSet(scaled_items), tests)
        assert base == scaled

    def test_single_label_rejected(self):
        with pytest.raises(InsufficientData):
            LabeledSet([(ev("a", [1.0, 0.0]), "only"), (ev("b", [0.0, 1.0]), "only")])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            LabeledSet([(ev("a", [1.0]), "x"), (ev("b", [0.0, 1.0]), "y")])


class TestLeaveOneOut:
    def test_perfect_separation(self):
        items = [
            (ev("a1", [1.0, 0.0]), "a"),
            (ev("a2", [0.9, 0.1]), "a"),
            (ev("b1", [0.0, 1.0]), "b"),
            (ev("b2", [0.1, 0.9]), "b"),
        ]
        assert leave_one_out(LabeledSet(items)) == 1.0

    def test_identical_vectors_resolve_by_tie_rule(self):
        # all four vectors identical, labels a,a,b,b: every fold ties, the
        # tie rule picks "a", so exactly the two "a" items are correct
        items = [
            (ev("1", [1.0, 1.0]), "a"),
            (ev("2", [1.0, 1.0]), "a"),
            (ev("3", [1.0, 1.0]), "b"),
            (ev("4", [1.0, 1.0]), "b"),
        ]
        assert leave_one_out(LabeledSet(items)) == 0.5

    def test_makes_exactly_n_predictions(self):
        rng = np.random.default_rng(2)
        items = [
            (ev(f"v{i}", unit(rng.normal(size=3))), "x" if i % 2 else "y") for i in range(8)
        ]
        accuracy = leave_one_out(LabeledSet(items))
        assert accuracy * 8 == int(accuracy * 8)  # multiples of 1/n only

    def test_requires_two_per_label(self):
        items = [
            (ev("a1", [1.0, 0.0]), "a"),
            (ev("b1", [0.0, 1.0]), "b"),
            (ev("b2", [0.1, 0.9]), "b"),
        ]
        with pytest.raises(InsufficientData):
            leave_one_out(LabeledSet(items))


@st.composite
def cohorts(draw):
    """Rows and labels: 2-4 labels of 2-10 items each, dims 2-16.

    Rows are fresh, exact duplicates of earlier rows or scaled copies of
    them; small-integer components make exact prediction ties likely.
    """
    dim = draw(st.integers(2, 16))
    sizes = draw(st.lists(st.integers(2, 10), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small_ints = draw(st.booleans())
    rows = []
    for _ in range(sum(sizes)):
        kind = draw(st.sampled_from(["fresh", "duplicate", "scaled"])) if rows else "fresh"
        if kind == "fresh":
            row = rng.integers(-2, 3, size=dim).astype(np.float64) if small_ints else rng.normal(size=dim)
            if not row.any():
                row[0] = 1.0
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if kind == "scaled":
                row = row * draw(st.sampled_from([0.5, 2.0, 3.0, 1e3]))
        rows.append(row)
    labels = [f"L{k}" for k, size in enumerate(sizes) for _ in range(size)]
    return rows, [labels[i] for i in rng.permutation(len(labels))]


def _outcome(function, *args):
    try:
        return function(*args)
    except ZeroVectorError:  # a class whose unit vectors cancel has no centroid
        return ZeroVectorError


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(cohort=cohorts())
    def test_distance_matrix(self, cohort):
        rows, _ = cohort
        values = distance_matrix([ev(f"v{i}", row) for i, row in enumerate(rows)]).values
        assert np.max(np.abs(values - oracle_distance_matrix(rows))) <= 1e-12
        assert np.array_equal(values, values.T)
        assert not np.any(np.diag(values))
        for i, j in itertools.combinations(range(len(rows)), 2):
            if np.array_equal(rows[i], rows[j]):
                assert values[i, j] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(cohort=cohorts())
    def test_predictions_and_leave_one_out(self, cohort):
        rows, labels = cohort
        items = list(zip(rows, labels))
        train = LabeledSet([(ev(f"v{i}", row), label) for i, (row, label) in enumerate(items)])
        assert _outcome(nearest_centroid_predict, train, [v for v, _ in train.items]) == _outcome(
            oracle_nearest_centroid, items, rows
        )
        assert _outcome(leave_one_out, train) == _outcome(oracle_leave_one_out, items)
