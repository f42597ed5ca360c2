import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    oracle_distance_matrix,
    oracle_distance_matrix_by_bytes,
    oracle_held_out_per_fold,
    oracle_kmeans,
    oracle_leave_one_out,
    oracle_leave_one_out_per_fold,
    oracle_nearest_centroid,
    oracle_pairwise_sq_dists,
    oracle_predict_per_vector,
)

from eye2vec import analysis
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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            cosine_similarity([math.nan, 1.0], [1.0, 1.0])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            cosine_similarity([math.inf, 1.0], [1.0, 1.0])


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
        for k in (0, 1):
            with pytest.raises(InvalidK):
                kmeans([], k, seed=0)

    def test_unnormalized_vectors_rejected(self):
        for first in ([2.0, 0.0], [1e200, 0.0]):  # the second's square overflows
            with pytest.raises(ValueError, match="L2-normalized"):
                kmeans(np.array([first, [0.0, 1.0]]), 2, seed=0)

    def test_accepts_eye_vectors(self):
        vectors = [ev("a", unit([1, 0])), ev("b", unit([0, 1]))]
        assert len(kmeans(vectors, 2, seed=0)) == 2

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            kmeans([[math.nan, 0.0], [1.0, 0.0]], 1, seed=0)


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

    def test_non_finite_test_row_rejected(self):
        train = LabeledSet([(ev("e", [1.0, 0.0]), "expert"), (ev("n", [0.0, 1.0]), "novice")])
        for row in ([math.nan, 1.0], [1.0, -math.inf]):
            with pytest.raises(ValueError, match="finite"):
                nearest_centroid_predict(train, [ev("t", [0.9, 0.1]), np.array(row)])


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


@st.composite
def cancelling_cohorts(draw):
    """``cohorts()`` plus a class "Z" of pairs ``a * u, -b * u`` of earlier
    rows, and perhaps one more row: its unit rows cancel in the whole class,
    or once that one row is held out. Scales of 3 may leave rounding residues."""
    rows, labels = draw(cohorts())
    zeros = []
    for _ in range(draw(st.integers(1, 3))):
        u = rows[draw(st.integers(0, len(rows) - 1))]
        scale = st.sampled_from([0.5, 1.0, 2.0, 3.0])
        zeros += [draw(scale) * u, -draw(scale) * u]
    if draw(st.booleans()):
        zeros.append(rows[draw(st.integers(0, len(rows) - 1))])
    for row in zeros:
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, row)
        labels.insert(at, "Z")
    return rows, labels


def _labeled(rows, labels):
    return LabeledSet([(ev(f"v{i}", row), label)
                       for i, (row, label) in enumerate(zip(rows, labels))])


def _where_it_raises(module, function, *args):
    """``function(*args)``, or the message of the ``ZeroVectorError`` it raised
    and the mask of the last ``_centroids`` call that ``module`` made."""
    masks, centroids = [], analysis._centroids

    def spy(unit, labels, keep):
        masks.append(keep.copy())
        return centroids(unit, labels, keep)

    with mock.patch.object(module, "_centroids", spy):
        try:
            return function(*args)
        except ZeroVectorError as exc:
            return str(exc), masks[-1].tolist() if masks else None


MARGINS = [analysis._MARGIN, 0.0, math.inf]


class TestMatrixPaths:
    """The one-product paths of ``leave_one_out`` and ``nearest_centroid_predict``
    against the per-row code they replace."""

    @settings(max_examples=150, deadline=None)
    @given(cohort=cohorts(), margin=st.sampled_from([analysis._MARGIN, math.inf]))
    def test_equal_to_per_row_code(self, cohort, margin):
        train = _labeled(*cohort)
        test = [v for v, _ in train.items]
        with mock.patch.object(analysis, "_MARGIN", margin), \
                mock.patch.object(analysis, "_nearest", wraps=analysis._nearest) as nearest:
            accuracy = _outcome(leave_one_out, train)
            predictions = _outcome(nearest_centroid_predict, train, test)
        assert accuracy == _outcome(oracle_leave_one_out_per_fold, train)
        assert predictions == _outcome(oracle_predict_per_vector, train, test)
        if margin == math.inf and ZeroVectorError not in (accuracy, predictions):
            assert nearest.call_count == 2 * len(test)  # every row takes the per-row code

    @settings(max_examples=150, deadline=None)
    @given(cohort=cohorts())
    def test_at_zero_margin_only_near_ties_differ(self, cohort):
        train = _labeled(*cohort)
        expected = _outcome(oracle_held_out_per_fold, train)
        with mock.patch.object(analysis, "_MARGIN", 0.0):
            got = _outcome(analysis._held_out_predictions, train)
        if expected is ZeroVectorError or got is ZeroVectorError:
            assert got == expected
            return
        for label, (want, cosines) in zip(got, expected):
            top = sorted(cosines)
            assert label == want or top[-1] - top[-2] <= analysis._MARGIN

    @settings(max_examples=150, deadline=None)
    @given(cohort=cancelling_cohorts(), margin=st.sampled_from(MARGINS))
    def test_cancelling_class_raises_where_the_per_row_code_does(self, cohort, margin):
        train = _labeled(*cohort)
        test = [v for v, _ in train.items]
        with mock.patch.object(analysis, "_MARGIN", margin):
            got = [_where_it_raises(analysis, leave_one_out, train),
                   _where_it_raises(analysis, nearest_centroid_predict, train, test)]
        expected = [_where_it_raises(oracles, oracle_leave_one_out_per_fold, train),
                    _where_it_raises(oracles, oracle_predict_per_vector, train, test)]
        for outcome, want in zip(got, expected):
            # at margin 0 near-ties may differ (see above), but never a raise
            if margin or isinstance(outcome, tuple) or isinstance(want, tuple):
                assert outcome == want

    @pytest.mark.parametrize("margin", MARGINS)
    def test_a_held_out_row_whose_class_cancels_raises(self, margin):
        # Holding out w leaves u and -u, whose per-fold mean is exactly zero;
        # the remainder's squared norm from the products may round to a tiny
        # positive value instead, which must not let the matrix path decide.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            u, w = rng.standard_normal(5), rng.standard_normal(5)
            rows = [u, -u, w, rng.standard_normal(5), rng.standard_normal(5)]
            train = _labeled(rows, ["a", "a", "a", "b", "b"])
            with mock.patch.object(analysis, "_MARGIN", margin), \
                    pytest.raises(ZeroVectorError, match="cannot normalize a zero vector"):
                leave_one_out(train)

    @pytest.mark.parametrize("scale", [1e-160, 1e151])
    def test_extreme_magnitudes_take_the_per_row_code(self, scale):
        rng = np.random.default_rng(5)
        rows = [scale * rng.standard_normal(4) for _ in range(8)]
        train = _labeled(rows, ["a", "b"] * 4)
        test = [v for v, _ in train.items]
        with mock.patch.object(analysis, "_nearest", wraps=analysis._nearest) as nearest:
            assert leave_one_out(train) == oracle_leave_one_out_per_fold(train)
            assert nearest_centroid_predict(train, test) == oracle_predict_per_vector(train, test)
        assert nearest.call_count == 16


def _separated_cohort(dim=6, per_label=4):
    """Rows in two clearly separated classes, each near its own axis."""
    rng = np.random.default_rng(11)
    rows, labels = [], []
    for k, label in enumerate(["a", "b"]):
        for _ in range(per_label):
            row = 0.1 * rng.standard_normal(dim)
            row[k] += 1.0
            rows.append(row)
            labels.append(label)
    return rows, labels


class TestExtremeMagnitudes:
    """Rows whose squared norms overflow or underflow are rescaled by their
    largest magnitude first, so they compare like the unscaled rows."""

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_parallel_rows_are_zero_apart(self, scale):
        values = distance_matrix([ev("big", [scale, scale]), ev("one", [1.0, 1.0])]).values
        assert abs(values[0, 1]) <= 1e-15 and values[0, 1] == values[1, 0]

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_distance_matrix_matches_the_unscaled_rows(self, scale):
        rows, _ = _separated_cohort()
        scaled = [row * scale if i % 2 else row for i, row in enumerate(rows)]
        got = distance_matrix([ev(f"v{i}", row) for i, row in enumerate(scaled)]).values
        want = distance_matrix([ev(f"v{i}", row) for i, row in enumerate(rows)]).values
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e200])
    def test_cosine_similarity(self, scale):
        assert cosine_similarity([scale, scale], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
        assert cosine_similarity([scale, 0.0], [scale, scale]) == pytest.approx(
            0.7071067811865475, abs=1e-15)
        assert cosine_similarity([scale, scale], [-scale, -scale]) == pytest.approx(-1.0, abs=1e-15)

    def test_a_product_of_normal_squares_that_overflows(self):
        # each squared norm is normal, their product is not
        assert cosine_similarity([1e100, 1e100], [1e100, 0.0]) == pytest.approx(
            0.7071067811865475, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_a_zero_row_still_raises(self, scale):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([0.0, 0.0], [scale, scale])
        with pytest.raises(ZeroVectorError, match="cannot normalize a zero vector"):
            distance_matrix([ev("big", [scale, scale]), ev("zero", [0.0, 0.0])])

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_leave_one_out_and_predict_match_the_unscaled_rows(self, scale):
        rows, labels = _separated_cohort()
        scaled = [row * scale if i % 3 == 0 else row for i, row in enumerate(rows)]
        train, scaled_train = _labeled(rows, labels), _labeled(scaled, labels)
        assert analysis._held_out_predictions(scaled_train) == labels
        assert leave_one_out(scaled_train) == leave_one_out(train) == 1.0
        test = [v for v, _ in scaled_train.items]
        assert nearest_centroid_predict(scaled_train, test) == labels

    @pytest.mark.parametrize("scale", [1e-160, 1e200])
    def test_compare_command(self, scale, tmp_path, capsys):
        from eye2vec.cli import main

        paths = []
        for name, values in (("big", [scale, scale, 0.0]), ("one", [1.0, 1.0, 0.0])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(ev(name, values).to_json(), encoding="utf-8")
        assert main(["compare", *map(str, paths)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, abs=1e-15)


class TestEmptyVectors:
    """Dim-0 vectors have no direction, so every analysis of them raises
    ``ZeroVectorError``, as ``cosine_similarity`` does."""

    def test_cosine_similarity(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity([], [])

    def test_distance_matrix(self):
        with pytest.raises(ZeroVectorError):
            distance_matrix([ev("a", []), ev("b", [])])

    def test_nearest_centroid_predict(self):
        train = _labeled([np.empty(0)] * 2, ["a", "b"])
        with pytest.raises(ZeroVectorError):
            nearest_centroid_predict(train, [ev("t", [])])

    def test_leave_one_out(self):
        with pytest.raises(ZeroVectorError):
            leave_one_out(_labeled([np.empty(0)] * 4, ["a", "a", "b", "b"]))


def _layouts(base):
    """``base`` as a C array, one starting 8 bytes past a 16-byte boundary, a
    Fortran array, and two views that are not contiguous."""
    n, d = base.shape
    yield base
    offset = np.zeros(n * d + 1)[1:].reshape(n, d)
    offset[:] = base
    yield offset
    yield np.asfortranarray(base)
    wide = np.zeros((2 * n, 2 * d))
    wide[::2, ::2] = base
    yield wide[::2, ::2]
    shifted = np.zeros((n, d + 1))
    shifted[:, 1:] = base
    yield shifted[:, 1:]


# Rows scaled so that their squares overflow, underflow, or are subnormal.
ROW_SCALES = [1.0, 1e200, 1e-170, 5e-320]


def _scaled_matrices(n, d):
    rng = np.random.default_rng(n * 1009 + d)
    for scale in ROW_SCALES:
        yield scale * rng.standard_normal((n, d))
    yield rng.standard_normal((n, d)) * rng.choice(ROW_SCALES, size=n)[:, None]


class TestBatchedPieces:
    """The whole-matrix forms give the bits of the code they replace."""

    @pytest.mark.parametrize("n", [1, 2, 7, 140])
    @pytest.mark.parametrize("d", [1, 3, 384, 1000])
    def test_row_squares_equal_one_dot_per_row(self, n, d):
        for base in _scaled_matrices(n, d):
            for data in _layouts(base):
                with np.errstate(over="ignore"):
                    per_row = np.array([np.dot(row, row) for row in data])
                assert np.array_equal(analysis._row_squares(data), per_row)

    @pytest.mark.parametrize("n", [1, 2, 7, 140])
    @pytest.mark.parametrize("d", [1, 3, 384, 1000])
    def test_one_centre_at_a_time_equals_one_n_by_k_by_d_array(self, n, d):
        rng = np.random.default_rng(d)
        for base in _scaled_matrices(n, d):
            for data in _layouts(base):
                for k in (1, 2, 5):
                    centers = np.concatenate([data[rng.integers(0, n, size=k - 1)],
                                              rng.standard_normal((1, d))])
                    pick = rng.integers(0, k, size=n)
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = oracle_pairwise_sq_dists(data, centers)
                        got = analysis._pairwise_sq_dists(data, centers)
                        diff = centers[pick]
                        diff -= data
                        own = analysis._sq_lengths(diff)
                    np.testing.assert_array_equal(got, want)
                    # kmeans's rows come C-ordered from _stack; a difference
                    # of Fortran-ordered rows would be summed in another order
                    if data.flags.c_contiguous:
                        np.testing.assert_array_equal(own, want[np.arange(n), pick])


@st.composite
def varied_rows(draw, min_n=1, scales=()):
    """Rows of one dim: fresh unit rows, exact duplicates, duplicates with
    each 0.0 turned to -0.0, rows one ulp from an earlier row in one
    component, and fresh rows times one of ``scales``; or all rows equal.
    Small-integer components make exact ties between centres likely."""
    dim = draw(st.integers(1, 8))
    n = draw(st.integers(min_n, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small_ints = draw(st.booleans())
    all_equal = draw(st.booleans())
    kinds = ["fresh", "duplicate", "signed zero", "ulp"] + (["scaled"] if scales else [])
    rows, fresh = [], []
    for _ in range(n):
        kind = "fresh" if not rows else "duplicate" if all_equal else draw(st.sampled_from(kinds))
        if kind == "fresh":
            row = rng.integers(-2, 3, size=dim).astype(np.float64) if small_ints else rng.normal(size=dim)
            if not row.any():
                row[0] = 1.0
            row = unit(row)
            fresh.append(row)
        elif kind == "scaled":
            row = draw(st.sampled_from(fresh)) * draw(st.sampled_from(scales))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
            if kind == "signed zero":
                row[row == 0.0] = -0.0
            elif kind == "ulp":
                at = draw(st.integers(0, dim - 1))
                row[at] = np.nextafter(row[at], draw(st.sampled_from([-math.inf, math.inf])))
        rows.append(row)
    return rows


@st.composite
def kmeans_cohorts(draw):
    """``varied_rows`` and a k of 1, n or anything between, so fewer
    distinct points than k is common."""
    rows = draw(varied_rows())
    return rows, draw(st.sampled_from([1, len(rows), draw(st.integers(1, len(rows)))]))


# A cohort whose second Lloyd iteration leaves a cluster empty, so one is
# re-seeded with the farthest point (found by a seeded search).
RESEEDED = ([[-0.48737388093231526, -0.8731933922018498], [-0.30641394197853167, 0.9518983644072392],
             [-0.5484962736781314, 0.8361529990146567], [0.6856084602443162, 0.7279704933865231],
             [0.925242023002781, 0.3793773831816036], [0.6892316012558284, 0.7245410960258409],
             [0.8276581120450256, 0.5612326162707081], [-0.987693334778948, 0.15640292974634734],
             [-0.12840294734512947, -0.9917220795732461]], 4, 86)


# Five equal rows and one a ulp from them: every row sits on its centroid,
# where an approximate distance may read a little above 0 and re-seed.
ON_CENTROIDS = [np.array([0.21424427007839494, 0.5093606231982167, 0.20485384406841473,
                          -0.8078898754434873])] * 5
ON_CENTROIDS.append(ON_CENTROIDS[0].copy())
ON_CENTROIDS[-1][0] = np.nextafter(ON_CENTROIDS[-1][0], -math.inf)


class TestKmeansAgainstOracle:
    """``kmeans`` against the exact n x k x d code it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(cohort=kmeans_cohorts(), seed=st.integers(0, 2**64 - 1),
           margin=st.sampled_from([analysis._MARGIN, math.inf]))
    @example(cohort=RESEEDED[:2], seed=RESEEDED[2], margin=analysis._MARGIN)
    @example(cohort=(ON_CENTROIDS, 6), seed=0, margin=analysis._MARGIN)
    def test_same_assignments(self, cohort, seed, margin):
        rows, k = cohort
        with mock.patch.object(analysis, "_MARGIN", margin):
            assert kmeans(rows, k, seed) == oracle_kmeans(rows, k, seed)

    def test_near_ties_take_exact_differences(self):
        # [1, 1] / sqrt(2) lies exactly between the centres [1, 0] and [0, 1]
        rows = [unit([1, 0]), unit([0, 1]), unit([1, 1])]
        with mock.patch.object(analysis, "_pairwise_sq_dists",
                               wraps=analysis._pairwise_sq_dists) as exact:
            assert kmeans(rows, 2, seed=0) == oracle_kmeans(rows, 2, seed=0)
        assert exact.call_count >= 1
        assert all(points.shape[0] < len(rows) for (points, _), _ in exact.call_args_list)


class TestDistanceMatrixAgainstOracle:
    """``distance_matrix`` against the code that grouped every row's bytes."""

    @settings(max_examples=200, deadline=None)
    @given(rows=varied_rows(min_n=2, scales=[0.5, 3.0, 1e-160, 1e-200, 1e200]))
    # the product puts these equal rows 1.1e-16 apart
    @example(rows=[np.array([1.0, 0.0, 2.0]), np.array([1.0, -0.0, 2.0])])
    def test_same_matrix(self, rows):
        vectors = [ev(f"v{i}", row) for i, row in enumerate(rows)]
        got = distance_matrix(vectors).values
        want = oracle_distance_matrix_by_bytes(vectors).values
        # bit for bit, so also within the benchmark's tolerance, with the same zeros
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_all_equal_rows(self, n):
        rng = np.random.default_rng(n)
        row = rng.standard_normal(384)
        vectors = [ev(f"v{i}", row) for i in range(n)]
        assert not np.any(distance_matrix(vectors).values)

    def test_rows_one_ulp_apart_are_not_zeroed(self):
        nonzero = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            row = rng.standard_normal(384)
            near = row.copy()
            near[seed] = np.nextafter(near[seed], math.inf)
            vectors = [ev("a", row), ev("b", near), ev("c", rng.standard_normal(384))]
            got = distance_matrix(vectors).values
            assert np.array_equal(got, oracle_distance_matrix_by_bytes(vectors).values)
            nonzero += got[0, 1] != 0.0
        assert nonzero  # some of these pairs are near zero yet not zero
