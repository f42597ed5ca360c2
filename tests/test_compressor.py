import json

import numpy as np
import pytest

from eye2vec.compressor import EyeVector, compress, read_eye_vector
from eye2vec.embeddings import context_vector, load_table
from eye2vec.errors import EmptyProfileError, FormatError, ZeroVectorError
from eye2vec.linker import TransitionProfile, build_profile
from eye2vec.pathctx import make_context
from eye2vec.simulator import Strategy, simulate


@pytest.fixture()
def two_context_table(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text(
        "eye2vec-embeddings v1 dim=2\n"
        "tok:a\t1 0\n"
        "tok:b\t0 1\n"
        "tok:c\t1 0\n"
        "path:P\t0 1\n"
        "path:Q\t1 0\n",
        encoding="utf-8",
    )
    return load_table(path)


CTX_AB = make_context("a", "P", "b")
CTX_BC = make_context("b", "Q", "c")


class TestCompress:
    def test_single_context_equals_its_vector(self, two_context_table):
        profile = TransitionProfile.from_counts("r", {CTX_AB: 5})
        vector = compress(profile, two_context_table, normalize=False)
        assert np.array_equal(vector.values, context_vector(two_context_table, CTX_AB))
        assert vector.dim == 6
        assert not vector.normalized

    def test_weighted_sum_of_two_contexts(self, two_context_table):
        profile = TransitionProfile.from_counts("r", {CTX_AB: 3, CTX_BC: 1})
        vector = compress(profile, two_context_table, normalize=False)
        v1 = context_vector(two_context_table, CTX_AB)
        v2 = context_vector(two_context_table, CTX_BC)
        expected = 0.75 * v1 + 0.25 * v2
        assert np.max(np.abs(vector.values - expected)) <= 1e-12

    def test_count_scale_invariance(self, two_context_table):
        base = compress(
            TransitionProfile.from_counts("r", {CTX_AB: 3, CTX_BC: 1}), two_context_table
        )
        scaled = compress(
            TransitionProfile.from_counts("r", {CTX_AB: 6, CTX_BC: 2}), two_context_table
        )
        assert np.max(np.abs(base.values - scaled.values)) <= 1e-12

    def test_normalized_output_unit_norm(self, two_context_table):
        profile = TransitionProfile.from_counts("r", {CTX_AB: 3, CTX_BC: 2})
        vector = compress(profile, two_context_table, normalize=True)
        assert abs(np.linalg.norm(vector.values) - 1.0) <= 1e-9
        assert vector.normalized

    def test_empty_profile_rejected(self, two_context_table):
        with pytest.raises(EmptyProfileError):
            compress(TransitionProfile("r"), two_context_table)

    def test_zero_vector_rejected_when_normalizing(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text(
            "eye2vec-embeddings v1 dim=1\n"
            "tok:a\t1\n"
            "tok:b\t-1\n"
            "path:P\t0\n",
            encoding="utf-8",
        )
        table = load_table(path)
        ctx = make_context("a", "P", "b")
        flipped = make_context("b", "P", "a")
        profile = TransitionProfile.from_counts("r", {ctx: 1, flipped: 1})
        with pytest.raises(ZeroVectorError):
            compress(profile, table, normalize=True)
        unnormalized = compress(profile, table, normalize=False)
        assert np.array_equal(unnormalized.values, np.zeros(3))

    def test_meta_fields(self, two_context_table):
        profile = TransitionProfile.from_counts("rec9", {CTX_AB: 3, CTX_BC: 1})
        vector = compress(profile, two_context_table)
        assert vector.recording_id == "rec9"
        assert vector.meta["total_transitions"] == 4
        assert vector.meta["distinct_contexts"] == 2
        assert vector.meta["embedding_seed"] == two_context_table.fallback_seed
        assert vector.meta["created_from"] == str(profile.content_hash())

    def test_permutation_invariance(self, two_context_table):
        forward = TransitionProfile.from_counts("r", {CTX_AB: 3, CTX_BC: 1})
        backward = TransitionProfile.from_counts("r", {CTX_BC: 1, CTX_AB: 3})
        a = compress(forward, two_context_table)
        b = compress(backward, two_context_table)
        assert np.array_equal(a.values, b.values)

    def test_linearity_over_disjoint_union(self, small_table):
        contexts = [make_context(f"t{i}", f"P{i}", f"u{i}") for i in range(6)]
        counts_a = {contexts[i]: i + 1 for i in range(3)}
        counts_b = {contexts[i]: 2 * i + 1 for i in range(3, 6)}
        merged = dict(counts_a)
        merged.update(counts_b)
        va = compress(TransitionProfile.from_counts("a", counts_a), small_table, normalize=False)
        vb = compress(TransitionProfile.from_counts("b", counts_b), small_table, normalize=False)
        vm = compress(TransitionProfile.from_counts("m", merged), small_table, normalize=False)
        n_a = sum(counts_a.values())
        n_b = sum(counts_b.values())
        expected = (n_a * va.values + n_b * vb.values) / (n_a + n_b)
        assert np.max(np.abs(vm.values - expected)) <= 1e-9


class TestEyeVectorJson:
    def test_schema(self, two_context_table):
        vector = compress(TransitionProfile.from_counts("r", {CTX_AB: 1}), two_context_table)
        data = json.loads(vector.to_json())
        assert list(data) == ["recording_id", "dim", "normalized", "meta", "values"]
        assert data["dim"] == 6
        assert len(data["values"]) == 6

    def test_round_trip_is_lossless(self, two_context_table):
        profile = TransitionProfile.from_counts("r", {CTX_AB: 3, CTX_BC: 2})
        vector = compress(profile, two_context_table)
        text = vector.to_json()
        back = EyeVector.from_json(text)
        assert np.array_equal(back.values, vector.values)
        assert back.to_json() == text

    def test_file_round_trip(self, tmp_path, two_context_table):
        vector = compress(TransitionProfile.from_counts("r", {CTX_AB: 1}), two_context_table)
        path = tmp_path / "v.json"
        path.write_text(vector.to_json(), encoding="utf-8")
        assert read_eye_vector(path).to_json() == vector.to_json()

    def test_malformed_json_rejected(self):
        with pytest.raises(FormatError):
            EyeVector.from_json("{not json")
        with pytest.raises(FormatError):
            EyeVector.from_json('{"recording_id": "r"}')

    @pytest.mark.parametrize("field,value", [
        ("recording_id", 5),
        ("recording_id", ""),
        ("recording_id", None),
        ("dim", True),
        ("dim", 1.0),
        ("dim", "1"),
        ("normalized", "yes"),
        ("normalized", 1),
        ("meta", [["a", 1]]),
        ("meta", None),
    ])
    def test_mistyped_field_rejected(self, field, value):
        data = {"recording_id": "r", "dim": 1, "normalized": False, "meta": {}, "values": [1.0]}
        EyeVector.from_json(json.dumps(data))
        data[field] = value
        with pytest.raises(FormatError, match=field):
            EyeVector.from_json(json.dumps(data))

    @pytest.mark.parametrize("values", [["1.5", True], [True, False], ["x", 1.0], [[1.0], 2.0]])
    def test_values_that_are_not_numbers_rejected(self, values):
        data = {"recording_id": "r", "dim": 2, "normalized": False, "meta": {}, "values": values}
        with pytest.raises(FormatError, match="values must be JSON numbers"):
            EyeVector.from_json(json.dumps(data))

    def test_integer_values_read_as_floats(self):
        data = {"recording_id": "r", "dim": 2, "normalized": False, "meta": {}, "values": [3, -0.5]}
        assert EyeVector.from_json(json.dumps(data)).values.tolist() == [3.0, -0.5]

    def test_integer_beyond_any_double_rejected(self):
        text = ('{"recording_id": "r", "dim": 1, "normalized": false, "meta": {}, "values": ['
                + "9" * 400 + "]}")
        with pytest.raises(FormatError, match="too large"):
            EyeVector.from_json(text)

    def test_values_render_as_per_component_floats(self):
        edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
        values = np.array(edge + list(np.random.default_rng(3).standard_normal(64)))
        vector = EyeVector("r", len(values), values, False, {})
        expected = json.dumps([float(v) for v in values])
        assert json.dumps(json.loads(vector.to_json())["values"]) == expected
        assert vector.to_json().endswith(f'"values": {expected}}}')

    def test_dim_mismatch_rejected(self):
        with pytest.raises(FormatError):
            EyeVector.from_json(
                '{"recording_id": "r", "dim": 4, "normalized": false, "meta": {}, "values": [1.0]}'
            )


def test_fixation_duplication_reproduces_eye_vector(accumulator_root, small_table):
    from eye2vec.gaze import Recording

    strategy = Strategy("defuse", jitter_cols=1, seed=5)
    recording = simulate(accumulator_root, strategy, 30)
    doubled = Recording(
        recording.recording_id, [f for f in recording.fixations for _ in range(2)]
    )
    base = compress(build_profile(recording, accumulator_root), small_table)
    dup = compress(build_profile(doubled, accumulator_root), small_table)
    assert np.max(np.abs(base.values - dup.values)) <= 1e-12
