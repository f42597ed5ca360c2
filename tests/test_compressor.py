import dataclasses
import json
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_compress

from eye2vec import compressor, embeddings
from eye2vec.compressor import EyeVector, compress, read_eye_vector
from eye2vec.embeddings import EmbeddingTable, context_vector, load_table
from eye2vec.errors import EmptyProfileError, FormatError, ZeroVectorError, _Memo
from eye2vec.linker import TransitionProfile, build_profile
from eye2vec.pathctx import PathContext
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


CTX_AB = PathContext("a", "P", "b")
CTX_BC = PathContext("b", "Q", "c")


class TestCompress:
    def test_single_context_equals_its_vector(self, two_context_table):
        profile = TransitionProfile("r", {CTX_AB: 5})
        vector = compress(profile, two_context_table, normalize=False)
        assert np.array_equal(vector.values, context_vector(two_context_table, CTX_AB))
        assert vector.dim == 6
        assert not vector.normalized

    def test_weighted_sum_of_two_contexts(self, two_context_table):
        profile = TransitionProfile("r", {CTX_AB: 3, CTX_BC: 1})
        vector = compress(profile, two_context_table, normalize=False)
        v1 = context_vector(two_context_table, CTX_AB)
        v2 = context_vector(two_context_table, CTX_BC)
        expected = 0.75 * v1 + 0.25 * v2
        assert np.max(np.abs(vector.values - expected)) <= 1e-12

    def test_count_scale_invariance(self, two_context_table):
        base = compress(
            TransitionProfile("r", {CTX_AB: 3, CTX_BC: 1}), two_context_table
        )
        scaled = compress(
            TransitionProfile("r", {CTX_AB: 6, CTX_BC: 2}), two_context_table
        )
        assert np.max(np.abs(base.values - scaled.values)) <= 1e-12

    def test_normalized_output_unit_norm(self, two_context_table):
        profile = TransitionProfile("r", {CTX_AB: 3, CTX_BC: 2})
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
        ctx = PathContext("a", "P", "b")
        flipped = PathContext("b", "P", "a")
        profile = TransitionProfile("r", {ctx: 1, flipped: 1})
        with pytest.raises(ZeroVectorError):
            compress(profile, table, normalize=True)
        unnormalized = compress(profile, table, normalize=False)
        assert np.array_equal(unnormalized.values, np.zeros(3))

    def test_meta_fields(self, two_context_table):
        profile = TransitionProfile("rec9", {CTX_AB: 3, CTX_BC: 1})
        vector = compress(profile, two_context_table)
        assert vector.recording_id == "rec9"
        assert vector.meta["total_transitions"] == 4
        assert vector.meta["distinct_contexts"] == 2
        assert vector.meta["embedding_seed"] == two_context_table.fallback_seed
        assert vector.meta["created_from"] == str(profile.content_hash())

    def test_permutation_invariance(self, two_context_table):
        forward = TransitionProfile("r", {CTX_AB: 3, CTX_BC: 1})
        backward = TransitionProfile("r", {CTX_BC: 1, CTX_AB: 3})
        a = compress(forward, two_context_table)
        b = compress(backward, two_context_table)
        assert np.array_equal(a.values, b.values)

    def test_linearity_over_disjoint_union(self, small_table):
        contexts = [PathContext(f"t{i}", f"P{i}", f"u{i}") for i in range(6)]
        counts_a = {contexts[i]: i + 1 for i in range(3)}
        counts_b = {contexts[i]: 2 * i + 1 for i in range(3, 6)}
        merged = dict(counts_a)
        merged.update(counts_b)
        va = compress(TransitionProfile("a", counts_a), small_table, normalize=False)
        vb = compress(TransitionProfile("b", counts_b), small_table, normalize=False)
        vm = compress(TransitionProfile("m", merged), small_table, normalize=False)
        n_a = sum(counts_a.values())
        n_b = sum(counts_b.values())
        expected = (n_a * va.values + n_b * vb.values) / (n_a + n_b)
        assert np.max(np.abs(vm.values - expected)) <= 1e-9


# ("x", "P", "y,P,z") and ("x,P,y", "P", "z") render one string and one hash
_TEXTS = ["x", "z", "y,P,z", "x,P,y", "", "↑"]
_PATHS = ["P", "Q↑R", "S↓T"]
_COMPONENT = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324]),
                       st.floats(-1e6, 1e6))


def _outcome(fn, *args):
    """The output's bytes and JSON, or the exception's type and message."""
    try:
        vector = fn(*args)
    except (ZeroVectorError, ValueError) as exc:
        return type(exc), str(exc)
    return vector.values.tobytes(), vector.to_json()


@st.composite
def _tables_and_profiles(draw):
    dim = draw(st.integers(1, 5))
    keys = [f"tok:{t}" for t in _TEXTS] + [f"path:{p}" for p in _PATHS]
    kind = draw(st.sampled_from(["loaded", "fallback", "mixed"]))
    stored = {"loaded": keys, "fallback": []}.get(kind) or draw(
        st.lists(st.sampled_from(keys), unique=True))
    entries = {key: draw(st.lists(_COMPONENT, min_size=dim, max_size=dim)) for key in stored}
    table = EmbeddingTable(dim, entries, draw(st.integers(0, 2**64 - 1)))
    contexts = st.builds(PathContext, st.sampled_from(_TEXTS), st.sampled_from(_PATHS),
                         st.sampled_from(_TEXTS))
    counts = draw(st.dictionaries(contexts, st.integers(1, 10**20), min_size=1, max_size=40))
    return table, TransitionProfile("r", counts)


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_tables_and_profiles(), normalize=st.booleans(),
           block_floats=st.none() | st.integers(1, 60),
           memo_floats=st.none() | st.integers(1, 60))
    def test_bit_equal_to_per_context_loop(self, case, normalize, block_floats, memo_floats):
        table, profile = case
        # the oracle reads a copy of the table, so compress starts from an empty memo
        expected = _outcome(oracle_compress, profile, dataclasses.replace(table), normalize)
        block_floats = block_floats or compressor._BLOCK_FLOATS
        # the drawn table's own memo: its budget was read when it was made
        table._memo.budget = memo_floats or embeddings._MEMO_FLOATS
        with mock.patch.object(compressor, "_BLOCK_FLOATS", block_floats):
            cold = _outcome(compress, profile, table, normalize)
            warm = _outcome(compress, profile, table, normalize)
        assert cold == warm == expected


class TestContextMemo:
    def test_second_compress_makes_no_lookup(self, monkeypatch):
        calls = []
        real = embeddings.lookup
        monkeypatch.setattr(embeddings, "lookup",
                            lambda table, key: calls.append(key) or real(table, key))
        table = EmbeddingTable(dim=8, fallback_seed=42)
        profile = TransitionProfile("r", {PathContext(f"t{i % 3}", f"P{i}", "u"): i + 1
                                          for i in range(12)})
        first = compress(profile, table)
        assert len(calls) == 3 * len(profile.entries)
        calls.clear()
        second = compress(profile, table)
        assert calls == [] and second.to_json() == first.to_json()

    def test_outputs_unchanged_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_MEMO_FLOATS", 60)  # 5 entries of 3 * 4 floats
        table = EmbeddingTable(dim=4, entries={"tok:z": [0.0] * 4, "path:Z": [-0.0] * 4},
                               fallback_seed=11)
        profile = TransitionProfile("r", {PathContext(f"t{i}", "P", f"u{i % 4}"): i + 1
                                          for i in range(9)})
        zero = TransitionProfile("z", {PathContext("z", "Z", "z"): 2})
        expected = oracle_compress(profile, dataclasses.replace(table)).to_json()
        for _ in range(2):
            assert compress(profile, table).to_json() == expected
            assert len(table._memo) == 5
            with pytest.raises(ZeroVectorError):
                compress(zero, table)

    def test_gather_memory_is_bounded_by_the_block(self):
        # 200 contexts at dim 4096: gathered whole they would take
        # 200 * 3 * 4096 * 8 bytes, about 20 MB
        table = EmbeddingTable(dim=4096, fallback_seed=1)
        profile = TransitionProfile("r", {PathContext(f"t{i % 10}", f"P{i}", f"u{i % 7}"): i + 1
                                          for i in range(200)})
        first = compress(profile, table, normalize=False)
        tracemalloc.start()
        try:
            second = compress(profile, table, normalize=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second.values.tobytes() == first.values.tobytes()
        assert peak < 3 * compressor._BLOCK_FLOATS * 8


class TestEyeVectorValue:
    def test_fields_cannot_be_assigned(self, two_context_table):
        vector = compress(TransitionProfile("r", {CTX_AB: 1}), two_context_table)
        text = vector.to_json()
        for name, value in (("recording_id", "s"), ("dim", 5), ("values", [0.0] * 24),
                            ("normalized", False), ("meta", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vector, name, value)
        with pytest.raises(ValueError):
            vector.values[0] = 1.0
        assert vector.to_json() == text

    def test_meta_cannot_be_changed(self):
        given = {"source": "s"}
        vector = EyeVector("r", 1, [1.0], True, given)
        with pytest.raises(TypeError):
            vector.meta["source"] = "t"
        with pytest.raises(TypeError):
            vector.meta["other"] = 1
        given["source"] = "t"
        assert dict(vector.meta) == {"source": "s"}

    def test_a_view_is_copied_and_an_owned_array_frozen_in_place(self):
        base = np.full((2, 4), 0.5)
        vector = EyeVector("r", 4, base[0], True, {})
        base[0, 0] = np.nan  # the caller can still write the memory of its view
        assert vector.values.tolist() == [0.5] * 4
        assert not np.shares_memory(vector.values, base)
        assert base.flags.writeable
        owned = np.full(4, 0.5)
        assert EyeVector("r", 4, owned, True, {}).values is owned
        assert not owned.flags.writeable

    def test_profile_without_id_not_compressed(self, two_context_table):
        with pytest.raises(TypeError, match="recording_id"):
            compress(TransitionProfile("", {CTX_AB: 1}), two_context_table)

    def test_pickle_round_trip(self, two_context_table):
        vector = compress(TransitionProfile("r", {CTX_AB: 3, CTX_BC: 2}), two_context_table)
        for back in (pickle.loads(pickle.dumps(vector)), dataclasses.replace(vector)):
            assert back.to_json() == vector.to_json()
            assert back.values.tobytes() == vector.values.tobytes()
            assert not back.values.flags.writeable
            with pytest.raises(TypeError):
                back.meta["total_transitions"] = 0


class TestEyeVectorJson:
    def test_schema(self, two_context_table):
        vector = compress(TransitionProfile("r", {CTX_AB: 1}), two_context_table)
        data = json.loads(vector.to_json())
        assert list(data) == ["recording_id", "dim", "normalized", "meta", "values"]
        assert data["dim"] == 6
        assert len(data["values"]) == 6

    def test_round_trip_is_lossless(self, two_context_table):
        profile = TransitionProfile("r", {CTX_AB: 3, CTX_BC: 2})
        vector = compress(profile, two_context_table)
        text = vector.to_json()
        back = EyeVector.from_json(text)
        assert np.array_equal(back.values, vector.values)
        assert back.to_json() == text

    def test_file_round_trip(self, tmp_path, two_context_table):
        vector = compress(TransitionProfile("r", {CTX_AB: 1}), two_context_table)
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
        if field != "meta":  # any mapping will do outside JSON
            # refused where it is made, so a vector made is one to_json can write back
            with pytest.raises((TypeError, ValueError), match=field):
                EyeVector(**data)

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


@pytest.fixture()
def read_memo(monkeypatch):
    """An empty read memo for one test; the module's own is put back after."""
    memo = _Memo(compressor._READ_MEMO_CHARS)
    monkeypatch.setattr(compressor, "_read_memo", memo)
    return memo


def _vector_text(recording_id: str, values, meta=None, pad: int = 0) -> str:
    data = {"recording_id": recording_id, "dim": len(values), "normalized": False,
            "meta": meta or {}, "values": list(values)}
    return json.dumps(data) + " " * pad


class TestReadMemo:
    def test_rewritten_file_returns_the_new_vector(self, tmp_path, read_memo):
        path = tmp_path / "v.json"
        path.write_text(_vector_text("r", [1.0, 2.0]), encoding="utf-8")
        assert read_eye_vector(path).values.tolist() == [1.0, 2.0]
        path.write_text(_vector_text("r", [3.0, 4.0]), encoding="utf-8")
        assert read_eye_vector(path).values.tolist() == [3.0, 4.0]
        assert len(read_memo) == 2

    def test_malformed_file_raises_every_time_and_is_not_stored(self, tmp_path, read_memo):
        path = tmp_path / "v.json"
        path.write_text('{"recording_id": "r", "dim": 2, "normalized": false, "meta": {}, '
                        '"values": [1.0]}', encoding="utf-8")
        messages = set()
        for _ in range(3):
            with pytest.raises(FormatError) as caught:
                read_eye_vector(path)
            messages.add(str(caught.value))
        assert len(messages) == 1
        assert read_memo == {} and read_memo.charges == 0

    def test_equal_bytes_share_one_entry(self, tmp_path, read_memo):
        text = _vector_text("r", [0.5, -0.25], {"source": "s"})
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(text, encoding="utf-8")
        second.write_text(text, encoding="utf-8")
        assert read_eye_vector(second) is read_eye_vector(first)
        assert len(read_memo) == 1
        assert read_memo.charges == len(text)

    def test_text_is_keyed_as_parsed(self, tmp_path, read_memo):
        # CRLF reads as LF, so both files parse the same text
        text = _vector_text("r", [1.0], {"note": "a"}).replace(", ", ",\n")
        lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert read_eye_vector(crlf) is read_eye_vector(lf)

    @pytest.mark.parametrize("budget", [0, 1, 200, 500, 2**23])
    def test_memo_stops_growing_at_its_budget(self, tmp_path, read_memo, monkeypatch, budget):
        monkeypatch.setattr(read_memo, "budget", budget)
        rng = np.random.default_rng(budget)
        paths, texts = [], []
        for i in range(8):
            texts.append(_vector_text(f"r{i}", rng.standard_normal(3).tolist()))
            paths.append(tmp_path / f"v{i}.json")
            paths[-1].write_text(texts[-1], encoding="utf-8")
        first = [read_eye_vector(path).to_json() for path in paths]
        charged, stored = 0, 0
        for text in texts:  # a text is stored while it fits in what is left
            if charged + len(text) <= budget:
                charged, stored = charged + len(text), stored + 1
        assert (len(read_memo), read_memo.charges) == (stored, charged)
        assert [read_eye_vector(path).to_json() for path in paths] == first
        assert first == [EyeVector.from_json(text).to_json() for text in texts]
        assert len(read_memo) == stored

    def test_entry_holds_its_vector_and_key_not_its_text(self, tmp_path, read_memo):
        # 2 MB of trailing whitespace parses to a two-float vector
        path = tmp_path / "v.json"
        path.write_text(_vector_text("r", [1.0, 2.0], pad=2_000_000), encoding="utf-8")
        tracemalloc.start()
        try:
            vector = read_eye_vector(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(read_memo.values()) == [vector]
        assert [len(key) for key in read_memo] == [32]
        assert held < 20_000


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
