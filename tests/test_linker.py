import dataclasses
import json
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eye2vec.compressor import compress
from eye2vec.data import sample_source
from eye2vec.gaze import (
    PIXEL_HEADER,
    Fixation,
    FontGrid,
    GridPos,
    PixelPos,
    Recording,
    convert_recording,
    format_fixations,
    read_fixations,
    write_fixations,
)
from eye2vec.linker import (
    _PAIR_MEMO_SIZE,
    LinkOptions,
    MappedFixation,
    TransitionProfile,
    build_profile,
    map_fixation,
)
from eye2vec.minilang import leaves, parse, tree_facts
from eye2vec.pathctx import PathContext, path_between
from eye2vec.simulator import Strategy, simulate
from oracles import (
    oracle_build_profile_per_transition,
    oracle_map_fixation,
    oracle_parents,
    oracle_parse,
    oracle_transition_counts,
)
from progen import generate_program

SRC = "class A { int f() { count = other; other = count; } }"


@pytest.fixture(scope="module")
def root():
    return parse(SRC)


def leaf_by_text(root, text, occurrence=0):
    found = [l for l in leaves(root) if l.text == text]
    return found[occurrence]


def fixation_at(leaf, t=0, col_offset=0):
    span = leaf.span
    col = (span.start_col + span.end_col) // 2 + col_offset
    return Fixation(t, 200, GridPos(span.start_line, col))


def recording_over(leaves_sequence):
    fixations = [fixation_at(leaf, t=250 * i) for i, leaf in enumerate(leaves_sequence)]
    return Recording("test", fixations)


class TestMapFixation:
    def test_hit_inside_span(self, root):
        count = leaf_by_text(root, "count")
        span = count.span
        mapped = map_fixation(Fixation(0, 100, GridPos(span.start_line, span.start_col + 1)), root)
        assert mapped.mapping == "hit"
        assert mapped.leaf is count

    def test_snap_to_nearest_on_line(self, root):
        count = leaf_by_text(root, "count")
        span = count.span
        mapped = map_fixation(
            Fixation(0, 100, GridPos(span.start_line, span.end_col + 2)), root, snap_tol_cols=3
        )
        assert mapped.mapping == "snapped"
        assert mapped.snap_distance_cols == 2

    def test_drop_on_blank_line(self, root):
        mapped = map_fixation(Fixation(0, 100, GridPos(50, 1)), root, snap_tol_cols=0)
        assert mapped.mapping == "dropped"
        assert mapped.leaf is None

    def test_snap_tolerance_exceeded(self, root):
        count = leaf_by_text(root, "count")
        span = count.span
        far_col = span.end_col + 50
        mapped = map_fixation(Fixation(0, 100, GridPos(span.start_line, far_col)), root, 3)
        assert mapped.mapping == "dropped"

    def test_snap_tie_prefers_smaller_start_col(self):
        # "a" at col 21 and "b" at col 25; col 23 is 2 away from both
        root = parse("class A { int f() { a = b; } }")
        mapped = map_fixation(Fixation(0, 100, GridPos(1, 23)), root, snap_tol_cols=3)
        assert mapped.mapping == "snapped"
        assert mapped.leaf.text == "a"

    @pytest.mark.parametrize("leaf,distance,mapping", [
        (None, 0, "dropped"), ("leaf", 0, "hit"), ("leaf", 2, "snapped"),
    ])
    def test_mapping_derives_from_leaf_and_distance(self, root, leaf, distance, mapping):
        leaf = leaf_by_text(root, "count") if leaf else None
        fixation = Fixation(0, 100, GridPos(1, 1))
        assert MappedFixation(fixation, leaf, distance).mapping == mapping

    def test_pixel_fixation_rejected(self, root):
        with pytest.raises(TypeError):
            map_fixation(Fixation(0, 100, PixelPos(1, 1)), root)

    def test_pixel_recording_rejected(self, root):
        with pytest.raises(TypeError, match="grid mode"):
            build_profile(Recording("p", [Fixation(0, 100, PixelPos(1, 1))]), root)

    def test_empty_pixel_recording_gives_empty_profile(self, root, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("timestamp_ms,x_px,y_px,duration_ms\n", encoding="utf-8")
        assert build_profile(read_fixations(path, "pixel"), root).is_empty


class TestBuildProfile:
    def test_alternating_counts_and_ratios(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        profile = build_profile(recording_over([a, b, a, b]), root)
        ab = path_between(root, a, b)
        ba = path_between(root, b, a)
        assert profile.total_transitions == 3
        assert profile.entries == {ab: 2, ba: 1}
        ratios = {e["context"]: e["ratio"] for e in profile.to_json_dict()["entries"]}
        assert ratios == {ab.context_string: 2 / 3, ba.context_string: 1 / 3}

    def test_self_transition_dropped_without_breaking_chain(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        profile = build_profile(recording_over([a, a, b]), root)
        ab = path_between(root, a, b)
        assert profile.total_transitions == 1
        assert profile.entries == {ab: 1}
        assert profile.to_json_dict()["entries"][0]["ratio"] == 1.0

    def test_self_transition_kept_mode(self, root):
        a = leaf_by_text(root, "count")
        options = LinkOptions(self_transitions="keep")
        profile = build_profile(recording_over([a, a]), root, options)
        assert profile.total_transitions == 1
        (ctx,) = profile.entries
        assert ctx.source_text == ctx.target_text == "count"
        assert ctx.path_encoding == oracle_parents(root)[id(a)].label == "Name"

    def test_duplicating_fixations_preserves_ratios(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        c = leaf_by_text(root, "count", occurrence=1)
        sequence = [a, b, c, a, b]
        base = build_profile(recording_over(sequence), root)
        doubled_sequence = [leaf for leaf in sequence for _ in range(2)]
        doubled = build_profile(recording_over(doubled_sequence), root)
        assert base.total_transitions == doubled.total_transitions
        assert base.to_json_dict()["entries"] == doubled.to_json_dict()["entries"]

    def test_direction_sensitivity(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        forward = build_profile(recording_over([a, b]), root)
        backward = build_profile(recording_over([b, a]), root)
        assert set(forward.entries) != set(backward.entries)

    def test_chain_skip_spans_dropped_fixations(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        blank = Fixation(250, 200, GridPos(50, 1))
        fixations = [fixation_at(a, 0), blank, fixation_at(b, 500)]
        profile = build_profile(Recording("r", fixations), root, LinkOptions(chain="skip"))
        assert profile.total_transitions == 1

    def test_chain_strict_breaks_at_drop(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        blank = Fixation(250, 200, GridPos(50, 1))
        fixations = [fixation_at(a, 0), blank, fixation_at(b, 500)]
        profile = build_profile(Recording("r", fixations), root, LinkOptions(chain="strict"))
        assert profile.total_transitions == 0
        assert profile.is_empty

    def test_empty_profile_is_data_not_error(self, root):
        profile = build_profile(Recording("empty"), root)
        assert profile.is_empty
        assert profile.entries == {}
        assert json.loads(profile.to_json())["total_transitions"] == 0

    def test_snapped_fixations_contribute(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        fixations = [fixation_at(a, 0, col_offset=0), fixation_at(b, 250, col_offset=3)]
        profile = build_profile(Recording("r", fixations), root, LinkOptions(snap_tol_cols=3))
        assert profile.total_transitions == 1


class TestProfileInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_ratios_sum_to_one_and_counts_conserve(self, seed, accumulator_root):
        strategy = Strategy("linear" if seed % 2 else "defuse", jitter_cols=seed % 4, seed=seed)
        recording = simulate(accumulator_root, strategy, 30)
        options = LinkOptions(
            snap_tol_cols=seed % 5,
            self_transitions="keep" if seed % 3 == 0 else "drop",
            chain="strict" if seed % 7 == 0 else "skip",
        )
        profile = build_profile(recording, accumulator_root, options)
        if profile.total_transitions:
            ratios = [e["ratio"] for e in profile.to_json_dict()["entries"]]
            assert abs(sum(ratios) - 1) < 1e-9
        oracle_counts, oracle_total = oracle_transition_counts(
            recording, accumulator_root, options
        )
        assert profile.total_transitions == oracle_total
        assert {c.context_string: n for c, n in profile.entries.items()} == oracle_counts

    def test_invalid_profile_construction_rejected(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        ab, ba = path_between(root, a, b), path_between(root, b, a)
        for bad in (0, -1, True, False, 2.0, 0.5, "2", None):
            with pytest.raises(ValueError, match="positive integer"):
                TransitionProfile("r", {ab: 2, ba: bad})


# any text, and text made of the characters that render a context
_TEXT = st.one_of(st.text(max_size=6), st.text(st.sampled_from(", ↑↓a"), max_size=6))
_COUNTS = st.lists(
    st.tuples(st.builds(PathContext, _TEXT, _TEXT, _TEXT), st.integers(1, 50)),
    unique_by=lambda kv: kv[0],
    max_size=8,
)


class TestProfileValue:
    @settings(max_examples=100, deadline=None)
    @given(counts=_COUNTS, data=st.data())
    def test_same_bytes_whatever_order_the_counts_come_in(self, counts, data, small_table):
        shuffled = data.draw(st.permutations(counts), label="shuffled")
        first, second = TransitionProfile("r", dict(counts)), TransitionProfile("r", dict(shuffled))
        assert list(first.entries.items()) == list(second.entries.items())
        strings = [c.context_string for c in first.entries]
        assert strings == sorted(c.context_string for c, _ in counts)
        assert first.total_transitions == sum(n for _, n in counts)
        assert first.to_json() == second.to_json()
        assert first.content_hash() == second.content_hash()
        if counts:
            assert (compress(first, small_table, normalize=False).values.tobytes()
                    == compress(second, small_table, normalize=False).values.tobytes())

    def test_contexts_that_render_one_string_have_one_order(self, small_table):
        x, y = PathContext("x", "P", "y,P,z"), PathContext("x,P,y", "P", "z")
        assert x != y and x.context_string == y.context_string
        c = PathContext("a", "Q", "b")
        first = TransitionProfile("r", {x: 1, y: 2, c: 3})
        second = TransitionProfile("r", {y: 2, x: 1, c: 3})
        assert list(first.entries) == list(second.entries) == [c, x, y]
        assert first.content_hash() == second.content_hash()
        assert (compress(first, small_table, normalize=False).values.tobytes()
                == compress(second, small_table, normalize=False).values.tobytes())

    def test_fields_cannot_be_assigned(self):
        profile = TransitionProfile("r", {PathContext("a", "P", "b"): 2})
        for name, value in (("recording_id", "s"), ("entries", {}), ("total_transitions", 3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(profile, name, value)

    def test_pickle_round_trip(self, accumulator_root):
        recording = simulate(accumulator_root, Strategy("defuse", jitter_cols=1, seed=3), 40)
        profile = build_profile(recording, accumulator_root)
        back = pickle.loads(pickle.dumps(profile))
        assert back == profile
        assert list(back.entries) == list(profile.entries)
        assert back.to_json() == profile.to_json()
        assert back.content_hash() == profile.content_hash()


class TestProfileJson:
    def test_schema_and_ordering(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        profile = build_profile(recording_over([a, b, a, b]), root)
        data = json.loads(profile.to_json())
        assert set(data) == {"recording_id", "total_transitions", "entries"}
        assert data["recording_id"] == "test"
        assert data["total_transitions"] == 3
        counts = [entry["count"] for entry in data["entries"]]
        assert counts == sorted(counts, reverse=True)
        for entry in data["entries"]:
            assert set(entry) == {"context", "hash", "count", "ratio"}
            assert isinstance(entry["hash"], str) and entry["hash"].isdigit()

    def test_tie_broken_by_context_string(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        profile = build_profile(recording_over([a, b, a]), root)
        data = json.loads(profile.to_json())
        contexts = [entry["context"] for entry in data["entries"]]
        assert contexts == sorted(contexts)

    def test_content_hash_ignores_insertion_order(self, root):
        a = leaf_by_text(root, "count")
        b = leaf_by_text(root, "other")
        ab = path_between(root, a, b)
        ba = path_between(root, b, a)
        first = TransitionProfile("r", {ab: 2, ba: 1})
        second = TransitionProfile("r", {ba: 1, ab: 2})
        assert first.content_hash() == second.content_hash()
        different = TransitionProfile("r", {ab: 1, ba: 2})
        assert first.content_hash() != different.content_hash()


def _sources():
    samples = st.sampled_from(["point", "accumulator", "lookup"]).map(sample_source)
    generated = st.integers(0, 10**6).map(generate_program)
    return st.one_of(samples, generated)


def _positions(source, root):
    """Grid positions anywhere around the text, on leaves, and halfway between two."""
    lines = source.split("\n")
    width = max(map(len, lines))
    lv = leaves(root)
    spots = [GridPos(l.span.start_line, (l.span.start_col + l.span.end_col) // 2) for l in lv]
    for a, b in zip(lv, lv[1:]):
        if a.span.start_line == b.span.start_line:
            line, twice_mid = a.span.start_line, a.span.end_col + b.span.start_col
            spots += [GridPos(line, twice_mid // 2), GridPos(line, (twice_mid + 1) // 2)]
    # line 0, lines past the end, columns <= 0 and columns past the longest line
    anywhere = st.builds(GridPos, st.integers(0, len(lines) + 2), st.integers(-3, width + 3))
    return st.one_of(anywhere, st.sampled_from(spots))


def _recording(data, source, root):
    positions = data.draw(st.lists(_positions(source, root), max_size=40))
    return Recording("r", [Fixation(250 * i, 200, pos) for i, pos in enumerate(positions)])


def _revisiting_recording(data, source, root):
    """Fixations over at most four spots, each revisited many times.

    The sequence is made of ping-pong segments (A B A B), runs on one spot,
    and drops (line 0 holds no leaf), so few leaf pairs carry many
    transitions. Spots favour leaves whose text occurs more than once, so
    that distinct pairs share texts and sometimes a context string.
    """
    lv = leaves(root)
    texts = Counter(leaf.text for leaf in lv)
    repeated = [fixation_at(leaf).position for leaf in lv if texts[leaf.text] > 1]
    where = _positions(source, root)
    if repeated:
        where = st.one_of(st.sampled_from(repeated), where)
    spots = data.draw(st.lists(where, min_size=1, max_size=5), label="spots")
    n = len(spots)
    spot = st.integers(0, n - 1)
    segment = st.one_of(
        st.tuples(spot, spot, st.integers(1, 6)).map(lambda t: [t[0], t[1]] * t[2]),
        st.tuples(spot, st.integers(1, 6)).map(lambda t: [t[0]] * t[1]),
        st.integers(1, 3).map(lambda k: [n] * k),
    )
    order = [i for seg in data.draw(st.lists(segment, max_size=12), label="segments") for i in seg]
    positions = spots + [GridPos(0, 1)]
    return Recording("r", [Fixation(250 * i, 200, positions[j]) for i, j in enumerate(order)])


def _assert_same_as_per_transition(recording, root, options, table):
    profile = build_profile(recording, root, options)
    want = oracle_build_profile_per_transition(recording, root, options)
    assert profile.to_json() == want.to_json()
    assert list(profile.entries.items()) == list(want.entries.items())
    if want.total_transitions:
        assert compress(profile, table).to_json() == compress(want, table).to_json()
    return profile


class TestAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(source=_sources(), data=st.data())
    def test_map_fixation_matches_linear_scan(self, source, data):
        root = parse(source)
        recording = _recording(data, source, root)
        tol = data.draw(st.integers(0, max(map(len, source.split("\n"))) + 5), label="tol")
        for fixation in recording.fixations:
            got = map_fixation(fixation, root, tol)
            want = oracle_map_fixation(fixation, root, tol)
            # leaves compare by identity
            assert (got.leaf, got.mapping, got.snap_distance_cols) == (
                want.leaf, want.mapping, want.snap_distance_cols
            )

    @settings(max_examples=100, deadline=None)
    @given(
        source=_sources(),
        data=st.data(),
        tol=st.integers(0, 12),
        chain=st.sampled_from(["skip", "strict"]),
        self_transitions=st.sampled_from(["keep", "drop"]),
    )
    def test_build_profile_matches_oracle(self, source, data, tol, chain, self_transitions):
        root = parse(source)
        recording = _recording(data, source, root)
        options = LinkOptions(snap_tol_cols=tol, self_transitions=self_transitions, chain=chain)
        profile = build_profile(recording, root, options)
        oracle_counts, oracle_total = oracle_transition_counts(recording, root, options)
        assert profile.total_transitions == oracle_total
        assert {c.context_string: n for c, n in profile.entries.items()} == oracle_counts
        # contexts are stored in context-string order
        assert [c.context_string for c in profile.entries] == sorted(oracle_counts)

    @settings(max_examples=150, deadline=None)
    @given(
        source=_sources(),
        data=st.data(),
        tol=st.integers(0, 6),
        chain=st.sampled_from(["skip", "strict"]),
        self_transitions=st.sampled_from(["keep", "drop"]),
    )
    def test_build_profile_matches_per_transition_loop(
        self, source, data, tol, chain, self_transitions, small_table
    ):
        root = parse(source)
        recording = _revisiting_recording(data, source, root)
        options = LinkOptions(snap_tol_cols=tol, self_transitions=self_transitions, chain=chain)
        _assert_same_as_per_transition(recording, root, options, small_table)

    @settings(max_examples=60, deadline=None)
    @given(source=_sources(), data=st.data())
    def test_recording_read_from_csv_links_as_fixation_list(self, tmp_path_factory, source, data):
        # the CSV keeps lines and columns from 1; the pixel file holds cell centres
        root = parse(source)
        fixations = [f for f in _recording(data, source, root).fixations
                     if min(f.position.line, f.position.col) >= 1]
        want = build_profile(Recording("r", fixations), root).to_json()
        grid_csv = tmp_path_factory.mktemp("grid") / "r.csv"
        write_fixations(Recording("r", fixations), grid_csv)
        assert build_profile(read_fixations(grid_csv, "grid"), root).to_json() == want
        pixels = [Fixation(f.timestamp_ms, f.duration_ms,
                           PixelPos(73.0 + (f.position.col - 0.5) * 12.0,
                                    37.0 + (f.position.line - 0.5) * 16.0))
                  for f in fixations]
        pixel_csv = tmp_path_factory.mktemp("pixel") / "r.csv"
        pixel_csv.write_text(format_fixations(Recording("r", pixels)) if pixels
                             else ",".join(PIXEL_HEADER) + "\n", encoding="utf-8")
        converted = convert_recording(read_fixations(pixel_csv, "pixel"),
                                      FontGrid(73.0, 37.0, 12.0, 16.0))
        assert converted.fixations == fixations
        assert build_profile(converted, root).to_json() == want

    @pytest.mark.parametrize("chain", ["skip", "strict"])
    @pytest.mark.parametrize("self_transitions", ["keep", "drop"])
    def test_pairs_with_one_context_sum_and_same_text_pairs_stay_apart(
        self, chain, self_transitions, small_table
    ):
        # both (a, b) pairs on lines 2 and 3 give one context string; the
        # (a, b) pair on line 4 has the same texts but another path
        root = parse("class A { int f() {\n a = b;\n a = b;\n return a + b;\n} }")
        a1, a2, a3 = (leaf_by_text(root, "a", i) for i in range(3))
        b1, b2, b3 = (leaf_by_text(root, "b", i) for i in range(3))
        # None is a drop (line 0 holds no leaf)
        sequence = [a1, b1, a2, b2, a1, a1, b1, None, a3, b3, a3, b3]
        fixations = [
            Fixation(250 * i, 200, GridPos(0, 1)) if leaf is None else fixation_at(leaf, 250 * i)
            for i, leaf in enumerate(sequence)
        ]
        options = LinkOptions(self_transitions=self_transitions, chain=chain)
        recording = Recording("r", fixations)
        profile = _assert_same_as_per_transition(recording, root, options, small_table)
        assign = path_between(root, a1, b1)
        assert path_between(root, a2, b2) == assign
        assert profile.entries[assign] == 3
        assert path_between(root, a3, b3) in profile.entries


class TestMemoizedTrees:
    """The linker over trees shared through ``parse``'s cache, with their
    facts read back from its own."""

    @settings(max_examples=100, deadline=None)
    @given(
        source=_sources(),
        data=st.data(),
        tol=st.integers(0, 6),
        chain=st.sampled_from(["skip", "strict"]),
        self_transitions=st.sampled_from(["keep", "drop"]),
    )
    def test_build_profile_matches_oracle_over_oracle_tree(
        self, source, data, tol, chain, self_transitions
    ):
        root = parse(source)
        recording = _revisiting_recording(data, source, root)
        options = LinkOptions(snap_tol_cols=tol, self_transitions=self_transitions, chain=chain)
        want = oracle_build_profile_per_transition(recording, oracle_parse(source), options)
        # the second call reads the tree and its facts back from the caches
        for _ in range(2):
            assert parse(source) is root
            assert build_profile(recording, parse(source), options).to_json() == want.to_json()

    @settings(max_examples=60, deadline=None)
    @given(source=_sources(), data=st.data())
    def test_map_fixation_on_a_linked_tree_matches_linear_scan(self, source, data):
        root = parse(source)
        recording = _recording(data, source, root)
        build_profile(recording, root)
        tol = data.draw(st.integers(0, 8), label="tol")
        for fixation in recording.fixations:
            got = map_fixation(fixation, parse(source), tol)
            want = oracle_map_fixation(fixation, root, tol)
            assert (got.leaf, got.mapping, got.snap_distance_cols) == (
                want.leaf, want.mapping, want.snap_distance_cols
            )

    @settings(max_examples=60, deadline=None)
    @given(source=_sources(), data=st.data())
    def test_distinct_recordings_over_one_memoized_tree_match_oracle(self, source, data):
        # each call reads and adds to the pair memo the calls before it filled
        root = parse(source)
        oracle_root = oracle_parse(source)
        for i in range(data.draw(st.integers(2, 5), label="recordings")):
            recording = data.draw(
                st.sampled_from([_recording, _revisiting_recording]), label=f"kind {i}"
            )(data, source, root)
            options = LinkOptions(
                snap_tol_cols=data.draw(st.integers(0, 6), label=f"tol {i}"),
                self_transitions=data.draw(st.sampled_from(["keep", "drop"]), label=f"self {i}"),
                chain=data.draw(st.sampled_from(["skip", "strict"]), label=f"chain {i}"),
            )
            want = oracle_build_profile_per_transition(recording, oracle_root, options)
            assert build_profile(recording, parse(source), options).to_json() == want.to_json()

    def test_a_recurring_pair_gives_the_same_context_object(self):
        source = "class A { int f() {\n a = b;\n return a;\n} }"
        root = parse(source)
        a, b = leaf_by_text(root, "a", 0), leaf_by_text(root, "b", 0)
        first = build_profile(recording_over([a, b, b]), root, LinkOptions(self_transitions="keep"))
        # another recording, other options, the same tree read back from parse
        options = LinkOptions(self_transitions="keep", snap_tol_cols=0)
        second = build_profile(recording_over([b, a, b, b]), parse(source), options)
        firsts = {c.context_string: c for c in first.entries}
        seconds = {c.context_string: c for c in second.entries}
        assert len(firsts) == 2 and len(seconds) == 3
        assert all(seconds[key] is context for key, context in firsts.items())
        ab = firsts[path_between(root, a, b).context_string]
        assert seconds[path_between(root, b, a).context_string] is not ab
        assert tree_facts(root).pair_memo[(a, b)] is ab

    def test_pair_memo_stays_bounded_and_later_profiles_match_oracle(self):
        # enough generated classes that ordered leaf pairs outnumber the memo
        source, lv, seed = "", [], 0
        while len(lv) * (len(lv) - 1) <= _PAIR_MEMO_SIZE + 200:
            source += generate_program(seed, max_leaves=60)
            lv, seed = leaves(parse(source)), seed + 1
        root = parse(source)
        memo = tree_facts(root).pair_memo
        ordered = [x for a in lv for b in lv if a is not b for x in (a, b)]
        oracle_root = oracle_parse(source)
        # first every pair in one order, then again in reverse with self transitions
        for sequence, options in (
            (ordered, LinkOptions()),
            (ordered[::-1] + ordered[:50], LinkOptions(self_transitions="keep")),
        ):
            recording = recording_over(sequence)
            want = oracle_build_profile_per_transition(recording, oracle_root, options)
            assert build_profile(recording, root, options).to_json() == want.to_json()
            assert len(memo) == _PAIR_MEMO_SIZE
