import pytest

from eye2vec.errors import NoIdentifiers
from eye2vec.gaze import write_fixations
from eye2vec.linker import LinkOptions, build_profile, map_fixation
from eye2vec.minilang import leaves, parse
from eye2vec.simulator import MAX_FIXATIONS, STRATEGY_NAMES, Strategy, simulate
from oracles import oracle_simulate


class TestLinear:
    def test_visits_leaves_in_order(self):
        root = parse("class A { int x = 1; }")  # leaves A, int, x, 1
        recording = simulate(root, Strategy("linear", jitter_cols=0, seed=0), 4)
        lv = leaves(root)
        for fixation, leaf in zip(recording.fixations, lv):
            mapped = map_fixation(fixation, root, snap_tol_cols=0)
            assert mapped.mapping == "hit"
            assert mapped.leaf is leaf

    def test_wraps_around(self):
        root = parse("class A { int x = 1; }")
        recording = simulate(root, Strategy("linear", jitter_cols=0, seed=0), 6)
        lv = leaves(root)
        mapped = [map_fixation(f, root, 0).leaf for f in recording.fixations]
        assert mapped == [lv[0], lv[1], lv[2], lv[3], lv[0], lv[1]]

    def test_timestamps_and_durations(self):
        root = parse("class A { int x = 1; }")
        recording = simulate(root, Strategy("linear", 0, 0), 3)
        assert [f.timestamp_ms for f in recording.fixations] == [0, 250, 500]
        assert all(f.duration_ms == 200 for f in recording.fixations)


class TestDefuse:
    def test_pairs_join_same_identifier(self):
        src = (
            "class A {\n"
            "    int f() {\n"
            "        int x = 1;\n"
            "        x = x + 2;\n"
            "        return other;\n"
            "    }\n"
            "}\n"
        )
        root = parse(src)
        recording = simulate(root, Strategy("defuse", jitter_cols=0, seed=3), 10)
        mapped = [map_fixation(f, root, 0).leaf for f in recording.fixations]
        assert all(leaf is not None and leaf.text == "x" for leaf in mapped)
        # fixations alternate declaration, use, declaration, use, ...
        decl = next(l for l in leaves(root) if l.text == "x")
        assert mapped[0] is decl
        assert mapped[1].leaf_index > decl.leaf_index

    def test_no_repeated_identifier_raises(self):
        root = parse("class A { int x; int y; }")
        with pytest.raises(NoIdentifiers):
            simulate(root, Strategy("defuse", 0, 0), 4)

    def test_declaration_sites_include_params_and_fields(self, accumulator_root):
        recording = simulate(accumulator_root, Strategy("defuse", 0, 9), 40)
        mapped = [map_fixation(f, accumulator_root, 0).leaf for f in recording.fixations]
        assert all(leaf is not None for leaf in mapped)
        texts = {leaf.text for leaf in mapped}
        assert "total" in texts or "count" in texts or "value" in texts


class TestDeterminismAndJitter:
    def test_same_seed_same_csv(self, accumulator_root, tmp_path):
        for strategy_name in ("linear", "defuse"):
            strategy = Strategy(strategy_name, jitter_cols=2, seed=17)
            a = simulate(accumulator_root, strategy, 25, recording_id="r")
            b = simulate(accumulator_root, strategy, 25, recording_id="r")
            pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
            write_fixations(a, pa)
            write_fixations(b, pb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, accumulator_root):
        a = simulate(accumulator_root, Strategy("defuse", 1, 0), 25)
        b = simulate(accumulator_root, Strategy("defuse", 1, 1), 25)
        assert [f.position for f in a.fixations] != [f.position for f in b.fixations]

    def test_zero_jitter_round_trips_through_mapper(self, sample_roots):
        for root in sample_roots.values():
            recording = simulate(root, Strategy("linear", jitter_cols=0, seed=4), 30)
            for fixation in recording.fixations:
                assert map_fixation(fixation, root, snap_tol_cols=0).mapping == "hit"

    def test_jitter_stays_within_radius(self, accumulator_root):
        base = simulate(accumulator_root, Strategy("linear", jitter_cols=0, seed=6), 30)
        jittered = simulate(accumulator_root, Strategy("linear", jitter_cols=2, seed=6), 30)
        for bf, jf in zip(base.fixations, jittered.fixations):
            assert bf.position.line == jf.position.line
            assert abs(bf.position.col - jf.position.col) <= 2


class TestStrategySeparability:
    def test_profiles_differ_on_program_with_repeated_identifier(self, accumulator_root):
        linear = simulate(accumulator_root, Strategy("linear", 0, 0), 30)
        defuse = simulate(accumulator_root, Strategy("defuse", 0, 0), 30)
        p_linear = build_profile(linear, accumulator_root, LinkOptions())
        p_defuse = build_profile(defuse, accumulator_root, LinkOptions())
        assert set(p_linear.entries) != set(p_defuse.entries)


class TestValidation:
    def test_bad_strategy_name(self):
        with pytest.raises(ValueError):
            Strategy("zigzag", 0, 0)

    def test_needs_two_fixations(self, accumulator_root):
        with pytest.raises(ValueError):
            simulate(accumulator_root, Strategy("linear", 0, 0), 1)

    @pytest.mark.parametrize("n", [MAX_FIXATIONS + 1, 10**15])
    def test_fixations_above_the_limit(self, accumulator_root, n):
        with pytest.raises(ValueError, match=f"at most {MAX_FIXATIONS}"):
            simulate(accumulator_root, Strategy("linear", 0, 0), n)

    def test_needs_two_leaves(self):
        with pytest.raises(ValueError):
            simulate(parse("class A { }"), Strategy("linear", 0, 0), 5)

    def test_an_empty_id_is_refused_not_replaced(self, accumulator_root):
        # the default id is used only when none is given
        with pytest.raises(TypeError, match="^recording_id must be a nonempty string$"):
            simulate(accumulator_root, Strategy("linear"), 4, recording_id="")
        assert simulate(accumulator_root, Strategy("linear"), 4).recording_id == "sim_linear_0"

    @pytest.mark.parametrize("field", ["jitter_cols", "seed"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_jitter_and_seed_must_be_integers(self, field, value):
        # a jitter of 1.5 once gave a grid recording with cols such as 10.5,
        # which write_fixations wrote and read_fixations then refused
        message = f"^{field} must be an integer, not {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            Strategy("linear", **{field: value})


class TestAgainstOracle:
    """``simulate`` writes columns; the oracle builds one ``Fixation`` per
    fixation and transposes them through ``Recording``."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("jitter", [0, 1, 2, 3])
    def test_same_recording_and_csv_as_the_oracle(self, sample_roots, tmp_path, name, jitter):
        for program, root in sample_roots.items():
            for seed in (0, 1, 17, 2**64 - 1):
                for n in (2, 3, 40, 41, 301):
                    strategy = Strategy(name, jitter, seed)
                    for recording_id in (None, program):
                        got = simulate(root, strategy, n, recording_id)
                        want = oracle_simulate(root, strategy, n, recording_id)
                        assert (got.recording_id, got.mode, got.columns) == (
                            want.recording_id, want.mode, want.columns)
                    write_fixations(got, tmp_path / "got.csv")
                    write_fixations(want, tmp_path / "want.csv")
                    assert (tmp_path / "got.csv").read_bytes() == (
                        tmp_path / "want.csv").read_bytes()
