import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec import gaze
from eye2vec.errors import FormatError, OutOfViewport
from eye2vec.gaze import (
    GRID_HEADER,
    PIXEL_HEADER,
    Fixation,
    FontGrid,
    GridPos,
    PixelPos,
    Recording,
    convert_recording,
    read_fixations,
    read_labels,
    to_grid,
    write_fixations,
)
from oracles import oracle_read_fixations


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadFixations:
    def test_header_only(self, tmp_path):
        path = write(tmp_path, "rec1.csv", "timestamp_ms,line,col,duration_ms\n")
        recording = read_fixations(path, mode="grid")
        assert recording.recording_id == "rec1"
        assert recording.fixations == []

    def test_grid_row(self, tmp_path):
        path = write(tmp_path, "r.csv", "timestamp_ms,line,col,duration_ms\n1000,3,7,220\n")
        (fixation,) = read_fixations(path, mode="grid").fixations
        assert fixation == Fixation(1000, 220, GridPos(3, 7))

    def test_pixel_rows(self, tmp_path):
        path = write(
            tmp_path, "p.csv",
            "timestamp_ms,x_px,y_px,duration_ms\n0,10.5,20.25,100\n50,11.0,21.0,120\n",
        )
        fixations = read_fixations(path, mode="pixel").fixations
        assert fixations[0].position == PixelPos(10.5, 20.25)
        assert fixations[1].timestamp_ms == 50

    def test_decreasing_timestamp_reports_row(self, tmp_path):
        path = write(
            tmp_path, "bad.csv",
            "timestamp_ms,x_px,y_px,duration_ms\n500,1,1,10\n400,1,1,10\n",
        )
        with pytest.raises(FormatError) as exc:
            read_fixations(path, mode="pixel")
        assert exc.value.row == 3

    def test_equal_timestamps_allowed(self, tmp_path):
        path = write(
            tmp_path, "eq.csv",
            "timestamp_ms,line,col,duration_ms\n100,1,1,10\n100,1,2,10\n",
        )
        assert len(read_fixations(path, mode="grid").fixations) == 2

    @pytest.mark.parametrize(
        "body,row",
        [
            ("abc,1,1,10\n", 2),                  # non-numeric
            ("-5,1,1,10\n", 2),                   # negative timestamp
            ("0,0,1,10\n", 2),                    # grid line below 1
            ("0,1,0,10\n", 2),                    # grid col below 1
            ("0,1,1,0\n", 2),                     # non-positive duration
            ("0,1,1,10,extra\n", 2),              # wrong field count
            ("0,1,1,10\n1,2.5,1,10\n", 3),        # non-integer grid field
        ],
    )
    def test_malformed_grid_rows(self, tmp_path, body, row):
        path = write(tmp_path, "bad.csv", "timestamp_ms,line,col,duration_ms\n" + body)
        with pytest.raises(FormatError) as exc:
            read_fixations(path, mode="grid")
        assert exc.value.row == row

    def test_wrong_header_rejected(self, tmp_path):
        path = write(tmp_path, "w.csv", "timestamp_ms,line,col,duration_ms\n")
        with pytest.raises(FormatError) as exc:
            read_fixations(path, mode="pixel")
        assert exc.value.row == 1

    def test_negative_pixel_rejected(self, tmp_path):
        path = write(tmp_path, "n.csv", "timestamp_ms,x_px,y_px,duration_ms\n0,-1,5,10\n")
        with pytest.raises(FormatError):
            read_fixations(path, mode="pixel")

    def test_bad_mode_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "timestamp_ms,line,col,duration_ms\n")
        with pytest.raises(ValueError):
            read_fixations(path, mode="screen")


class TestToGrid:
    def test_origin_zero(self):
        fixation = Fixation(0, 100, PixelPos(25, 45))
        grid = FontGrid(0, 0, 10, 20)
        assert to_grid(fixation, grid).position == GridPos(3, 3)

    def test_offset_origin(self):
        fixation = Fixation(0, 100, PixelPos(148, 98))
        grid = FontGrid(100, 50, 8, 16)
        assert to_grid(fixation, grid).position == GridPos(4, 7)

    def test_out_of_viewport(self):
        with pytest.raises(OutOfViewport):
            to_grid(Fixation(0, 100, PixelPos(99, 60)), FontGrid(100, 50, 8, 16))

    def test_grid_fixation_rejected_at_type_level(self):
        with pytest.raises(TypeError):
            to_grid(Fixation(0, 100, GridPos(1, 1)), FontGrid(0, 0, 10, 10))

    def test_timestamp_and_duration_preserved(self):
        converted = to_grid(Fixation(123, 456, PixelPos(5, 5)), FontGrid(0, 0, 10, 10))
        assert (converted.timestamp_ms, converted.duration_ms) == (123, 456)

    def test_invalid_font_grid(self):
        with pytest.raises(ValueError):
            FontGrid(0, 0, 0, 10)
        with pytest.raises(ValueError):
            FontGrid(0, 0, 10, -1)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_font_grid_rejected(self, field, value):
        fields = [0.0, 0.0, 10.0, 20.0]
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            FontGrid(*fields)

    @pytest.mark.parametrize("pixel,grid", [
        (PixelPos(1.7e308, 5), FontGrid(0, 0, 0.5, 20)),
        (PixelPos(5, 1.7e308), FontGrid(0, 0, 10, 0.5)),
        (PixelPos(25, 45), FontGrid(0, 0, 1e-310, 20)),
        (PixelPos(1.7e308, 5), FontGrid(-1.7e308, 0, 10, 20)),
    ])
    def test_cell_beyond_any_integer_is_out_of_viewport(self, pixel, grid):
        with pytest.raises(OutOfViewport, match="too far"):
            to_grid(Fixation(0, 100, pixel), grid)

    def test_viewport_partition(self):
        # every pixel in a cell maps to that cell; boundaries go to the next
        grid = FontGrid(0, 0, 10, 20)
        assert to_grid(Fixation(0, 1, PixelPos(9.999, 19.999)), grid).position == GridPos(1, 1)
        assert to_grid(Fixation(0, 1, PixelPos(10.0, 20.0)), grid).position == GridPos(2, 2)


@settings(max_examples=200, deadline=None)
@given(
    origin_x=st.floats(0, 2000, allow_nan=False),
    origin_y=st.floats(0, 2000, allow_nan=False),
    char_width=st.floats(0.5, 40, allow_nan=False),
    line_height=st.floats(0.5, 60, allow_nan=False),
    line=st.integers(1, 2000),
    col=st.integers(1, 2000),
)
def test_cell_center_round_trip(origin_x, origin_y, char_width, line_height, line, col):
    grid = FontGrid(origin_x, origin_y, char_width, line_height)
    center = PixelPos(origin_x + (col - 0.5) * char_width, origin_y + (line - 0.5) * line_height)
    converted = to_grid(Fixation(0, 1, center), grid)
    assert converted.position == GridPos(line, col)


class TestWriteFixations:
    def test_grid_round_trip(self, tmp_path):
        recording = Recording("r", [Fixation(0, 10, GridPos(1, 2)), Fixation(5, 10, GridPos(3, 4))])
        path = tmp_path / "r.csv"
        write_fixations(recording, path)
        back = read_fixations(path, mode="grid")
        assert back.fixations == recording.fixations

    def test_pixel_round_trip_exact_floats(self, tmp_path):
        values = [0.1 + 0.2, 1 / 3, 123456.789, 2.0**-30]
        recording = Recording(
            "p", [Fixation(i, 10, PixelPos(v, v * 2)) for i, v in enumerate(values)]
        )
        path = tmp_path / "p.csv"
        write_fixations(recording, path)
        back = read_fixations(path, mode="pixel")
        for original, reread in zip(recording.fixations, back.fixations):
            assert reread.position.x_px == original.position.x_px
            assert reread.position.y_px == original.position.y_px

    def test_canonical_form_is_fixpoint(self, tmp_path):
        recording = Recording("c", [Fixation(0, 10, PixelPos(0.30000000000000004, 7.25))])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_fixations(recording, first)
        write_fixations(read_fixations(first, mode="pixel"), second)
        assert first.read_bytes() == second.read_bytes()


class TestConvertRecording:
    def test_all_fixations_converted(self):
        recording = Recording("r", [Fixation(0, 1, PixelPos(5, 5)), Fixation(1, 1, PixelPos(15, 25))])
        converted = convert_recording(recording, FontGrid(0, 0, 10, 20))
        assert [f.position for f in converted.fixations] == [GridPos(1, 1), GridPos(2, 2)]
        assert converted.recording_id == "r"


# The line breaks str.splitlines() knows besides \n and \r, each inside an id
# and a label with \n row ends, and a CRLF file.
_LINE_ENDS = [(brk, "\n") for brk in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"] + [("", "\r\n")]


class TestReadLabels:
    @pytest.mark.parametrize("brk,end", _LINE_ENDS)
    def test_rows_end_at_newline_only(self, tmp_path, brk, end):
        rows = [f"rec{brk}a\tex{brk}pert", "rec_b\tnovice"]
        path = tmp_path / "labels.tsv"
        path.write_bytes(end.join([*rows, ""]).encode("utf-8"))
        assert read_labels(path) == {f"rec{brk}a": f"ex{brk}pert", "rec_b": "novice"}
        path.write_bytes(end.join([*rows, f"ice{brk}x", ""]).encode("utf-8"))
        with pytest.raises(FormatError) as exc:
            read_labels(path)
        assert (exc.value.row, exc.value.message) == (
            3, f"expected 'recording_id<TAB>label', got {f'ice{brk}x'!r}")

    def test_reads_pairs(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "rec_a\texpert\nrec_b\tnovice\n")
        assert read_labels(path) == {"rec_a": "expert", "rec_b": "novice"}

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "rec_a\tx\nrec_a\ty\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "only_one_column\n")
        with pytest.raises(FormatError):
            read_labels(path)


def test_recording_requires_id():
    with pytest.raises(ValueError):
        Recording("")


class TestRecordingColumns:
    def test_fixation_list_becomes_columns(self):
        fixations = [Fixation(0, 10, GridPos(1, 2)), Fixation(5, 20, GridPos(3, 4))]
        recording = Recording("r", fixations)
        assert recording.mode == "grid"
        assert recording.columns == ((0, 5), (1, 3), (2, 4), (10, 20))
        assert recording.fixations == fixations

    def test_fixations_is_a_new_list_each_time(self):
        recording = Recording("r", [Fixation(0, 10, PixelPos(1.5, 2.5))])
        assert recording.mode == "pixel"
        recording.fixations.clear()
        assert recording.fixations == [Fixation(0, 10, PixelPos(1.5, 2.5))]

    def test_mixed_list_refused(self):
        fixations = [Fixation(0, 1, GridPos(1, 1)), Fixation(1, 1, PixelPos(1, 1))]
        with pytest.raises(ValueError, match="^recording mixes pixel and grid fixations$"):
            Recording("m", fixations)

    def test_equality_compares_id_and_fixations(self, tmp_path):
        path = write(tmp_path, "r.csv", "timestamp_ms,line,col,duration_ms\n0,1,2,10\n")
        assert read_fixations(path, "grid") == Recording("r", [Fixation(0, 10, GridPos(1, 2))])
        assert read_fixations(path, "grid") != Recording("s", [Fixation(0, 10, GridPos(1, 2))])

    def test_empty_pixel_recording_writes_pixel_header(self, tmp_path):
        path = write(tmp_path, "e.csv", "timestamp_ms,x_px,y_px,duration_ms\n")
        write_fixations(read_fixations(path, "pixel"), tmp_path / "back.csv")
        assert (tmp_path / "back.csv").read_text(encoding="utf-8") == path.read_text()
        assert Recording("e").mode == "grid"


# Fields that int() or float() read in ways a numeric parser may not (digit
# separators, padding, other scripts' digits), and fields both must reject.
_ODD_FIELDS = ["1_0", " 12", "12 ", "+7", "-0", "0", "-1", "2.5", "1e3", "inf", "-inf", "nan",
               "1e400", "-1e400", "10**30", str(10**30), "", "x", "١٢", "9" * 5000]


@st.composite
def _body(draw, mode):
    """Rows of a fixation CSV body: mostly good, some with an odd field, a
    wrong field count or a timestamp below the one before."""
    rows = []
    timestamp = draw(st.integers(-1, 5))
    for _ in range(draw(st.integers(0, 6))):
        timestamp += draw(st.integers(-2, 400))
        if mode == "pixel":
            position = [repr(draw(st.floats(-1, 1e308) | st.floats(0, 3000))) for _ in "xy"]
        else:
            position = [str(draw(st.integers(0, 200))) for _ in "lc"]
        row = [str(timestamp), *position, str(draw(st.integers(0, 400)))]
        fault = draw(st.integers(0, 11))
        if fault == 0:
            row[draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD_FIELDS))
        elif fault == 1:
            row = draw(st.sampled_from([row[:3], row + ["1"]]))
        rows.append(",".join(row))
    return rows


def _outcome(reader, path, mode):
    try:
        recording = reader(path, mode)
    except FormatError as exc:
        return "error", exc.row, exc.message
    return "ok", recording.recording_id, recording.fixations


class TestReadAgainstRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(["pixel", "grid"]).flatmap(
        lambda mode: st.tuples(st.just(mode), _body(mode))))
    @example(case=("pixel", []))
    @example(case=("grid", []))
    def test_same_fixations_or_same_error(self, tmp_path_factory, case):
        mode, body = case
        header = PIXEL_HEADER if mode == "pixel" else GRID_HEADER
        text = "\n".join([",".join(header), *body]) + "\n"
        path = tmp_path_factory.mktemp("csv") / "rec.csv"
        path.write_text(text, encoding="utf-8")
        want = _outcome(oracle_read_fixations, path, mode)
        assert _outcome(read_fixations, path, mode) == want
        # the column checks pass exactly the files the row loop accepts
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert (gaze._parse_columns(rows, mode) is not None) == (want[0] == "ok")
        if want[0] == "ok":
            assert read_fixations(path, mode).mode == mode

    @pytest.mark.parametrize("mode,body,row", [
        ("pixel", ["0,1_0, 12,10", "5,inf,1,10"], 3),
        ("pixel", ["0,1,1,10", "5,1,nan,10"], 3),
        ("pixel", ["0,1,1,10", "5,1e400,1,10"], 3),
        ("pixel", ["0,1,1,10", "5,1,-0.5,10"], 3),
        ("grid", ["0,1,1,10", "5,10**30,1,10"], 3),
        ("grid", ["0,1,1,10", "5,1,1,10", "4,1,1,10"], 4),
        ("grid", ["0,1,1,10", "5,1,1", "x,1,1,10"], 3),
        ("grid", ["0,1,1,10", "5,1,1,-3"], 3),
    ])
    def test_first_bad_row_reported(self, tmp_path, mode, body, row):
        header = PIXEL_HEADER if mode == "pixel" else GRID_HEADER
        path = write(tmp_path, "bad.csv", "\n".join([",".join(header), *body]) + "\n")
        with pytest.raises(FormatError) as exc:
            read_fixations(path, mode)
        assert exc.value.row == row
        assert _outcome(read_fixations, path, mode) == _outcome(oracle_read_fixations, path, mode)

    def test_python_number_syntax_accepted_as_by_the_row_loop(self, tmp_path):
        path = write(tmp_path, "odd.csv", "timestamp_ms,line,col,duration_ms\n1_0, 12,١٢,+7\n")
        (fixation,) = read_fixations(path, "grid").fixations
        assert fixation == Fixation(10, 7, GridPos(12, 12))


def _per_row(recording, grid):
    try:
        return "ok", [to_grid(f, grid) for f in recording.fixations]
    except OutOfViewport as exc:
        return "error", str(exc)


def _converted(recording, grid):
    try:
        converted = convert_recording(recording, grid)
    except OutOfViewport as exc:
        return "error", str(exc)
    assert converted.mode == "grid"
    assert all(type(v) is int for column in converted.columns for v in column)
    return "ok", converted.fixations


_PIXEL = (st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(0, 3000) | st.integers(0, 2**60))


class TestConvertAgainstToGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        pixels=st.lists(st.tuples(_PIXEL, _PIXEL), max_size=6),
        origin=st.tuples(st.floats(-1e308, 1e308) | st.floats(0, 500), st.floats(0, 500)),
        cell=st.tuples(st.floats(1e-310, 1e308) | st.floats(0.5, 40), st.floats(0.5, 60)),
    )
    @example(pixels=[(5.0, 5.0), (-1.0, 5.0), (3.0, -7.0)], origin=(0.0, 0.0), cell=(10.0, 20.0))
    @example(pixels=[(5.0, 5.0), (1.7e308, 5.0)], origin=(0.0, 0.0), cell=(0.5, 20.0))
    @example(pixels=[(5.0, 5.0), (1.7e308, 5.0)], origin=(-1.7e308, 0.0), cell=(10.0, 20.0))
    @example(pixels=[(5.0, 1e300)], origin=(0.0, 0.0), cell=(10.0, 1e-10))
    @example(pixels=[(2.0**53 - 1, 2.0**53), (2.0**60, 3.0)], origin=(0.0, 0.0), cell=(1.0, 1.0))
    @example(pixels=[(3.0, 2.0**53)], origin=(0.0, 0.0), cell=(1.0, 1.0))
    @example(pixels=[(2.0**63, 2.0**64)], origin=(0.0, 0.0), cell=(1.0, 1.0))
    @example(pixels=[(2**53 + 1, 1.0)], origin=(2, 0), cell=(1, 1))
    @example(pixels=[(1.0, 2**53 + 1)], origin=(0, 2), cell=(1, 1))
    @example(pixels=[(2.0**53, 1.0)], origin=(2**53 + 1, 0), cell=(1, 1))
    @example(pixels=[(-0.0, 5.0)], origin=(0.0, 0.0), cell=(10.0, 20.0))
    def test_same_cells_or_same_error(self, pixels, origin, cell):
        grid = FontGrid(*origin, *cell)
        recording = Recording("r", [Fixation(i, 1, PixelPos(*xy)) for i, xy in enumerate(pixels)])
        assert _converted(recording, grid) == _per_row(recording, grid)

    def test_grid_recording_raises_as_to_grid_does(self, tmp_path):
        grid = FontGrid(10, 10, 10, 20)
        empty_pixel = read_fixations(write(tmp_path, "p.csv", ",".join(PIXEL_HEADER) + "\n"),
                                     "pixel")
        for empty in (Recording("e"), empty_pixel):
            converted = convert_recording(empty, grid)
            assert (converted.mode, converted.fixations) == ("grid", [])
        grid_fixation = Fixation(0, 1, GridPos(1, 1))
        with pytest.raises(TypeError, match="^fixation is already in grid mode$"):
            to_grid(grid_fixation, grid)
        with pytest.raises(TypeError, match="^fixation is already in grid mode$"):
            convert_recording(Recording("g", [grid_fixation]), grid)
