import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eye2vec.errors import FormatError, OutOfViewport
from eye2vec.gaze import (
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

    def test_mixed_modes_rejected(self, tmp_path):
        recording = Recording("m", [Fixation(0, 1, GridPos(1, 1)), Fixation(1, 1, PixelPos(1, 1))])
        with pytest.raises(ValueError):
            write_fixations(recording, tmp_path / "m.csv")


class TestConvertRecording:
    def test_all_fixations_converted(self):
        recording = Recording("r", [Fixation(0, 1, PixelPos(5, 5)), Fixation(1, 1, PixelPos(15, 25))])
        converted = convert_recording(recording, FontGrid(0, 0, 10, 20))
        assert [f.position for f in converted.fixations] == [GridPos(1, 1), GridPos(2, 2)]
        assert converted.recording_id == "r"


class TestReadLabels:
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
