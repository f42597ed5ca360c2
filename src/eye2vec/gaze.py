"""Fixation logs: CSV ingest and pixel-to-grid coordinate conversion.

Two CSV layouts are accepted, distinguished by their mandatory headers:

    pixel mode: timestamp_ms,x_px,y_px,duration_ms
    grid mode:  timestamp_ms,line,col,duration_ms

Neither format carries any personal identifier; a recording is just an id
(derived from the file name) plus fixations.

A recording is in one mode, pixel or grid, and holds its fixations as the
four columns of its CSV; its shape is checked once, where it is made, and
``Recording.fixations`` builds ``Fixation`` objects only when asked.
``read_fixations`` converts and checks whole columns; only when some row is
bad does it run the row-by-row reader, whose one pass raises the error for
the first bad row. ``convert_recording`` turns the x and y columns into line
and col columns with ``to_grid``'s own arithmetic, building no objects.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, OutOfViewport, _read_input

PIXEL_HEADER = ["timestamp_ms", "x_px", "y_px", "duration_ms"]
GRID_HEADER = ["timestamp_ms", "line", "col", "duration_ms"]
_ALREADY_GRID = "fixation is already in grid mode"


@dataclass(frozen=True)
class PixelPos:
    x_px: float
    y_px: float


@dataclass(frozen=True)
class GridPos:
    line: int
    col: int


@dataclass(frozen=True)
class Fixation:
    timestamp_ms: int
    duration_ms: int
    position: PixelPos | GridPos


@dataclass(frozen=True)
class FontGrid:
    """Monospace character grid calibration for a code pane."""

    origin_x_px: float
    origin_y_px: float
    char_width_px: float
    line_height_px: float

    def __post_init__(self) -> None:
        fields = (self.origin_x_px, self.origin_y_px, self.char_width_px, self.line_height_px)
        if not all(map(math.isfinite, fields)) or min(fields[2:]) <= 0:
            raise ValueError("font grid fields must be finite, and char_width_px and "
                             "line_height_px positive")


_Columns = tuple[tuple, tuple, tuple, tuple]


class Recording:
    """A recording id and its fixations, held as four columns in CSV order.

    ``columns`` is ``(timestamp_ms, x_px, y_px, duration_ms)`` when ``mode``
    is ``"pixel"`` and ``(timestamp_ms, line, col, duration_ms)`` when it is
    ``"grid"``. ``Recording(recording_id, fixations)`` transposes a list of
    fixations; an empty list gives grid mode, and a list that mixes pixel and
    grid positions raises ``ValueError``. ``fixations`` builds a new list of
    ``Fixation`` on each access.
    """

    def __init__(self, recording_id: str, fixations: Iterable[Fixation] = ()) -> None:
        if not recording_id:
            raise ValueError("recording_id must be nonempty")
        self.recording_id = recording_id
        fixations = list(fixations)
        if all(isinstance(f.position, GridPos) for f in fixations):
            self.mode = "grid"
            first = tuple(f.position.line for f in fixations)
            second = tuple(f.position.col for f in fixations)
        elif all(isinstance(f.position, PixelPos) for f in fixations):
            self.mode = "pixel"
            first = tuple(f.position.x_px for f in fixations)
            second = tuple(f.position.y_px for f in fixations)
        else:
            raise ValueError("recording mixes pixel and grid fixations")
        self.columns: _Columns = (
            tuple(f.timestamp_ms for f in fixations), first, second,
            tuple(f.duration_ms for f in fixations))

    @classmethod
    def _from_columns(cls, recording_id: str, mode: str, columns: _Columns) -> "Recording":
        recording = cls(recording_id)
        recording.mode, recording.columns = mode, columns
        return recording

    @property
    def fixations(self) -> list[Fixation]:
        position = GridPos if self.mode == "grid" else PixelPos
        return [Fixation(t, d, position(a, b)) for t, a, b, d in zip(*self.columns)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Recording):
            return NotImplemented
        return (self.recording_id, self.fixations) == (other.recording_id, other.fixations)

    def __repr__(self) -> str:
        return f"Recording({self.recording_id!r}, {self.fixations!r})"


def _cell(x_px: float, y_px: float, grid: FontGrid) -> tuple[int, int]:
    """The 1-based (line, col) of pixel ``(x_px, y_px)`` on ``grid``; a pixel
    left of, above or too far from the origin raises ``OutOfViewport``."""
    if x_px < grid.origin_x_px or y_px < grid.origin_y_px:
        raise OutOfViewport(
            f"pixel ({x_px}, {y_px}) lies outside the pane origin "
            f"({grid.origin_x_px}, {grid.origin_y_px})"
        )
    try:
        line = math.floor((y_px - grid.origin_y_px) / grid.line_height_px) + 1
        col = math.floor((x_px - grid.origin_x_px) / grid.char_width_px) + 1
    except OverflowError:  # an offset or quotient beyond the largest double
        raise OutOfViewport(
            f"pixel ({x_px}, {y_px}) lies too far from the pane origin "
            f"({grid.origin_x_px}, {grid.origin_y_px}) for a line and column"
        ) from None
    return line, col


def to_grid(fixation: Fixation, grid: FontGrid) -> Fixation:
    """Convert a pixel fixation to a line/column fixation on ``grid``; a pixel
    left of, above or too far from the origin raises ``OutOfViewport``."""
    pos = fixation.position
    if not isinstance(pos, PixelPos):
        raise TypeError(_ALREADY_GRID)
    line, col = _cell(pos.x_px, pos.y_px, grid)
    return Fixation(fixation.timestamp_ms, fixation.duration_ms, GridPos(line, col))


def _parse_int(value: str, row: int, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FormatError(row, f"field {name!r} must be an integer, got {value!r}") from None


def _parse_float(value: str, row: int, name: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise FormatError(row, f"field {name!r} must be a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise FormatError(row, f"field {name!r} must be finite, got {value!r}")
    return parsed


def _parse_columns(body: list[list[str]], mode: str) -> _Columns | None:
    """The columns of ``body`` if every row is good, else ``None``.

    Each column goes through the same ``int()`` or ``float()`` as in
    ``_parse_rows``, and each of its checks is made over a whole column.
    """
    if not body:
        return (), (), (), ()
    if set(map(len, body)) != {4}:
        return None
    number = float if mode == "pixel" else int
    text = list(zip(*body))
    try:
        timestamps, durations = tuple(map(int, text[0])), tuple(map(int, text[3]))
        first, second = tuple(map(number, text[1])), tuple(map(number, text[2]))
    except ValueError:
        return None
    if min(timestamps) < 0 or min(durations) <= 0:
        return None
    if not all(map(operator.le, timestamps, timestamps[1:])):
        return None
    if mode == "pixel":
        if not (all(map(math.isfinite, first)) and all(map(math.isfinite, second))):
            return None
        if min(first) < 0 or min(second) < 0:
            return None
    elif min(first) < 1 or min(second) < 1:
        return None
    return timestamps, first, second, durations


def _parse_rows(body: list[list[str]], mode: str) -> _Columns:
    """The columns of ``body`` read row by row: the pass that raises
    FormatError for the first bad row."""
    timestamps: list[int] = []
    firsts: list = []
    seconds: list = []
    durations: list[int] = []
    last_timestamp: int | None = None
    for row_no, row in enumerate(body, start=2):
        if len(row) != 4:
            raise FormatError(row_no, f"expected 4 fields, got {len(row)}")
        timestamp = _parse_int(row[0], row_no, "timestamp_ms")
        duration = _parse_int(row[3], row_no, "duration_ms")
        if timestamp < 0:
            raise FormatError(row_no, "timestamp_ms must be non-negative")
        if duration <= 0:
            raise FormatError(row_no, "duration_ms must be positive")
        if last_timestamp is not None and timestamp < last_timestamp:
            raise FormatError(row_no, f"timestamp {timestamp} decreases below {last_timestamp}")
        last_timestamp = timestamp
        if mode == "pixel":
            first: int | float = _parse_float(row[1], row_no, "x_px")
            second: int | float = _parse_float(row[2], row_no, "y_px")
            if first < 0 or second < 0:
                raise FormatError(row_no, "pixel coordinates must be non-negative")
        else:
            first = _parse_int(row[1], row_no, "line")
            second = _parse_int(row[2], row_no, "col")
            if first < 1 or second < 1:
                raise FormatError(row_no, "line and col are 1-based and must be >= 1")
        timestamps.append(timestamp)
        firsts.append(first)
        seconds.append(second)
        durations.append(duration)
    return tuple(timestamps), tuple(firsts), tuple(seconds), tuple(durations)


def read_fixations(path: str | Path, mode: str) -> Recording:
    """Load a fixation CSV; ``mode`` is ``"pixel"`` or ``"grid"``.

    Raises FormatError (with the 1-based physical row) on a wrong header,
    a row the CSV reader rejects (such as an oversized field), non-numeric
    field, negative value, or decreasing timestamp.
    """
    if mode not in ("pixel", "grid"):
        raise ValueError(f"mode must be 'pixel' or 'grid', got {mode!r}")
    path = Path(path)
    expected_header = PIXEL_HEADER if mode == "pixel" else GRID_HEADER
    reader = csv.reader(io.StringIO(_read_input(path, newline=""), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise FormatError(reader.line_num, f"bad CSV: {exc}") from None
    if not rows or rows[0] != expected_header:
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise FormatError(1, f"expected header {','.join(expected_header)!r}, got {found!r}")
    columns = _parse_columns(rows[1:], mode)
    if columns is None:
        columns = _parse_rows(rows[1:], mode)
    return Recording._from_columns(path.stem, mode, columns)


def _format_pixel(value: float) -> str:
    # repr() is the shortest decimal that round-trips the double exactly.
    return repr(float(value))


def format_fixations(recording: Recording) -> str:
    """CSV text of a recording in its mode."""
    if recording.mode == "grid":
        header = GRID_HEADER
        rows = [f"{t},{line},{col},{d}" for t, line, col, d in zip(*recording.columns)]
    else:
        header = PIXEL_HEADER
        rows = [f"{t},{_format_pixel(x)},{_format_pixel(y)},{d}"
                for t, x, y, d in zip(*recording.columns)]
    return "\n".join([",".join(header), *rows]) + "\n"


def write_fixations(recording: Recording, path: str | Path) -> None:
    """Write a recording back to CSV in its mode."""
    Path(path).write_text(format_fixations(recording), encoding="utf-8")


def convert_recording(recording: Recording, grid: FontGrid) -> Recording:
    """Apply ``to_grid`` to every fixation of a pixel-mode recording.

    The x and y columns are converted cell by cell, so the first bad row
    raises ``OutOfViewport``. A grid recording with rows raises ``to_grid``'s
    ``TypeError``; a recording with no rows, in either mode, gives an empty
    grid recording.
    """
    if recording.mode != "pixel" and recording.columns[0]:
        raise TypeError(_ALREADY_GRID)
    timestamps, xs, ys, durations = recording.columns
    cells = [_cell(x, y, grid) for x, y in zip(xs, ys)]
    lines, cols = tuple(line for line, _ in cells), tuple(col for _, col in cells)
    return Recording._from_columns(
        recording.recording_id, "grid", (timestamps, lines, cols, durations))


def read_labels(path: str | Path) -> dict[str, str]:
    """Read a two-column ``recording_id<TAB>label`` TSV; rows end at ``\\n``
    only, so an id or label may hold any other line break."""
    labels: dict[str, str] = {}
    lines = _read_input(path).split("\n")
    if not lines[-1]:
        lines.pop()  # a final line break ends the last row, it starts none
    for row_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(row_no, f"expected 'recording_id<TAB>label', got {line!r}")
        if parts[0] in labels:
            raise FormatError(row_no, f"duplicate recording_id {parts[0]!r}")
        labels[parts[0]] = parts[1]
    return labels
