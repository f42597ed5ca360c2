"""Fixation logs: CSV ingest and pixel-to-grid coordinate conversion.

Two CSV layouts are accepted, distinguished by their mandatory headers:

    pixel mode: timestamp_ms,x_px,y_px,duration_ms
    grid mode:  timestamp_ms,line,col,duration_ms

Neither format carries any personal identifier; a recording is just an id
(derived from the file name) plus fixations.

A recording is in one mode, pixel or grid, and holds its fixations as the
four columns of its CSV; ``Recording.fixations`` builds ``Fixation``
objects only when asked. One table, ``_MODES``, gives each mode's header,
the type of its two position fields and its position class, and every
reader and writer of a mode looks there. A recording's id must be a
nonempty string (``TypeError`` otherwise), checked where the recording is
made: every recording is made through one initialiser, which checks it.
``read_fixations`` checks the header first, then converts and checks whole
columns, and that one rule set also names the first bad row: over bad
input, halving the body finds it. It reads the file on every call but
parses a text only once per mode: a memo (``errors._Memo``) keyed by the
mode and the text's SHA-256 digest keeps the columns of good texts, each
charged its length against a budget of 2 Mi characters, and each call wraps
them in a new ``Recording`` named after its file.
``convert_recording`` turns the x and y columns into line and col columns
with ``to_grid``'s own arithmetic, building no objects.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, OutOfViewport, _Memo, _check_recording_id, _read_input

PIXEL_HEADER = ["timestamp_ms", "x_px", "y_px", "duration_ms"]
GRID_HEADER = ["timestamp_ms", "line", "col", "duration_ms"]
_ALREADY_GRID = "fixation is already in grid mode"
_FIXATION_MEMO_CHARS = 2**21  # the column memo's budget, charged by text length
_column_memo = _Memo(_FIXATION_MEMO_CHARS)  # (mode, SHA-256 of a text) -> its columns


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


# mode -> (CSV header, type of its two position fields, position class); the
# two position fields are named as in the header. Grid comes first: an empty
# fixation list is a grid recording.
_MODES = {"grid": (GRID_HEADER, int, GridPos), "pixel": (PIXEL_HEADER, float, PixelPos)}


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
    grid positions raises ``ValueError``. ``recording_id`` must be a nonempty
    string, else ``TypeError``: every recording is made through ``_init``,
    which checks it. ``fixations`` builds a new list of ``Fixation`` on each
    access.
    """

    def __init__(self, recording_id: str, fixations: Iterable[Fixation] = ()) -> None:
        fixations = list(fixations)
        for mode, (header, _, position) in _MODES.items():
            if all(isinstance(f.position, position) for f in fixations):
                break
        else:
            raise ValueError("recording mixes pixel and grid fixations")
        t, a, b, d = header
        read = operator.attrgetter(t, f"position.{a}", f"position.{b}", d)
        self._init(recording_id, mode, tuple(zip(*map(read, fixations))) or ((),) * 4)

    def _init(self, recording_id: str, mode: str, columns: _Columns) -> None:
        _check_recording_id(recording_id)
        self.recording_id, self.mode, self.columns = recording_id, mode, columns

    @classmethod
    def _from_columns(cls, recording_id: str, mode: str, columns: _Columns) -> "Recording":
        recording = cls.__new__(cls)
        recording._init(recording_id, mode, columns)
        return recording

    @property
    def fixations(self) -> list[Fixation]:
        position = _MODES[self.mode][2]
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


def _convert(fields: tuple[str, ...], number: type, name: str) -> tuple | str:
    """``fields`` through ``number``, or what is wrong with the last field."""
    try:
        values = tuple(map(number, fields))
    except ValueError:
        kind = "an integer" if number is int else "a number"
        return f"field {name!r} must be {kind}, got {fields[-1]!r}"
    if number is float and not all(map(math.isfinite, values)):
        return f"field {name!r} must be finite, got {fields[-1]!r}"
    return values


def _parse_columns(body: list[list[str]], mode: str) -> _Columns | str:
    """The columns of ``body``, or what is wrong with its last row: each check
    covers a whole column, in the order one row's fields are checked, so the
    message is right whenever every row before the last is good."""
    if not body:
        return (), (), (), ()
    if set(map(len, body)) != {4}:
        return f"expected 4 fields, got {len(body[-1])}"
    names, number, _ = _MODES[mode]
    text = list(zip(*body))
    timestamps = _convert(text[0], int, names[0])
    durations = _convert(text[3], int, names[3])
    for column in (timestamps, durations):
        if isinstance(column, str):
            return column
    if min(timestamps) < 0:
        return "timestamp_ms must be non-negative"
    if min(durations) <= 0:
        return "duration_ms must be positive"
    if not all(map(operator.le, timestamps, timestamps[1:])):
        return f"timestamp {timestamps[-1]} decreases below {timestamps[-2]}"
    first, second = _convert(text[1], number, names[1]), _convert(text[2], number, names[2])
    for column in (first, second):
        if isinstance(column, str):
            return column
    if mode == "pixel":
        if min(first) < 0 or min(second) < 0:
            return "pixel coordinates must be non-negative"
    elif min(first) < 1 or min(second) < 1:
        return "line and col are 1-based and must be >= 1"
    return timestamps, first, second, durations


def _first_bad_row(body: list[list[str]], mode: str) -> FormatError:
    """The error for the first bad row of a body ``_parse_columns`` refused,
    found by halving ``lo:hi``, the rows in doubt: the left half is checked
    with the good row before it, so timestamp order is checked across the
    cut, and the message comes from the bad row and the row before it."""
    lo, hi = 0, len(body)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_parse_columns(body[max(lo - 1, 0):mid], mode), str):
            hi = mid
        else:
            lo = mid
    return FormatError(lo + 2, _parse_columns(body[max(lo - 1, 0):lo + 1], mode))


def _read_columns(text: str, mode: str) -> _Columns:
    """The columns of the fixation CSV ``text`` in ``mode``; the header is
    checked before any row of the body is read."""
    expected_header = _MODES[mode][0]
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header != expected_header:
            found = "<empty file>" if header is None else ",".join(header)
            raise FormatError(1, f"expected header {','.join(expected_header)!r}, got {found!r}")
        body = list(reader)
    except csv.Error as exc:
        raise FormatError(reader.line_num, f"bad CSV: {exc}") from None
    columns = _parse_columns(body, mode)
    if isinstance(columns, str):
        raise _first_bad_row(body, mode)
    return columns


def read_fixations(path: str | Path, mode: str) -> Recording:
    """Load a fixation CSV; ``mode`` is ``"pixel"`` or ``"grid"``.

    Raises FormatError (with the 1-based physical row) on a wrong header,
    a row the CSV reader rejects (such as an oversized field), non-numeric
    field, negative value, or decreasing timestamp. The header is checked
    first, so a wrong header is reported before any fault in the body. The
    body is checked a whole column at a time; only if it is refused are
    halves of it checked with the same rules, to name the first bad row and
    what is wrong with it.

    The file is read on every call, so a changed file is never served
    stale. Its text is then parsed through a module-level memo keyed by
    ``(mode, SHA-256 of the text)`` (``errors._Memo.parsed``), which holds
    the four immutable column tuples, never the text or a ``Recording``:
    each call returns a new ``Recording`` named after its own file, so two
    files with the same text keep their own ids. Each entry is charged its
    text's length against a budget of ``_FIXATION_MEMO_CHARS``
    (2 Mi characters). An entry holds at most about 11.4 bytes a character
    (pixel rows such as ``257,0,0,257``), so the memo at most about 24 MB.
    Only repeated reads in one process gain; a one-shot read costs one
    digest more.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be 'pixel' or 'grid', got {mode!r}")
    path = Path(path)
    columns = _column_memo.parsed(_read_input(path, newline=""), _read_columns, mode)
    return Recording._from_columns(path.stem, mode, columns)


def _format_pixel(value: float) -> str:
    # repr() is the shortest decimal that round-trips the double exactly.
    return repr(float(value))


def format_fixations(recording: Recording) -> str:
    """CSV text of a recording in its mode."""
    header, number, _ = _MODES[recording.mode]
    cell = _format_pixel if number is float else str
    rows = [f"{t},{cell(a)},{cell(b)},{d}" for t, a, b, d in zip(*recording.columns)]
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
    """Read a two-column ``recording_id<TAB>label`` TSV; a row ends at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, as ``open()`` reads text, and
    an id or label may hold any other line break."""
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
