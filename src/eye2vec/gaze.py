"""Fixation logs: CSV ingest and pixel-to-grid coordinate conversion.

Two CSV layouts are accepted, distinguished by their mandatory headers:

    pixel mode: timestamp_ms,x_px,y_px,duration_ms
    grid mode:  timestamp_ms,line,col,duration_ms

Neither format carries any personal identifier; a recording is just an id
(derived from the file name) plus fixations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, OutOfViewport

PIXEL_HEADER = ["timestamp_ms", "x_px", "y_px", "duration_ms"]
GRID_HEADER = ["timestamp_ms", "line", "col", "duration_ms"]


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

    @property
    def is_grid(self) -> bool:
        return isinstance(self.position, GridPos)


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


@dataclass
class Recording:
    recording_id: str
    fixations: list[Fixation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.recording_id:
            raise ValueError("recording_id must be nonempty")


def to_grid(fixation: Fixation, grid: FontGrid) -> Fixation:
    """Convert a pixel fixation to a line/column fixation on ``grid``; a pixel
    left of, above or too far from the origin raises ``OutOfViewport``."""
    pos = fixation.position
    if not isinstance(pos, PixelPos):
        raise TypeError("fixation is already in grid mode")
    if pos.x_px < grid.origin_x_px or pos.y_px < grid.origin_y_px:
        raise OutOfViewport(
            f"pixel ({pos.x_px}, {pos.y_px}) lies outside the pane origin "
            f"({grid.origin_x_px}, {grid.origin_y_px})"
        )
    try:
        line = math.floor((pos.y_px - grid.origin_y_px) / grid.line_height_px) + 1
        col = math.floor((pos.x_px - grid.origin_x_px) / grid.char_width_px) + 1
    except OverflowError:  # an offset or quotient beyond the largest double
        raise OutOfViewport(
            f"pixel ({pos.x_px}, {pos.y_px}) lies too far from the pane origin "
            f"({grid.origin_x_px}, {grid.origin_y_px}) for a line and column"
        ) from None
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
    fixations: list[Fixation] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise FormatError(reader.line_num, f"bad CSV: {exc}") from None
    if not rows or rows[0] != expected_header:
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise FormatError(1, f"expected header {','.join(expected_header)!r}, got {found!r}")
    last_timestamp: int | None = None
    for row_no, row in enumerate(rows[1:], start=2):
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
            x = _parse_float(row[1], row_no, "x_px")
            y = _parse_float(row[2], row_no, "y_px")
            if x < 0 or y < 0:
                raise FormatError(row_no, "pixel coordinates must be non-negative")
            position: PixelPos | GridPos = PixelPos(x, y)
        else:
            line = _parse_int(row[1], row_no, "line")
            col = _parse_int(row[2], row_no, "col")
            if line < 1 or col < 1:
                raise FormatError(row_no, "line and col are 1-based and must be >= 1")
            position = GridPos(line, col)
        fixations.append(Fixation(timestamp, duration, position))
    return Recording(recording_id=path.stem, fixations=fixations)


def _format_pixel(value: float) -> str:
    # repr() is the shortest decimal that round-trips the double exactly.
    return repr(float(value))


def format_fixations(recording: Recording) -> str:
    """CSV text of a recording; the mode follows the fixation positions."""
    grid_mode = all(f.is_grid for f in recording.fixations)
    pixel_mode = all(not f.is_grid for f in recording.fixations)
    if recording.fixations and not (grid_mode or pixel_mode):
        raise ValueError("recording mixes pixel and grid fixations")
    header = GRID_HEADER if grid_mode else PIXEL_HEADER
    lines = [",".join(header)]
    for f in recording.fixations:
        if isinstance(f.position, GridPos):
            lines.append(f"{f.timestamp_ms},{f.position.line},{f.position.col},{f.duration_ms}")
        else:
            lines.append(
                f"{f.timestamp_ms},{_format_pixel(f.position.x_px)},"
                f"{_format_pixel(f.position.y_px)},{f.duration_ms}"
            )
    return "\n".join(lines) + "\n"


def write_fixations(recording: Recording, path: str | Path) -> None:
    """Write a recording back to CSV; the mode follows the fixation positions."""
    Path(path).write_text(format_fixations(recording), encoding="utf-8")


def convert_recording(recording: Recording, grid: FontGrid) -> Recording:
    """Apply ``to_grid`` to every fixation of a pixel-mode recording."""
    converted = [to_grid(f, grid) for f in recording.fixations]
    return Recording(recording.recording_id, converted)


def read_labels(path: str | Path) -> dict[str, str]:
    """Read a two-column ``recording_id<TAB>label`` TSV."""
    labels: dict[str, str] = {}
    for row_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(row_no, f"expected 'recording_id<TAB>label', got {line!r}")
        if parts[0] in labels:
            raise FormatError(row_no, f"duplicate recording_id {parts[0]!r}")
        labels[parts[0]] = parts[1]
    return labels
