"""Exception types shared across the eye2vec pipeline, and the one reader
of input files, which bounds their size."""

from __future__ import annotations

import os
import stat

# The most bytes any input file may hold: a source text, fixation CSV,
# embedding table, labels TSV or eye-vector JSON. A regular file is refused
# from its size before it is read; any other file, such as a pipe or a
# device, is read no further than this.
MAX_INPUT_BYTES = 256 * 2**20


class Eye2vecError(Exception):
    """Base class for all errors raised by this package."""


class LexError(Eye2vecError):
    """Unrecognized character, bad literal, or unterminated string/comment."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ParseError(Eye2vecError):
    """Token stream violates the grammar.

    ``line``/``col`` point just past the last successfully consumed token,
    i.e. where the expected construct should begin.
    """

    def __init__(self, line: int, col: int, expected: str, found: str):
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found


class FormatError(Eye2vecError):
    """Malformed input file (fixation CSV, embedding TSV, vector JSON, labels TSV)."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row
        self.message = message


class OutOfViewport(Eye2vecError):
    """Pixel fixation lies above or left of the code pane origin, or too far from it."""


class NotALeaf(Eye2vecError):
    """A path endpoint is not a leaf of the given tree."""


class SameLeaf(Eye2vecError):
    """Both path endpoints are the same leaf."""


class DegenerateVector(Eye2vecError):
    """Fallback embedding generation produced an all-zero vector."""


class EmptyProfileError(Eye2vecError):
    """Transition profile holds no transitions, so no vector can be built."""


class ZeroVectorError(Eye2vecError):
    """A zero vector where a direction is required (cosine, normalization)."""


class DimMismatch(Eye2vecError):
    """Vectors of different dimensions were combined."""


class InvalidK(Eye2vecError):
    """Cluster count outside 1..n."""


class EmptyClass(Eye2vecError):
    """A label with no training vectors."""


class InsufficientData(Eye2vecError):
    """Not enough items per label for the requested evaluation."""


class NoIdentifiers(Eye2vecError):
    """Program has no declared identifier with a later occurrence."""


def _read_input(path: str | os.PathLike, newline: str | None = None) -> str:
    """The UTF-8 text of the file at ``path``, read once and decoded as
    ``open(path, newline=newline)`` would: with ``None``, ``\r\n`` and ``\r``
    become ``\n``; with ``""`` the text is left as it is.

    Raises ``FormatError`` for a file of more than ``MAX_INPUT_BYTES``.
    """
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            data = handle.read(MAX_INPUT_BYTES + 1)
        elif info.st_size <= MAX_INPUT_BYTES:
            data = handle.read()  # sized from the file: no limit-sized buffer
        else:
            data = None
    if data is None or len(data) > MAX_INPUT_BYTES:
        raise FormatError(1, f"{os.fspath(path)!r} holds more than {MAX_INPUT_BYTES} bytes")
    text = data.decode("utf-8")
    if newline is None and "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text
