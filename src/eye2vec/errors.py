"""Exception types shared across the eye2vec pipeline, the one reader of
input files, which bounds their size, the one check of a recording id, the
one integer rule, and the one bounded memo type that every stop-when-full
memo of the package is made of.

The integer rule: every integer a caller passes (a dimension, a seed, a
count, a tolerance, a cap) is checked once, where it enters, by
``_check_int``. It must be an ``int`` and not a ``bool``, so a float, a
numpy integer or a numeric string raises ``TypeError``, and it must lie in
the parameter's range, else ``ValueError``."""

from __future__ import annotations

import hashlib
import os
import stat
from collections.abc import Callable
from typing import TypeVar

_T = TypeVar("_T")

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


def _check_recording_id(recording_id: object) -> None:
    """Raise ``TypeError`` unless ``recording_id`` is a nonempty ``str``: the
    one rule for the id of a ``Recording``, ``TransitionProfile`` and
    ``EyeVector``, each checked where it is made."""
    if not isinstance(recording_id, str) or not recording_id:
        raise TypeError("recording_id must be a nonempty string")


def _check_int(name: str, value: object, minimum: int | None = None,
               maximum: int | None = None) -> None:
    """Raise ``TypeError(f"{name} must be an integer, not {type}")`` unless
    ``value`` is an ``int`` and not a ``bool``, and ``ValueError`` if it lies
    below ``minimum`` or above ``maximum`` (``None``: no bound)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}")


class _Memo(dict):
    """A memo that stops storing when full: a dict with a ``budget`` and the
    ``charges`` of what it holds.

    ``store(key, value, charge)`` returns ``value`` and keeps it under
    ``key`` only if ``charges + charge <= budget``, so the charges never pass
    the budget; once an entry does not fit, it is computed as on a miss and
    not stored. Callers look up with ``get``, which gives ``None`` on a miss,
    and call ``store`` only then, so no value may be ``None``. Stored values
    are shared by every caller and must not be mutated.

    ``parsed(text, parse, *args)`` returns ``parse(text, *args)``, from the
    memo when the same text was parsed with the same ``args`` before. The
    key is the text's 32-byte SHA-256 digest, or ``(*args, digest)`` when
    ``args`` are given, so the memo never holds the text itself, and the
    charge is the text's length. A parse that raises stores nothing, so a bad
    text raises on every call.
    """

    __slots__ = ("budget", "charges")

    def __init__(self, budget: int) -> None:  # dict.__new__ made it empty
        self.budget = budget
        self.charges = 0

    def store(self, key, value: _T, charge: int) -> _T:
        if self.charges + charge <= self.budget:
            self[key] = value
            self.charges += charge
        return value

    def parsed(self, text: str, parse: Callable[..., _T], *args) -> _T:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        key = (*args, digest) if args else digest
        value = self.get(key)
        if value is None:
            value = self.store(key, parse(text, *args), len(text))
        return value
