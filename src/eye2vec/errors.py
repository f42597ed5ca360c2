"""Exception types shared across the eye2vec pipeline."""


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
