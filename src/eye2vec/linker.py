"""Link grid fixations to AST leaves and count path-context transitions.

Each consecutive pair of successfully mapped fixations contributes one
transition. Transitions are counted per (leaf, leaf) pair, and each distinct
pair's path context is built and hashed once per call. A profile holds the
count of each context; a context's ratio, its count over all transitions,
keeps recordings of different lengths comparable.

The linker reads each tree's lines, parents and depths from
``minilang.tree_facts``, and keeps in that record's pair memo (an
``errors._Memo``) the path context of every leaf pair linked over the tree,
self transitions included, so a pair that recurs across recordings is built
and hashed once per tree. A context does not depend on ``LinkOptions``, so
the pair alone is the key. Each pair is charged one, against a budget of
``minilang._PAIR_MEMO_SIZE`` (4096) per tree. At about 675 bytes a pair, of
which about 225 are the context's stored string, the worst case over the 16
kept trees is about 44 MB.

``TransitionProfile.content_hash`` is FNV-1a over one text: a header and
one segment per entry. The module-level ``_profile_memo`` (an
``errors._Memo``) maps a profile's recording id and entries to that hash,
so a recurring profile is hashed with one lookup, not one step per byte.
Each profile is charged its entry count plus one, against a budget of
``_PROFILE_MEMO_BUDGET`` (16,384). At about 460 bytes a charge, contexts
included, that is at most about 8 MB.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Literal

from .errors import _Memo, _check_int, _check_recording_id
from .gaze import Fixation, GridPos, Recording
from .hashing import fnv1a64
from .minilang import _LineIndex, AstNode, LeafToken, tree_facts
from .pathctx import PathContext, context_between

DEFAULT_SNAP_TOL_COLS = 3

_PROFILE_MEMO_BUDGET = 16384
# (recording_id, entries) -> content_hash; see the module docstring
_profile_memo = _Memo(_PROFILE_MEMO_BUDGET)

# a profile's canonical order; see TransitionProfile
_CANONICAL = attrgetter("context_string", "source_text", "path_encoding")

_NOT_GRID = "fixation must be in grid mode; run the coordinate converter first"


@dataclass(frozen=True)
class MappedFixation:
    """Outcome of hit-testing one fixation against the leaves."""

    fixation: Fixation
    leaf: LeafToken | None
    snap_distance_cols: int = 0

    @property
    def mapping(self) -> Literal["hit", "snapped", "dropped"]:
        if self.leaf is None:
            return "dropped"
        return "snapped" if self.snap_distance_cols else "hit"


@dataclass(frozen=True)
class LinkOptions:
    snap_tol_cols: int = DEFAULT_SNAP_TOL_COLS
    self_transitions: Literal["keep", "drop"] = "drop"
    chain: Literal["skip", "strict"] = "skip"

    def __post_init__(self) -> None:
        _check_int("snap_tol_cols", self.snap_tol_cols, 0)
        if self.self_transitions not in ("keep", "drop"):
            raise ValueError("self_transitions must be 'keep' or 'drop'")
        if self.chain not in ("skip", "strict"):
            raise ValueError("chain must be 'skip' or 'strict'")


@dataclass(frozen=True)
class TransitionProfile:
    """One recording's transition count per path context.

    ``recording_id`` must be a nonempty string. ``entries`` is stored sorted
    by context string, the canonical order that ``compress`` and
    ``content_hash`` read, whatever order it was given in, as a read-only
    mapping of the profile's own; ``total_transitions`` is the sum of its
    counts. A context's ratio, ``count / total_transitions``, is computed
    where it is used.

    Two distinct contexts render one string when a leaf text holds commas
    (``x``, ``P``, ``y,P,z`` and ``x,P,y``, ``P``, ``z``), so ties are broken
    by source text and then path encoding, which settles the order.
    """

    recording_id: str
    entries: Mapping[PathContext, int] = field(default_factory=dict)
    total_transitions: int = field(init=False)

    def __post_init__(self) -> None:
        _check_recording_id(self.recording_id)
        for count in self.entries.values():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"a count must be a positive integer, not {count!r}")
        entries = dict.fromkeys(sorted(self.entries, key=_CANONICAL))
        entries.update(self.entries)  # the counts, in the sorted order
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "total_transitions", sum(entries.values()))

    def __reduce__(self):
        # A mapping proxy does not pickle; the profile is made again from a dict.
        return type(self), (self.recording_id, dict(self.entries))

    @property
    def is_empty(self) -> bool:
        return self.total_transitions == 0

    def content_hash(self) -> int:
        r"""Order-independent fingerprint of (recording_id, counts).

        FNV-1a over the header ``recording_id\x1ftotal`` followed, in stored
        order, by one segment ``\x1e{ctx.hash}:{count}`` per entry. A profile
        met before is answered from ``_profile_memo`` (see the module
        docstring); a first one pays the byte loop once.
        """
        entries = tuple(self.entries.items())
        key = (self.recording_id, entries)
        h = _profile_memo.get(key)
        if h is None:
            segments = "".join(f"\x1e{ctx.hash}:{count}" for ctx, count in entries)
            text = f"{self.recording_id}\x1f{self.total_transitions}{segments}"
            h = _profile_memo.store(key, fnv1a64(text), len(entries) + 1)
        return h

    def sorted_entries(self) -> list[tuple[PathContext, int]]:
        """(context, count) pairs by descending count, ties by context string."""
        return sorted(self.entries.items(), key=lambda kv: -kv[1])

    def to_json_dict(self) -> dict:
        return {
            "recording_id": self.recording_id,
            "total_transitions": self.total_transitions,
            "entries": [
                {
                    "context": ctx.context_string,
                    "hash": str(ctx.hash),
                    "count": count,
                    "ratio": count / self.total_transitions,
                }
                for ctx, count in self.sorted_entries()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False)


def map_fixation(
    fixation: Fixation, root: AstNode, snap_tol_cols: int = DEFAULT_SNAP_TOL_COLS
) -> MappedFixation:
    """Hit-test a grid fixation against the leaves of ``root``.

    Exact span containment wins; otherwise the nearest leaf on the same line
    within ``snap_tol_cols`` columns is used (ties toward the leaf with the
    smaller start column); otherwise the fixation is dropped.
    """
    _check_int("snap_tol_cols", snap_tol_cols, 0)
    pos = fixation.position
    if not isinstance(pos, GridPos):
        raise TypeError(_NOT_GRID)
    return MappedFixation(
        fixation, *_nearest_leaf(pos.line, pos.col, tree_facts(root).lines, snap_tol_cols)
    )


def _nearest_leaf(
    line: int, col: int, index: _LineIndex, tol: int
) -> tuple[LeafToken | None, int]:
    """The leaf ``map_fixation`` picks for a fixation at ``(line, col)`` and
    its distance (0 for a hit, at least 1 for a snap), or ``(None, 0)`` for a
    drop.

    Bisects the line in ``index``: only the last leaf starting at or before
    the column can contain the fixation. Failing that, it and the next leaf
    are the nearest on either side, and the first of them wins a tie.
    """
    starts, row = index.get(line, ((), ()))
    i = bisect_right(starts, col)
    best: LeafToken | None = None
    best_distance = tol + 1
    if i:
        left = row[i - 1]
        distance = col - left.span.end_col
        if distance <= 0:
            return left, 0
        if distance < best_distance:
            best, best_distance = left, distance
    if i < len(row) and starts[i] - col < best_distance:
        best, best_distance = row[i], starts[i] - col
    return (best, best_distance) if best is not None else (None, 0)


def build_profile(
    recording: Recording, root: AstNode, options: LinkOptions | None = None
) -> TransitionProfile:
    """Count transitions between consecutive mapped fixations.

    The recording's line and col columns are mapped as by ``map_fixation``;
    a pixel recording with rows raises ``TypeError``. With ``chain="skip"``
    dropped fixations do not sever the sequence; with ``chain="strict"``
    they do. Self transitions (same leaf twice) are dropped by default and
    never break the chain; a kept one is ``context_between(leaf, leaf)``. An
    empty result (zero transitions), as from a recording with no rows in
    either mode, is returned as a valid, empty profile.

    One pass over the fixations counts each (leaf, leaf) pair; then each
    distinct pair takes its path context from the tree's pair memo, or
    builds and hashes it there, and the context takes the pair's count.
    Pairs that give the same context sum.
    """
    options = options or LinkOptions()
    if recording.mode != "grid" and recording.columns[0]:
        raise TypeError(_NOT_GRID)
    _, lines, cols, _ = recording.columns
    facts = tree_facts(root)
    index, memo = facts.lines, facts.pair_memo
    keep_self = options.self_transitions == "keep"
    # leaves hash by identity, so a pair key never compares leaf text
    pairs: dict[tuple[LeafToken, LeafToken], int] = {}
    previous: LeafToken | None = None
    for line, col in zip(lines, cols):
        leaf, _ = _nearest_leaf(line, col, index, options.snap_tol_cols)
        if leaf is None:
            if options.chain == "strict":
                previous = None
            continue
        if previous is None or (previous is leaf and not keep_self):
            previous = leaf
            continue
        pair = (previous, leaf)
        pairs[pair] = pairs.get(pair, 0) + 1
        previous = leaf
    counts: dict[PathContext, int] = {}
    for pair, count in pairs.items():
        context = memo.get(pair)
        if context is None:
            context = memo.store(pair, context_between(*pair, facts.parents, facts.depths), 1)
        counts[context] = counts.get(context, 0) + count
    return TransitionProfile(recording.recording_id, counts)
