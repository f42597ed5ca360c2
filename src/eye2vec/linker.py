"""Link grid fixations to AST leaves and count path-context transitions.

Each consecutive pair of successfully mapped fixations contributes one
transition. Transitions are counted per (leaf, leaf) pair, and each distinct
pair's path context is built and hashed once per call; the per-context
counts are normalized to ratios so recordings of different lengths stay
comparable.

What the linker needs of a tree (each line's leaves, every node's parent
and depth) is computed on the first call over that tree and kept for the
last ``_TREE_CACHE_SIZE`` distinct trees, keyed by the tree itself (trees
hash by identity). Trees from ``parse`` are memoized and shared, so
a request over a program seen before walks no tree at all. A tree must not
be mutated once it has been linked.

Beside those facts each cached tree keeps the path context of every leaf
pair linked over it so far, self transitions included, so a pair that
recurs across recordings is built and hashed once per tree. A context does
not depend on ``LinkOptions``, so the pair alone is the key. The memo holds
at most ``_PAIR_MEMO_SIZE`` (4096) pairs per tree; once full, new pairs are
built as on a miss and not stored. At about 415 bytes a pair, the worst
case over the 16 cached trees is about 27 MB. It goes with its tree's
cache entry, so ``_tree_facts.cache_clear()`` frees it.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Literal

from .gaze import Fixation, GridPos, Recording
from .hashing import fnv1a64
from .minilang import _TREE_CACHE_SIZE, AstNode, Child, LeafToken, leaves, parents_and_depths
from .pathctx import PathContext, context_between, make_context

DEFAULT_SNAP_TOL_COLS = 3

_PAIR_MEMO_SIZE = 4096

_NOT_GRID = "fixation must be in grid mode; run the coordinate converter first"


@dataclass(frozen=True)
class MappedFixation:
    """Outcome of hit-testing one fixation against the leaves."""

    fixation: Fixation
    leaf: LeafToken | None
    mapping: Literal["hit", "snapped", "dropped"]
    snap_distance_cols: int = 0
    drop_reason: str = ""

    def __post_init__(self) -> None:
        if (self.leaf is not None) != (self.mapping in ("hit", "snapped")):
            raise ValueError("leaf must be present exactly for hit/snapped mappings")


@dataclass(frozen=True)
class LinkOptions:
    snap_tol_cols: int = DEFAULT_SNAP_TOL_COLS
    self_transitions: Literal["keep", "drop"] = "drop"
    chain: Literal["skip", "strict"] = "skip"

    def __post_init__(self) -> None:
        if self.snap_tol_cols < 0:
            raise ValueError("snap_tol_cols must be >= 0")
        if self.self_transitions not in ("keep", "drop"):
            raise ValueError("self_transitions must be 'keep' or 'drop'")
        if self.chain not in ("skip", "strict"):
            raise ValueError("chain must be 'skip' or 'strict'")


@dataclass(frozen=True)
class ProfileEntry:
    count: int
    ratio: float


@dataclass
class TransitionProfile:
    recording_id: str
    entries: dict[PathContext, ProfileEntry] = field(default_factory=dict)
    total_transitions: int = 0

    def __post_init__(self) -> None:
        counted = sum(e.count for e in self.entries.values())
        if counted != self.total_transitions:
            raise ValueError(
                f"counts sum to {counted} but total_transitions is {self.total_transitions}"
            )
        if self.total_transitions > 0:
            ratio_sum = sum(e.ratio for e in self.entries.values())
            if abs(ratio_sum - 1.0) > 1e-9:
                raise ValueError(f"ratios sum to {ratio_sum}, expected 1")

    @classmethod
    def from_counts(cls, recording_id: str, counts: dict[PathContext, int]) -> "TransitionProfile":
        total = sum(counts.values())
        entries = {
            ctx: ProfileEntry(count, count / total)
            for ctx, count in counts.items()
            if count > 0
        }
        return cls(recording_id, entries, total)

    @property
    def is_empty(self) -> bool:
        return self.total_transitions == 0

    def content_hash(self) -> int:
        """Order-independent fingerprint of (recording_id, counts)."""
        parts = [f"{self.recording_id}\x1f{self.total_transitions}"]
        for ctx in sorted(self.entries, key=lambda c: c.context_string):
            parts.append(f"{ctx.hash}:{self.entries[ctx].count}")
        return fnv1a64("\x1e".join(parts))

    def sorted_entries(self) -> list[tuple[PathContext, ProfileEntry]]:
        """Entries by descending count, ties by context string ascending."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1].count, kv[0].context_string))

    def to_json_dict(self) -> dict:
        return {
            "recording_id": self.recording_id,
            "total_transitions": self.total_transitions,
            "entries": [
                {
                    "context": ctx.context_string,
                    "hash": str(ctx.hash),
                    "count": entry.count,
                    "ratio": entry.ratio,
                }
                for ctx, entry in self.sorted_entries()
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
    if snap_tol_cols < 0:
        raise ValueError("snap_tol_cols must be >= 0")
    pos = fixation.position
    if not isinstance(pos, GridPos):
        raise TypeError(_NOT_GRID)
    leaf, distance = _nearest_leaf(pos.line, pos.col, _tree_facts(root)[0], snap_tol_cols)
    if leaf is None:
        return MappedFixation(fixation, None, "dropped", drop_reason="no-leaf")
    if distance == 0:
        return MappedFixation(fixation, leaf, "hit")
    return MappedFixation(fixation, leaf, "snapped", snap_distance_cols=distance)


_LineIndex = dict[int, tuple[list[int], list[LeafToken]]]
_PairMemo = dict[tuple[LeafToken, LeafToken], PathContext]


def _line_index(root: AstNode) -> _LineIndex:
    """Each line's start columns and leaves, in parse order.

    A leaf of a parsed tree lies on one line and overlaps no other leaf, and
    the parser makes a line's leaves in column order, so each line comes
    out sorted by start column.
    """
    index: _LineIndex = {}
    for leaf in leaves(root):
        cols, row = index.setdefault(leaf.span.start_line, ([], []))
        cols.append(leaf.span.start_col)
        row.append(leaf)
    return index


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def _tree_facts(
    root: AstNode,
) -> tuple[_LineIndex, dict[Child, AstNode], dict[AstNode, int], _PairMemo]:
    """``_line_index`` and ``parents_and_depths`` of ``root``, once per tree,
    and the tree's pair memo, empty until ``build_profile`` fills it.

    The cache holds the tree, so its identity is not reused while the entry
    lives; callers only read what it returns, except the memo.
    """
    return (_line_index(root), *parents_and_depths(root), {})


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


def _self_transition_context(leaf: LeafToken, parents: dict[Child, AstNode]) -> PathContext:
    # A re-fixation has no leaf-to-leaf path; the degenerate context uses the
    # enclosing node's label as the sole path element.
    return make_context(leaf.text, parents[leaf].label, leaf.text)


def build_profile(
    recording: Recording, root: AstNode, options: LinkOptions | None = None
) -> TransitionProfile:
    """Count transitions between consecutive mapped fixations.

    The recording's line and col columns are mapped as by ``map_fixation``;
    a pixel recording with rows raises ``TypeError``. With ``chain="skip"``
    dropped fixations do not sever the sequence; with ``chain="strict"``
    they do. Self transitions (same leaf twice) are dropped by default and
    never break the chain. An empty result (zero transitions), as from a
    recording with no rows in either mode, is returned as a valid, empty
    profile.

    One pass over the fixations counts each (leaf, leaf) pair; then each
    distinct pair takes its path context from the tree's pair memo, or
    builds and hashes it there, and the context takes the pair's count.
    Pairs that give the same context sum, and contexts enter the profile in
    the order of their first transition.
    """
    options = options or LinkOptions()
    if recording.mode != "grid" and recording.columns[0]:
        raise TypeError(_NOT_GRID)
    _, lines, cols, _ = recording.columns
    index, parents, depths, memo = _tree_facts(root)
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
            a, b = pair
            if a is b:
                context = _self_transition_context(a, parents)
            else:
                context = context_between(a, b, parents, depths)
            if len(memo) < _PAIR_MEMO_SIZE:
                memo[pair] = context
        counts[context] = counts.get(context, 0) + count
    return TransitionProfile.from_counts(recording.recording_id, counts)
