"""Independent brute-force oracles the tests check the library against.

These deliberately use different mechanisms than the package code: the
mapping oracle scans every leaf of the tree for each fixation, the path
oracle finds the LCA by set intersection over full parent chains read from
its own level-order map of parents keyed by ``id``, and the
transition oracle recounts pairs with its own chain-walking loop keyed by
oracle-computed context strings. The per-transition profile builder is the
linker's former loop, kept verbatim: it builds and hashes one path context
for every transition, where the linker builds one per distinct leaf pair.
The analysis oracles take one ``np.dot`` per pair and group training vectors
by label in a dict, fold by fold. The fallback-vector oracle steps the
scalar splitmix64 generator once per component, and the table-row oracle is
``load_table``'s former per-component ``float()`` loop. The fixation reader
oracle is ``read_fixations``'s former row loop, which builds one
``Fixation`` per row, and the FNV oracle is ``fnv1a64``'s former two
statements per byte.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from eye2vec.errors import FormatError, ZeroVectorError
from eye2vec.gaze import GRID_HEADER, PIXEL_HEADER, Fixation, GridPos, PixelPos, Recording
from eye2vec.hashing import FNV_OFFSET_BASIS, FNV_PRIME, SplitMix64, fnv1a64
from eye2vec.linker import (
    LinkOptions,
    MappedFixation,
    TransitionProfile,
    _line_index,
    _nearest_leaf,
    _self_transition_context,
)
from eye2vec.minilang import AstNode, LeafToken, leaves, parents_and_depths
from eye2vec.pathctx import PathContext, context_between

UP = "↑"
DOWN = "↓"


def oracle_map_fixation(fixation: Fixation, root: AstNode, snap_tol_cols: int) -> MappedFixation:
    """Hit-test by a linear scan over every leaf of ``root``.

    A leaf containing the position wins; otherwise the nearest leaf starting
    on the same line within ``snap_tol_cols`` columns, ties toward the
    smaller start column; otherwise the fixation is dropped.
    """
    pos = fixation.position
    assert isinstance(pos, GridPos)
    best: LeafToken | None = None
    best_distance = 0
    for leaf in leaves(root):
        span = leaf.span
        if span.contains(pos.line, pos.col):
            return MappedFixation(fixation, leaf, "hit")
        if span.start_line != pos.line:
            continue
        if pos.col < span.start_col:
            distance = span.start_col - pos.col
        else:
            distance = pos.col - span.end_col
        if distance <= snap_tol_cols and (
            best is None
            or distance < best_distance
            or (distance == best_distance and span.start_col < best.span.start_col)
        ):
            best = leaf
            best_distance = distance
    if best is not None:
        return MappedFixation(fixation, best, "snapped", snap_distance_cols=best_distance)
    return MappedFixation(fixation, None, "dropped", drop_reason="no-leaf")


def oracle_parents(root: AstNode) -> dict[int, AstNode]:
    """The parent of every node and leaf below ``root``, keyed by ``id``,
    found level by level."""
    parents: dict[int, AstNode] = {}
    level = [root]
    while level:
        for node in level:
            for child in node.children:
                parents[id(child)] = node
        level = [child for node in level for child in node.children if isinstance(child, AstNode)]
    return parents


def _parent_chain(parents: dict[int, AstNode], leaf: LeafToken) -> list[AstNode]:
    chain = []
    node = parents.get(id(leaf))
    while node is not None:
        chain.append(node)
        node = parents.get(id(node))
    return chain


def oracle_context_string(parents: dict[int, AstNode], a: LeafToken, b: LeafToken) -> str:
    """Path context by set-intersection LCA over full parent chains, read
    from ``oracle_parents`` of the leaves' tree."""
    chain_a = _parent_chain(parents, a)
    chain_b = _parent_chain(parents, b)
    positions = {id(node): i for i, node in enumerate(chain_a)}
    for j, node in enumerate(chain_b):
        if id(node) in positions:
            i = positions[id(node)]
            up = "".join(x.label + UP for x in chain_a[:i])
            down = "".join(DOWN + x.label for x in reversed(chain_b[:j]))
            return f"{a.text},{up}{node.label}{down},{b.text}"
    raise AssertionError("leaves share no ancestor")


def oracle_transition_counts(
    recording: Recording, root: AstNode, options: LinkOptions
) -> tuple[dict[str, int], int]:
    """Recount transitions as (context-string counts, total), independently.

    Contexts are keyed by oracle_context_string; self transitions use the
    same degenerate ``text,parent-label,text`` form the linker defines.
    """
    runs: list[list[LeafToken]] = [[]]
    for fixation in recording.fixations:
        mapped = oracle_map_fixation(fixation, root, options.snap_tol_cols)
        if mapped.leaf is None:
            if options.chain == "strict":
                runs.append([])
        else:
            runs[-1].append(mapped.leaf)
    if options.chain == "skip":
        runs = [[leaf for run in runs for leaf in run]]

    parents = oracle_parents(root)
    counts: dict[str, int] = {}
    total = 0
    for run in runs:
        for i in range(len(run) - 1):
            a, b = run[i], run[i + 1]
            if a is b:
                if options.self_transitions == "drop":
                    continue
                key = f"{a.text},{parents[id(a)].label},{a.text}"
            else:
                key = oracle_context_string(parents, a, b)
            counts[key] = counts.get(key, 0) + 1
            total += 1
    return counts, total


def oracle_build_profile_per_transition(
    recording: Recording, root: AstNode, options: LinkOptions | None = None
) -> TransitionProfile:
    """``build_profile`` as one loop that builds a context per transition."""
    options = options or LinkOptions()
    index = _line_index(root)
    parents, depths = parents_and_depths(root)
    keep_self = options.self_transitions == "keep"
    counts: dict[PathContext, int] = {}
    previous: LeafToken | None = None
    for fixation in recording.fixations:
        pos = fixation.position
        leaf, _ = _nearest_leaf(pos.line, pos.col, index, options.snap_tol_cols)
        if leaf is None:
            if options.chain == "strict":
                previous = None
            continue
        if previous is None or (previous is leaf and not keep_self):
            previous = leaf
            continue
        if previous is leaf:
            context = _self_transition_context(leaf, parents)
        else:
            context = context_between(previous, leaf, parents, depths)
        counts[context] = counts.get(context, 0) + 1
        previous = leaf
    return TransitionProfile.from_counts(recording.recording_id, counts)


def _oracle_unit(values: np.ndarray) -> np.ndarray:
    norm = math.sqrt(float(np.dot(values, values)))
    if norm == 0.0:
        raise ZeroVectorError("zero vector")
    return values / norm


def _oracle_cosine(u: np.ndarray, v: np.ndarray) -> float:
    if np.array_equal(u, v):
        return 1.0
    value = float(np.dot(u, v)) / math.sqrt(float(np.dot(u, u)) * float(np.dot(v, v)))
    return max(-1.0, min(1.0, value))


def oracle_distance_matrix(rows: list[np.ndarray]) -> np.ndarray:
    """1 - cosine similarity for every ordered pair, one ``np.dot`` per product."""
    return np.array([[1.0 - _oracle_cosine(u, v) for v in rows] for u in rows])


def oracle_nearest_centroid(
    items: list[tuple[np.ndarray, str]], tests: list[np.ndarray]
) -> list[str]:
    """Mean of each label's unit vectors, normalized; the first sorted label wins ties."""
    grouped: dict[str, list[np.ndarray]] = {}
    for values, label in items:
        grouped.setdefault(label, []).append(_oracle_unit(values))
    centroids = [(label, _oracle_unit(np.mean(grouped[label], axis=0))) for label in sorted(grouped)]
    predictions = []
    for values in tests:
        scores = [_oracle_cosine(values, centroid) for _, centroid in centroids]
        predictions.append(centroids[scores.index(max(scores))][0])
    return predictions


def oracle_leave_one_out(items: list[tuple[np.ndarray, str]]) -> float:
    """Regroup the remaining items anew for every held-out item."""
    correct = sum(
        oracle_nearest_centroid(items[:i] + items[i + 1 :], [values])[0] == label
        for i, (values, label) in enumerate(items)
    )
    return correct / len(items)


def oracle_fallback_vector(key: str, dim: int, fallback_seed: int) -> np.ndarray:
    """Fallback vector built one ``SplitMix64.next_float01`` call per component."""
    stream = SplitMix64(fnv1a64(key) ^ fallback_seed)
    raw = np.empty(dim, dtype=np.float64)
    for i in range(dim):
        raw[i] = 2.0 * stream.next_float01() - 1.0
    return raw / math.sqrt(float(np.dot(raw, raw)))


def oracle_table_row(components: list[str], line_no: int) -> np.ndarray:
    """One embedding-table row parsed with ``float()`` per component."""
    try:
        vector = np.array([float(c) for c in components], dtype=np.float64)
    except ValueError:
        raise FormatError(line_no, "non-numeric vector component") from None
    if not np.all(np.isfinite(vector)):
        raise FormatError(line_no, "vector components must be finite")
    return vector


def oracle_fnv1a64(data: bytes | str) -> int:
    """FNV-1a with the xor and the masked multiply as two statements per byte."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV_OFFSET_BASIS
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _oracle_int(value: str, row: int, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise FormatError(row, f"field {name!r} must be an integer, got {value!r}") from None


def _oracle_float(value: str, row: int, name: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise FormatError(row, f"field {name!r} must be a number, got {value!r}") from None
    if not math.isfinite(parsed):
        raise FormatError(row, f"field {name!r} must be finite, got {value!r}")
    return parsed


def oracle_read_fixations(path: str | Path, mode: str) -> Recording:
    """A fixation CSV read row by row into one ``Fixation`` per row."""
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
        timestamp = _oracle_int(row[0], row_no, "timestamp_ms")
        duration = _oracle_int(row[3], row_no, "duration_ms")
        if timestamp < 0:
            raise FormatError(row_no, "timestamp_ms must be non-negative")
        if duration <= 0:
            raise FormatError(row_no, "duration_ms must be positive")
        if last_timestamp is not None and timestamp < last_timestamp:
            raise FormatError(row_no, f"timestamp {timestamp} decreases below {last_timestamp}")
        last_timestamp = timestamp
        if mode == "pixel":
            x = _oracle_float(row[1], row_no, "x_px")
            y = _oracle_float(row[2], row_no, "y_px")
            if x < 0 or y < 0:
                raise FormatError(row_no, "pixel coordinates must be non-negative")
            position: PixelPos | GridPos = PixelPos(x, y)
        else:
            line = _oracle_int(row[1], row_no, "line")
            col = _oracle_int(row[2], row_no, "col")
            if line < 1 or col < 1:
                raise FormatError(row_no, "line and col are 1-based and must be >= 1")
            position = GridPos(line, col)
        fixations.append(Fixation(timestamp, duration, position))
    return Recording(recording_id=path.stem, fixations=fixations)
