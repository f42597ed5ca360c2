"""Independent brute-force oracles the tests check the library against.

These deliberately use different mechanisms than the package code: the
mapping oracle scans every leaf of the tree for each fixation, the path
oracle finds the LCA by set intersection over full parent chains, and the
transition oracle recounts pairs with its own chain-walking loop keyed by
oracle-computed context strings. The analysis oracles take one ``np.dot`` per
pair and group training vectors by label in a dict, fold by fold. The
fallback-vector oracle steps the scalar splitmix64 generator once per
component.
"""

from __future__ import annotations

import math

import numpy as np

from eye2vec.errors import ZeroVectorError
from eye2vec.gaze import Fixation, GridPos, Recording
from eye2vec.hashing import SplitMix64, fnv1a64
from eye2vec.linker import LinkOptions, MappedFixation
from eye2vec.minilang import AstNode, LeafToken, leaves

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


def _parent_chain(leaf: LeafToken) -> list[AstNode]:
    chain = []
    node = leaf.parent
    while node is not None:
        chain.append(node)
        node = node.parent
    return chain


def oracle_context_string(a: LeafToken, b: LeafToken) -> str:
    """Path context by set-intersection LCA over full parent chains."""
    chain_a = _parent_chain(a)
    chain_b = _parent_chain(b)
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

    counts: dict[str, int] = {}
    total = 0
    for run in runs:
        for i in range(len(run) - 1):
            a, b = run[i], run[i + 1]
            if a is b:
                if options.self_transitions == "drop":
                    continue
                key = f"{a.text},{a.parent.label},{a.text}"
            else:
                key = oracle_context_string(a, b)
            counts[key] = counts.get(key, 0) + 1
            total += 1
    return counts, total


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
