"""Synthetic fixation recordings over a parsed program.

Two reading strategies provide labeled ground truth for end-to-end tests:
``linear`` walks the leaves in source order, ``defuse`` bounces between a
variable's declaration and its later uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoIdentifiers
from .gaze import Fixation, GridPos, Recording
from .hashing import SplitMix64
from .minilang import AstNode, Child, LeafToken, leaves, parents_and_depths

STRATEGY_NAMES = ("linear", "defuse")

FIXATION_STEP_MS = 250
FIXATION_DURATION_MS = 200

_DECL_LABELS = frozenset({"VarDecl", "Param", "FieldDecl"})


@dataclass(frozen=True)
class Strategy:
    name: str
    jitter_cols: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise ValueError(f"strategy must be one of {STRATEGY_NAMES}, got {self.name!r}")
        if self.jitter_cols < 0:
            raise ValueError("jitter_cols must be >= 0")


def _midpoint(leaf: LeafToken) -> GridPos:
    span = leaf.span
    return GridPos(span.start_line, (span.start_col + span.end_col) // 2)


def _declared_identifiers(
    all_leaves: list[LeafToken], parents: dict[Child, AstNode]
) -> list[tuple[LeafToken, list[LeafToken]]]:
    """Declaration-name leaves in ``all_leaves`` paired with later same-text identifiers."""
    # A declaration's only Identifier leaf child is its name: an initializer
    # is an expression, where identifiers sit under a Name node.
    declarations = [
        leaf
        for leaf in all_leaves
        if leaf.kind == "Identifier" and parents[leaf].label in _DECL_LABELS
    ]
    usable = []
    for decl in declarations:
        uses = [
            leaf
            for leaf in all_leaves
            if leaf.kind == "Identifier"
            and leaf.text == decl.text
            and leaf.leaf_index > decl.leaf_index
        ]
        if uses:
            usable.append((decl, uses))
    return usable


def simulate(
    root: AstNode, strategy: Strategy, n_fixations: int, recording_id: str | None = None
) -> Recording:
    """Generate ``n_fixations`` grid fixations over ``root``.

    Timestamps advance 250 ms per fixation with a fixed 200 ms duration;
    columns are jittered uniformly within ``strategy.jitter_cols``.
    """
    if n_fixations < 2:
        raise ValueError("n_fixations must be >= 2")
    leaf_list = leaves(root)
    if len(leaf_list) < 2:
        raise ValueError("program must have at least 2 leaves")
    stream = SplitMix64(strategy.seed)

    targets: list[LeafToken] = []
    if strategy.name == "linear":
        for i in range(n_fixations):
            targets.append(leaf_list[i % len(leaf_list)])
    else:
        pairs = _declared_identifiers(leaf_list, parents_and_depths(root)[0])
        if not pairs:
            raise NoIdentifiers("no declared identifier is used again later")
        order = list(range(len(pairs)))
        stream.shuffle(order)
        position = 0
        while len(targets) < n_fixations:
            decl, uses = pairs[order[position % len(order)]]
            position += 1
            targets.append(decl)
            if len(targets) >= n_fixations:
                break
            targets.append(uses[stream.randint(len(uses))])

    fixations = []
    for i, leaf in enumerate(targets):
        pos = _midpoint(leaf)
        col = max(1, pos.col + stream.randint_symmetric(strategy.jitter_cols))
        fixations.append(
            Fixation(i * FIXATION_STEP_MS, FIXATION_DURATION_MS, GridPos(pos.line, col))
        )
    rec_id = recording_id or f"sim_{strategy.name}_{strategy.seed}"
    return Recording(recording_id=rec_id, fixations=fixations)
