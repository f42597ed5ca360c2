"""Synthetic fixation recordings over a parsed program.

Two reading strategies provide labeled ground truth for end-to-end tests:
``linear`` walks the leaves in source order, ``defuse`` bounces between a
variable's declaration and its later uses. ``simulate`` makes a grid
recording's four columns directly, one value per fixation in each, and
builds no ``Fixation`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoIdentifiers, _check_int
from .gaze import Recording
from .hashing import SplitMix64
from .minilang import AstNode, Child, LeafToken, tree_facts

STRATEGY_NAMES = ("linear", "defuse")

FIXATION_STEP_MS = 250
FIXATION_DURATION_MS = 200

# The most fixations one simulated recording holds (about seven hours of
# reading at one fixation per 250 ms), and the most recordings one
# ``eye2vec simulate`` writes; both are refused before anything is made.
MAX_FIXATIONS = 100_000
MAX_RECORDINGS = 1_000

_DECL_LABELS = frozenset({"VarDecl", "Param", "FieldDecl"})


@dataclass(frozen=True)
class Strategy:
    name: str
    jitter_cols: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise ValueError(f"strategy must be one of {STRATEGY_NAMES}, got {self.name!r}")
        _check_int("jitter_cols", self.jitter_cols, 0)
        _check_int("seed", self.seed)


def _declared_identifiers(
    all_leaves: list[LeafToken], parents: dict[Child, AstNode]
) -> list[tuple[LeafToken, list[LeafToken]]]:
    """Declaration-name leaves in ``all_leaves`` paired with later same-text identifiers."""
    by_text: dict[str, list[LeafToken]] = {}
    for leaf in all_leaves:
        if leaf.kind == "Identifier":
            by_text.setdefault(leaf.text, []).append(leaf)
    # A declaration's only Identifier leaf child is its name: an initializer
    # is an expression, where identifiers sit under a Name node.
    usable = [
        (decl, same[i + 1 :])
        for same in by_text.values()
        for i, decl in enumerate(same[:-1])
        if parents[decl].label in _DECL_LABELS
    ]
    usable.sort(key=lambda pair: pair[0].leaf_index)
    return usable


def simulate(
    root: AstNode, strategy: Strategy, n_fixations: int, recording_id: str | None = None
) -> Recording:
    """Generate ``n_fixations`` grid fixations over ``root``.

    Each fixation sits on its target leaf's first line, at the middle
    column of its span. Timestamps advance 250 ms per fixation with a fixed
    200 ms duration; columns are jittered uniformly within
    ``strategy.jitter_cols``, one draw per fixation in order, and kept at
    least 1. The recording is named ``recording_id``, or
    ``sim_<strategy>_<seed>`` when that is ``None``; any other id is
    checked by ``Recording``.
    """
    _check_int("n_fixations", n_fixations, 2, MAX_FIXATIONS)
    facts = tree_facts(root)
    leaf_list = facts.leaves
    if len(leaf_list) < 2:
        raise ValueError("program must have at least 2 leaves")
    stream = SplitMix64(strategy.seed)

    targets: list[LeafToken] = []
    if strategy.name == "linear":
        for i in range(n_fixations):
            targets.append(leaf_list[i % len(leaf_list)])
    else:
        pairs = _declared_identifiers(leaf_list, facts.parents)
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

    spans = [leaf.span for leaf in targets]
    cols = tuple(max(1, (span.start_col + span.end_col) // 2
                     + stream.randint_symmetric(strategy.jitter_cols)) for span in spans)
    columns = (tuple(range(0, n_fixations * FIXATION_STEP_MS, FIXATION_STEP_MS)),
               tuple(span.start_line for span in spans), cols,
               (FIXATION_DURATION_MS,) * n_fixations)
    if recording_id is None:
        recording_id = f"sim_{strategy.name}_{strategy.seed}"
    return Recording._from_columns(recording_id, "grid", columns)
