"""Path contexts: the AST route between two leaves, with a stable encoding.

A context is rendered as ``source_text,path_encoding,target_text`` once,
when it is made, and keeps that string as ``context_string`` beside its
hash (FNV-1a over the string); ``hash()`` returns the stored hash, and
equality compares the fields but not the string, because two distinct
contexts can render one string. The encoding lists ancestor labels from
the source leaf up to the lowest common ancestor (suffixed with an up
arrow), the LCA label bare, and labels back down to the target leaf
(prefixed with a down arrow). Trees hold no parent links: every call reads the tree's
leaves, parents and depths from ``minilang.tree_facts``, which walks each
tree once and keeps the record.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import NotALeaf, SameLeaf, _check_int
from .hashing import fnv1a64
from .minilang import AstNode, Child, LeafToken, tree_facts

UP = "↑"
DOWN = "↓"

DEFAULT_MAX_LENGTH = 8
DEFAULT_MAX_WIDTH = 2


@dataclass(frozen=True, slots=True)
class PathContext:
    source_text: str
    path_encoding: str
    target_text: str
    hash: int = field(init=False)
    context_string: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        string = f"{self.source_text},{self.path_encoding},{self.target_text}"
        object.__setattr__(self, "context_string", string)
        object.__setattr__(self, "hash", fnv1a64(string))

    def __hash__(self) -> int:
        return self.hash

    @property
    def node_count(self) -> int:
        """Number of AST nodes on the path (ancestors + LCA + descendants)."""
        return self.path_encoding.count(UP) + self.path_encoding.count(DOWN) + 1


def path_between(root: AstNode, a: LeafToken, b: LeafToken) -> PathContext:
    """Context for the unique tree path from leaf ``a`` to leaf ``b``."""
    facts = tree_facts(root)
    for leaf in (a, b):
        if not isinstance(leaf, LeafToken):
            raise NotALeaf(f"{leaf!r} is not a leaf of the given tree")
        if leaf not in facts.parents:
            raise NotALeaf(f"leaf {leaf.text!r} does not belong to the given tree")
    if a is b:
        raise SameLeaf(f"both endpoints are the same leaf {a.text!r}")
    return context_between(a, b, facts.parents, facts.depths)


def context_between(
    a: LeafToken, b: LeafToken, parents: dict[Child, AstNode], depths: dict[AstNode, int]
) -> PathContext:
    """``path_between`` without its checks, given the tree's parents and depths.

    Found by lifting the deeper of the two leaves' parents until both are at
    equal depth, then both in lockstep until they meet at the LCA. The
    caller vouches that ``a`` and ``b`` are leaves of the tree the maps come
    from; if ``a`` is ``b``, the path is the label of the leaf's parent alone.
    """
    up: list[str] = []
    down: list[str] = []
    na, nb = parents[a], parents[b]
    while na is not nb:
        depth_a, depth_b = depths[na], depths[nb]
        if depth_a >= depth_b:
            up.append(na.label)
            na = parents[na]
        if depth_b >= depth_a:
            down.append(nb.label)
            nb = parents[nb]
    encoding = "".join(f"{label}{UP}" for label in up)
    encoding += na.label
    encoding += "".join(f"{DOWN}{label}" for label in reversed(down))
    return PathContext(a.text, encoding, b.text)


def all_path_contexts(
    root: AstNode,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[PathContext]:
    """Contexts for every ordered leaf pair (i < j), optionally capped.

    ``max_length`` bounds the number of nodes on the path and ``max_width``
    the leaf-index distance; either cap is disabled by passing 0.
    """
    _check_int("max_length", max_length, 0)
    _check_int("max_width", max_width, 0)
    return list(_iter_path_contexts(root, max_length, max_width))


def _iter_path_contexts(root: AstNode, max_length: int, max_width: int) -> Iterator[PathContext]:
    """``all_path_contexts`` one context at a time, in the same order; the
    caller checks the caps."""
    facts = tree_facts(root)
    leaf_list, parents, depths = facts.leaves, facts.parents, facts.depths
    for i, source in enumerate(leaf_list):
        for j in range(i + 1, len(leaf_list)):
            if max_width and j - i > max_width:
                break
            target = leaf_list[j]
            context = context_between(source, target, parents, depths)
            if max_length and context.node_count > max_length:
                continue
            yield context
