"""Path contexts: the AST route between two leaves, with a stable encoding.

A context is rendered as ``source_text,path_encoding,target_text`` where the
encoding lists ancestor labels from the source leaf up to the lowest common
ancestor (suffixed with an up arrow), the LCA label bare, and labels back
down to the target leaf (prefixed with a down arrow).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotALeaf, SameLeaf
from .hashing import fnv1a64
from .minilang import AstNode, LeafToken, leaves

UP = "↑"
DOWN = "↓"

DEFAULT_MAX_LENGTH = 8
DEFAULT_MAX_WIDTH = 2


@dataclass(frozen=True)
class PathContext:
    source_text: str
    path_encoding: str
    target_text: str
    hash: int

    @property
    def context_string(self) -> str:
        return f"{self.source_text},{self.path_encoding},{self.target_text}"

    @property
    def node_count(self) -> int:
        """Number of AST nodes on the path (ancestors + LCA + descendants)."""
        return self.path_encoding.count(UP) + self.path_encoding.count(DOWN) + 1


def make_context(source_text: str, path_encoding: str, target_text: str) -> PathContext:
    full = f"{source_text},{path_encoding},{target_text}"
    return PathContext(source_text, path_encoding, target_text, fnv1a64(full))


def node_depths(root: AstNode) -> dict[AstNode, int]:
    """The depth of every inner node of ``root`` (``root`` itself is 0), from one walk."""
    depths = {root: 0}
    stack = [root]
    while stack:
        node = stack.pop()
        depth = depths[node] + 1
        for child in node.children:
            if isinstance(child, AstNode):
                depths[child] = depth
                stack.append(child)
    return depths


def _parent_depth(root: AstNode, leaf: LeafToken) -> int:
    """Depth of ``leaf``'s parent below ``root``; ``NotALeaf`` unless it is a leaf of ``root``."""
    if not isinstance(leaf, LeafToken) or leaf.parent is None:
        raise NotALeaf(f"{leaf!r} is not a leaf of the given tree")
    node = leaf.parent
    depth = 0
    while node.parent is not None:
        node = node.parent
        depth += 1
    if node is not root:
        raise NotALeaf(f"leaf {leaf.text!r} does not belong to the given tree")
    return depth


def path_between(root: AstNode, a: LeafToken, b: LeafToken) -> PathContext:
    """Context for the unique tree path from leaf ``a`` to leaf ``b``."""
    depth_a = _parent_depth(root, a)
    depth_b = _parent_depth(root, b)
    if a is b:
        raise SameLeaf(f"both endpoints are the same leaf {a.text!r}")
    return context_at_depths(a, b, depth_a, depth_b)


def context_at_depths(a: LeafToken, b: LeafToken, depth_a: int, depth_b: int) -> PathContext:
    """``path_between`` without its checks, given the depths of both leaves' parents.

    Found by lifting both parents to equal depth and climbing in lockstep
    until they meet at the LCA. The caller vouches that ``a`` and ``b`` are
    distinct leaves of one tree, as they are when both come from ``leaves``
    of it and the depths from ``node_depths`` of it.
    """
    up: list[str] = []
    down: list[str] = []
    na, nb = a.parent, b.parent
    while depth_a > depth_b:
        up.append(na.label)
        na = na.parent
        depth_a -= 1
    while depth_b > depth_a:
        down.append(nb.label)
        nb = nb.parent
        depth_b -= 1
    while na is not nb:
        up.append(na.label)
        down.append(nb.label)
        na = na.parent
        nb = nb.parent
    encoding = "".join(f"{label}{UP}" for label in up)
    encoding += na.label
    encoding += "".join(f"{DOWN}{label}" for label in reversed(down))
    return make_context(a.text, encoding, b.text)


def all_path_contexts(
    root: AstNode,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> list[PathContext]:
    """Contexts for every ordered leaf pair (i < j), optionally capped.

    ``max_length`` bounds the number of nodes on the path and ``max_width``
    the leaf-index distance; either cap is disabled by passing 0.
    """
    if max_length < 0 or max_width < 0:
        raise ValueError("caps must be >= 0 (0 disables the cap)")
    leaf_list = leaves(root)
    depths = node_depths(root)
    contexts: list[PathContext] = []
    for i, source in enumerate(leaf_list):
        source_depth = depths[source.parent]
        for j in range(i + 1, len(leaf_list)):
            if max_width and j - i > max_width:
                break
            target = leaf_list[j]
            context = context_at_depths(source, target, source_depth, depths[target.parent])
            if max_length and context.node_count > max_length:
                continue
            contexts.append(context)
    return contexts
