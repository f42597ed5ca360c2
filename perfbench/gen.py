"""Seeded input generator for the eye2vec benchmark.

Everything here is independent of the code under test: programs are built
as trees of this module's own node types and rendered to source text, so
leaf positions and path encodings are known without calling the parser,
the linker or the simulator. Randomness comes from a local splitmix64, so
a given (workload, item) always yields the same bytes.

Each workload draws its requests from a fixed pool of items. An item is
identified by a short string and generated only from that string, so the
expected output digest of an item (``digests.json``) holds for every run
seed; the run seed only chooses which items a run uses and in what order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

_MASK64 = 0xFFFFFFFFFFFFFFFF

UP = "↑"
DOWN = "↓"
SNAP_TOL_COLS = 3  # the linker's default snap tolerance

SAMPLE_NAMES = ("point", "accumulator", "lookup")

# --- workload shapes -------------------------------------------------------

# short-reads: the bundled samples plus small generated programs in size
# strata; every pool program has the same number of recordings.
SR_STRATA_LEAVES = (20, 30, 40, 55, 70)
SR_VARIANTS = 6
SR_RECORDINGS = 12
SR_PICK_RECORDINGS = 6
SR_FIXATIONS = 300
SR_DIM = 128
SR_FALLBACK_SEED = 42

# large-program: programs of several hundred to ~1.5k leaves, grid CSVs.
# The middle and the largest sizes appear twice, so that p50 and p90 each
# fall among four near-equal requests rather than between two sizes.
LP_STRATA_LEAVES = (250, 300, 360, 540, 540, 700, 1480, 1480)
LP_VARIANTS = 6
LP_RECORDINGS = 4
LP_PICK_RECORDINGS = 2
LP_FIXATIONS = 200
LP_DIM = 128
LP_TABLE_KEYS = 3000

# cohort-analysis: labelled unit vectors of dim 3 * 128. One cohort is drawn
# from each size stratum, so that p50 falls on the middle size and p90 on
# the largest rather than on the noise between cohorts of one size.
CA_STRATA_SIZES = (70, 85, 100, 120, 140)
CA_VARIANTS = 8
CA_DIM = 384
CA_LABELS = ("defuse", "linear", "scan")
CA_TEST_EVERY = 5
CA_NOISE = 6.5  # per component, against unit-variance label directions
CA_KMEANS_SEED = 7


def key_seed(*parts: object) -> int:
    """64-bit seed derived from a tuple of names and numbers."""
    text = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


class Rng:
    """splitmix64 stream; kept local so inputs never depend on the program."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.u64() >> 11) / 2.0**53

    def below(self, n: int) -> int:
        return self.u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items, k: int) -> list:
        pool = list(items)
        self.shuffle(pool)
        return pool[:k]

    def gauss(self) -> float:
        u1 = 1.0 - self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# --- program trees -----------------------------------------------------------


@dataclass(eq=False)
class Leaf:
    text: str
    parent: "Node | None" = None
    line: int = 0
    col: int = 0

    @property
    def end_col(self) -> int:
        return self.col + len(self.text) - 1


@dataclass(eq=False)
class Node:
    label: str
    children: list = field(default_factory=list)
    parent: "Node | None" = None

    def add(self, child):
        child.parent = self
        self.children.append(child)
        return child


def node(label: str, *children) -> Node:
    n = Node(label)
    for c in children:
        n.add(c)
    return n


VARS = ("count", "total", "index", "value", "result", "size", "limit", "next", "left",
        "right", "key", "sum", "flag", "tmp", "acc", "offset", "width", "height", "x",
        "y", "i", "j", "n", "k", "data", "items", "node", "buffer")
METHODS = ("add", "get", "put", "find", "update", "compute", "reset", "check", "merge",
           "scan", "probe", "load", "store", "visit", "step")
CLASSES = ("Point", "Buffer", "Node", "Table", "Cache", "Parser", "Queue", "Matrix",
           "Walker", "Counter")
FIELDS = ("length", "head", "tail", "first", "last", "min", "max", "owner", "parent")
TYPES = ("int", "int", "int", "boolean")
ARITH = ("+", "-", "*", "/", "%")
COMPARE = ("<", "<=", ">", ">=", "==", "!=")


class ProgramBuilder:
    """Builds a Program tree of about ``target`` leaves."""

    def __init__(self, rng: Rng, target: int):
        self.rng = rng
        self.target = target
        self.used = 0

    def leaf(self, text: str) -> Leaf:
        self.used += 1
        return Leaf(text)

    def name(self, text: str | None = None) -> Node:
        return node("Name", self.leaf(text or self.rng.choice(VARS)))

    def type_ref(self, text: str | None = None) -> Node:
        return node("TypeRef", self.leaf(text or self.rng.choice(TYPES)))

    def literal(self) -> Leaf:
        r = self.rng.random()
        if r < 0.7:
            return self.leaf(str(self.rng.below(100)))
        if r < 0.85:
            return self.leaf(self.rng.choice(("true", "false")))
        return self.leaf('"s%d"' % self.rng.below(10))

    def operand(self):
        r = self.rng.random()
        if r < 0.55:
            return self.name()
        if r < 0.8:
            return self.literal()
        if r < 0.9:
            return node("FieldAccess", self.name(), self.leaf(self.rng.choice(FIELDS)))
        return node("Index", self.name(), self.operand())

    def expr(self, depth: int = 2):
        r = self.rng.random()
        if depth <= 0 or r < 0.3:
            return self.operand()
        if r < 0.65:
            op = self.rng.choice(ARITH)
            return node(f"BinExpr:{op}", self.expr(depth - 1), self.expr(depth - 1))
        if r < 0.8:
            args = [self.expr(depth - 1) for _ in range(self.rng.below(3))]
            return node("Call", self.name(self.rng.choice(METHODS)), *args)
        if r < 0.9:
            return node("Unary:-", self.operand())
        return node("Unary:!", self.cond(depth - 1))

    def cond(self, depth: int = 1):
        op = self.rng.choice(COMPARE)
        c = node(f"BinExpr:{op}", self.operand(), self.expr(depth))
        if depth > 0 and self.rng.random() < 0.25:
            logic = self.rng.choice(("&&", "||"))
            c = node(f"BinExpr:{logic}", c, node(f"BinExpr:{self.rng.choice(COMPARE)}",
                                                 self.operand(), self.operand()))
        return c

    def assignable(self):
        r = self.rng.random()
        if r < 0.75:
            return self.name()
        if r < 0.9:
            return node("FieldAccess", self.name(), self.leaf(self.rng.choice(FIELDS)))
        return node("Index", self.name(), self.operand())

    def var_decl(self) -> Node:
        decl = node("VarDecl", self.type_ref(), self.leaf(self.rng.choice(VARS)))
        if self.rng.random() < 0.85:
            decl.add(self.expr())
        return decl

    def assign_stmt(self) -> Node:
        return node("ExprStmt", node("Assign", self.assignable(), self.expr()))

    def simple_stmt(self) -> Node:
        r = self.rng.random()
        if r < 0.4:
            return self.var_decl()
        if r < 0.8:
            return self.assign_stmt()
        args = [self.expr(1) for _ in range(self.rng.below(3))]
        return node("ExprStmt", node("Call", self.name(self.rng.choice(METHODS)), *args))

    def block(self, depth: int, budget: int) -> Node:
        b = Node("Block")
        stop = self.used + budget
        while self.used < stop and self.used < self.target:
            b.add(self.stmt(depth))
        return b

    def stmt(self, depth: int):
        r = self.rng.random()
        if depth <= 0 or r < 0.6:
            return self.simple_stmt()
        if r < 0.75:
            s = node("If", self.cond())
            s.add(self.block(depth - 1, self.rng.between(3, 12)))
            if self.rng.random() < 0.35:
                s.add(self.block(depth - 1, self.rng.between(3, 8)))
            return s
        if r < 0.85:
            return node("While", self.cond(), self.block(depth - 1, self.rng.between(4, 12)))
        if r < 0.95:
            var = self.rng.choice(("i", "j", "k"))
            init = node("VarDecl", self.type_ref("int"), self.leaf(var), self.literal_int())
            test = node(f"BinExpr:{self.rng.choice(('<', '<='))}", self.name(var), self.operand())
            update = node("Assign", self.name(var),
                          node("BinExpr:+", self.name(var), self.literal_int(1)))
            return node("For", init, test, update, self.block(depth - 1, self.rng.between(4, 12)))
        return node("Return", self.expr())

    def literal_int(self, value: int | None = None) -> Leaf:
        return self.leaf(str(self.rng.below(3) if value is None else value))

    def method(self) -> Node:
        m = node("MethodDecl", self.type_ref(self.rng.choice(TYPES + ("void",))),
                 self.leaf(self.rng.choice(METHODS)))
        for _ in range(self.rng.below(3)):
            m.add(node("Param", self.type_ref(), self.leaf(self.rng.choice(VARS))))
        m.add(self.block(2, self.rng.between(12, 40)))
        return m

    def field_decl(self) -> Node:
        type_text = self.rng.choice(TYPES) if self.rng.random() < 0.8 else self.rng.choice(CLASSES)
        f = node("FieldDecl", self.type_ref(type_text), self.leaf(self.rng.choice(VARS)))
        if self.rng.random() < 0.3:
            f.add(self.literal())
        return f

    def program(self) -> Node:
        root = Node("Program")
        while self.used < self.target:
            cls = root.add(node("ClassDecl", self.leaf(self.rng.choice(CLASSES))))
            for _ in range(self.rng.between(1, 3)):
                cls.add(self.field_decl())
            members = 0
            while self.used < self.target and members < 6:
                cls.add(self.method())
                members += 1
        return root


# --- rendering ---------------------------------------------------------------


class Writer:
    """Emits tokens line by line and records each leaf's line and column."""

    def __init__(self):
        self.lines: list[str] = []
        self.current = ""
        self.indent = 0

    def start_line(self) -> None:
        self.current = "    " * self.indent

    def end_line(self) -> None:
        self.lines.append(self.current)
        self.current = ""

    def text(self, s: str) -> None:
        self.current += s

    def leaf(self, leaf: Leaf) -> None:
        leaf.line = len(self.lines) + 1
        leaf.col = len(self.current) + 1
        self.current += leaf.text

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


_BINARY_LIKE = ("BinExpr:", "Assign")


def _emit_expr(w: Writer, item, parens: bool = False) -> None:
    if isinstance(item, Leaf):
        w.leaf(item)
        return
    label = item.label
    wrap = parens and label.startswith(_BINARY_LIKE)
    if wrap:
        w.text("(")
    if label == "Name":
        w.leaf(item.children[0])
    elif label.startswith("BinExpr:"):
        _emit_expr(w, item.children[0], parens=True)
        w.text(f" {label[len('BinExpr:'):]} ")
        _emit_expr(w, item.children[1], parens=True)
    elif label == "Assign":
        _emit_expr(w, item.children[0])
        w.text(" = ")
        _emit_expr(w, item.children[1])
    elif label.startswith("Unary:"):
        w.text(label[len("Unary:"):])
        _emit_expr(w, item.children[0], parens=True)
    elif label == "Call":
        _emit_expr(w, item.children[0])
        w.text("(")
        for i, arg in enumerate(item.children[1:]):
            if i:
                w.text(", ")
            _emit_expr(w, arg)
        w.text(")")
    elif label == "FieldAccess":
        _emit_expr(w, item.children[0])
        w.text(".")
        w.leaf(item.children[1])
    elif label == "Index":
        _emit_expr(w, item.children[0])
        w.text("[")
        _emit_expr(w, item.children[1])
        w.text("]")
    else:
        raise ValueError(f"not an expression: {label}")
    if wrap:
        w.text(")")


def _emit_decl_inline(w: Writer, decl: Node) -> None:
    _emit_expr(w, decl.children[0].children[0])
    w.text(" ")
    w.leaf(decl.children[1])
    if len(decl.children) > 2:
        w.text(" = ")
        _emit_expr(w, decl.children[2])
    w.text(";")


def _emit_block_body(w: Writer, block: Node, rng: Rng) -> None:
    w.indent += 1
    for stmt in block.children:
        if rng.random() < 0.04:
            w.start_line()
            w.text("// " + rng.choice(("check bounds", "update state", "fast path", "TODO")))
            w.end_line()
        _emit_stmt(w, stmt, rng)
    w.indent -= 1


def _emit_stmt(w: Writer, stmt: Node, rng: Rng) -> None:
    label = stmt.label
    w.start_line()
    if label == "VarDecl":
        _emit_decl_inline(w, stmt)
        w.end_line()
    elif label == "ExprStmt":
        _emit_expr(w, stmt.children[0])
        w.text(";")
        w.end_line()
    elif label == "Return":
        w.text("return")
        if stmt.children:
            w.text(" ")
            _emit_expr(w, stmt.children[0])
        w.text(";")
        w.end_line()
    elif label in ("If", "While"):
        w.text("if (" if label == "If" else "while (")
        _emit_expr(w, stmt.children[0])
        w.text(") {")
        w.end_line()
        _emit_block_body(w, stmt.children[1], rng)
        w.start_line()
        if len(stmt.children) > 2:
            w.text("} else {")
            w.end_line()
            _emit_block_body(w, stmt.children[2], rng)
            w.start_line()
        w.text("}")
        w.end_line()
    elif label == "For":
        init, test, update, body = stmt.children
        w.text("for (")
        _emit_decl_inline(w, init)
        w.text(" ")
        _emit_expr(w, test)
        w.text("; ")
        _emit_expr(w, update)
        w.text(") {")
        w.end_line()
        _emit_block_body(w, body, rng)
        w.start_line()
        w.text("}")
        w.end_line()
    else:
        raise ValueError(f"not a statement: {label}")


def render(root: Node, rng: Rng) -> str:
    """Source text for ``root``; sets every leaf's line and column."""
    w = Writer()
    for ci, cls in enumerate(root.children):
        if ci:
            w.end_line()
        w.start_line()
        w.text("class ")
        w.leaf(cls.children[0])
        w.text(" {")
        w.end_line()
        w.indent += 1
        for member in cls.children[1:]:
            w.start_line()
            _emit_expr(w, member.children[0].children[0])
            w.text(" ")
            w.leaf(member.children[1])
            if member.label == "FieldDecl":
                if len(member.children) > 2:
                    w.text(" = ")
                    _emit_expr(w, member.children[2])
                w.text(";")
                w.end_line()
                continue
            w.text("(")
            params = [c for c in member.children[2:] if c.label == "Param"]
            for pi, param in enumerate(params):
                if pi:
                    w.text(", ")
                _emit_expr(w, param.children[0].children[0])
                w.text(" ")
                w.leaf(param.children[1])
            w.text(") {")
            w.end_line()
            _emit_block_body(w, member.children[-1], rng)
            w.start_line()
            w.text("}")
            w.end_line()
            if member is not cls.children[-1]:
                w.lines.append("")
        w.indent -= 1
        w.start_line()
        w.text("}")
        w.end_line()
    return w.source()


def tree_leaves(root: Node) -> list[Leaf]:
    out: list[Leaf] = []

    def walk(n: Node) -> None:
        for c in n.children:
            if isinstance(c, Leaf):
                out.append(c)
            else:
                walk(c)

    walk(root)
    return out


@dataclass
class Program:
    name: str
    source: str
    leaves: list[Leaf]  # empty for bundled samples, whose trees are not built here


def generated_program(name: str, target_leaves: int) -> Program:
    rng = Rng(key_seed("program", name))
    root = ProgramBuilder(rng, target_leaves).program()
    source = render(root, rng)
    return Program(name, source, tree_leaves(root))


# --- word positions of programs not built here ---------------------------------

_KEYWORDS = frozenset({"class", "if", "else", "while", "for", "return"})


def word_spans(source: str) -> list[tuple[int, int, int]]:
    """(line, start_col, end_col) of identifier, number and string words.

    A rough reader's view of where words are; the program decides what the
    fixations actually land on.
    """
    spans = []
    for line_no, line in enumerate(source.splitlines(), start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isalnum() or ch == "_" or ch == '"':
                start = col
                if ch == '"':
                    end = line.find('"', col + 1)
                    col = len(line) if end == -1 else end + 1
                else:
                    while col < len(line) and (line[col].isalnum() or line[col] == "_"):
                        col += 1
                word = line[start:col]
                if word not in _KEYWORDS:
                    spans.append((line_no, start + 1, col))
            else:
                col += 1
    return spans


# --- fixations ------------------------------------------------------------------


@dataclass(frozen=True)
class Reader:
    """Probabilities of a reader's moves; the rest are glances off the words."""

    jump: float  # a long jump backward or forward
    forward: float  # the next word
    skip: float  # the word after next
    regress: float  # back one to four words
    refixate: float  # the same word again


# A lab reader working through a short snippet, re-reading it in order.
CAREFUL = Reader(jump=0.0, forward=0.84, skip=0.03, regress=0.04, refixate=0.03)
# A reader searching a large program, jumping between regions.
SEARCHING = Reader(jump=0.08, forward=0.56, skip=0.08, regress=0.12, refixate=0.05)


def fixation_cells(rng: Rng, spans: list[tuple[int, int, int]], n_lines: int, count: int,
                   start: int, reader: Reader) -> list[tuple[int, int]]:
    """(line, col) cells of a reader moving over word spans in source order.

    Reaching the last word starts a re-read from the first. A fixation on a
    word lands on one of its columns, or up to three columns beside it.
    """
    cells = []
    i = start
    moves = (reader.jump, reader.forward, reader.skip, reader.regress, reader.refixate)
    bounds = [sum(moves[: k + 1]) for k in range(len(moves))]
    for _ in range(count):
        r = rng.random()
        if r < bounds[0]:
            i += rng.between(7, 60) * (1 if rng.random() < 0.6 else -1)
            i = min(max(i, 0), len(spans) - 1)
        elif r < bounds[1]:
            i += 1
        elif r < bounds[2]:
            i += 2
        elif r < bounds[3]:
            i = max(0, i - rng.between(1, 4))
        elif r >= bounds[4]:
            # a glance off the words: a brace, a blank line or the margin
            cells.append((rng.between(1, n_lines), rng.between(1, 6)))
            continue
        i %= len(spans)
        line, c0, c1 = spans[i]
        col = rng.between(c0, c1)
        if rng.random() < 0.15:
            col = max(1, col + rng.choice((-3, -2, -1, 1, 2, 3)))
        cells.append((line, col))
    return cells


def timestamps(rng: Rng, count: int) -> list[tuple[int, int]]:
    t = 0
    out = []
    for _ in range(count):
        duration = rng.between(80, 400)
        out.append((t, duration))
        t += duration + rng.between(20, 60)
    return out


@dataclass(frozen=True)
class Calibration:
    origin_x: float
    origin_y: float
    char_width: float
    line_height: float


def pixel_csv(rng: Rng, cells: list[tuple[int, int]], cal: Calibration) -> str:
    rows = ["timestamp_ms,x_px,y_px,duration_ms"]
    for (line, col), (t, d) in zip(cells, timestamps(rng, len(cells))):
        x = cal.origin_x + (col - 1 + 0.1 + 0.8 * rng.random()) * cal.char_width
        y = cal.origin_y + (line - 1 + 0.1 + 0.8 * rng.random()) * cal.line_height
        rows.append(f"{t},{x!r},{y!r},{d}")
    return "\n".join(rows) + "\n"


def grid_csv(rng: Rng, cells: list[tuple[int, int]]) -> str:
    rows = ["timestamp_ms,line,col,duration_ms"]
    for (line, col), (t, d) in zip(cells, timestamps(rng, len(cells))):
        rows.append(f"{t},{line},{col},{d}")
    return "\n".join(rows) + "\n"


# --- embedding keys, computed from the generator's own trees --------------------


def map_cell(by_line: dict[int, list[Leaf]], line: int, col: int) -> Leaf | None:
    """Leaf under (line, col), else the nearest on the line within tolerance."""
    best, best_distance = None, 0
    for leaf in by_line.get(line, ()):
        if leaf.col <= col <= leaf.end_col:
            return leaf
        distance = leaf.col - col if col < leaf.col else col - leaf.end_col
        if distance <= SNAP_TOL_COLS and (best is None or distance < best_distance):
            best, best_distance = leaf, distance
    return best


def _depth(n: Node) -> int:
    d = 0
    while n.parent is not None:
        n = n.parent
        d += 1
    return d


def path_encoding(a: Leaf, b: Leaf) -> str:
    up, down = [], []
    na, nb = a.parent, b.parent
    da, db = _depth(na), _depth(nb)
    while da > db:
        up.append(na.label)
        na, da = na.parent, da - 1
    while db > da:
        down.append(nb.label)
        nb, db = nb.parent, db - 1
    while na is not nb:
        up.append(na.label)
        down.append(nb.label)
        na, nb = na.parent, nb.parent
    return "".join(f"{x}{UP}" for x in up) + na.label + "".join(f"{DOWN}{x}" for x in reversed(down))


def embedding_keys(program: Program, cells: list[tuple[int, int]]) -> set[str]:
    """Every key a recording looks up: tokens and paths of its transitions."""
    by_line: dict[int, list[Leaf]] = {}
    for leaf in program.leaves:
        by_line.setdefault(leaf.line, []).append(leaf)
    mapped = [m for m in (map_cell(by_line, line, col) for line, col in cells) if m is not None]
    keys = set()
    for a, b in zip(mapped, mapped[1:]):
        if a is b:
            continue
        keys.update((f"tok:{a.text}", f"path:{path_encoding(a, b)}", f"tok:{b.text}"))
    return keys


def key_vector_line(key: str, dim: int) -> str:
    rng = Rng(key_seed("embedding", key))
    values = [rng.gauss() for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in values))
    return key + "\t" + " ".join(f"{v / norm:.6f}" for v in values)


def padding_keys(rng: Rng, count: int, taken: set[str]) -> list[str]:
    """Plausible keys no request looks up, so every table has the same size."""
    labels = ("Name", "BinExpr:+", "Call", "Block", "If", "While", "VarDecl", "ExprStmt",
              "Assign", "Index", "FieldAccess", "Return", "For", "MethodDecl")
    out: list[str] = []
    while len(out) < count:
        ups = [rng.choice(labels) for _ in range(rng.between(1, 4))]
        downs = [rng.choice(labels) for _ in range(rng.between(1, 4))]
        key = ("path:" + "".join(f"{x}{UP}" for x in ups) + "Program"
               + "".join(f"{DOWN}{x}" for x in downs))
        if key not in taken:
            taken.add(key)
            out.append(key)
    return out


# --- workloads --------------------------------------------------------------------


def ca_cohort(cohort_id: str, size: int) -> dict:
    """A labelled cohort: unit vectors scattered around one direction per label."""
    rng = Rng(key_seed("cohort-analysis", cohort_id))
    centers = [[rng.gauss() for _ in range(CA_DIM)] for _ in CA_LABELS]
    vectors = []
    for i in range(size):
        label_index = i % len(CA_LABELS)
        raw = [x + CA_NOISE * rng.gauss() for x in centers[label_index]]
        norm = math.sqrt(math.fsum(x * x for x in raw))
        vectors.append((f"{cohort_id}-v{i:03d}", CA_LABELS[label_index], [x / norm for x in raw]))
    rng.shuffle(vectors)
    return {"id": cohort_id, "vectors": vectors}


def eye_vector_json(recording_id: str, values: list[float]) -> str:
    return json.dumps({
        "recording_id": recording_id,
        "dim": len(values),
        "normalized": True,
        "meta": {"source": "perfbench"},
        "values": values,
    })


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


def _sample_program(src_root: Path, name: str) -> Program:
    path = src_root / "eye2vec" / "data" / f"{name}.mj"
    return Program(name, path.read_text(encoding="utf-8"), [])


def _select(rng: Rng | None, items: list, k: int) -> list:
    """``k`` of ``items`` chosen by ``rng``; all of them for the whole pool."""
    return list(items) if rng is None else rng.sample(items, k)


def _short_reads(rng: Rng | None, src_root: Path, out: Path) -> dict:
    programs = [_sample_program(src_root, name) for name in SAMPLE_NAMES]
    for s, target in enumerate(SR_STRATA_LEAVES):
        for v in _select(rng, range(SR_VARIANTS), 1):
            programs.append(generated_program(f"sr-s{s}v{v}", target))
    requests = []
    for program in programs:
        _write(out / f"{program.name}.mj", program.source)
        spans = word_spans(program.source)
        n_lines = program.source.count("\n")
        for r in _select(rng, range(SR_RECORDINGS), SR_PICK_RECORDINGS):
            item_id = f"{program.name}-r{r}"
            item_rng = Rng(key_seed("short-reads", item_id))
            cells = fixation_cells(item_rng, spans, n_lines, SR_FIXATIONS, start=item_rng.below(3),
                                   reader=CAREFUL)
            cal = Calibration(float(item_rng.between(60, 100)), float(item_rng.between(30, 50)),
                              item_rng.choice((8.0, 9.6, 12.0)), item_rng.choice((16.0, 19.2, 24.0)))
            requests.append({
                "id": item_id,
                "program": f"{program.name}.mj",
                "csv": _write(out / f"{item_id}.csv", pixel_csv(item_rng, cells, cal)),
                "mode": "pixel",
                "calibration": [cal.origin_x, cal.origin_y, cal.char_width, cal.line_height],
            })
    return {"table": None, "dim": SR_DIM, "fallback_seed": SR_FALLBACK_SEED, "requests": requests}


def _large_program(rng: Rng | None, out: Path) -> dict:
    requests = []
    keys: set[str] = set()
    for s, target in enumerate(LP_STRATA_LEAVES):
        for v in _select(rng, range(LP_VARIANTS), 1):
            program = generated_program(f"lp-s{s}v{v}", target)
            _write(out / f"{program.name}.mj", program.source)
            spans = [(leaf.line, leaf.col, leaf.end_col) for leaf in program.leaves]
            n_lines = program.source.count("\n")
            for r in _select(rng, range(LP_RECORDINGS), LP_PICK_RECORDINGS):
                item_id = f"{program.name}-r{r}"
                item_rng = Rng(key_seed("large-program", item_id))
                cells = fixation_cells(item_rng, spans, n_lines, LP_FIXATIONS,
                                       start=0, reader=SEARCHING)
                item_keys = embedding_keys(program, cells)
                keys |= item_keys
                requests.append({
                    "id": item_id,
                    "program": f"{program.name}.mj",
                    "csv": _write(out / f"{item_id}.csv", grid_csv(item_rng, cells)),
                    "mode": "grid",
                    "keys": sorted(item_keys),
                })
    if rng is not None and len(keys) > LP_TABLE_KEYS:
        raise ValueError(f"{len(keys)} keys exceed the table size {LP_TABLE_KEYS}")
    padding = max(0, LP_TABLE_KEYS - len(keys))
    all_keys = sorted(keys) + padding_keys(Rng(key_seed("padding", len(keys))), padding, set(keys))
    lines = [f"eye2vec-embeddings v1 dim={LP_DIM}"]
    lines += [key_vector_line(key, LP_DIM) for key in all_keys]
    _write(out / "table.tsv", "\n".join(lines) + "\n")
    return {"table": "table.tsv", "dim": LP_DIM, "fallback_seed": None, "requests": requests}


def _cohort_analysis(rng: Rng | None, out: Path) -> dict:
    requests = []
    cohorts = [ca_cohort(f"ca-s{s}v{v}", size)
               for s, size in enumerate(CA_STRATA_SIZES)
               for v in _select(rng, range(CA_VARIANTS), 1)]
    for cohort in cohorts:
        directory = out / cohort["id"]
        directory.mkdir()
        files, labels = [], []
        for recording_id, label, values in cohort["vectors"]:
            files.append(f"{cohort['id']}/" + _write(directory / f"{recording_id}.json",
                                                     eye_vector_json(recording_id, values)))
            labels.append(label)
        requests.append({"id": cohort["id"], "files": files, "labels": labels,
                         "test_every": CA_TEST_EVERY, "kmeans_k": len(CA_LABELS),
                         "kmeans_seed": CA_KMEANS_SEED})
    return {"table": None, "dim": CA_DIM, "fallback_seed": None, "requests": requests}


WORKLOADS = ("short-reads", "large-program", "cohort-analysis")


def build(workload: str, seed: int | None, src_root: Path, out: Path) -> dict:
    """Write a workload's inputs under ``out`` and return its manifest.

    With a seed, the run's items in request order; with ``None``, every item
    of the pool in a fixed order.
    """
    rng = None if seed is None else Rng(key_seed("select", workload, seed))
    out.mkdir(parents=True, exist_ok=True)
    if workload == "short-reads":
        manifest = _short_reads(rng, src_root, out)
    elif workload == "large-program":
        manifest = _large_program(rng, out)
    elif workload == "cohort-analysis":
        manifest = _cohort_analysis(rng, out)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if rng is not None:
        rng.shuffle(manifest["requests"])
    manifest["workload"] = workload
    return manifest


def main(argv: list[str] | None = None) -> int:
    import argparse
    import time

    parser = argparse.ArgumentParser(description="Write one workload's benchmark inputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="run seed; omit for the whole item pool")
    parser.add_argument("--src", required=True, type=Path, help="the repository's src directory")
    parser.add_argument("--out", required=True, type=Path, help="directory for the inputs")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    manifest = build(args.workload, args.seed, args.src, args.out)
    manifest["generate_s"] = time.perf_counter() - start
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
