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
statements per byte. The tokenizer and parser oracles are ``tokenize`` and
the parser as they were when every token carried its own ``SourceSpan``.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from typing import Callable

import numpy as np

from eye2vec.errors import FormatError, LexError, ParseError, ZeroVectorError
from eye2vec.gaze import GRID_HEADER, PIXEL_HEADER, Fixation, GridPos, PixelPos, Recording
from eye2vec.hashing import FNV_OFFSET_BASIS, FNV_PRIME, SplitMix64, fnv1a64
from eye2vec.linker import (
    LinkOptions,
    MappedFixation,
    TransitionProfile,
    _nearest_leaf,
    _self_transition_context,
)
from eye2vec.minilang import (
    BUILTIN_TYPES,
    MAX_NESTING,
    _END,
    _PRECEDENCE,
    _TOKEN_RE,
    _TYPE_START,
    _WORD_KINDS,
    AstNode,
    Child,
    LeafToken,
    SourceSpan,
    Token,
    _cover,
    _fits_int64,
    leaves,
    tree_facts,
)
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
        if span_contains(span, pos.line, pos.col):
            return MappedFixation(fixation, leaf)
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
        return MappedFixation(fixation, best, best_distance)
    return MappedFixation(fixation, None)


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
    facts = tree_facts(root)
    index, parents, depths = facts.lines, facts.parents, facts.depths
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
    return TransitionProfile(recording.recording_id, counts)


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


# The tokenizer and parser as they were when every token carried its own
# SourceSpan: tokenize() built one Token and one span per lexeme, and the
# parser read them, sharing token spans with leaves and nodes. The grammar
# tables (token regex, keywords, precedence) are the library's.

_END_TOKEN = Token(_END, "", SourceSpan(1, 0, 1, 0))


def oracle_tokenize(source_text: str) -> list[Token]:
    """Scan ``source_text`` into tokens; comments and whitespace are skipped
    but still advance line/column positions."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for match in _TOKEN_RE.finditer(source_text):
        group, lexeme, offset = match.lastgroup, match.group(), match.start()
        col = offset - line_start + 1
        if group == "skip":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = offset + lexeme.rindex("\n") + 1
            continue
        if group == "word" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
            group, lexeme = "bad", lexeme[0]
        if group == "bad":
            raise LexError(line, col, f"unrecognized character {lexeme!r}")
        if group == "unterminated":
            what = "block comment" if lexeme == "/*" else "string literal"
            raise LexError(line, col, f"unterminated {what}")
        if group == "IntLit" and not _fits_int64(lexeme):
            raise LexError(line, col, f"integer literal out of 64-bit signed range: {lexeme}")
        if group == "word":
            kind = _WORD_KINDS.get(lexeme, "Identifier")
        else:
            kind = lexeme if group == "op" else group
        tokens.append(Token(kind, lexeme, SourceSpan(line, col, line, col + len(lexeme) - 1)))
    return tokens


class OracleParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [*tokens, _END_TOKEN]
        self.pos = 0
        # Statements and expressions open at the current position.
        self.depth = 0
        # Tokens arrive in source order, so leaves are numbered as they are made.
        self.leaf_indices = itertools.count()

    # token plumbing ---------------------------------------------------

    def _at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def _advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tokens[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def _expect(self, kind: str, expected: str | None = None) -> Token:
        if self._at(kind):
            return self._advance()
        self._fail(expected or f"'{kind}'")

    def _fail(self, expected: str) -> None:
        last, tok = self.tokens[self.pos - 1].span, self.tokens[self.pos]
        found = _END if tok.kind == _END else f"'{tok.lexeme}'"
        raise ParseError(last.end_line, last.end_col + 1, expected, found)

    def _nest(self) -> None:
        """Open one more statement or expression; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail(f"at most {MAX_NESTING} nested statements and expressions")

    def _span_from(self, start_index: int) -> SourceSpan:
        if start_index >= self.pos:  # zero-token construct (empty program)
            return SourceSpan(1, 1, 1, 1)
        return _cover(self.tokens[start_index].span, self.tokens[self.pos - 1].span)

    def _leaf(self, tok: Token, kind: str) -> LeafToken:
        return LeafToken(tok.lexeme, kind, tok.span, next(self.leaf_indices))

    def _parse_list(self, parse_item: Callable[[], Child]) -> tuple[list[Child], Token]:
        """Comma-separated items up to and including the closing ')'."""
        items: list[Child] = []
        if not self._at(")"):
            items.append(parse_item())
            while self._accept(","):
                items.append(parse_item())
        return items, self._expect(")", "',' or ')'")

    # declarations -----------------------------------------------------

    def parse_program(self) -> AstNode:
        start = self.pos
        classes: list[Child] = []
        while not self._at(_END):
            classes.append(self.parse_class())
        return AstNode("Program", self._span_from(start), classes)

    def parse_class(self) -> AstNode:
        start = self.pos
        self._expect("class", "'class'")
        name = self._expect("Identifier", "class name")
        self._expect("{")
        members: list[Child] = [self._leaf(name, "Identifier")]
        while not self._at("}"):
            if self._at(_END):
                self._fail("member declaration or '}'")
            members.append(self.parse_member())
        self._expect("}")
        return AstNode("ClassDecl", self._span_from(start), members)

    def parse_member(self) -> AstNode:
        start = self.pos
        type_ref = self.parse_type()
        name_leaf = self._leaf(self._expect("Identifier", "member name"), "Identifier")
        if not self._accept("("):
            return self._parse_initializer("FieldDecl", start, [type_ref, name_leaf])
        if not (self._at(")") or self._at_type_start()):
            self._fail("parameter type or ')'")
        params, _ = self._parse_list(self.parse_param)
        body = self.parse_block()
        return AstNode("MethodDecl", self._span_from(start), [type_ref, name_leaf, *params, body])

    def parse_param(self) -> AstNode:
        start = self.pos
        type_ref = self.parse_type()
        name = self._expect("Identifier", "parameter name")
        return AstNode("Param", self._span_from(start), [type_ref, self._leaf(name, "Identifier")])

    def _at_type_start(self) -> bool:
        return self.tokens[self.pos].kind in _TYPE_START

    def parse_type(self) -> AstNode:
        if not self._at_type_start():
            self._fail("type")
        tok = self._advance()
        return AstNode("TypeRef", tok.span, [self._leaf(tok, "TypeName")])

    def _parse_initializer(self, label: str, start: int, children: list[Child]) -> AstNode:
        """The optional ``= expr`` and the ';' that end a field or variable."""
        if self._accept("="):
            children.append(self.parse_expr())
        self._expect(";")
        return AstNode(label, self._span_from(start), children)

    # statements -------------------------------------------------------

    def parse_block(self) -> AstNode:
        start = self.pos
        self._expect("{")
        stmts: list[Child] = []
        while not self._at("}"):
            if self._at(_END):
                self._fail("statement or '}'")
            stmts.append(self.parse_stmt())
        self._expect("}")
        return AstNode("Block", self._span_from(start), stmts)

    def parse_stmt(self) -> Child:
        kind = self.tokens[self.pos].kind
        if kind == _END:
            self._fail("statement")
        self._nest()
        if kind == "{":
            stmt = self.parse_block()
        elif kind == "if":
            stmt = self.parse_if()
        elif kind == "while":
            stmt = self.parse_while()
        elif kind == "for":
            stmt = self.parse_for()
        elif kind == "return":
            stmt = self.parse_return()
        elif self._at_var_decl_start():
            stmt = self.parse_var_decl()
        else:
            stmt = self.parse_expr_stmt()
        self.depth -= 1
        return stmt

    def _at_var_decl_start(self) -> bool:
        kind = self.tokens[self.pos].kind
        if kind in BUILTIN_TYPES:
            return True
        # "Name Name" is a declaration; "Name = ..." etc. is an expression.
        return kind == "Identifier" and self.tokens[self.pos + 1].kind == "Identifier"

    def parse_var_decl(self) -> AstNode:
        start = self.pos
        type_ref = self.parse_type()
        name = self._expect("Identifier", "variable name")
        return self._parse_initializer("VarDecl", start, [type_ref, self._leaf(name, "Identifier")])

    def _parse_condition(self, keyword: str) -> Child:
        """``keyword ( expr )``, the head of an if or a while."""
        self._expect(keyword)
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        return cond

    def parse_if(self) -> AstNode:
        start = self.pos
        children: list[Child] = [self._parse_condition("if"), self.parse_stmt()]
        if self._accept("else"):
            children.append(self.parse_stmt())
        return AstNode("If", self._span_from(start), children)

    def parse_while(self) -> AstNode:
        start = self.pos
        children: list[Child] = [self._parse_condition("while"), self.parse_stmt()]
        return AstNode("While", self._span_from(start), children)

    def parse_for(self) -> AstNode:
        start = self.pos
        self._expect("for")
        self._expect("(")
        children: list[Child] = []
        if not self._accept(";"):
            init = self.parse_var_decl() if self._at_var_decl_start() else self.parse_expr_stmt()
            children.append(init)
        if not self._at(";"):
            children.append(self.parse_expr())
        self._expect(";")
        if not self._at(")"):
            children.append(self.parse_expr())
        self._expect(")")
        children.append(self.parse_stmt())
        return AstNode("For", self._span_from(start), children)

    def parse_return(self) -> AstNode:
        start = self.pos
        self._expect("return")
        children: list[Child] = []
        if not self._at(";"):
            children.append(self.parse_expr())
        self._expect(";")
        return AstNode("Return", self._span_from(start), children)

    def parse_expr_stmt(self) -> AstNode:
        start = self.pos
        expr = self.parse_expr()
        self._expect(";")
        return AstNode("ExprStmt", self._span_from(start), [expr])

    # expressions ------------------------------------------------------

    def parse_expr(self) -> Child:
        self._nest()
        expr = self._parse_binary(1)
        if self._at("="):
            if not (isinstance(expr, AstNode) and expr.label in ("Name", "FieldAccess", "Index")):
                self._fail("assignable expression (name, field access, or index) before '='")
            self._advance()
            value = self.parse_expr()
            expr = AstNode("Assign", _cover(expr.span, value.span), [expr, value])
        self.depth -= 1
        return expr

    def _parse_binary(self, min_precedence: int) -> Child:
        """Precedence climbing: operands joined by operators that bind at
        least as tightly as ``min_precedence``."""
        left = self._parse_operand()
        while _PRECEDENCE.get((tok := self.tokens[self.pos]).kind, 0) >= min_precedence:
            self._advance()
            right = self._parse_binary(_PRECEDENCE[tok.kind] + 1)
            left = AstNode(f"BinExpr:{tok.kind}", _cover(left.span, right.span), [left, right])
        return left

    def _parse_operand(self) -> Child:
        """Prefix '!'/'-', then a primary with its calls, field accesses and indexes."""
        prefixes: list[Token] = []
        while self.tokens[self.pos].kind in ("!", "-"):
            prefixes.append(self._advance())
        expr = self._parse_primary()
        while True:
            if self._accept("("):
                args, close = self._parse_list(self.parse_expr)
                expr = AstNode("Call", _cover(expr.span, close.span), [expr, *args])
            elif self._accept("."):
                name = self._expect("Identifier", "field name")
                field_leaf = self._leaf(name, "Identifier")
                expr = AstNode("FieldAccess", _cover(expr.span, name.span), [expr, field_leaf])
            elif self._accept("["):
                index = self.parse_expr()
                close = self._expect("]")
                expr = AstNode("Index", _cover(expr.span, close.span), [expr, index])
            else:
                break
        for op in reversed(prefixes):
            expr = AstNode(f"Unary:{op.kind}", _cover(op.span, expr.span), [expr])
        return expr

    def _parse_primary(self) -> Child:
        tok = self.tokens[self.pos]
        if tok.kind == "Identifier":
            self._advance()
            return AstNode("Name", tok.span, [self._leaf(tok, "Identifier")])
        if tok.kind in ("IntLit", "BoolLit", "StrLit"):
            self._advance()
            return self._leaf(tok, tok.kind)
        if self._accept("("):
            inner = self.parse_expr()
            self._expect(")")
            return inner
        self._fail("expression")


def oracle_parse(source_text: str) -> AstNode:
    """``parse`` by way of ``oracle_tokenize`` and ``OracleParser``."""
    return OracleParser(oracle_tokenize(source_text)).parse_program()


def span_contains(span: SourceSpan, line: int, col: int) -> bool:
    """Whether the position ``line``:``col`` lies inside ``span``."""
    if line < span.start_line or line > span.end_line:
        return False
    if line == span.start_line and col < span.start_col:
        return False
    if line == span.end_line and col > span.end_col:
        return False
    return True
