"""Tokenizer and precedence-climbing parser for a small Java-like language.

Every leaf and AST node carries an exact 1-based line/column span over the
original text, which is what lets gaze positions be matched against syntax.
Keywords and punctuation are parsed but never become tree leaves; the leaves
are identifiers, literals, and type names.

The parser reads a flat stream of ``(kind, lexeme, line, col)`` tuples and
builds a ``SourceSpan`` only for each leaf and node it makes; every token is
on one line, so its end column is ``col + len(lexeme) - 1``. The public
``tokenize`` builds its ``Token`` objects, spans included, from the same
stream.

A ``ParseError`` points just past the last consumed token (1:1 before the
first), where the expected construct should begin, and names the token found
there, or ``end of input`` at the end.

Statements and expressions nest at most ``MAX_NESTING`` deep: every
statement and every expression counts one level while it is being parsed,
so each block, branch or loop body, parenthesis, call argument, index and
assignment right-hand side adds one. Deeper input raises ``ParseError``
instead of exhausting the interpreter's stack.

Parsing is a pure function, memoized on the exact source text: ``parse``
keeps the trees of the last ``_TREE_CACHE_SIZE`` distinct texts, so a
program read again is not scanned again, and equal texts get the very same
tree. Trees are therefore shared between callers: nothing in the package
mutates one, callers must not either, and a tree is safe to share across
threads. ``parse.cache_info()`` reports hits and misses, and
``parse.cache_clear()`` drops the kept trees. A ``LexError`` or
``ParseError`` is not cached, so bad input raises on every call.

Trees hold no parent links, so no tree is a reference cycle; parents and
depths come from one ``parents_and_depths`` walk, which the linker keeps
per tree.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import LexError, ParseError

KEYWORDS = frozenset({"class", "int", "boolean", "void", "if", "else", "while", "for", "return"})
BUILTIN_TYPES = frozenset({"int", "boolean", "void"})
_TYPE_START = BUILTIN_TYPES | {"Identifier"}
_WORD_KINDS = {"true": "BoolLit", "false": "BoolLit", **{word: word for word in KEYWORDS}}

# Longest first, so that the scanner prefers "==" to "=".
_OPERATORS = (
    "==", "!=", "<=", ">=", "&&", "||",
    "{", "}", "(", ")", "[", "]", ";", ",", ".",
    "=", "<", ">", "+", "-", "*", "/", "%", "!",
)

# Binding strength of the binary operators, all left-associative. Assignment
# binds looser than all of them and associates to the right.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}

# The deepest input this admits takes about 640 interpreter frames to parse,
# well within Python's default recursion limit of 1000.
MAX_NESTING = 64

INT64_MAX = 2**63 - 1

# How many trees ``parse`` keeps, and how many trees' facts the linker keeps.
# Twice the eight programs of a perfbench run: an LRU cache read in turn over
# one more program than it holds misses on every call.
_TREE_CACHE_SIZE = 16

# One alternative per token class, tried in order. ``\d`` matches what
# str.isdecimal accepts and ``\w`` what str.isalnum accepts, plus "_"; a word
# must in addition start with a letter or "_". A backslash in a string
# escapes any character but the line end.
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)"
    r'|(?P<StrLit>"(?:[^"\\\n]|\\[^\n])*")'
    r"|(?P<IntLit>\d+)"
    r"|(?P<word>\w+)"
    r'|(?P<unterminated>/\*|")'
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<bad>.)",
    re.DOTALL,
)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Inclusive 1-based character span in the original text."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int


def _cover(first: SourceSpan, last: SourceSpan) -> SourceSpan:
    """The span from the start of ``first`` to the end of ``last``."""
    return SourceSpan(first.start_line, first.start_col, last.end_line, last.end_col)


class Token(NamedTuple):
    """One lexeme. For keywords and punctuation, ``kind`` equals the lexeme."""

    kind: str
    lexeme: str
    span: SourceSpan


# A scanned token: (kind, lexeme, line, col), all on one line.
_Tok = tuple[str, str, int, int]

# The parser appends this token, so a next token always exists; no other
# token has its kind. It is empty at 1:1, so before the first token the
# "last consumed" one, tokens[-1], puts an error at 1:1.
_END = "end of input"
_END_TOKEN: _Tok = (_END, "", 1, 1)


def _through(start_line: int, start_col: int, last: _Tok) -> SourceSpan:
    """The span from ``start_line``:``start_col`` to the end of token ``last``."""
    _, lexeme, line, col = last
    return SourceSpan(start_line, start_col, line, col + len(lexeme) - 1)


@dataclass(eq=False)
class LeafToken:
    """A leaf of the AST: identifier, literal, or type name."""

    text: str
    kind: str
    span: SourceSpan
    leaf_index: int = -1


@dataclass(eq=False)
class AstNode:
    label: str
    span: SourceSpan
    children: list[AstNode | LeafToken]


Child = AstNode | LeafToken


def tokenize(source_text: str) -> list[Token]:
    """Scan ``source_text`` into tokens; comments and whitespace are skipped
    but still advance line/column positions."""
    return [
        Token(kind, lexeme, SourceSpan(line, col, line, col + len(lexeme) - 1))
        for kind, lexeme, line, col in _scan(source_text)
    ]


def _scan(source_text: str) -> Iterator[_Tok]:
    """``tokenize`` as flat ``(kind, lexeme, line, col)`` tuples."""
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for match in _TOKEN_RE.finditer(source_text):
        group, lexeme = match.lastgroup, match[0]
        if group == "skip":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = match.start() + lexeme.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        if group == "op":
            yield lexeme, lexeme, line, col
        elif group == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            yield _WORD_KINDS.get(lexeme, "Identifier"), lexeme, line, col
        elif group == "StrLit" or (group == "IntLit" and _fits_int64(lexeme)):
            yield group, lexeme, line, col
        else:
            raise _lex_error(group, lexeme, line, col)


def _lex_error(group: str, lexeme: str, line: int, col: int) -> LexError:
    if group == "IntLit":
        return LexError(line, col, f"integer literal out of 64-bit signed range: {lexeme}")
    if group == "unterminated":
        what = "block comment" if lexeme == "/*" else "string literal"
        return LexError(line, col, f"unterminated {what}")
    # a bad character, or a word that starts with one
    return LexError(line, col, f"unrecognized character {lexeme[0]!r}")


def _fits_int64(digits: str) -> bool:
    try:
        return int(digits) <= INT64_MAX
    except ValueError:  # more digits than int() converts, so far out of range
        return False


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def parse(source_text: str) -> AstNode:
    """Parse ``source_text`` into a Program tree with spans on every node.

    Memoized on the text: a text parsed before gives back the same,
    shared tree, which must not be mutated.
    """
    return _Parser(_scan(source_text)).parse_program()


def leaves(root: AstNode) -> list[LeafToken]:
    """All leaves of ``root`` in source order."""
    found: list[LeafToken] = []
    stack: list[Child] = root.children[::-1]
    while stack:
        item = stack.pop()
        if isinstance(item, LeafToken):
            found.append(item)
        else:
            stack += item.children[::-1]
    return found


def parents_and_depths(root: AstNode) -> tuple[dict[Child, AstNode], dict[AstNode, int]]:
    """Every node's and leaf's parent, and every inner node's depth (root 0)."""
    parents: dict[Child, AstNode] = {}
    depths = {root: 0}
    stack = [root]
    while stack:
        node = stack.pop()
        depth = depths[node] + 1
        for child in node.children:
            parents[child] = node
            if isinstance(child, AstNode):
                depths[child] = depth
                stack.append(child)
    return parents, depths


class _Parser:
    def __init__(self, tokens: Iterable[_Tok]):
        self.tokens = [*tokens, _END_TOKEN]
        self.pos = 0
        # Statements and expressions open at the current position.
        self.depth = 0
        # Tokens arrive in source order, so leaves are numbered as they are made.
        self.leaf_indices = itertools.count()

    # token plumbing ---------------------------------------------------

    def _at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def _advance(self) -> _Tok:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def _expect(self, kind: str, expected: str | None = None) -> _Tok:
        if self._at(kind):
            return self._advance()
        self._fail(expected or f"'{kind}'")

    def _fail(self, expected: str) -> None:
        _, last_lexeme, line, col = self.tokens[self.pos - 1]
        kind, lexeme, _, _ = self.tokens[self.pos]
        found = _END if kind == _END else f"'{lexeme}'"
        raise ParseError(line, col + len(last_lexeme), expected, found)

    def _nest(self) -> None:
        """Open one more statement or expression; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail(f"at most {MAX_NESTING} nested statements and expressions")

    def _span_from(self, start_index: int) -> SourceSpan:
        if start_index >= self.pos:  # zero-token construct (empty program)
            return SourceSpan(1, 1, 1, 1)
        _, _, start_line, start_col = self.tokens[start_index]
        return _through(start_line, start_col, self.tokens[self.pos - 1])

    def _leaf(self, tok: _Tok, kind: str) -> LeafToken:
        _, lexeme, line, col = tok
        span = SourceSpan(line, col, line, col + len(lexeme) - 1)
        return LeafToken(lexeme, kind, span, next(self.leaf_indices))

    def _parse_list(self, parse_item: Callable[[], Child]) -> tuple[list[Child], _Tok]:
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
        return self.tokens[self.pos][0] in _TYPE_START

    def parse_type(self) -> AstNode:
        if not self._at_type_start():
            self._fail("type")
        leaf = self._leaf(self._advance(), "TypeName")
        return AstNode("TypeRef", leaf.span, [leaf])

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
        kind = self.tokens[self.pos][0]
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
        kind = self.tokens[self.pos][0]
        if kind in BUILTIN_TYPES:
            return True
        # "Name Name" is a declaration; "Name = ..." etc. is an expression.
        return kind == "Identifier" and self.tokens[self.pos + 1][0] == "Identifier"

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
        while _PRECEDENCE.get(op := self.tokens[self.pos][0], 0) >= min_precedence:
            self.pos += 1
            right = self._parse_binary(_PRECEDENCE[op] + 1)
            left = AstNode(f"BinExpr:{op}", _cover(left.span, right.span), [left, right])
        return left

    def _parse_operand(self) -> Child:
        """Prefix '!'/'-', then a primary with its calls, field accesses and indexes."""
        prefixes: list[_Tok] = []
        while self.tokens[self.pos][0] in ("!", "-"):
            prefixes.append(self._advance())
        expr = self._parse_primary()
        while True:
            if self._accept("("):
                args, close = self._parse_list(self.parse_expr)
                span = _through(expr.span.start_line, expr.span.start_col, close)
                expr = AstNode("Call", span, [expr, *args])
            elif self._accept("."):
                name = self._leaf(self._expect("Identifier", "field name"), "Identifier")
                expr = AstNode("FieldAccess", _cover(expr.span, name.span), [expr, name])
            elif self._accept("["):
                index = self.parse_expr()
                close = self._expect("]")
                span = _through(expr.span.start_line, expr.span.start_col, close)
                expr = AstNode("Index", span, [expr, index])
            else:
                break
        for kind, _, line, col in reversed(prefixes):
            span = SourceSpan(line, col, expr.span.end_line, expr.span.end_col)
            expr = AstNode(f"Unary:{kind}", span, [expr])
        return expr

    def _parse_primary(self) -> Child:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "Identifier":
            self.pos += 1
            leaf = self._leaf(tok, "Identifier")
            return AstNode("Name", leaf.span, [leaf])
        if kind in ("IntLit", "BoolLit", "StrLit"):
            self.pos += 1
            return self._leaf(tok, kind)
        if self._accept("("):
            inner = self.parse_expr()
            self._expect(")")
            return inner
        self._fail("expression")


# pretty printing ------------------------------------------------------


def pretty_print(node: AstNode) -> str:
    """Render a parser-produced tree back to source text.

    Reparsing the output yields a structurally identical tree (labels and
    leaf texts; spans will differ), as long as the output nests no deeper
    than ``MAX_NESTING``. Composite subexpressions are emitted fully
    parenthesized, which keeps the rendering independent of operator
    precedence but adds one level of nesting per operator.

    It recurses once per tree level. That suffices for every tree whose
    output can reparse, since such output nests at most ``MAX_NESTING``
    deep; a far deeper tree, such as the left spine of a long flat sum, may
    raise ``RecursionError``.
    """
    if node.label != "Program":
        raise ValueError("pretty_print expects a Program root")
    return "".join(_print_stmt(child, 0) for child in node.children)


def _indent(depth: int) -> str:
    return "    " * depth


def _print_stmt(item: Child, depth: int) -> str:
    pad = _indent(depth)
    if isinstance(item, LeafToken):
        raise ValueError("a leaf is not a statement")
    label = item.label
    ch = item.children
    if label == "ClassDecl":
        head = f"{pad}class {ch[0].text} {{\n"
        body = "".join(_print_stmt(m, depth + 1) for m in ch[1:])
        return head + body + f"{pad}}}\n"
    if label == "FieldDecl" or label == "VarDecl":
        text = f"{pad}{_print_expr(ch[0])} {ch[1].text}"
        if len(ch) == 3:
            text += f" = {_print_expr(ch[2])}"
        return text + ";\n"
    if label == "MethodDecl":
        params = ", ".join(_print_expr(p) for p in ch[2:-1])
        head = f"{pad}{_print_expr(ch[0])} {ch[1].text}({params}) "
        return head + _print_block(ch[-1], depth) + "\n"
    if label == "Block":
        return pad + _print_block(item, depth) + "\n"
    if label == "If":
        text = f"{pad}if ({_print_expr(ch[0])})\n" + _print_stmt(ch[1], depth + 1)
        if len(ch) == 3:
            text += f"{pad}else\n" + _print_stmt(ch[2], depth + 1)
        return text
    if label == "While":
        return f"{pad}while ({_print_expr(ch[0])})\n" + _print_stmt(ch[1], depth + 1)
    if label == "For":
        init, cond, update, body = _split_for_children(ch)
        init_text = _print_stmt(init, 0).strip() if init is not None else ";"
        cond_text = f" {_print_expr(cond)}" if cond is not None else ""
        update_text = f" {_print_expr(update)}" if update is not None else ""
        return f"{pad}for ({init_text}{cond_text};{update_text})\n" + _print_stmt(body, depth + 1)
    if label == "Return":
        return f"{pad}return {_print_expr(ch[0])};\n" if ch else f"{pad}return;\n"
    if label == "ExprStmt":
        return f"{pad}{_print_expr(ch[0])};\n"
    raise ValueError(f"not a statement label: {label}")


def _split_for_children(ch: list[Child]):
    body = ch[-1]
    head = list(ch[:-1])
    init = None
    if head and isinstance(head[0], AstNode) and head[0].label in ("VarDecl", "ExprStmt"):
        init = head.pop(0)
    cond = head[0] if head else None
    update = head[1] if len(head) > 1 else None
    return init, cond, update, body


def _print_block(block: AstNode, depth: int) -> str:
    if not block.children:
        return "{ }"
    inner = "".join(_print_stmt(s, depth + 1) for s in block.children)
    return "{\n" + inner + _indent(depth) + "}"


def _print_expr(item: Child) -> str:
    if isinstance(item, LeafToken):
        return item.text
    label = item.label
    ch = item.children
    if label == "Name" or label == "TypeRef":
        return ch[0].text
    if label == "Param":
        return f"{_print_expr(ch[0])} {ch[1].text}"
    if label == "Assign":
        return f"({_print_expr(ch[0])} = {_print_expr(ch[1])})"
    if label.startswith("BinExpr:"):
        op = label[len("BinExpr:") :]
        return f"({_print_expr(ch[0])} {op} {_print_expr(ch[1])})"
    if label.startswith("Unary:"):
        op = label[len("Unary:") :]
        return f"{op}({_print_expr(ch[0])})"
    if label == "Call":
        args = ", ".join(_print_expr(a) for a in ch[1:])
        return f"{_print_expr(ch[0])}({args})"
    if label == "FieldAccess":
        return f"{_print_expr(ch[0])}.{ch[1].text}"
    if label == "Index":
        return f"{_print_expr(ch[0])}[{_print_expr(ch[1])}]"
    raise ValueError(f"not an expression label: {label}")


def ast_equal(a: Child, b: Child) -> bool:
    """Structural equality: labels, arity, and leaf kind/text. Spans ignored.

    One walk over a stack of node pairs, so trees of any depth compare.
    """
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if isinstance(x, LeafToken) or isinstance(y, LeafToken):
            if not (
                isinstance(x, LeafToken)
                and isinstance(y, LeafToken)
                and x.kind == y.kind
                and x.text == y.text
            ):
                return False
        elif x.label != y.label or len(x.children) != len(y.children):
            return False
        else:
            pairs += zip(x.children, y.children)
    return True
