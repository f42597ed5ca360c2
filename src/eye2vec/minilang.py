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

Trees hold no parent links, so no tree is a reference cycle. What the rest
of the package reads of a tree comes from one walk in source order,
``tree_facts``, whose record is kept beside ``parse``'s cache for the last
``_TREE_CACHE_SIZE`` distinct trees, keyed by the tree itself (trees hash
by identity), so a tree seen before is walked no more. The record also
carries the linker's pair memo; ``tree_facts.cache_clear()`` frees both.
It is kept off the tree, which it references, so that the tree stays
acyclic. A tree must not be mutated once its facts are taken.
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

# How many trees ``parse`` keeps, and how many trees' facts ``tree_facts`` keeps.
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


# Each line's start columns and leaves, by line number.
_LineIndex = dict[int, tuple[list[int], list[LeafToken]]]


class TreeFacts(NamedTuple):
    """What one walk of a tree yields. It is shared, so callers only read
    it, except the linker, which fills ``pair_memo``."""

    leaves: list[LeafToken]
    parents: dict[Child, AstNode]
    depths: dict[AstNode, int]
    lines: _LineIndex
    # The linker's path context of each leaf pair linked over the tree so far.
    pair_memo: dict[tuple[LeafToken, LeafToken], object]


@functools.lru_cache(maxsize=_TREE_CACHE_SIZE)
def tree_facts(root: AstNode) -> TreeFacts:
    """The facts of ``root`` from one walk in source order, once per tree.

    ``parents`` maps every node and leaf but the root, ``depths`` every
    inner node (root 0). ``lines`` holds each line's start columns and
    leaves: a leaf of a parsed tree lies on one line and overlaps no other
    leaf, and the parser makes a line's leaves in column order, so each line
    comes out sorted by start column. ``pair_memo`` starts empty.

    The cache holds the tree, so its identity is not reused while the entry
    lives.
    """
    found: list[LeafToken] = []
    parents: dict[Child, AstNode] = {}
    depths = {root: 0}
    lines: _LineIndex = {}
    stack: list[Child] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, LeafToken):
            found.append(item)
            cols, row = lines.setdefault(item.span.start_line, ([], []))
            cols.append(item.span.start_col)
            row.append(item)
            continue
        depth = depths[item] + 1
        for child in item.children:
            parents[child] = item
            if isinstance(child, AstNode):
                depths[child] = depth
        stack += item.children[::-1]
    return TreeFacts(found, parents, depths, lines, {})


def leaves(root: AstNode) -> list[LeafToken]:
    """All leaves of ``root`` in source order, as a new list on each call."""
    return list(tree_facts(root).leaves)


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
