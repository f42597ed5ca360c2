import gc
import itertools
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec.data import sample_source
from eye2vec.errors import Eye2vecError, LexError, ParseError
from eye2vec.minilang import (
    MAX_NESTING,
    AstNode,
    LeafToken,
    SourceSpan,
    ast_equal,
    leaves,
    parents_and_depths,
    parse,
    pretty_print,
    tokenize,
)
from oracles import oracle_parents, oracle_parse, oracle_tokenize, span_contains
from progen import generate_program


# Binary operators from loosest to tightest binding, one level per entry.
PRECEDENCE_LEVELS = [
    ("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%"),
]
BINDING = {op: level for level, ops in enumerate(PRECEDENCE_LEVELS) for op in ops}
BINARY_OPERATORS = list(BINDING)


def span_tuple(span):
    return (span.start_line, span.start_col, span.end_line, span.end_col)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_simple_assignment_spans(self):
        tokens = tokenize("a = b;")
        assert [(t.kind, t.lexeme, span_tuple(t.span)) for t in tokens] == [
            ("Identifier", "a", (1, 1, 1, 1)),
            ("=", "=", (1, 3, 1, 3)),
            ("Identifier", "b", (1, 5, 1, 5)),
            (";", ";", (1, 6, 1, 6)),
        ]

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("int \x01;")
        assert (exc.value.line, exc.value.col) == (1, 5)

    def test_keywords_and_literals(self):
        kinds = [t.kind for t in tokenize('class if else while for return true false 12 "s" x')]
        assert kinds == [
            "class", "if", "else", "while", "for", "return",
            "BoolLit", "BoolLit", "IntLit", "StrLit", "Identifier",
        ]

    def test_comments_advance_spans(self):
        tokens = tokenize("a /* gap */ b\n// whole line\n  c")
        assert [(t.lexeme, span_tuple(t.span)) for t in tokens] == [
            ("a", (1, 1, 1, 1)),
            ("b", (1, 13, 1, 13)),
            ("c", (3, 3, 3, 3)),
        ]

    def test_multiline_block_comment(self):
        tokens = tokenize("/* one\ntwo */ x")
        assert span_tuple(tokens[0].span) == (2, 8, 2, 8)

    def test_two_char_operators_max_munch(self):
        kinds = [t.kind for t in tokenize("== != <= >= && || = < >")]
        assert kinds == ["==", "!=", "<=", ">=", "&&", "||", "=", "<", ">"]

    def test_string_with_escapes(self):
        tokens = tokenize(r'"a\"b" x')
        assert tokens[0].lexeme == r'"a\"b"'
        assert tokens[1].lexeme == "x"

    @pytest.mark.parametrize(
        "source,line,col",
        [
            ('"unterminated', 1, 1),
            ('x\n  "open\n', 2, 3),
            ('"no\\\nescape across lines"', 1, 1),
            ("/* never closed", 1, 1),
            ("a & b", 1, 3),
            ("a | b", 1, 3),
            ("x = ²;", 1, 5),
        ],
    )
    def test_lex_errors(self, source, line, col):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_int_literal_range(self):
        assert tokenize("9223372036854775807")[0].kind == "IntLit"
        with pytest.raises(LexError):
            tokenize("9223372036854775808")
        # longer than int() converts by default
        with pytest.raises(LexError) as exc:
            tokenize("1" * 5000)
        assert "out of 64-bit signed range" in exc.value.message

    def test_unicode_digits(self):
        # decimal digits of any script are integer literals ...
        assert [(t.kind, t.lexeme) for t in tokenize("٣٤ x٣")] == [
            ("IntLit", "٣٤"), ("Identifier", "x٣"),
        ]
        # ... but other digit characters are not, even inside a number
        for source in ("3²", "²x"):
            with pytest.raises(LexError) as exc:
                tokenize(source)
            assert exc.value.message == "unrecognized character '²'"

    def test_tabs_count_one_column(self):
        tokens = tokenize("\ta")
        assert span_tuple(tokens[0].span) == (1, 2, 1, 2)

    def test_tokens_and_spans_are_immutable_values(self):
        token = tokenize("  ab")[0]
        assert token == ("Identifier", "ab", SourceSpan(1, 3, 1, 4))
        assert hash(token.span) == hash(SourceSpan(1, 3, 1, 4))
        assert len({token, tokenize("  ab")[0]}) == 1
        with pytest.raises(AttributeError):
            token.span.end_col = 5


class TestParse:
    def test_empty_class(self):
        root = parse("class A { }")
        assert root.label == "Program"
        (cls,) = root.children
        assert cls.label == "ClassDecl"
        (name,) = cls.children
        assert isinstance(name, LeafToken) and name.text == "A"

    def test_assignment_in_method_body(self):
        root = parse("class A { int f() { a = b; } }")
        method = root.children[0].children[1]
        assert method.label == "MethodDecl"
        block = method.children[-1]
        (stmt,) = block.children
        assert stmt.label == "ExprStmt"
        (assign,) = stmt.children
        assert assign.label == "Assign"
        left, right = assign.children
        assert left.label == "Name" and left.children[0].text == "a"
        assert right.label == "Name" and right.children[0].text == "b"

    def test_parse_error_position_and_expectation(self):
        with pytest.raises(ParseError) as exc:
            parse("class A { int f( }")
        assert (exc.value.line, exc.value.col) == (1, 17)
        assert "type" in exc.value.expected and "')'" in exc.value.expected
        assert exc.value.found == "'}'"

    def test_parse_error_at_eof(self):
        with pytest.raises(ParseError) as exc:
            parse("class A {")
        assert exc.value.found == "end of input"

    def test_empty_program(self):
        root = parse("")
        assert root.label == "Program" and root.children == []

    def test_assign_requires_lvalue(self):
        with pytest.raises(ParseError):
            parse("class A { void f() { 1 = 2; } }")
        # field access and index are assignable
        parse("class A { void f() { a.b = 1; a[0] = 2; } }")

    @pytest.mark.parametrize("first,second", itertools.product(BINARY_OPERATORS, repeat=2))
    def test_operator_precedence(self, first, second):
        root = parse(f"class A {{ int f() {{ return a {first} b {second} c; }} }}")
        ret = root.children[0].children[1].children[-1].children[0]
        (top,) = ret.children
        if BINDING[first] >= BINDING[second]:  # left-associative within a level
            assert top.label == f"BinExpr:{second}"
            assert top.children[0].label == f"BinExpr:{first}"
        else:
            assert top.label == f"BinExpr:{first}"
            assert top.children[1].label == f"BinExpr:{second}"

    def test_assignment_right_associative(self):
        root = parse("class A { void f() { a = b = c; } }")
        assign = root.children[0].children[1].children[-1].children[0].children[0]
        assert assign.label == "Assign"
        assert assign.children[1].label == "Assign"

    def test_dangling_else_binds_inner(self):
        root = parse("class A { void f() { if (a) if (b) c = 1; else c = 2; } }")
        outer = root.children[0].children[1].children[-1].children[0]
        assert outer.label == "If" and len(outer.children) == 2
        inner = outer.children[1]
        assert inner.label == "If" and len(inner.children) == 3

    def test_for_variants(self):
        root = parse(
            "class A { void f() { for (;;) { } for (int i = 0; i < 3; i = i + 1) { } } }"
        )
        block = root.children[0].children[1].children[-1]
        bare, full = block.children
        assert bare.label == "For" and len(bare.children) == 1
        assert full.label == "For" and len(full.children) == 4
        assert full.children[0].label == "VarDecl"

    def test_type_positions_become_typename_leaves(self):
        root = parse("class A { Widget w; int f(boolean flag) { } }")
        lv = leaves(root)
        type_leaves = [l.text for l in lv if l.kind == "TypeName"]
        assert type_leaves == ["Widget", "int", "boolean"]

    def test_determinism(self):
        src = generate_program(7)
        assert ast_equal(parse(src), parse(src))


class TestLeaves:
    def test_only_identifier_leaf(self):
        lv = leaves(parse("class A { }"))
        assert [(l.text, l.kind) for l in lv] == [("A", "Identifier")]

    def test_field_with_initializer(self):
        lv = leaves(parse("class A { int x = 1; }"))
        assert [l.text for l in lv] == ["A", "int", "x", "1"]
        assert [l.kind for l in lv] == ["Identifier", "TypeName", "Identifier", "IntLit"]

    def test_empty_program_has_no_leaves(self):
        assert leaves(parse("")) == []

    def test_leaf_indices_consecutive(self):
        lv = leaves(parse("class A { int x = 1; int f(int p) { return p + x; } }"))
        assert [l.leaf_index for l in lv] == list(range(len(lv)))


class TestParentsAndDepths:
    def test_tree_is_freed_without_the_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            root = parse(sample_source("accumulator"))
            refs = [weakref.ref(root), weakref.ref(leaves(root)[0])]
            del root
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_field_with_initializer_tree(self):
        root = parse("class A { int x = 1; }")
        parents, depths = parents_and_depths(root)
        (cls,) = root.children
        name, field = cls.children
        type_node, x, one = field.children
        assert [parents[node] for node in (cls, name, field, type_node, x, one)] == [
            root, cls, cls, field, field, field
        ]
        assert root not in parents
        assert depths == {root: 0, cls: 1, field: 2, type_node: 3}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle_parents(self, seed):
        root = parse(generate_program(seed))
        parents, depths = parents_and_depths(root)
        expected = oracle_parents(root)
        assert {id(child): node for child, node in parents.items()} == expected
        for node, depth in depths.items():
            chain = 0
            while id(node) in expected:
                node = expected[id(node)]
                chain += 1
            assert node is root and depth == chain
        assert len(depths) == 1 + sum(isinstance(child, AstNode) for child in parents)


def _method(body):
    return "class A { int f() { " + body + " } }"


def _deepest_expression(levels):
    # Each level sits under six operators of rising precedence, which is the
    # most interpreter frames one level of nesting can take.
    return "a || a && a == a < a + a * (" * (levels - 1) + "a" + ")" * (levels - 1)


class TestNesting:
    def test_blocks_at_the_limit(self):
        # the method body is not a statement; each block inside it is one
        parse(_method("{" * MAX_NESTING + "}" * MAX_NESTING))
        with pytest.raises(ParseError) as exc:
            parse(_method("{" * (MAX_NESTING + 1) + "}" * (MAX_NESTING + 1)))
        # at the first '{' past the limit
        assert (exc.value.line, exc.value.col) == (1, 21 + MAX_NESTING)
        assert exc.value.found == "'{'"

    def test_expressions_at_the_limit(self):
        # the return statement is one level, each expression one more
        parse(_method(f"return {_deepest_expression(MAX_NESTING - 1)};"))
        with pytest.raises(ParseError) as exc:
            parse(_method(f"return {_deepest_expression(MAX_NESTING)};"))
        assert exc.value.found == "'a'"

    @pytest.mark.parametrize(
        "body",
        [
            "return " + "(" * 500 + "a" + ")" * 500 + ";",
            "{" * 1000 + "}" * 1000,
            "a = " * 5000 + "a;",
        ],
        ids=["500-parentheses", "1000-blocks", "5000-assignments"],
    )
    def test_deep_nesting_raises_parse_error(self, body):
        with pytest.raises(ParseError) as exc:
            parse(_method(body))
        assert exc.value.expected == f"at most {MAX_NESTING} nested statements and expressions"

    def test_long_flat_chains_parse(self):
        # prefix operators and binary chains are parsed in loops, not nested calls
        minuses = parse(_method("return " + "-" * 5000 + "x;"))
        assert [l.text for l in leaves(minuses)] == ["A", "int", "f", "x"]
        terms = [f"t{i}" for i in range(20_000)]
        lv = leaves(parse(_method("return " + " + ".join(terms) + ";")))
        assert [l.text for l in lv] == ["A", "int", "f"] + terms
        assert [l.leaf_index for l in lv] == list(range(len(lv)))

    @pytest.mark.parametrize(
        "body",
        [
            lambda first: "return " + "-" * 5000 + first + ";",
            lambda first: "return " + first + "".join(f" + t{i}" for i in range(1, 20_000)) + ";",
        ],
        ids=["5000-prefix-minuses", "20000-term-sum"],
    )
    def test_ast_equal_on_deep_trees(self, body):
        # the first leaf of the body is the deepest one
        tree = parse(_method(body("t0")))
        assert ast_equal(tree, parse(_method(body("t0"))))
        assert not ast_equal(tree, parse(_method(body("u0"))))


def _assert_span_soundness(source, root):
    lines = source.split("\n")
    for leaf in leaves(root):
        span = leaf.span
        assert span.start_line == span.end_line
        extracted = lines[span.start_line - 1][span.start_col - 1 : span.end_col]
        assert extracted == leaf.text


def _assert_parent_containment(node):
    for child in node.children:
        assert span_contains(node.span, child.span.start_line, child.span.start_col)
        assert span_contains(node.span, child.span.end_line, child.span.end_col)
        if isinstance(child, AstNode):
            _assert_parent_containment(child)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
@example(seed=2345135)  # seeds whose for-loops once overran the generator's leaf budget
@example(seed=25028778)
def test_generated_program_properties(seed):
    source = generate_program(seed)
    root = parse(source)
    lv = leaves(root)
    assert len(lv) <= 30
    _assert_span_soundness(source, root)
    _assert_parent_containment(root)
    # leaf order equals position order
    positions = [(l.span.start_line, l.span.start_col) for l in lv]
    assert positions == sorted(positions)
    # pretty-print round trip preserves structure
    assert ast_equal(root, parse(pretty_print(root)))


def _programs():
    samples = st.sampled_from(["point", "accumulator", "lookup"]).map(sample_source)
    return st.one_of(samples, st.integers(0, 10**9).map(generate_program))


@settings(max_examples=60, deadline=None)
@given(source=_programs())
def test_leaf_index_is_position_in_leaves(source):
    lv = leaves(parse(source))
    assert [l.leaf_index for l in lv] == list(range(len(lv)))


@settings(max_examples=60, deadline=None)
@given(source=_programs())
def test_leaf_start_columns_increase_within_each_line(source):
    last_start: dict[int, int] = {}
    for leaf in leaves(parse(source)):
        line = leaf.span.start_line
        assert leaf.span.start_col > last_start.get(line, 0)
        last_start[line] = leaf.span.start_col


def test_span_soundness_on_samples(sample_roots):
    for name, root in sample_roots.items():
        _assert_span_soundness(sample_source(name), root)
        _assert_parent_containment(root)


def test_source_span_contains():
    span = SourceSpan(2, 5, 2, 9)
    assert span_contains(span, 2, 5) and span_contains(span, 2, 9)
    assert not span_contains(span, 2, 4) and not span_contains(span, 2, 10)
    assert not span_contains(span, 1, 7) and not span_contains(span, 3, 7)
    multi = SourceSpan(1, 10, 3, 2)
    assert span_contains(multi, 2, 1) and span_contains(multi, 1, 10)
    assert span_contains(multi, 3, 2)
    assert not span_contains(multi, 1, 9) and not span_contains(multi, 3, 3)


# differential tests against the former tokenizer and parser ---------------


def _token_offsets(source):
    """The [start, end) text offsets of each token of ``source``."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    offsets = []
    for token in oracle_tokenize(source):
        start = line_starts[token.span.start_line - 1] + token.span.start_col - 1
        offsets.append((start, start + len(token.lexeme)))
    return offsets


@st.composite
def _mutated_programs(draw):
    """A generated program as it is, truncated, or with one token deleted or
    duplicated."""
    source = generate_program(draw(st.integers(0, 10**9)), draw(st.integers(1, 60)))
    how = draw(st.sampled_from(["as is", "truncated", "deleted", "duplicated"]))
    if how == "truncated":
        return source[: draw(st.integers(0, len(source)))]
    if how == "as is":
        return source
    start, end = draw(st.sampled_from(_token_offsets(source)))
    if how == "deleted":
        return source[:start] + source[end:]
    return source[:end] + " " + source[start:end] + source[end:]


# Fragments of the language and characters it rejects, so that drawn text
# reaches every lexer error.
_FRAGMENTS = st.lists(
    st.sampled_from([
        "class", "A", "x", "int", "void", "if", "else", "for", "while", "return", "true",
        "0", "12", "٣", "²", "9223372036854775808", '"s"', '"', "/*", "*/", "//", "\\",
        "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "==", "&", "|", "&&", "+", "-",
        "!", "*", " ", "\n", "\t", "$",
    ]),
    max_size=40,
).map("".join)


def _outcome(function, source):
    try:
        return function(source), None
    except Eye2vecError as exc:
        return None, exc


def _assert_same_error(error, expected):
    assert type(error) is type(expected)
    assert (error.line, error.col, str(error)) == (expected.line, expected.col, str(expected))


def _assert_same_tree(root, expected):
    assert ast_equal(root, expected)
    pairs = [(root, expected)]
    while pairs:
        item, want = pairs.pop()
        assert item.span == want.span
        if isinstance(item, LeafToken):
            assert item.leaf_index == want.leaf_index
        else:
            pairs += zip(item.children, want.children)


def _check_tokenize(source):
    tokens, error = _outcome(tokenize, source)
    expected, expected_error = _outcome(oracle_tokenize, source)
    if expected_error is None:
        assert error is None and tokens == expected
    else:
        _assert_same_error(error, expected_error)


def _check_parse(source):
    root, error = _outcome(parse, source)
    expected, expected_error = _outcome(oracle_parse, source)
    if expected_error is None:
        assert error is None
        _assert_same_tree(root, expected)
    else:
        _assert_same_error(error, expected_error)


@settings(max_examples=400, deadline=None)
@given(source=st.one_of(_mutated_programs(), _FRAGMENTS))
def test_tokenize_and_parse_match_oracle(source):
    _check_tokenize(source)
    _check_parse(source)


@pytest.mark.parametrize("source", [
    "", "}", "class", "class A {", "class A { int f( }", '"open', "x /* y", "a & b",
    _method("{" * (MAX_NESTING + 1) + "}" * (MAX_NESTING + 1)),
    _method(f"return {_deepest_expression(MAX_NESTING)};"),
    _method("return " + "-" * 500 + "f(a)[b].c;"),
    sample_source("lookup"),
])
def test_edge_cases_match_oracle(source):
    _check_tokenize(source)
    _check_parse(source)
