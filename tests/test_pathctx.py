import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec.errors import NotALeaf, SameLeaf
from eye2vec.hashing import fnv1a64
from eye2vec.minilang import leaves, parse
from eye2vec.pathctx import PathContext, all_path_contexts, path_between
from oracles import oracle_context_string, oracle_parents
from progen import generate_program


class TestFnv1a64:
    def test_empty_is_offset_basis(self):
        assert fnv1a64("") == 0xCBF29CE484222325

    def test_single_byte_reference(self):
        # involves the recurrence once: (basis ^ 0x61) * prime mod 2^64
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C

    def test_bytes_and_str_agree(self):
        assert fnv1a64("path") == fnv1a64(b"path")

    def test_utf8_hashing(self):
        arrow = "↑"
        assert fnv1a64(arrow) == fnv1a64(arrow.encode("utf-8"))

    def test_no_collisions_on_sample_corpus(self, sample_roots):
        seen = {}
        for root in sample_roots.values():
            for ctx in all_path_contexts(root, 0, 0):
                if ctx.hash in seen:
                    assert seen[ctx.hash] == ctx.context_string
                seen[ctx.hash] = ctx.context_string
        assert len(seen) == len(set(seen.values()))


# any text, and text made of the characters that render a context
_CONTEXT_TEXT = st.one_of(st.text(max_size=8), st.text(st.sampled_from(", ↑↓a"), max_size=8))


@given(source=_CONTEXT_TEXT, path=_CONTEXT_TEXT, target=_CONTEXT_TEXT)
def test_context_hashes_its_own_string(source, path, target):
    ctx = PathContext(source, path, target)
    assert ctx.context_string == f"{source},{path},{target}"
    assert ctx.hash == fnv1a64(ctx.context_string)


@given(source=_CONTEXT_TEXT, path=_CONTEXT_TEXT, target=_CONTEXT_TEXT)
def test_equal_contexts_hash_equal(source, path, target):
    ctx, twin = PathContext(source, path, target), PathContext(source, path, target)
    assert ctx == twin and ctx is not twin
    assert ctx.__hash__() == ctx.hash and hash(ctx) == hash(twin)


@given(source=_CONTEXT_TEXT, path=_CONTEXT_TEXT, target=_CONTEXT_TEXT)
def test_stored_string_survives_copies(source, path, target):
    ctx = PathContext(source, path, target)
    rendered = f"{source},{path},{target}"
    copies = [pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx), copy.copy(ctx),
              dataclasses.replace(ctx)]
    for other in copies:
        assert other == ctx and hash(other) == hash(ctx)
        assert other.context_string == rendered
    moved = dataclasses.replace(ctx, target_text=target + "\u00e9,")
    assert moved.context_string == rendered + "\u00e9,"
    assert moved.hash == fnv1a64(moved.context_string)


def test_stored_string_is_not_compared_or_shown():
    ctx = PathContext("a,b", "Name\u2191Call", "\u00e9")
    assert ctx.context_string == "a,b,Name\u2191Call,\u00e9"
    assert repr(ctx) == (f"PathContext(source_text='a,b', path_encoding='Name\u2191Call', "
                         f"target_text='\u00e9', hash={ctx.hash})")
    assert [f.name for f in dataclasses.fields(ctx) if f.compare] == [
        "source_text", "path_encoding", "target_text", "hash"]
    twin = PathContext("a,b", "Name\u2191Call", "\u00e9")
    object.__setattr__(twin, "context_string", "another rendering")
    assert twin == ctx
    with pytest.raises(ValueError):
        dataclasses.replace(ctx, context_string="x")


def test_contexts_that_render_one_string_stay_two_keys():
    first, second = PathContext("x", "P", "y,P,z"), PathContext("x,P,y", "P", "z")
    assert first.context_string == second.context_string and hash(first) == hash(second)
    assert first != second
    counts = {first: 1, second: 2}
    assert len(counts) == 2 and (counts[first], counts[second]) == (1, 2)


def test_context_hash_is_not_an_argument():
    with pytest.raises(TypeError):
        PathContext("a", "P", "b", 5)


class TestPathBetween:
    def test_assignment_context(self):
        root = parse("class A { int f() { a = b; } }")
        lv = leaves(root)
        a = next(l for l in lv if l.text == "a")
        b = next(l for l in lv if l.text == "b")
        ctx = path_between(root, a, b)
        assert ctx.context_string == "a,Name↑Assign↓Name,b"
        assert ctx.hash == fnv1a64("a,Name↑Assign↓Name,b")

    def test_class_to_field_context(self):
        root = parse("class A { int x; }")
        lv = leaves(root)
        ctx = path_between(root, lv[0], next(l for l in lv if l.text == "x"))
        assert ctx.context_string == "A,ClassDecl↓FieldDecl,x"

    def test_sibling_leaves_have_bare_lca(self):
        root = parse("class A { int f() { return 1 + 2; } }")
        lv = leaves(root)
        one = next(l for l in lv if l.text == "1")
        two = next(l for l in lv if l.text == "2")
        assert path_between(root, one, two).path_encoding == "BinExpr:+"

    def test_same_leaf_rejected(self):
        root = parse("class A { int x; }")
        leaf = leaves(root)[0]
        with pytest.raises(SameLeaf):
            path_between(root, leaf, leaf)

    def test_foreign_leaf_rejected(self):
        root = parse("class A { int x; }")
        other = parse("class B { int y; }")
        with pytest.raises(NotALeaf, match="does not belong"):
            path_between(root, leaves(root)[0], leaves(other)[0])

    def test_inner_node_rejected_before_same_leaf(self):
        root = parse("class A { int x; }")
        with pytest.raises(NotALeaf, match="is not a leaf"):
            path_between(root, root.children[0], root.children[0])

    def test_exactly_one_unmarked_lca_label(self, accumulator_root):
        lv = leaves(accumulator_root)
        for a, b in itertools.islice(itertools.combinations(lv, 2), 200):
            encoding = path_between(accumulator_root, a, b).path_encoding
            # strip all arrow-marked labels; exactly the LCA label remains
            assert encoding
            up_count = encoding.count("↑")
            down_count = encoding.count("↓")
            assert up_count >= 0 and down_count >= 0
            segments = encoding.replace("↓", "↑").split("↑")
            assert len(segments) == up_count + down_count + 1

    def test_matches_oracle_on_samples(self, sample_roots):
        for root in sample_roots.values():
            lv = leaves(root)
            parents = oracle_parents(root)
            for a, b in itertools.combinations(lv, 2):
                expected = oracle_context_string(parents, a, b)
                assert path_between(root, a, b).context_string == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
@example(seed=2345135)  # seeds whose for-loops once overran the generator's leaf budget
@example(seed=25028778)
def test_symmetry_reverses_arrows(seed):
    root = parse(generate_program(seed))
    lv = leaves(root)
    if len(lv) < 2:
        return
    pairs = list(itertools.combinations(range(len(lv)), 2))[:50]
    for i, j in pairs:
        forward = path_between(root, lv[i], lv[j])
        backward = path_between(root, lv[j], lv[i])
        assert forward.source_text == backward.target_text
        assert forward.target_text == backward.source_text
        flipped = backward.path_encoding[::-1]
        # reversing the string also reverses each label; compare via tokens
        def tokens(encoding):
            return encoding.replace("↑", " u ").replace("↓", " d ").split()

        forward_tokens = tokens(forward.path_encoding)
        backward_tokens = tokens(backward.path_encoding)
        assert forward_tokens == [
            {"u": "d", "d": "u"}.get(t, t) for t in reversed(backward_tokens)
        ]
        assert flipped  # silences unused warnings in older pytest


class TestAllPathContexts:
    def test_single_leaf_no_pairs(self):
        assert all_path_contexts(parse("class A { }")) == []

    def test_width_cap_keeps_adjacent_pairs(self):
        root = parse("class A { int x; }")  # leaves A, int, x
        contexts = all_path_contexts(root, max_length=0, max_width=1)
        lv = leaves(root)
        expected = [
            path_between(root, lv[0], lv[1]).context_string,
            path_between(root, lv[1], lv[2]).context_string,
        ]
        assert [c.context_string for c in contexts] == expected

    def test_uncapped_count_is_choose_two(self):
        root = parse("class A { int x = 1; }")
        contexts = all_path_contexts(root, max_length=0, max_width=0)
        assert len(contexts) == 6  # C(4, 2)

    def test_sorted_by_leaf_indices(self, accumulator_root):
        lv = leaves(accumulator_root)
        index_of = {id(l): l.leaf_index for l in lv}
        text_at = {l.leaf_index: l.text for l in lv}
        contexts = all_path_contexts(accumulator_root, max_length=0, max_width=3)
        seen_pairs = []
        k = 0
        for i in range(len(lv)):
            for j in range(i + 1, min(i + 4, len(lv))):
                assert contexts[k].source_text == text_at[i]
                assert contexts[k].target_text == text_at[j]
                seen_pairs.append((i, j))
                k += 1
        assert k == len(contexts)

    def test_length_cap_filters_long_paths(self, accumulator_root):
        capped = all_path_contexts(accumulator_root, max_length=3, max_width=0)
        uncapped = all_path_contexts(accumulator_root, max_length=0, max_width=0)
        assert len(capped) < len(uncapped)
        assert all(c.node_count <= 3 for c in capped)
        capped_set = {c.context_string for c in capped}
        for c in uncapped:
            assert (c.context_string in capped_set) == (c.node_count <= 3)

    def test_long_sum_matches_oracle(self):
        # a flat chain parses to a left spine as deep as the chain is long
        terms = " + ".join(f"t{i}" for i in range(2000))
        root = parse(f"class A {{ int f() {{ return {terms}; }} }}")
        lv = leaves(root)
        contexts = all_path_contexts(root, max_length=0, max_width=2)
        pairs = [(i, j) for i in range(len(lv)) for j in range(i + 1, min(i + 3, len(lv)))]
        assert len(contexts) == len(pairs)
        parents = oracle_parents(root)
        for context, (i, j) in zip(contexts, pairs):
            assert context.context_string == oracle_context_string(parents, lv[i], lv[j])

    def test_deterministic(self, accumulator_root):
        first = [c.context_string for c in all_path_contexts(accumulator_root)]
        second = [c.context_string for c in all_path_contexts(accumulator_root)]
        assert first == second
