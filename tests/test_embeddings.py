import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import oracle_fallback_vector, oracle_table_row

from eye2vec.embeddings import (
    DEFAULT_DIM,
    MAX_DIM,
    EmbeddingTable,
    context_vector,
    fallback_vector,
    load_table,
    lookup,
)
from eye2vec.errors import FormatError
from eye2vec.pathctx import PathContext


def write_table(tmp_path, text, name="emb.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# The line breaks str.splitlines() knows besides \n and \r, each inside a
# key with \n row ends, and a CRLF file; a string literal may hold any of them.
_LINE_ENDS = [(brk, "\n") for brk in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"] + [("", "\r\n")]


class TestLoadTable:
    @pytest.mark.parametrize("brk,end", _LINE_ENDS)
    def test_rows_end_at_newline_only(self, tmp_path, brk, end):
        key = f'tok:"x{brk}y"'
        rows = ["eye2vec-embeddings v1 dim=2", f"{key}\t1 0", "path:P\t0 1"]
        path = tmp_path / "emb.tsv"
        path.write_bytes(end.join([*rows, ""]).encode("utf-8"))
        table = load_table(path)
        assert list(table.entries) == [key, "path:P"]
        assert table.entries[key].tolist() == [1.0, 0.0]
        path.write_bytes(end.join([*rows, f"{key}\t0 1", ""]).encode("utf-8"))
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert (exc.value.row, exc.value.message) == (4, f"duplicate key {key!r}")

    def test_loads_rows(self, tmp_path):
        path = write_table(
            tmp_path,
            "eye2vec-embeddings v1 dim=2\ntok:a\t1.0 0.0\npath:P\t0.0 1.0\n",
        )
        table = load_table(path)
        assert table.dim == 2
        assert np.array_equal(lookup(table, "tok:a"), [1.0, 0.0])
        assert np.array_equal(lookup(table, "path:P"), [0.0, 1.0])

    def test_bad_header(self, tmp_path):
        path = write_table(tmp_path, "embeddings dim=2\ntok:a\t1 0\n")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.row == 1

    def test_wrong_component_count(self, tmp_path):
        path = write_table(tmp_path, "eye2vec-embeddings v1 dim=2\ntok:a\t1.0 0.0 0.5\n")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.row == 2

    def test_non_finite_value(self, tmp_path):
        path = write_table(tmp_path, "eye2vec-embeddings v1 dim=2\ntok:a\t1.0 nan\n")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.row == 2

    def test_duplicate_key(self, tmp_path):
        path = write_table(
            tmp_path,
            "eye2vec-embeddings v1 dim=2\ntok:a\t1 0\ntok:a\t0 1\n",
        )
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert exc.value.row == 3

    def test_non_numeric_component(self, tmp_path):
        path = write_table(tmp_path, "eye2vec-embeddings v1 dim=2\ntok:a\t1.0 x\n")
        with pytest.raises(FormatError):
            load_table(path)

    def test_unnamespaced_key(self, tmp_path):
        path = write_table(tmp_path, "eye2vec-embeddings v1 dim=2\na\t1 0\n")
        with pytest.raises(FormatError):
            load_table(path)

    def test_bad_dimension(self, tmp_path):
        with pytest.raises(FormatError):
            load_table(write_table(tmp_path, "eye2vec-embeddings v1 dim=zero\n"))
        with pytest.raises(FormatError):
            load_table(write_table(tmp_path, "eye2vec-embeddings v1 dim=0\n", "z.tsv"))

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**15])
    def test_dimension_above_the_limit(self, tmp_path, dim):
        # refused at the header, before any row is read or vector allocated
        path = write_table(tmp_path, f"eye2vec-embeddings v1 dim={dim}\ntok:a\t1\n")
        with pytest.raises(FormatError) as exc:
            load_table(path)
        assert (exc.value.row, exc.value.message) == (1, f"dimension must be at most {MAX_DIM}")


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**15])
def test_table_dim_above_the_limit(dim):
    with pytest.raises(ValueError, match=f"dim must be at most {MAX_DIM}"):
        EmbeddingTable(dim=dim)


def test_dim_reassigned_above_the_limit_is_refused_before_allocating():
    # a table's dim is fixed once it is made; fallback_vector checks its own
    # dim before a 10**15-component stream is asked for
    table = EmbeddingTable(dim=8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.dim = 10**15
    assert table.dim == 8
    with pytest.raises(ValueError, match=f"dim must be at most {MAX_DIM}"):
        fallback_vector("tok:a", 10**15, 0)


# Strings that float() reads in some unusual way, or just fails to read.
_COMPONENT_EDGES = [
    "1_0", "1__0", "_1", "1_", "inf", "-Infinity", "nan", "-nan", "NaN", "1e400", "-1e400",
    "1e-400", "0x10", "0b1", "1j", "١", "१२", "²", "１２", "٫5", "1,5", ".5", "5.", "-0",
    "+1.5", "+-1", "1e", "e1", "1.2.3", "1.5e-3_0", "True", "0001", "4.9e-324",
]
_COMPONENT = st.one_of(
    st.sampled_from(_COMPONENT_EDGES),
    st.floats().map(repr),
    st.text(alphabet="0123456789+-._eEinfatyxj١²１", min_size=1, max_size=8),
    st.text(min_size=1, max_size=4),
).filter(lambda text: text.split() == [text])  # no whitespace, so a row splits as written


class TestLoadTableAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(components=st.lists(_COMPONENT, min_size=1, max_size=5))
    @example(components=["1_0", "١", "１２", "1e-400"])
    @example(components=["0x10", "inf"])
    @example(components=["1e400", "x"])
    def test_row_matches_per_component_float(self, tmp_path_factory, components):
        path = write_table(
            tmp_path_factory.mktemp("row"),
            f"eye2vec-embeddings v1 dim={len(components)}\ntok:a\t1{' 0' * (len(components) - 1)}\n"
            f"path:P\t{' '.join(components)}\n",
        )
        try:
            expected = oracle_table_row(components, 3)
        except FormatError as error:
            with pytest.raises(FormatError) as exc:
                load_table(path)
            assert (exc.value.row, exc.value.message) == (error.row, error.message)
        else:
            assert load_table(path).entries["path:P"].tobytes() == expected.tobytes()


class TestLookup:
    def test_stored_vector_returned_unchanged(self, tmp_path):
        path = write_table(tmp_path, "eye2vec-embeddings v1 dim=2\ntok:a\t3.0 4.0\n")
        table = load_table(path)
        assert np.array_equal(lookup(table, "tok:a"), [3.0, 4.0])

    def test_fallback_is_deterministic(self):
        table = EmbeddingTable(dim=16, fallback_seed=42)
        first = lookup(table, "tok:missing")
        second = lookup(table, "tok:missing")
        assert np.array_equal(first, second)

    def test_fallback_depends_on_seed_and_key(self):
        a = lookup(EmbeddingTable(dim=16, fallback_seed=1), "tok:x")
        b = lookup(EmbeddingTable(dim=16, fallback_seed=2), "tok:x")
        c = lookup(EmbeddingTable(dim=16, fallback_seed=1), "tok:y")
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fallback_unit_norm(self):
        table = EmbeddingTable(dim=64, fallback_seed=42)
        for key in ("tok:one", "path:Block↑If", "tok:↑odd"):
            assert abs(np.linalg.norm(lookup(table, key)) - 1.0) <= 1e-12

    def test_fallback_components_in_unit_interval_before_scaling(self):
        # raw splitmix output maps to [-1, 1); normalized vector stays finite
        vec = fallback_vector("tok:q", 256, 7)
        assert np.all(np.isfinite(vec))

    def test_unnamespaced_key_rejected(self):
        with pytest.raises(ValueError):
            lookup(EmbeddingTable(dim=4), "plain")

    def test_exact_generation_recurrence(self):
        # independently recompute the first component of a fallback vector
        from eye2vec.hashing import SplitMix64, fnv1a64

        key, seed, dim = "tok:check", 42, 4
        stream = SplitMix64(fnv1a64(key) ^ seed)
        raw = [2.0 * ((stream.next_u64() >> 11) / 2.0**53) - 1.0 for _ in range(dim)]
        expected = np.array(raw) / np.linalg.norm(raw)
        assert np.array_equal(fallback_vector(key, dim, seed), expected)


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        key=st.text(
            alphabet=st.characters(exclude_categories=["Cs"]) | st.sampled_from("↑↓"),
            max_size=40,
        ),
        dim=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(key="path:Name↑Assign↓Name", dim=1, seed=0)
    @example(key="tok:↓", dim=300, seed=2**64 - 1)
    def test_fallback_bytes_match_scalar_stream(self, key, dim, seed):
        expected = oracle_fallback_vector(key, dim, seed)
        assert fallback_vector(key, dim, seed).tobytes() == expected.tobytes()

    def test_lone_surrogate_key_is_rejected(self):
        # A lone surrogate has no UTF-8 form, so the key cannot be hashed.
        with pytest.raises(ValueError):
            fallback_vector("tok:\ud800", 4, 0)
        with pytest.raises(ValueError):
            lookup(EmbeddingTable(dim=4), "tok:\ud800")


class TestFallbackMemo:
    def test_repeated_lookup_returns_same_read_only_array(self):
        table = EmbeddingTable(dim=16, fallback_seed=3)
        first = lookup(table, "path:Name↑Call↓Name")
        assert lookup(table, "path:Name↑Call↓Name") is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize("field,value", [("fallback_seed", 4), ("dim", 24)])
    def test_changed_field_gives_new_fallback(self, field, value):
        table = EmbeddingTable(dim=16, fallback_seed=3)
        before = lookup(table, "tok:x")
        changed = dataclasses.replace(table, **{field: value})
        after = lookup(changed, "tok:x")
        assert after.tobytes() == fallback_vector("tok:x", changed.dim,
                                                  changed.fallback_seed).tobytes()
        assert after.tobytes() != before.tobytes()
        assert lookup(table, "tok:x") is before

    def test_entries_cannot_be_added_later(self):
        table = EmbeddingTable(dim=2, entries={"tok:a": [1.0, 0.0]}, fallback_seed=3)
        before = lookup(table, "tok:b")
        with pytest.raises(TypeError):
            table.entries["tok:b"] = np.array([1.0, 2.0, 3.0])
        assert list(table.entries) == ["tok:a"] and lookup(table, "tok:b") is before
        other = dataclasses.replace(table, fallback_seed=7)
        assert other.entries["tok:a"] is table.entries["tok:a"]
        assert lookup(other, "tok:b").tobytes() == fallback_vector("tok:b", 2, 7).tobytes()

    def test_table_survives_pickle_and_deepcopy(self):
        table = EmbeddingTable(dim=2, entries={"tok:a": [1.0, 0.0]}, fallback_seed=3)
        lookup(table, "tok:b")
        for other in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert (other.dim, other.fallback_seed, list(other.entries)) == (2, 3, ["tok:a"])
            assert other.entries["tok:a"].tolist() == [1.0, 0.0]
            assert lookup(other, "tok:b").tobytes() == lookup(table, "tok:b").tobytes()

    def test_fallbacks_never_enter_entries(self, tmp_path):
        table = load_table(write_table(tmp_path, "eye2vec-embeddings v1 dim=2\ntok:a\t1 0\n"))
        for key in ("tok:a", "tok:b", "path:P", "tok:b"):
            lookup(table, key)
        assert list(table.entries) == ["tok:a"]

    def test_memo_is_per_table(self):
        first, second = EmbeddingTable(dim=8), EmbeddingTable(dim=8)
        assert lookup(first, "tok:x") is not lookup(second, "tok:x")
        assert first == second


class TestEntriesDict:
    def test_caller_dict_keeps_its_objects(self):
        row = [1.0, 0.0]
        given = {"tok:a": row}
        table = EmbeddingTable(dim=2, entries=given)
        assert table.entries is not given
        assert given == {"tok:a": [1.0, 0.0]} and given["tok:a"] is row
        assert isinstance(table.entries["tok:a"], np.ndarray)

    def test_replace_gives_an_independent_dict(self):
        table = EmbeddingTable(dim=2, entries={"tok:a": [1.0, 0.0]})
        other = dataclasses.replace(table, fallback_seed=7)
        assert other.entries is not table.entries
        assert other.entries["tok:a"] is table.entries["tok:a"]
        assert list(other.entries) == ["tok:a"]
        assert lookup(other, "tok:b").tobytes() == fallback_vector("tok:b", 2, 7).tobytes()


class TestContextVector:
    def test_concatenation_of_stored_vectors(self, tmp_path):
        path = write_table(
            tmp_path,
            "eye2vec-embeddings v1 dim=2\ntok:a\t1 0\npath:P\t0 1\ntok:b\t1 0\n",
        )
        table = load_table(path)
        ctx = PathContext("a", "P", "b")
        assert np.array_equal(context_vector(table, ctx), [1, 0, 0, 1, 1, 0])

    def test_shared_source_token_shares_prefix(self, small_table):
        first = context_vector(small_table, PathContext("a", "P1", "b"))
        second = context_vector(small_table, PathContext("a", "P2", "c"))
        dim = small_table.dim
        assert np.array_equal(first[:dim], second[:dim])

    def test_swapping_endpoints_permutes_blocks(self, small_table):
        forward = context_vector(small_table, PathContext("a", "P", "b"))
        backward = context_vector(small_table, PathContext("b", "P", "a"))
        dim = small_table.dim
        assert np.array_equal(forward[:dim], backward[2 * dim :])
        assert np.array_equal(forward[2 * dim :], backward[:dim])
        assert np.array_equal(forward[dim : 2 * dim], backward[dim : 2 * dim])


def test_default_dim_constant():
    assert EmbeddingTable(dim=DEFAULT_DIM).dim == 128


def test_near_orthogonality_of_fallback_vectors():
    table = EmbeddingTable(dim=128, fallback_seed=42)
    keys = [f"tok:key{i}" for i in range(1000)]
    matrix = np.stack([lookup(table, key) for key in keys])
    gram = matrix @ matrix.T
    off_diagonal = np.abs(gram[~np.eye(len(keys), dtype=bool)])
    assert off_diagonal.mean() < 0.15
