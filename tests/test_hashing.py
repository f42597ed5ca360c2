import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec import linker
from eye2vec.hashing import (
    FNV_OFFSET_BASIS,
    SplitMix64,
    _fnv1a64_from,
    fnv1a64,
    splitmix64_block,
)
from eye2vec.linker import TransitionProfile
from eye2vec.pathctx import PathContext
from oracles import oracle_content_hash, oracle_fnv1a64


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300))
@example(seed=0, n=1)
@example(seed=2**64 - 1, n=300)
def test_block_matches_scalar_stream(seed, n):
    stream = SplitMix64(seed)
    block = splitmix64_block(seed, n)
    assert block.dtype == np.uint64
    assert [int(z) for z in block] == [stream.next_u64() for _ in range(n)]


def test_block_masks_seed_like_the_class():
    for seed in (-1, 2**64 + 5, -(2**70)):
        stream = SplitMix64(seed)
        assert [int(z) for z in splitmix64_block(seed, 4)] == [stream.next_u64() for _ in range(4)]


def test_block_rejects_negative_length():
    with pytest.raises(ValueError):
        splitmix64_block(1, -1)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=64) | st.text(max_size=32))
@example(data=b"")
@example(data="")
@example(data="x\u00e9\u4e2d\U0001f600")
@example(data=bytes(range(256)))
def test_fnv1a64_matches_two_statement_loop(data):
    assert fnv1a64(data) == oracle_fnv1a64(data)


@given(first=st.binary(max_size=32), second=st.binary(max_size=32))
def test_byte_loop_continues_from_a_state(first, second):
    middle = _fnv1a64_from(FNV_OFFSET_BASIS, first)
    assert _fnv1a64_from(middle, second) == oracle_fnv1a64(second, middle) == fnv1a64(first + second)


_CONTEXTS = st.builds(PathContext, st.text(max_size=6), st.text(max_size=6), st.text(max_size=6))
# counts of one to many digits, so segments differ in length
_COUNTS = st.one_of(st.integers(1, 20), st.integers(1, 10**40))


@st.composite
def profiles(draw):
    recording_id = draw(st.one_of(st.text(max_size=12), st.sampled_from(["r\u00e9\u4e2d\U0001f600", ""])))
    return TransitionProfile(recording_id, draw(st.dictionaries(_CONTEXTS, _COUNTS, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(profile=profiles())
def test_content_hash_matches_one_string_hashed_byte_by_byte(profile):
    want = oracle_content_hash(profile)
    assert profile.content_hash() == want
    # again, now from the states the first call stored
    assert profile.content_hash() == want


def test_a_recurring_profile_runs_no_byte_loop(monkeypatch):
    contexts = [PathContext(f"s{i}", "Name\u2191Call", "t\u00e9") for i in range(40)]
    profile = TransitionProfile("r\u00e9", {c: 10**i for i, c in enumerate(contexts, 1)})
    monkeypatch.setattr(linker, "_segment_memo", {})
    want = profile.content_hash()
    assert len(linker._segment_memo) == 40

    def fail(h, data):
        raise AssertionError("a stored segment was hashed again")

    monkeypatch.setattr(linker, "_fnv1a64_from", fail)
    assert profile.content_hash() == want == oracle_content_hash(profile)


def test_shared_segments_under_other_ids_hash_like_the_oracle(monkeypatch):
    # one (context, count) segment met from the states of several ids: a memo
    # key that drops the state would hand one id's result to another
    contexts = [PathContext(f"s{i}", "Name\u2191Call", "t") for i in range(6)]
    profiles = [TransitionProfile(f"r{n}", {c: i + 1 for i, c in enumerate(contexts)})
                for n in range(4)]
    assert len({oracle_content_hash(p) for p in profiles}) == len(profiles)
    for order in (profiles, profiles[::-1]):
        monkeypatch.setattr(linker, "_segment_memo", {})
        for _ in range(2):
            assert [p.content_hash() for p in order] == [oracle_content_hash(p) for p in order]


def test_segment_memo_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(linker, "_SEGMENT_MEMO_SIZE", 16)
    monkeypatch.setattr(linker, "_segment_memo", {})
    for n in (5, 30, 60):
        contexts = [PathContext(f"a{i}", "P", f"b{n}") for i in range(n)]
        profile = TransitionProfile(f"r{n}", {c: i + 1 for i, c in enumerate(contexts)})
        for _ in range(2):
            assert profile.content_hash() == oracle_content_hash(profile)
        assert len(linker._segment_memo) == (5 if n == 5 else 16)
