import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec import linker
from eye2vec.errors import _Memo
from eye2vec.hashing import SplitMix64, fnv1a64, splitmix64_block
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


_CONTEXTS = st.builds(PathContext, st.text(max_size=6), st.text(max_size=6), st.text(max_size=6))
# counts of one to many digits, so segments differ in length
_COUNTS = st.one_of(st.integers(1, 20), st.integers(1, 10**40))


@st.composite
def profiles(draw):
    recording_id = draw(st.one_of(st.text(min_size=1, max_size=12),
                                  st.just("r\u00e9\u4e2d\U0001f600")))
    return TransitionProfile(recording_id, draw(st.dictionaries(_CONTEXTS, _COUNTS, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(profile=profiles())
def test_content_hash_matches_one_string_hashed_byte_by_byte(profile):
    want = oracle_content_hash(profile)
    assert profile.content_hash() == want
    # again, now from the memo
    assert profile.content_hash() == want


def test_a_recurring_profile_runs_no_byte_loop(monkeypatch):
    contexts = [PathContext(f"s{i}", "Name\u2191Call", "t\u00e9") for i in range(40)]
    profile = TransitionProfile("r\u00e9", {c: 10**i for i, c in enumerate(contexts, 1)})
    monkeypatch.setattr(linker, "_profile_memo", _Memo(linker._PROFILE_MEMO_BUDGET))
    calls = []

    def once(data):
        assert not calls, "a stored profile was hashed again"
        calls.append(data)
        return fnv1a64(data)

    monkeypatch.setattr(linker, "fnv1a64", once)
    want = profile.content_hash()
    # an equal profile made again from its entries, in reverse order
    again = TransitionProfile("r\u00e9", dict(reversed(profile.entries.items())))
    assert again.content_hash() == profile.content_hash() == want == oracle_content_hash(profile)
    assert len(calls) == 1 and linker._profile_memo.charges == 41


def test_shared_segments_under_other_ids_hash_like_the_oracle(monkeypatch):
    # one set of (context, count) entries under several ids: a memo key that
    # dropped the id would hand one id's hash to another
    contexts = [PathContext(f"s{i}", "Name\u2191Call", "t") for i in range(6)]
    profiles = [TransitionProfile(f"r{n}", {c: i + 1 for i, c in enumerate(contexts)})
                for n in range(4)]
    assert len({oracle_content_hash(p) for p in profiles}) == len(profiles)
    for order in (profiles, profiles[::-1]):
        monkeypatch.setattr(linker, "_profile_memo", _Memo(linker._PROFILE_MEMO_BUDGET))
        for _ in range(2):
            assert [p.content_hash() for p in order] == [oracle_content_hash(p) for p in order]


def test_profile_memo_stops_storing_at_its_budget(monkeypatch):
    monkeypatch.setattr(linker, "_profile_memo", _Memo(40))
    # charges 6, 31 and 61: the third would pass the budget and is not stored
    for n, stored in ((5, 1), (30, 2), (60, 2)):
        contexts = [PathContext(f"a{i}", "P", f"b{n}") for i in range(n)]
        profile = TransitionProfile(f"r{n}", {c: i + 1 for i, c in enumerate(contexts)})
        for _ in range(2):
            assert profile.content_hash() == oracle_content_hash(profile)
        assert len(linker._profile_memo) == stored
    assert linker._profile_memo.charges == 37
    # an empty profile is charged one, so empty profiles fill it too
    for n in range(1000):
        profile = TransitionProfile(f"e{n}")
        assert profile.content_hash() == oracle_content_hash(profile)
    assert len(linker._profile_memo) == 2 + 3
    assert linker._profile_memo.charges == 40
