import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eye2vec.hashing import SplitMix64, fnv1a64, splitmix64_block
from oracles import oracle_fnv1a64


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
