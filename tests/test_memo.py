"""The one store rule of every stop-when-full memo, ``errors._Memo``."""

import pytest

from eye2vec.errors import _Memo


@pytest.mark.parametrize("charges,stored", [
    ((10,), [0]),           # an exact fit
    ((11,), []),            # one over
    ((4, 6), [0, 1]),       # two that fill it exactly
    ((4, 7, 6), [0, 2]),    # one over is not stored; a later one that fits is
    ((25, 3), [1]),         # more than the whole budget is never stored
    ((10, 25, 1), [0]),     # once full, nothing more is stored
])
def test_store_keeps_a_value_only_if_its_charge_fits(charges, stored):
    memo = _Memo(10)
    for key, charge in enumerate(charges):
        value = object()
        assert memo.store(key, value, charge) is value  # stored or not
    assert list(memo) == stored
    assert memo.charges == sum(charges[key] for key in stored) <= memo.budget


def test_parsed_stores_nothing_when_the_parse_raises():
    memo, calls = _Memo(100), []

    def parse(text):
        calls.append(text)
        raise ValueError(text)

    for _ in range(3):
        with pytest.raises(ValueError, match="bad"):
            memo.parsed("bad", parse)
    assert (dict(memo), memo.charges, len(calls)) == ({}, 0, 3)
