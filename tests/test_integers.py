"""The one integer rule (``errors._check_int``) at every place an integer
enters: a value that is not an ``int``, or is a ``bool``, raises
``TypeError`` with one message, and each range is closed at both ends."""

import numpy as np
import pytest

from eye2vec.analysis import kmeans
from eye2vec.compressor import EyeVector
from eye2vec.embeddings import MAX_DIM, EmbeddingTable, fallback_vector
from eye2vec.errors import InvalidK
from eye2vec.gaze import Fixation, GridPos
from eye2vec.linker import LinkOptions, map_fixation
from eye2vec.minilang import parse
from eye2vec.pathctx import all_path_contexts
from eye2vec.simulator import MAX_FIXATIONS, Strategy, simulate

ROOT = parse("class A { int x = 1; }")
UNIT = [EyeVector("a", 2, [1.0, 0.0], True, {}), EyeVector("b", 2, [0.0, 1.0], True, {})]

# (parameter name, a call that passes the value to one entry point)
SITES = {
    "EmbeddingTable.dim": ("dim", lambda v: EmbeddingTable(dim=v)),
    "EmbeddingTable.fallback_seed": ("fallback_seed",
                                     lambda v: EmbeddingTable(dim=4, fallback_seed=v)),
    "fallback_vector.dim": ("dim", lambda v: fallback_vector("tok:a", v, 0)),
    "fallback_vector.fallback_seed": ("fallback_seed", lambda v: fallback_vector("tok:a", 4, v)),
    "EyeVector.dim": ("dim", lambda v: EyeVector("r", v, [1.0, 0.0], True, {})),
    "Strategy.jitter_cols": ("jitter_cols", lambda v: Strategy("linear", jitter_cols=v)),
    "Strategy.seed": ("seed", lambda v: Strategy("linear", seed=v)),
    "simulate.n_fixations": ("n_fixations", lambda v: simulate(ROOT, Strategy("linear"), v)),
    "LinkOptions.snap_tol_cols": ("snap_tol_cols", lambda v: LinkOptions(snap_tol_cols=v)),
    "map_fixation.snap_tol_cols": (
        "snap_tol_cols", lambda v: map_fixation(Fixation(0, 100, GridPos(1, 1)), ROOT, v)),
    "all_path_contexts.max_length": ("max_length", lambda v: all_path_contexts(ROOT, v, 0)),
    "all_path_contexts.max_width": ("max_width", lambda v: all_path_contexts(ROOT, 0, v)),
    "kmeans.k": ("k", lambda v: kmeans(UNIT, v, 0)),
    "kmeans.seed": ("seed", lambda v: kmeans(UNIT, 1, v)),
}


@pytest.mark.parametrize("value", [1.5, True, np.int64(2), "3"], ids=repr)
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_value_that_is_not_an_int_is_refused(site, value):
    name, call = SITES[site]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not {type(value).__name__}$"):
        call(value)


# (site, lowest accepted, highest accepted or None); the message is the rule's
RANGES = [
    ("EmbeddingTable.dim", 1, MAX_DIM),
    ("fallback_vector.dim", 1, MAX_DIM),
    ("Strategy.jitter_cols", 0, None),
    ("simulate.n_fixations", 2, MAX_FIXATIONS),
    ("LinkOptions.snap_tol_cols", 0, None),
    ("map_fixation.snap_tol_cols", 0, None),
    ("all_path_contexts.max_length", 0, None),
    ("all_path_contexts.max_width", 0, None),
]


@pytest.mark.parametrize("site, minimum, maximum", RANGES, ids=[r[0] for r in RANGES])
def test_range_edges(site, minimum, maximum):
    name, call = SITES[site]
    call(minimum)
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}$"):
        call(minimum - 1)
    if maximum is not None:
        call(maximum)
        with pytest.raises(ValueError, match=f"^{name} must be at most {maximum}$"):
            call(maximum + 1)


def test_kmeans_k_range_still_raises_invalid_k():
    assert kmeans(UNIT, 1, 0) == [0, 0]
    assert sorted(kmeans(UNIT, 2, 0)) == [0, 1]
    for k in (0, 3):
        with pytest.raises(InvalidK, match=rf"^k must be in 1\.\.2, got {k}$"):
            kmeans(UNIT, k, 0)


def test_kmeans_with_a_fractional_k_is_refused():
    # it was once accepted and made two clusters
    with pytest.raises(TypeError, match="^k must be an integer, not float$"):
        kmeans(UNIT, 1.5, 0)


def test_numpy_fallback_seed_is_refused_where_the_table_is_made():
    # it was once accepted and failed only in compress, with a bare OverflowError
    with pytest.raises(TypeError, match="^fallback_seed must be an integer, not int64$"):
        EmbeddingTable(dim=4, fallback_seed=np.int64(5))


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64, -(2**70)])
def test_any_int_seed_is_accepted(seed):
    table = EmbeddingTable(dim=4, fallback_seed=seed)
    assert table.fallback_seed == seed & (2**64 - 1)
    assert fallback_vector("tok:a", 4, seed).tobytes() == fallback_vector(
        "tok:a", 4, table.fallback_seed).tobytes()
    Strategy("linear", seed=seed)
    kmeans(UNIT, 2, seed)
