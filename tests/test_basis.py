import gc
import math

import numpy as np
import pytest

from tiltedbh import FockBasis, dimension

from conftest import compositions


def test_dimension_examples():
    assert dimension(2, 2) == 3
    assert dimension(1, 5) == 5
    assert dimension(8, 8) == 6435
    assert dimension(10, 10) == 92378


def test_dimension_matches_binomial_oracle():
    for n in range(1, 9):
        for m in range(1, 9):
            assert dimension(n, m) == math.comb(m + n - 1, n)


def test_dimension_matches_enumeration_count():
    for n, m in [(2, 2), (3, 4), (5, 3), (4, 4)]:
        assert dimension(n, m) == sum(1 for _ in compositions(n, m))


def test_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        dimension(0, 4)
    with pytest.raises(ValueError):
        dimension(4, 0)


def test_dimension_overflow_is_an_error():
    with pytest.raises(OverflowError):
        dimension(200, 200)


def test_enumerate_small_examples():
    assert FockBasis(2, 2).states.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert FockBasis(3, 2).states.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]


@pytest.mark.parametrize("n,m", [(8, 8), (3, 5), (5, 3), (6, 1), (1, 6),
                                 (1, 1), (7, 7)])
def test_enumerate_matches_composition_generator(n, m):
    basis = FockBasis(n, m)
    got = {tuple(int(x) for x in row) for row in basis.states}
    expected = set(compositions(n, m))
    assert len(basis.states) == basis.dim
    assert got == expected
    ordered = np.array(sorted(compositions(n, m), reverse=True), dtype=np.int32)
    assert basis.states.dtype == np.int32
    np.testing.assert_array_equal(basis.states, ordered)


def test_enumeration_leaves_no_garbage_for_the_cyclic_gc():
    # reference counting alone must free every temporary of the build
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        FockBasis(7, 7).states
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumeration_order_is_decreasing_lexicographic():
    basis = FockBasis(5, 4)
    rows = [tuple(r) for r in basis.states]
    for prev, nxt in zip(rows, rows[1:]):
        assert prev > nxt


def test_every_state_conserves_boson_number():
    basis = FockBasis(6, 5)
    assert (basis.states.sum(axis=1) == 6).all()
    assert (basis.states >= 0).all()


def test_rank_unrank_examples():
    basis = FockBasis(2, 2)
    assert basis.rank([2, 0]) == 0
    assert basis.unrank(2).tolist() == [0, 2]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (1, 5), (5, 1), (4, 6), (8, 8)])
def test_rank_unrank_bijective_exhaustive(n, m):
    basis = FockBasis(n, m)
    for i in range(basis.dim):
        occ = basis.unrank(i)
        assert basis.rank(occ) == i
        assert (occ == basis.states[i]).all()
    assert (basis.ranks(basis.states) == np.arange(basis.dim)).all()


def test_rank_unrank_bijective_at_production_scale():
    # dim = 92378: vectorized ranks over the whole table, spot unranks
    basis = FockBasis(10, 10)
    assert (basis.ranks(basis.states) == np.arange(basis.dim)).all()
    for i in (0, 1, 4711, 92377, basis.dim // 2):
        assert (basis.unrank(i) == basis.states[i]).all()


def test_rank_random_specs_roundtrip(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        basis = FockBasis(n, m)
        idx = rng.integers(0, basis.dim, size=min(20, basis.dim))
        for i in idx:
            assert basis.rank(basis.unrank(int(i))) == int(i)


def test_rank_rejects_invalid_states():
    basis = FockBasis(3, 3)
    with pytest.raises(ValueError):
        basis.rank([1, 1, 0])  # wrong total
    with pytest.raises(ValueError):
        basis.rank([4, -1, 0])  # negative entry
    with pytest.raises(ValueError):
        basis.rank([3, 0])  # wrong length
    with pytest.raises(IndexError):
        basis.unrank(basis.dim)
    with pytest.raises(IndexError):
        basis.unrank(-1)


def test_ranks_matches_scalar_rank(rng):
    basis = FockBasis(7, 5)
    pick = rng.integers(0, basis.dim, size=50)
    block = basis.states[pick]
    assert (basis.ranks(block) == pick).all()
    single = basis.ranks(basis.states[3])
    assert single.tolist() == [3]


def test_states_table_is_readonly():
    basis = FockBasis(3, 3)
    with pytest.raises(ValueError):
        basis.states[0, 0] = 5
