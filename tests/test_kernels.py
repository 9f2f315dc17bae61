"""The batch kernels must agree with scalar field arithmetic on every field:
prime fields, reduced mod p with no tables, and extension fields, which
use table lookups.

"fallback" in some test names below means the scalar oracles from
conftest; those names are kept so that test results stay comparable
across versions of the suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcodes import _kernels, gf
from detcodes.errors import BudgetExceeded
from conftest import scalar_dot, scalar_rank

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]
# p = 1031 lies above gf.TABLE_MAX_Q: the prime path must work without tables.
ORACLE_FIELDS = FIELDS + [(1031, 1)]


def _random_mats(rng, q, count, l, m):
    return rng.integers(0, q, size=(count, l, m), dtype=np.int64)


@pytest.mark.parametrize("p,e", ORACLE_FIELDS)
def test_rank_fallback_matches_scalar_oracle(p, e):
    field = gf.make_field(p, e)
    rng = np.random.default_rng(20240800 + p * 10 + e)
    for l, m in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5), (4, 3)]:
        mats = _random_mats(rng, field.q, 40, l, m)
        got = _kernels.rank_batch(field, mats)
        expect = np.array([scalar_rank(field, M) for M in mats])
        assert (got == expect).all()


@pytest.mark.parametrize("p,e", ORACLE_FIELDS)
def test_public_rank_matches_fallback(p, e):
    # Products through an inner dimension k have rank <= k, so every rank
    # occurs, which uniform random matrices rarely give.
    field = gf.make_field(p, e)
    rng = np.random.default_rng(p * 100 + e)
    for k in range(4):
        X = _random_mats(rng, field.q, 1, 3, k)[0]
        Y = _random_mats(rng, field.q, 30, k, 4)
        mats = _kernels.gf_matmul(field, X, Y)
        got = _kernels.rank_batch(field, mats)
        assert (got <= k).all()
        assert got.tolist() == [scalar_rank(field, M) for M in mats]


@pytest.mark.parametrize("p,e", ORACLE_FIELDS)
def test_matmul_fallback_matches_scalar_oracle(p, e):
    field = gf.make_field(p, e)
    rng = np.random.default_rng(7 * p + e)
    A = rng.integers(0, field.q, size=(3, 4), dtype=np.int64)
    B = rng.integers(0, field.q, size=(4, 5), dtype=np.int64)
    got = _kernels.gf_matmul(field, A, B)
    assert got.shape == (3, 5) and got.dtype == np.min_scalar_type(field.q - 1)
    for i in range(3):
        for j in range(5):
            assert got[i, j] == scalar_dot(field, A[i], B[:, j])


@pytest.mark.parametrize("p,e", ORACLE_FIELDS)
def test_public_matmul_matches_fallback(p, e):
    field = gf.make_field(p, e)
    rng = np.random.default_rng(13 * p + e)
    A = rng.integers(0, field.q, size=(4, 6), dtype=np.int64)
    B = rng.integers(0, field.q, size=(2, 6, 3), dtype=np.int64)
    got = _kernels.gf_matmul(field, A, B)
    assert got.shape == (2, 4, 3)
    for b in range(2):
        for i in range(4):
            for j in range(3):
                assert got[b, i, j] == scalar_dot(field, A[i], B[b][:, j])


# All-(p - 1) operands put every entry of a product at k (p - 1)^2, the top
# of its accumulator: each pair of k sits on the two sides of a dtype's
# limit.  At p = 3, k = 64 sums 256, which a uint8 sum would wrap to 0,
# where 256 = 1 mod 3.
@pytest.mark.parametrize("p,k", [(3, 63), (3, 64), (17, 255), (17, 256), (257, 1),
                                 (65521, 1), (65521, 2), (3, 0), (1031, 0)])
def test_matmul_is_exact_at_each_accumulator_edge(p, k):
    field = gf.make_field(p)
    A = np.full((2, k), p - 1, dtype=np.int64)
    B = np.full((4, k, 3), p - 1, dtype=np.int64)
    expect = scalar_dot(field, A[0], B[0][:, 0])
    assert expect == k % p  # (p - 1)^2 = 1 mod p
    for got, shape in [(_kernels.gf_matmul(field, A, B[0]), (2, 3)),
                       (_kernels.gf_matmul(field, A, B), (4, 2, 3))]:
        assert got.shape == shape and got.dtype == np.min_scalar_type(p - 1)
        assert (got == expect).all()


def test_prime_field_kernels_never_build_tables(monkeypatch):
    def no_tables(self):
        raise AssertionError(f"a kernel built Field.tables for {self}")

    # a property shadows any value already cached on the instance
    monkeypatch.setattr(gf.Field, "tables", property(no_tables))
    field = gf.make_field(1031)
    rng = np.random.default_rng(1031)
    mats = _random_mats(rng, field.q, 20, 2, 3)
    assert _kernels.rank_batch(field, mats).tolist() == [scalar_rank(field, M) for M in mats]
    got = _kernels.gf_matmul(field, mats[0], mats.transpose(0, 2, 1))
    assert (got[1] == _kernels.gf_matmul(field, mats[0], mats[1].T)).all()
    assert got[1, 0, 1] == scalar_dot(field, mats[0][0], mats[1][1])


def test_extension_field_above_table_limit_is_a_budget_error():
    field = gf.make_field(2, 11)
    with pytest.raises(BudgetExceeded):
        _kernels.rank_batch(field, np.ones((1, 1, 1), dtype=np.int64))


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_rank_batch_matches_scalar_oracle_on_random_inputs(data):
    p, e = data.draw(
        st.sampled_from([(2, 1), (3, 1), (7, 1), (31, 1), (1031, 1), (2, 2), (3, 2), (5, 2), (2, 4)])
    )
    field = gf.make_field(p, e)
    count = data.draw(st.integers(0, 6))
    l = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    n = count * l * m
    entries = data.draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n))
    mats = np.array(entries, dtype=np.int64).reshape(count, l, m)
    assert _kernels.rank_batch(field, mats).tolist() == [scalar_rank(field, M) for M in mats]


def test_matmul_batch_matches_per_item(f3):
    rng = np.random.default_rng(99)
    A = rng.integers(0, 3, size=(5, 4), dtype=np.int64)
    B = rng.integers(0, 3, size=(7, 4, 6), dtype=np.int64)
    got = _kernels.gf_matmul(f3, A, B)
    assert got.shape == (7, 5, 6)
    for k in range(7):
        assert (got[k] == _kernels.gf_matmul(f3, A, B[k])).all()


def test_rank_batch_handles_chunking(f2, f4):
    # More matrices than one chunk still yields correct ranks.
    n = _kernels._RANK_CHUNK + 17
    rng = np.random.default_rng(5)
    for field in (f2, f4):
        t = field.tables
        mats = rng.integers(0, field.q, size=(n, 2, 2), dtype=np.int64)
        got = _kernels.rank_batch(field, mats)
        dets = t.sub[t.mul[mats[:, 0, 0], mats[:, 1, 1]], t.mul[mats[:, 0, 1], mats[:, 1, 0]]]
        anyent = mats.reshape(n, 4).any(axis=1)
        expect = np.where(dets != 0, 2, np.where(anyent, 1, 0))
        assert (got == expect).all()


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16])
def test_reduce_mod_is_percent_in_place(dtype):
    rng = np.random.default_rng(3)
    low = -1000 if dtype == np.int64 else 0
    x = rng.integers(low, np.iinfo(dtype).max if dtype != np.int64 else 1000, size=500).astype(dtype)
    for p in (2, 3, 7, 251):
        want = x % p
        y = x.copy()
        assert _kernels.reduce_mod(y, p) is y
        assert np.array_equal(y, want) and y.dtype == dtype
