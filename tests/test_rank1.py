"""Tests for rank-1 factorization, the rank-1 sum dichotomy, and extremal
rank-1 counting in linear spaces of matrices."""

import itertools
import tracemalloc

import numpy as np
import pytest

from detcodes import _kernels, gf, matq, rank1
from detcodes.counting import rank1_bound
from detcodes.errors import BadParameters, EquationViolated, NotRankOne


def _rank1_matrices(field, l, m):
    """Every l x m rank-1 matrix: the t=1 affine domain less its zero matrix."""
    return [M for M in matq.enumerate_matrices(field, l, m, 1, "affine") if M.any()]


# ---------------------------------------------------------------------------
# factor: canonical outer-product factorization
# ---------------------------------------------------------------------------


def test_factor_examples(f2, f3):
    u, v = rank1.factor(f2, [[1, 1], [1, 1]])
    assert u.tolist() == [1, 1] and v.tolist() == [1, 1]
    u, v = rank1.factor(f3, [[0, 0, 0], [1, 2, 0]])
    assert u.tolist() == [0, 1] and v.tolist() == [1, 2, 0]
    # canonical scaling: first nonzero entry of u is 1
    u, v = rank1.factor(f3, [[2, 1], [1, 2]])
    assert u[np.flatnonzero(u)[0]] == 1


def test_factor_rejects_zero_and_higher_rank(f2):
    with pytest.raises(NotRankOne):
        rank1.factor(f2, [[0, 0], [0, 0]])
    with pytest.raises(NotRankOne):
        rank1.factor(f2, [[1, 0], [0, 1]])


@pytest.mark.parametrize("q,p,e", [(2, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_factor_roundtrip_exhaustive(q, p, e):
    field = gf.make_field(p, e)
    for l in (1, 2, 3):
        for m in range(l, 4):
            if q ** (l * m) > 3**6:
                continue
            seen = set()
            for M in _rank1_matrices(field, l, m):
                u, v = rank1.factor(field, M)
                assert (matq.outer(field, u, v) == M).all()
                # canonical pair is unique per matrix
                key = (tuple(u.tolist()), tuple(v.tolist()))
                assert key not in seen
                seen.add(key)


# ---------------------------------------------------------------------------
# rank1_sum_check: dichotomy for rank-1 sums
# ---------------------------------------------------------------------------


def test_rank1_sum_check_examples(f2):
    # e1^T e1 + e1^T e2 = e1^T (e1 + e2): shared left factor.
    assert rank1_sum_check_ok(f2, [1, 0], [1, 0], [1, 0], [1, 0], [0, 1], [1, 1])
    # e1^T e1 + e2^T e1 = (e1 + e2)^T e1: shared right factor.
    assert rank1_sum_check_ok(f2, [1, 0], [0, 1], [1, 1], [1, 0], [1, 0], [1, 0])


def rank1_sum_check_ok(field, u, a, x, v, b, y):
    return rank1.rank1_sum_check(field, u, a, x, v, b, y)


def test_rank1_sum_check_rejects_unequal_sides(f2):
    with pytest.raises(EquationViolated):
        rank1.rank1_sum_check(f2, [1, 0], [0, 1], [1, 0], [1, 0], [0, 1], [1, 0])
    with pytest.raises(EquationViolated):
        rank1.rank1_sum_check(f2, [0, 0], [0, 1], [1, 0], [1, 0], [0, 1], [1, 0])


def test_rank1_sum_check_above_the_table_limit():
    # p = 1031 is past gf.TABLE_MAX_Q: e1^T e1 + e1^T (p-1)e2 = e1^T (1, p-1)
    f = gf.make_field(1031)
    assert rank1.rank1_sum_check(f, [1, 0], [1, 0], [1, 0], [1, 0], [0, 1030], [1, 1030])
    with pytest.raises(EquationViolated):
        rank1.rank1_sum_check(f, [1, 0], [1, 0], [1, 0], [1, 0], [0, 1030], [1, 1])


def test_rank1_sum_dichotomy_exhaustive_gf2():
    # Sweep every pair of rank-1 2x2 matrices over GF(2) whose sum is also
    # rank 1; the dichotomy must hold in every single case.
    field = gf.make_field(2, 1)
    r1 = _rank1_matrices(field, 2, 2)
    add = field.tables.add
    cases = 0
    for A, B in itertools.product(r1, repeat=2):
        S = add[A, B]
        if not S.any():
            continue
        if matq.rank(field, S.reshape(1, 4).reshape(2, 2)) != 1:
            continue
        u, v = rank1.factor(field, A)
        a, b = rank1.factor(field, B)
        x, y = rank1.factor(field, S)
        assert rank1.rank1_sum_check(field, u, a, x, v, b, y)
        cases += 1
    assert cases > 0


def test_rank1_sum_dichotomy_exhaustive_gf3():
    field = gf.make_field(3, 1)
    r1 = _rank1_matrices(field, 2, 2)
    add = field.tables.add
    hits = 0
    for A, B in itertools.product(r1, repeat=2):
        S = add[A, B]
        if not S.any() or matq.rank(field, S) != 1:
            continue
        u, v = rank1.factor(field, A)
        a, b = rank1.factor(field, B)
        x, y = rank1.factor(field, S)
        assert rank1.rank1_sum_check(field, u, a, x, v, b, y)
        hits += 1
    assert hits > 0


# ---------------------------------------------------------------------------
# count_rank1 and classify_space
# ---------------------------------------------------------------------------


def test_count_rank1_examples(f2):
    # span{E11, E12} is constant rank 1: all 3 nonzero elements.
    basis = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert rank1.count_rank1(f2, basis, 2, 2) == 3
    # span{E11, E22} contains the identity: only 2 rank-1 elements.
    basis = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    assert rank1.count_rank1(f2, basis, 2, 2) == 2


def test_empty_basis_spans_only_the_zero_vector(f2):
    zero = matq.span_vectors(f2, np.zeros((0, 5), dtype=np.int64))
    assert zero.tolist() == [[0, 0, 0, 0, 0]]
    assert rank1.count_rank1(f2, np.zeros((0, 4), dtype=np.int64), 2, 2) == 0


@pytest.mark.parametrize("chunk,limit_mib", [(4096, 1.0), (1 << 16, 3.4)])
def test_count_rank1_streams_its_span(f3, chunk, limit_mib, monkeypatch):
    # The q=3 3x3 full space spans 19,683 elements; built at once as int64
    # they peaked 2.7 MiB at the 4096-entry chunk and 3.77 MiB at the
    # default, where one elimination chunk's temporaries are most of it.
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", chunk)
    f3.tables, f3.inverses
    tracemalloc.start()
    try:
        count = rank1.count_rank1(f3, np.eye(9, dtype=np.int64), 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 338  # (3^3 - 1)^2 / 2 rank-1 matrices
    assert peak < limit_mib * 2**20


def test_classify_space_row_and_col(f2, f3):
    # Row type: first row varies, so u = e1 is fixed.
    row = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    cls = rank1.classify_space(f2, row, 2, 2)
    assert cls.tag == "row"
    assert cls.vector.tolist() == [1, 0]
    assert cls.subspace.tolist() == [[1, 0], [0, 1]]
    # Column type: first column varies, so v = e1 is fixed.
    col = np.array([[1, 0, 0, 0], [0, 0, 1, 0]])
    cls = rank1.classify_space(f2, col, 2, 2)
    assert cls.tag == "col"
    assert cls.vector.tolist() == [1, 0]
    assert cls.subspace.tolist() == [[1, 0], [0, 1]]
    # Not constant rank 1.
    mixed = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])
    assert rank1.classify_space(f2, mixed, 2, 2).tag == "not-constant-rank1"
    # Dimension 1 defaults to row type.
    one = np.array([[1, 2, 0, 0, 0, 0]])
    assert rank1.classify_space(f3, one, 2, 3).tag == "row"


def test_classify_space_exhaustive_agrees_with_count(f2):
    # Every 2-dimensional subspace of 2x2 matrices over GF(2): the tag is
    # "not-constant-rank1" exactly when the rank-1 count is below q^r - 1.
    for S in matq.enumerate_subspaces(f2, 4, 2):
        cls = rank1.classify_space(f2, S, 2, 2)
        n1 = rank1.count_rank1(f2, S, 2, 2)
        if n1 == 2**2 - 1:
            assert cls.tag in ("row", "col")
            # reconstruct the span from the classification and compare
            if cls.tag == "row":
                elems = {
                    tuple(matq.outer(f2, cls.vector, v).ravel().tolist())
                    for v in matq.span_vectors(f2, cls.subspace)
                }
            else:
                elems = {
                    tuple(matq.outer(f2, u, cls.vector).ravel().tolist())
                    for u in matq.span_vectors(f2, cls.subspace)
                }
            spanned = {
                tuple(w.tolist()) for w in matq.span_vectors(f2, S)
            }
            assert elems == spanned
        else:
            assert cls.tag == "not-constant-rank1"


# ---------------------------------------------------------------------------
# max_rank1_exhaustive against the proven bound
# ---------------------------------------------------------------------------


def test_max_rank1_small_dims(f2):
    # r <= m: a constant-rank-1 space exists, so the maximum is q^r - 1.
    assert rank1.max_rank1_exhaustive(f2, 2, 2, 1)[0] == 1
    assert rank1.max_rank1_exhaustive(f2, 2, 2, 2)[0] == 3
    assert rank1.max_rank1_exhaustive(f2, 2, 3, 3)[0] == 7


def test_max_rank1_of_the_zero_space(f2):
    best, witness = rank1.max_rank1_exhaustive(f2, 2, 2, 0)
    assert best == 0 and witness.shape == (0, 4)


def test_max_rank1_beyond_m(f2, f3):
    # l = m = 2, r = 3 > m: bound is q^2 + q^2 - q - 1.
    best, witness = rank1.max_rank1_exhaustive(f2, 2, 2, 3)
    assert best == rank1_bound(3, 2, 2, 2).max_rank1 == 5
    assert rank1.count_rank1(f2, witness, 2, 2) == 5
    best3, _ = rank1.max_rank1_exhaustive(f3, 2, 2, 3)
    assert best3 == rank1_bound(3, 2, 2, 3).max_rank1 == 14


def test_max_rank1_witness_is_extremal_span(f2):
    # The canonical witness at (l, m, r) = (2, 2, 3) over GF(2) is
    # span{E11, E12, E21}: 5 rank-1 elements, 2 of rank 2.
    best, witness = rank1.max_rank1_exhaustive(f2, 2, 2, 3)
    expect = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert (witness == expect).all()
    from detcodes._kernels import rank_batch

    elems = matq.span_vectors(f2, witness)
    ranks = rank_batch(f2, elems.reshape(-1, 2, 2))
    assert int((ranks == 2).sum()) == 2
    assert int((ranks == 2).sum()) >= rank1_bound(3, 2, 2, 2).rank2_floor


def test_max_rank1_rejects_bad_shape_before_searching(f2, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before validating the parameters")

    monkeypatch.setattr(matq, "subspace_batches", no_search)
    with pytest.raises(BadParameters):
        rank1.max_rank1_exhaustive(f2, 1, 2, 1)
