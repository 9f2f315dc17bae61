import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcodes import _kernels, counting, make_field
from detcodes import matq
from detcodes._kernels import gf_matmul
from detcodes.errors import BadParameters, BudgetExceeded, EmptyVariety, IndexOutOfRange

from conftest import scalar_rank

# GF(9) is an extension field of odd characteristic; p = 1031 lies above
# gf.TABLE_MAX_Q, so it is reduced mod p with no tables.
ELIMINATION_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (1031, 1)]


def _rank_deficient(field, rng, l, m):
    """A random l x m matrix with a zero row, a zero column and, for
    l >= 3, a third row that is a combination of the first two."""
    A = rng.integers(0, field.q, size=(l, m), dtype=np.int64)
    A[rng.integers(l)] = 0
    A[:, rng.integers(m)] = 0
    if l >= 3:
        a, b = (int(x) for x in rng.integers(0, field.q, size=2))
        A[2] = [field.add(field.mul(a, int(x)), field.mul(b, int(y))) for x, y in zip(A[0], A[1])]
    return A


def _assert_rref_of(field, A, R, pivots):
    """R is in reduced row echelon form and spans the row space of A,
    checked with scalar field arithmetic only."""
    r = scalar_rank(field, A)
    assert len(pivots) == len(R) == r
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert not R[i, :c].any() and R[i, c] == 1
        assert [int(x) for x in R[:, c]] == [int(k == i) for k in range(r)]
    assert scalar_rank(field, np.vstack([A, R])) == r


def test_rank_examples(f2, f3):
    assert matq.rank(f2, [[0, 0], [0, 0]]) == 0
    assert matq.rank(f3, [[1, 0], [0, 1]]) == 2
    assert matq.rank(f2, [[1, 1], [1, 1]]) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_rank_matches_scalar_oracle(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(7)
    for _ in range(60):
        M = rng.integers(0, f.q, size=(3, 4))
        assert matq.rank(f, M) == scalar_rank(f, M)


def test_normal_form_examples(f2):
    P, Q, r = matq.normal_form(f2, [[0, 0], [0, 0]])
    assert r == 0
    P, Q, r = matq.normal_form(f2, [[0, 1], [0, 0]])
    assert r == 1
    res = gf_matmul(f2, gf_matmul(f2, P, np.array([[0, 1], [0, 0]])), Q)
    assert res.tolist() == [[1, 0], [0, 0]]


@pytest.mark.parametrize("p,e", ELIMINATION_FIELDS)
def test_normal_form_reconstructs_block_identity(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(11)
    cases = [rng.integers(0, f.q, size=(rng.integers(1, 4), rng.integers(1, 5))) for _ in range(30)]
    cases += [_rank_deficient(f, rng, l, m) for l, m in [(3, 2), (4, 2), (4, 3), (3, 3), (2, 4)]]
    cases += [np.zeros((2, 3), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)]
    for M in cases:
        l, m = M.shape
        P, Q, r = matq.normal_form(f, M)
        assert r == scalar_rank(f, M)
        assert scalar_rank(f, P) == l and scalar_rank(f, Q) == m  # invertible
        res = gf_matmul(f, gf_matmul(f, P, M), Q)
        expect = np.zeros((l, m), dtype=np.int64)
        expect[range(r), range(r)] = 1
        assert (res == expect).all()


@pytest.mark.parametrize("p,e", ELIMINATION_FIELDS)
def test_rref_matches_scalar_oracle(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(23 * p + e)
    for _ in range(25):
        A = _rank_deficient(f, rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)))
        _assert_rref_of(f, A, *matq.rref(f, A))
    for shape in [(1, 1), (3, 4)]:
        R, pivots = matq.rref(f, np.zeros(shape, dtype=np.int64))
        assert R.shape == (0, shape[1]) and pivots == []


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_rref_matches_scalar_oracle_on_random_inputs(data):
    f = make_field(*data.draw(st.sampled_from(ELIMINATION_FIELDS + [(7, 1), (2, 3)])))
    l = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 6))
    entries = data.draw(st.lists(st.integers(0, f.q - 1), min_size=l * m, max_size=l * m))
    A = np.array(entries, dtype=np.int64).reshape(l, m)
    A[data.draw(st.lists(st.integers(0, l - 1), unique=True), label="zero rows")] = 0
    A[:, data.draw(st.lists(st.integers(0, m - 1), unique=True), label="zero columns")] = 0
    _assert_rref_of(f, A, *matq.rref(f, A))


def test_elimination_leaves_its_input_unchanged(f3):
    M = np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]], dtype=np.int64)
    before = M.copy()
    assert matq.rank(f3, M) == 2
    matq.rref(f3, M)
    matq.normal_form(f3, M)
    assert (M == before).all()


def test_rref_and_normal_form_above_table_limit_are_budget_errors():
    f = make_field(2, 11)
    with pytest.raises(BudgetExceeded):
        matq.rref(f, [[1, 2], [3, 4]])
    with pytest.raises(BudgetExceeded):
        matq.normal_form(f, [[1, 2], [3, 4]])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_span_ranks_matches_scalar_oracle(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(31 * p + e)
    l, m = 2, 3
    for r in range(4):
        bases = rng.integers(0, f.q, size=(3, r, l * m), dtype=np.int64)
        got = matq.span_ranks(f, bases, l, m)
        assert got.shape == (3, f.q**r)
        for basis, ranks in zip(bases, got):
            span = matq.span_vectors(f, basis)
            assert ranks.tolist() == [scalar_rank(f, v.reshape(l, m)) for v in span]


def test_outer_examples(f2, f3):
    assert matq.outer(f2, [1, 0], [1, 1]).tolist() == [[1, 1], [0, 0]]
    assert matq.outer(f2, [0, 0], [1, 1]).tolist() == [[0, 0], [0, 0]]
    M = matq.outer(f3, [1, 2], [2, 1])
    assert M.tolist() == [[2, 1], [1, 2]]
    assert matq.rank(f3, M) == 1
    # the 2x2 minor vanishes: 2*2 - 1*1 = 0 in GF(3)
    assert f3.sub(f3.mul(2, 2), f3.mul(1, 1)) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_outer_rank_one_exhaustive(q):
    f = make_field(q)
    for l, m in [(2, 2), (2, 3), (3, 3)]:
        for u in itertools.product(range(q), repeat=l):
            for v in itertools.product(range(q), repeat=m):
                M = matq.outer(f, u, v)
                expected = 1 if (any(u) and any(v)) else 0
                assert matq.rank(f, M) == expected


def test_outer_above_the_table_limit():
    # p = 1031 is past gf.TABLE_MAX_Q; the product is reduced mod p
    f = make_field(1031)
    M = matq.outer(f, [1, 1030, 0], [2, 1030])
    assert M.tolist() == [[2, 1030], [1029, 1], [0, 0]]
    assert matq.rank(f, M) == 1


def test_partial_trace(f2, f3):
    assert matq.partial_trace(f2, [[1, 0], [0, 1]], 2) == 0
    assert matq.partial_trace(f3, [[1, 0], [0, 1]], 2) == 2
    assert matq.partial_trace(f2, [[1, 1], [0, 0]], 1) == 1
    with pytest.raises(IndexOutOfRange):
        matq.partial_trace(f2, [[1, 0], [0, 1]], 3)


def test_enumerate_matrices_examples(f2):
    aff = matq.enumerate_matrices(f2, 2, 2, 1, "affine")
    assert len(aff) == 10
    assert aff[0].tolist() == [[0, 0], [0, 0]]  # zero matrix first (lex order)
    assert len(matq.enumerate_matrices(f2, 2, 2, 1, "projective")) == 9
    assert len(matq.enumerate_matrices(f2, 2, 2, 2, "projective")) == 15
    with pytest.raises(EmptyVariety):
        matq.enumerate_matrices(f2, 2, 2, 0, "projective")
    with pytest.raises(BadParameters):
        matq.enumerate_matrices(f2, 3, 2, 1, "affine")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumerate_matrices_counts_match_closed_forms(q):
    f = make_field(2, 2) if q == 4 else make_field(q)
    for l in (1, 2, 3):
        for m in range(l, 4):
            for t in range(l + 1):
                aff = matq.enumerate_matrices(f, l, m, t, "affine")
                assert len(aff) == sum(counting.mu(l, m, j, q) for j in range(t + 1))
                if t >= 1:
                    proj = matq.enumerate_matrices(f, l, m, t, "projective")
                    assert len(proj) == sum(counting.mu_hat(l, m, j, q) for j in range(1, t + 1))


def test_enumerate_matrices_projective_reps_canonical(f3):
    pts = matq.enumerate_matrices(f3, 2, 2, 1, "projective")
    flat = pts.reshape(len(pts), -1)
    first = (flat != 0).argmax(axis=1)
    assert (flat[np.arange(len(flat)), first] == 1).all()
    # lex order of entry tuples
    keys = [tuple(row) for row in flat]
    assert keys == sorted(keys)


def _first_nonzero_is_one(M) -> bool:
    for x in M.flat:  # row-major
        if x != 0:
            return x == 1
    return False


CANONICAL_SPACES = [
    (p, e, l, m)
    for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]
    for l, m in [(1, 3), (2, 2), (2, 3), (3, 3)]
    if (p**e) ** (l * m) <= 6561
]


@pytest.mark.parametrize("p,e,l,m", CANONICAL_SPACES)
def test_projective_points_are_the_canonical_affine_points(p, e, l, m, monkeypatch):
    f = make_field(p, e)
    # 7 splits the ranges [q^k, 2 q^k) of canonical values over chunks
    for chunk in (7, _kernels._RANK_CHUNK):
        monkeypatch.setattr(_kernels, "_RANK_CHUNK", chunk)
        for t in range(1, l + 1):
            aff = matq.enumerate_matrices(f, l, m, t, "affine")
            want = [M for M in aff if _first_nonzero_is_one(M)]
            assert np.array_equal(matq.enumerate_matrices(f, l, m, t, "projective"), want)


# Each field's spaces with l = 1, l = m, l < m and l = 3, as far as the
# scalar oracle can rank every matrix of them in a test.
WALK_SPACES = [
    (p, e, l, m)
    for p, e in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (11, 1)]
    for l, m in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
    if (p**e) ** (l * m) <= 20_000
]


def _walk(field, l, m, mp):
    """Blocks and table of one ``rank_table`` walk; a block is read off
    its ``span_indices`` call, as (rows k, prefixes) of its k-row grid."""
    blocks = []
    real = matq.span_indices

    def spy(f, bases):
        blocks.append((bases.shape[1] + 1, bases.shape[0]))
        return real(f, bases)

    mp.setattr(matq, "span_indices", spy)
    table = matq.rank_table(field, l, m)
    mp.setattr(matq, "span_indices", real)
    return blocks, table


def _assert_blocks(field, l, m, chunk, blocks):
    """Each k-row grid, k = 2..l, is filled in order by blocks of at most
    max(1, chunk // q^m) prefixes, which cover its q^((k-1)m) prefixes."""
    assert [k for k, _ in blocks] == sorted(k for k, _ in blocks)
    assert max((n for _, n in blocks), default=0) <= max(1, chunk // field.q**m)
    for k in range(2, l + 1):
        assert sum(n for kk, n in blocks if kk == k) == field.q ** ((k - 1) * m)
    assert {k for k, _ in blocks} == set(range(2, l + 1))


def _expected_walk(field, l, m):
    space = matq._base_q_digits(np.arange(field.q ** (l * m)), field.q, l * m)
    return space.reshape(-1, l, m)


@pytest.mark.parametrize("p,e,l,m", WALK_SPACES)
def test_walk_ranks_and_order_match_oracles(p, e, l, m, monkeypatch):
    f = make_field(p, e)
    space = _expected_walk(f, l, m)
    scalar = [scalar_rank(f, M) for M in space]
    assert _kernels.rank_batch(f, space).tolist() == scalar
    # 7 and q^m - 1 make blocks of one prefix where q^m is larger; the
    # default chunk packs many prefixes into a block.
    for chunk in {7, f.q**m - 1, _kernels._RANK_CHUNK}:
        monkeypatch.setattr(_kernels, "_RANK_CHUNK", chunk)
        blocks, table = _walk(f, l, m, monkeypatch)
        _assert_blocks(f, l, m, chunk, blocks)
        assert table.tolist() == scalar
        # the whole space is the affine rank-<=l domain, read off the table
        assert np.array_equal(matq.enumerate_matrices(f, l, m, l, "affine"), space)


SMALL_WALK_SPACES = [
    (p, e, l, m)
    for p, e in [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]
    for l in range(1, 4)
    for m in range(l, 6)
    if (p**e) ** (l * m) <= 4096
]


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_walk_ranks_match_rank_batch_on_random_chunks(data):
    p, e, l, m = data.draw(st.sampled_from(SMALL_WALK_SPACES))
    f = make_field(p, e)
    chunk = data.draw(st.integers(1, f.q ** (l * m)))
    space = _expected_walk(f, l, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_RANK_CHUNK", chunk)
        blocks, ranks = _walk(f, l, m, mp)
        mats = matq.enumerate_matrices(f, l, m, l, "affine")
    _assert_blocks(f, l, m, chunk, blocks)
    assert np.array_equal(mats, space)
    assert np.array_equal(ranks, _kernels.rank_batch(f, space))
    sample = data.draw(st.lists(st.integers(0, len(space) - 1), max_size=20))
    assert [int(ranks[i]) for i in sample] == [scalar_rank(f, space[i]) for i in sample]


# l = 1 and l = m over prime and extension fields, as far as the scalar
# oracle can rank every matrix of the space in a test, and tall spaces
# (l > m), which the table ranks through their transposes.
TABLE_SPACES = [
    (p, e, l, m)
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
    for l, m in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 3)]
    if (p**e) ** (l * m) <= 6561
] + [(2, 1, 3, 2), (2, 1, 4, 3), (3, 1, 2, 1), (3, 1, 3, 2), (2, 2, 3, 1), (5, 1, 4, 1)]


@pytest.mark.parametrize("p,e,l,m", TABLE_SPACES)
def test_rank_table_matches_oracles(p, e, l, m, monkeypatch):
    f = make_field(p, e)
    space = _expected_walk(f, l, m)
    expected = _kernels.rank_batch(f, space)
    assert expected.tolist() == [scalar_rank(f, M) for M in space]
    # 7 fills the table over many walk blocks, the default in one or a few
    for chunk in (7, _kernels._RANK_CHUNK):
        monkeypatch.setattr(_kernels, "_RANK_CHUNK", chunk)
        table = matq.rank_table(f, l, m)
        assert table.dtype == np.uint8 and table.shape == (f.q ** (l * m),)
        assert np.array_equal(table, expected)


def test_rank_table_memory_is_the_table(f2):
    # GF(2) 4x5: the table is 1 MiB, and each block of 2,048 prefixes
    # spans 16 values apiece.
    f2.tables, f2.inverses
    tracemalloc.start()
    try:
        table = matq.rank_table(f2, 4, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.bincount(table).tolist() == [counting.mu(4, 5, r, 2) for r in range(5)]
    assert peak < 2.5 * (1 << 20)


def test_tall_rank_table_grows_its_transpose(f2):
    # 12 x 1 is the transpose of 1 x 12, whose table needs no field
    # arithmetic; growing 12 rows would span 2^11 values per prefix.
    space = _expected_walk(f2, 12, 1)
    tracemalloc.start()
    try:
        table = matq.rank_table(f2, 12, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, _kernels.rank_batch(f2, space))
    assert peak < 1 << 20


@pytest.mark.parametrize("l,m", [(0, 2), (2, 0), (0, 0)])
def test_rank_table_rejects_an_empty_shape(f2, l, m):
    with pytest.raises(BadParameters, match="need l, m >= 1"):
        matq.rank_table(f2, l, m)


def test_rank_table_budget_is_the_walks(f2, monkeypatch):
    monkeypatch.setattr(matq, "MATRIX_SPACE_BUDGET", 255)
    with pytest.raises(BudgetExceeded, match="MATRIX_SPACE_BUDGET = 255"):
        matq.rank_table(f2, 2, 4)


def _span_values(field, basis):
    """Reference: the span's elements built one by one, read as base-q."""
    N = basis.shape[1]
    powers = field.q ** np.arange(N - 1, -1, -1, dtype=np.int64)
    return matq.span_vectors(field, basis) @ powers


def _assert_span_indices(field, bases):
    got = matq.span_indices(field, bases)
    assert got.shape == (len(bases), field.q ** bases.shape[1])
    for basis, row in zip(bases, got):
        assert row.tolist() == _span_values(field, basis).tolist()


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_span_indices_match_span_vectors(p, e):
    f = make_field(p, e)
    rng = np.random.default_rng(17 * p + e)
    N = 4
    for r in range(N + 1):  # r = 0 spans the zero element alone
        for S in (1, 5):
            bases = rng.integers(0, f.q, size=(S, r, N), dtype=np.int64)
            _assert_span_indices(f, bases)
        # repeated columns, within a basis and across the stack
        bases = rng.integers(0, f.q, size=(3, r, N), dtype=np.int64)
        bases[:, :, 2] = bases[:, :, 0]
        bases[1:, :, 1] = bases[0, :, 1]
        _assert_span_indices(f, bases)
    assert matq.span_indices(f, np.zeros((2, 0, N), dtype=np.int64)).tolist() == [[0], [0]]


@pytest.mark.parametrize("q,N,r", [(2, 4, 2), (3, 3, 2), (4, 3, 3), (2, 5, 5)])
def test_span_indices_exhaustive_subspace_stacks(q, N, r):
    f = make_field(2, 2) if q == 4 else make_field(q)
    for batch in matq.subspace_batches(f, N, r):
        _assert_span_indices(f, batch)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_span_indices_match_span_vectors_on_random_stacks(data):
    p, e = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]))
    f = make_field(p, e)
    N = data.draw(st.integers(1, 5))
    r = data.draw(st.integers(0, min(N, 3)))
    S = data.draw(st.integers(1, 6))
    entries = st.integers(0, f.q - 1)
    bases = np.array(
        data.draw(st.lists(entries, min_size=S * r * N, max_size=S * r * N)), dtype=np.int64
    ).reshape(S, r, N)
    _assert_span_indices(f, bases)


def test_enumerate_subspaces_counts(f2, f3):
    subs = list(matq.enumerate_subspaces(f2, 4, 2))
    assert len(subs) == 35  # [4 2]_2, cross-checked in test_counting
    assert len({tuple(s.flatten()) for s in subs}) == 35  # no duplicates
    assert len(list(matq.enumerate_subspaces(f2, 3, 3))) == 1
    assert len(list(matq.enumerate_subspaces(f3, 4, 1))) == 40  # (3^4-1)/(3-1)


@pytest.mark.parametrize("q,N,r", [(2, 4, 2), (2, 5, 3), (3, 3, 2), (4, 3, 1)])
def test_enumerate_subspaces_gaussian_binomial(q, N, r):
    f = make_field(2, 2) if q == 4 else make_field(q)
    subs = list(matq.enumerate_subspaces(f, N, r))
    assert len(subs) == counting.gaussian_binomial(N, r, q)
    seen = set()
    for s in subs:
        # canonical: RREF with r nonzero rows, unique per subspace
        R, piv = matq.rref(f, s)
        assert (R == s).all() and len(piv) == r
        seen.add(tuple(s.flatten()))
    assert len(seen) == len(subs)


def _reference_subspaces(q, N, r):
    """Every r-dim RREF basis of GF(q)^N, profiles lexicographic, free
    slots filled by base-q digits, the first slot most significant."""
    for profile in itertools.combinations(range(N), r):
        slots = [(i, j) for i, c in enumerate(profile) for j in range(c + 1, N) if j not in profile]
        bases = np.zeros((q ** len(slots), r, N), dtype=np.int64)
        bases[:, range(r), profile] = 1
        for k, (i, j) in enumerate(slots):
            bases[:, i, j] = np.arange(len(bases)) // q ** (len(slots) - 1 - k) % q
        yield from bases


@pytest.mark.parametrize(
    "p,e,N,r,batch",
    [(2, 1, 6, 3, 100), (3, 1, 5, 2, 100), (2, 2, 4, 2, 100), (5, 1, 4, 2, 100),
     (2, 1, 5, 5, 100), (3, 1, 4, 0, 100), (3, 1, 6, 3, matq._SUBSPACE_BATCH)],
)
def test_subspace_stacks_are_aligned_powers_of_q(p, e, N, r, batch, monkeypatch):
    # at the default batch, 4096 is no power of 3: the stacks hold 3^7 = 2187
    monkeypatch.setattr(matq, "_SUBSPACE_BATCH", batch)
    f = make_field(p, e)
    q = f.q
    S = max(s for s in range(13) if q**s <= batch)
    stacks = list(matq.subspace_batches(f, N, r))
    for stack in stacks:
        pivots = (stack[0] != 0).argmax(axis=1)
        slots = matq._profile_free_slots(N, pivots.tolist())
        si, sj = np.array(slots, dtype=np.int64).reshape(-1, 2).T
        fillings = stack[:, si, sj] @ q ** np.arange(len(slots) - 1, -1, -1)
        size = q ** min(S, len(slots))
        assert len(stack) == size and fillings[0] % size == 0
        assert fillings.tolist() == list(range(fillings[0], fillings[0] + size))
    assert any(len(stack) == q**S for stack in stacks) or r in (0, N)
    assert np.array_equal(np.concatenate(stacks), np.array(list(_reference_subspaces(q, N, r))))


def _reduced_bases(q, l, m, r, j):
    """[E_j; 0 | R] for every (r-1)-dim basis R of GF(q)^(l*m - 1), in
    reference order."""
    N = l * m
    reduced = np.array(list(_reference_subspaces(q, N - 1, r - 1)))
    bases = np.zeros((len(reduced), r, N), dtype=np.int64)
    bases[:, 0, : j * (m + 1) : m + 1] = 1
    bases[:, 1:, 1:] = reduced
    return bases


def _elimination_stream(field, l, m, r):
    """(js, bases, ranks) of every r-dim subspace that contains E_j, for
    j = 1..l in turn: bases in reference order, every span element
    eliminated by ``span_ranks``."""
    bases = np.concatenate([_reduced_bases(field.q, l, m, r, j) for j in range(1, l + 1)])
    js = np.repeat(np.arange(1, l + 1), len(bases) // l)
    return js, bases, matq.span_ranks(field, bases, l, m)


@pytest.mark.parametrize("p,e,l,m", [(2, 1, 2, 3), (3, 1, 2, 2), (2, 2, 2, 2)])
def test_reduced_bases_are_the_spaces_that_contain_E_j(p, e, l, m):
    f = make_field(p, e)
    N = l * m
    for j in range(1, l + 1):
        E = np.zeros(N, dtype=np.int64)
        E[: j * (m + 1) : m + 1] = 1
        for r in range(1, N + 1):
            got = [matq.rref(f, B)[0].tolist() for B in _reduced_bases(f.q, l, m, r, j)]
            want = [B.tolist() for B in _reference_subspaces(f.q, N, r)
                    if matq.rank(f, np.vstack([B, E])) == r]
            assert sorted(got) == sorted(want)
            if j == 1:  # [e_0; 0 | R] is already the RREF, in canonical order
                assert got == want


# (p, e, l, m, dimensions): q^r > 7 for every r >= 3 (GF(2)), 2 (GF(3),
# GF(4), GF(5)) and 1 (GF(9)), so the 7-entry chunk reads single bases;
# r = l*m has one profile and it holds no free slot.
SEARCH_SPACES = [(2, 1, 2, 3, range(1, 7)), (3, 1, 2, 2, range(1, 5)),
                 (2, 2, 2, 2, range(1, 5)), (5, 1, 2, 2, range(1, 5)), (3, 2, 2, 2, (1, 4))]


@pytest.mark.parametrize("p,e,l,m,dims", SEARCH_SPACES)
def test_span_rank_batches_match_elimination_at_chunk_boundaries(p, e, l, m, dims, monkeypatch):
    f = make_field(p, e)
    want = {r: _elimination_stream(f, l, m, r) for r in dims}
    # with 8-basis stacks, a block of the default chunk is a whole stack
    for chunk, batch in itertools.product((7, 20, _kernels._RANK_CHUNK), (8, matq._SUBSPACE_BATCH)):
        monkeypatch.setattr(_kernels, "_RANK_CHUNK", chunk)
        monkeypatch.setattr(matq, "_SUBSPACE_BATCH", batch)
        for r, (js, bases, ranks) in want.items():
            blocks = list(matq.span_rank_batches(f, l, m, r, range(1, l + 1)))
            assert all(got.size <= chunk or len(b) == 1 for _, b, got in blocks)
            assert np.array_equal(np.concatenate([[j] * len(b) for j, b, _ in blocks]), js)
            assert np.array_equal(np.concatenate([b for _, b, _ in blocks]), bases)
            assert np.array_equal(np.concatenate([got for _, _, got in blocks]), ranks)


def test_rank_invariant_under_normal_form_factors(f3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(0, 3, size=(3, 3))
        P, Q, r = matq.normal_form(f3, M)
        assert matq.rank(f3, gf_matmul(f3, P, M)) == r
        assert matq.rank(f3, gf_matmul(f3, M, Q)) == r


def test_matrix_text_roundtrip(f4):
    M = np.array([[0, 1, 2], [3, 2, 1]])
    text = matq.format_matrix(M)
    assert text == "0 1 2\n3 2 1"
    assert (matq.parse_matrix(text) == M).all()
