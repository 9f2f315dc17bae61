import contextlib
import io
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detcodes import _kernels, cli, counting, detcode, formulas, make_field, matq, rank1
from detcodes.errors import BadParameters, BudgetExceeded, ShapeMismatch
from detcodes.gf import parse_q

from conftest import naive_codeword, span_ranks, subspaces


def test_evaluate_examples(f2):
    dom = detcode.make_domain(f2, 2, 2, 1, "projective")
    zero = detcode.evaluate(dom, [[0, 0], [0, 0]])
    assert not zero.any()
    x11 = detcode.evaluate(dom, [[1, 0], [0, 0]])
    assert int(np.count_nonzero(x11)) == 4  # minimum distance q^2
    tau2 = detcode.evaluate(dom, [[1, 0], [0, 1]])
    assert int(np.count_nonzero(tau2)) == 6
    with pytest.raises(ShapeMismatch):
        detcode.evaluate(dom, [[1, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("p,e,l,m,t,mode", [
    (2, 1, 2, 2, 1, "projective"),
    (2, 1, 2, 2, 1, "affine"),
    (3, 1, 2, 2, 1, "projective"),
    (2, 2, 2, 2, 1, "projective"),
])
def test_evaluate_matches_pointwise_oracle(p, e, l, m, t, mode):
    f = make_field(p, e)
    dom = detcode.make_domain(f, l, m, t, mode)
    rng = np.random.default_rng(5)
    for _ in range(10):
        F = rng.integers(0, f.q, size=(l, m))
        assert detcode.evaluate(dom, F).tolist() == naive_codeword(f, F, dom.points)


def test_generator_matrix_examples(f2):
    g = detcode.generator_matrix(detcode.make_domain(f2, 2, 2, 1, "projective"))
    assert g.shape == (4, 9)
    assert matq.rank(f2, g) == 4
    g = detcode.generator_matrix(detcode.make_domain(f2, 2, 2, 2, "projective"))
    assert g.shape == (4, 15)  # the binary [15, 4] simplex code
    assert matq.rank(f2, g) == 4
    assert detcode.naive_weight_enumerator(f2, 2, 2, 2, "projective").as_dict() == {0: 1, 8: 15}
    g = detcode.generator_matrix(detcode.make_domain(f2, 2, 2, 1, "affine"))
    assert g.shape == (4, 10)
    assert not g[:, 0].any()  # evaluation at the zero matrix


@pytest.mark.parametrize("q,l,m", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (4, 2, 2)])
def test_generator_nondegenerate(q, l, m):
    f = make_field(2, 2) if q == 4 else make_field(q)
    for t in range(1, l + 1):
        g = detcode.generator_matrix(detcode.make_domain(f, l, m, t, "projective"))
        assert matq.rank(f, g) == l * m
        assert g.any(axis=0).all()  # no zero column


def test_weight_of_form_examples(f2):
    # a form's weight is the weight table's entry at its rank
    dom = detcode.make_domain(f2, 2, 2, 1, "affine")
    for F, naive in [([[0, 0], [0, 0]], 0), ([[1, 0], [0, 0]], 4), ([[1, 0], [0, 1]], 6)]:
        assert sum(1 for s in naive_codeword(f2, np.array(F), dom.points) if s) == naive
        assert detcode.weight_table(dom)[matq.rank(f2, F)] == naive


@pytest.mark.parametrize("q", [2, 3])
def test_weight_depends_only_on_rank_exhaustive(q):
    # every form's naive weight equals the partial-trace weight of its rank
    f = make_field(q)
    for l, m in [(2, 2), (2, 3)]:
        for t in range(1, l + 1):
            dom = detcode.make_domain(f, l, m, t, "projective")
            for entries in itertools.product(range(q), repeat=l * m):
                F = np.array(entries).reshape(l, m)
                naive = sum(1 for s in naive_codeword(f, F, dom.points) if s)
                assert naive == detcode.weight_table(dom)[matq.rank(f, F)]


def test_brute_weight_enumerator_examples(f2):
    assert detcode.brute_weight_enumerator(f2, 2, 2, 1, "projective").as_dict() == {0: 1, 4: 9, 6: 6}
    assert detcode.brute_weight_enumerator(f2, 2, 2, 2, "projective").as_dict() == {0: 1, 8: 15}
    assert detcode.brute_weight_enumerator(f2, 2, 2, 1, "affine").as_dict() == {0: 1, 4: 9, 6: 6}


@pytest.mark.parametrize("q,l,m", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3), (4, 2, 2)])
def test_rank_grouped_equals_naive_enumerator(q, l, m):
    f = make_field(2, 2) if q == 4 else make_field(q)
    for t in range(1, l + 1):
        for mode in ("projective", "affine"):
            grouped = detcode.brute_weight_enumerator(f, l, m, t, mode)
            naive = detcode.naive_weight_enumerator(f, l, m, t, mode)
            assert grouped.pairs == naive.pairs
            assert grouped.total == q ** (l * m)
            assert grouped.as_dict()[0] == 1


def _product_spectrum(field, l, m, t, mode) -> dict[int, int]:
    """Reference: every form's codeword by one product, nonzeros counted."""
    dom = detcode.make_domain(field, l, m, t, mode)
    forms = np.array(list(itertools.product(range(field.q), repeat=l * m)), dtype=np.int64)
    words = _kernels.gf_matmul(field, forms, detcode.generator_matrix(dom))
    return dict(Counter(np.count_nonzero(words, axis=1).tolist()))


@st.composite
def _small_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    kmax = int(math.log(6561, q) + 1e-9)  # q^(l*m) <= 3^8
    l = draw(st.integers(1, min(3, math.isqrt(kmax))))
    m = draw(st.integers(l, min(4, kmax // l)))
    return q, l, m, draw(st.integers(1, l)), draw(st.sampled_from(["projective", "affine"]))


@settings(max_examples=40, deadline=None, database=None)
@given(code=_small_codes())
@example(code=(3, 1, 1, 1, "projective"))  # k = 1: no tail coefficient
@example(code=(4, 1, 1, 1, "affine"))
@example(code=(3, 1, 3, 1, "affine"))  # odd k: the head is the longer half
@example(code=(2, 3, 3, 2, "projective"))
@example(code=(8, 1, 3, 1, "affine"))
@example(code=(9, 2, 2, 1, "projective"))  # 4 bit planes, 8 scalar classes
@example(code=(997, 1, 1, 1, "affine"))  # 10 bit planes of uint16 values
@example(code=(2, 1, 6, 1, "affine"))  # n = 64: one full 64-bit word
@example(code=(2, 1, 6, 1, "projective"))  # n = 63: one bit short of a word
@example(code=(5, 2, 2, 2, "affine"))  # 3 bit planes, 4 scalar classes
def test_naive_enumerator_matches_the_per_form_product(code):
    q, l, m, t, mode = code
    field = parse_q(str(q))
    assume(q ** (l * m) * len(detcode.make_domain(field, l, m, t, mode)) <= 1_000_000)
    naive = detcode.naive_weight_enumerator(field, l, m, t, mode)
    assert naive.as_dict() == _product_spectrum(field, l, m, t, mode)
    assert naive.total == q ** (l * m)


def test_naive_enumerator_memory_is_one_tail_table(f3):
    # 3^9 forms over 8,451 points: the table holds 81 tails of one byte per
    # point, 8.3 KiB each (66 KiB each as int64, which peaked 6.46 MiB).
    # Kept unpacked beside their bit planes, with a fresh XOR array per
    # head block and a dict of every weight 0..n, they peaked 2.6 MiB.
    detcode.make_domain(f3, 3, 3, 2, "affine")  # cached: the walk is not measured
    tracemalloc.start()
    try:
        naive = detcode.naive_weight_enumerator(f3, 3, 3, 2, "affine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert naive.pairs == detcode.brute_weight_enumerator(f3, 3, 3, 2, "affine").pairs
    assert peak < 2 << 20


def test_naive_enumerator_ranks_no_form(f3, monkeypatch):
    detcode.make_domain(f3, 2, 2, 1, "projective")  # cached: only the points are ranked

    def no_rank(*args):
        raise AssertionError("the naive oracle ranked its forms")

    monkeypatch.setattr(matq, "rank_table", no_rank)
    monkeypatch.setattr(matq, "row_reduce", no_rank)
    monkeypatch.setattr(_kernels, "row_reduce", no_rank)
    assert detcode.naive_weight_enumerator(f3, 2, 2, 1, "projective").as_dict() == {
        0: 1, 9: 32, 12: 48
    }


def test_brute_enumerator_keeps_no_domain(f3, monkeypatch):
    def no_domain(*args):
        raise AssertionError("the brute spectrum built a domain")

    monkeypatch.setattr(detcode, "make_domain", no_domain)
    monkeypatch.setattr(matq, "enumerate_matrices", no_domain)
    assert detcode.brute_weight_enumerator(f3, 2, 2, 1, "projective").as_dict() == {
        0: 1, 9: 32, 12: 48
    }


# With 7 matrices per chunk, every q^m here exceeds the chunk, so each
# block is one prefix (first row) with all q^m of its last rows.
BLOCKS_OF_7 = {
    (2, 1, 2, 3): [1] * 8,
    (3, 1, 2, 2): [1] * 9,
    (2, 2, 2, 2): [1] * 16,
}


@pytest.mark.parametrize("p,e,l,m", list(BLOCKS_OF_7))
@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_walk_agrees_across_chunk_boundaries(p, e, l, m, mode, monkeypatch):
    f = make_field(p, e)
    ts = range(0 if mode == "affine" else 1, l + 1)
    matq._walk.cache_clear()  # the table is walked once per process: walk it here
    one_chunk = {t: (matq.enumerate_matrices(f, l, m, t, mode),
                     detcode.rank_trace_counts(f, l, m, t, mode)) for t in ts}
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", 7)
    chunks = []
    real = matq._span_values

    def spy(f, heads, layout):  # the spans of a block's prefixes, one call per block
        values = real(f, heads, layout)
        chunks.append(values.shape[0] * values.shape[1])
        return values

    monkeypatch.setattr(matq, "_span_values", spy)
    matq._walk.cache_clear()  # walk again, in blocks of 7
    matq.rank_table(f, l, m)
    monkeypatch.setattr(matq, "_span_values", real)
    assert chunks == BLOCKS_OF_7[p, e, l, m]
    for t in ts:
        pts, (rank_counts, trace_counts) = one_chunk[t]
        assert np.array_equal(matq.enumerate_matrices(f, l, m, t, mode), pts)
        got_ranks, got_traces = detcode.rank_trace_counts(f, l, m, t, mode)
        assert np.array_equal(got_ranks, rank_counts) and np.array_equal(got_traces, trace_counts)


def test_domain_budget_stops_the_walk_early(f2, monkeypatch):
    # 8 table entries per chunk: each is one first row with all 8 last rows.
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", 8)
    monkeypatch.setattr(matq, "DOMAIN_BUDGET", 10)
    blocks = []
    real = matq._domain_chunks

    def counted(*args):
        for pts, ranks in real(*args):
            blocks.append(len(ranks))
            yield pts, ranks

    monkeypatch.setattr(matq, "_domain_chunks", counted)
    with pytest.raises(BudgetExceeded):
        matq.enumerate_matrices(f2, 2, 3, 2, "affine")
    assert blocks == [8, 8]  # 16 of 64 points kept when the budget stopped it


def test_brute_enumerator_memory_is_one_chunk(f2, monkeypatch):
    # The whole GF(2) 4x4 space is 65536 matrices (38 MB of peak
    # allocation when it was ranked at once); 1024 at a time stay small.
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", 1024)
    f2.tables, f2.inverses
    tracemalloc.start()
    try:
        rep = detcode.brute_weight_enumerator(f2, 4, 4, 1, "projective")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total == 2**16
    assert peak < 4 << 20


def test_full_space_trace_count_memory_is_the_table(f2, monkeypatch):
    # At t = l affine the domain is the whole GF(2) 4x5 space, 2^20 points:
    # the table is 1 MiB, and any int64 array over the space 8 MiB or more.
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", 1024)
    f2.tables, f2.inverses
    tracemalloc.start()
    try:
        rank_counts, trace_counts = detcode.rank_trace_counts(f2, 4, 5, 4, "affine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank_counts.tolist() == [counting.mu(4, 5, j, 2) for j in range(5)]
    assert trace_counts.tolist() == [
        [formulas.delsarte_N(j, r, 4, 5, 2) for r in range(5)] for j in range(5)
    ]
    assert peak < 4 << 20


@pytest.mark.parametrize("t,mode", [(1, "projective"), (1, "affine")])
def test_counting_allocates_less_than_one_int64_chunk(f2, t, mode):
    # With the 2^20-entry GF(2) 4x5 table walked, counting reads it as
    # bytes: an int64 copy of one default chunk would be 8 * _RANK_CHUNK.
    matq.rank_table(f2, 4, 5)
    f2.tables, f2.inverses
    tracemalloc.start()
    try:
        detcode.rank_trace_counts(f2, 4, 5, t, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _kernels._RANK_CHUNK


def test_trace_counting_builds_no_int64_table_per_point(f3):
    # At t = l affine every one of the 3^9 matrices is a point.  Decoding
    # the three diagonal digits of each into a (B, l) int64 table, with a
    # (B, l + 1) one of cells beside it, peaked 1.90 MiB.
    matq.rank_table(f3, 3, 3)
    f3.tables, f3.inverses
    tracemalloc.start()
    try:
        rank_counts, trace_counts = detcode.rank_trace_counts(f3, 3, 3, 3, "affine")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace_counts.tolist() == [
        [formulas.delsarte_N(j, r, 3, 3, 3) for r in range(4)] for j in range(4)
    ]
    assert peak < 1 << 20


@pytest.mark.parametrize("p,e,dtype", [(2, 1, np.uint8), (2, 2, np.uint8), (3, 2, np.uint8),
                                       (257, 1, np.uint16)])
def test_points_and_generator_matrix_are_in_the_element_dtype(p, e, dtype):
    # GF(257) is the first field whose indices take two bytes
    f = make_field(p, e)
    l, m = (1, 2) if p == 257 else (2, 2)
    dom = detcode.make_domain(f, l, m, 1, "affine")
    gen = detcode.generator_matrix(dom)
    assert dom.points.dtype == dtype and gen.dtype == dtype
    assert int(gen.max()) == f.q - 1
    if l == 1:  # every 1 x 2 matrix is a point, in base-q order
        got = [tuple(int(x) for x in pt[0]) for pt in dom.points]
        assert got == [divmod(v, f.q) for v in range(f.q**2)]


@pytest.mark.parametrize("p,e,l,m", [(2, 1, 3, 3), (3, 1, 2, 3), (2, 2, 2, 3), (3, 2, 2, 2)])
@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_rank_trace_counts_match_a_per_point_oracle(p, e, l, m, mode):
    # every cell, built without the table: ranks by elimination over the
    # whole space, traces one domain point at a time
    f = make_field(p, e)
    space = matq.coeff_vectors(f, l * m).reshape(-1, l, m)
    ranks = _kernels.rank_batch(f, space.copy())
    rank_counts = np.bincount(ranks, minlength=l + 1)
    for t in range(0 if mode == "affine" else 1, l + 1):
        cells = np.zeros((l + 1, l + 1), dtype=np.int64)
        for M in detcode.make_domain(f, l, m, t, mode).points:
            j = matq.rank(f, M)
            for r in range(1, l + 1):
                cells[j, r] += matq.partial_trace(f, M, r) != 0
        got_ranks, got_cells = detcode.rank_trace_counts(f, l, m, t, mode)
        assert got_ranks.tolist() == rank_counts.tolist()
        assert got_cells.tolist() == cells.tolist()


@pytest.mark.parametrize("q,l,m,t", [(2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1)])
def test_affine_projective_spectrum_transfer(q, l, m, t):
    f = make_field(q)
    aff = detcode.brute_weight_enumerator(f, l, m, t, "affine").as_dict()
    proj = detcode.brute_weight_enumerator(f, l, m, t, "projective").as_dict()
    for i, c in proj.items():
        assert aff.get(i * (q - 1), 0) == c
    for j in aff:
        if j % (q - 1):
            assert aff[j] == 0 or j == 0


def test_support_weight_examples(f2):
    dom = detcode.make_domain(f2, 2, 2, 1, "projective")
    span = np.zeros((1, 4), dtype=np.int64)
    span[0, 0] = 1
    assert detcode.support_weight(dom, span) == 4
    span2 = np.zeros((2, 4), dtype=np.int64)
    span2[0, 0] = 1
    span2[1, 1] = 1
    assert detcode.support_weight(dom, span2) == 6
    assert detcode.support_weight(dom, np.eye(4, dtype=np.int64)) == 9


@pytest.mark.parametrize("q,l,m,t,mode", [(2, 2, 2, 1, "projective"), (3, 2, 2, 1, "projective"),
                                          (2, 2, 2, 1, "affine"), (2, 2, 3, 1, "projective")])
def test_support_weight_routes_agree_on_all_small_subspaces(q, l, m, t, mode):
    f = make_field(q)
    dom = detcode.make_domain(f, l, m, t, mode)
    for r in (1, 2):
        for basis in subspaces(f, l * m, r):
            words = [naive_codeword(f, b, dom.points) for b in basis]
            union = sum(1 for column in zip(*words) if any(column))
            assert detcode.support_weight(dom, basis) == union


def test_element_budget_bounds_every_span_walk(f2, monkeypatch):
    # support_weight and count_rank1 walk the q^r span elements through
    # matq._coeff_blocks, which checks q^r before any product
    dom = detcode.make_domain(f2, 2, 3, 1, "projective")
    basis = np.eye(6, dtype=np.int64)[:5]
    monkeypatch.setattr(matq, "ELEMENT_BUDGET", 2**5)  # the budget itself is allowed
    assert detcode.support_weight(dom, basis) == 20
    assert rank1.count_rank1(f2, basis, 2, 3) == 13  # u^T v with u_2 v_3 = 0

    def spy(*args):
        raise AssertionError("a product ran before the element budget check")

    monkeypatch.setattr(matq, "ELEMENT_BUDGET", 2**5 - 1)
    for module in (detcode, rank1, matq, _kernels):
        monkeypatch.setattr(module, "gf_matmul", spy)
    with pytest.raises(BudgetExceeded, match="ELEMENT_BUDGET = 31"):
        detcode.support_weight(dom, basis)
    with pytest.raises(BudgetExceeded, match="ELEMENT_BUDGET = 31"):
        rank1.count_rank1(f2, basis, 2, 3)


def test_brute_ghw_flagship(f2):
    got = [detcode.brute_ghw(f2, 2, 2, 1, "projective", r) for r in (1, 2, 3, 4)]
    assert got == [4, 6, 8, 9]
    # d_3 = d_2 + q^(l+m-3)
    assert got[2] == got[1] + 2


def test_brute_ghw_monotone(f3):
    vals = [detcode.brute_ghw(f3, 2, 2, 1, "projective", r) for r in range(1, 5)]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)


@pytest.mark.parametrize("q,l,m,t", [(2, 2, 2, 1), (3, 2, 2, 1)])
def test_ghw_affine_transfer(q, l, m, t):
    f = make_field(q)
    for r in range(1, l * m + 1):
        proj = detcode.brute_ghw(f, l, m, t, "projective", r)
        aff = detcode.brute_ghw(f, l, m, t, "affine", r)
        assert aff == (q - 1) * proj


def test_subcode_spectrum_examples(f2):
    assert detcode.subcode_spectrum(f2, 2, 2, 1, "projective", 1) == {4: 9, 6: 6}
    assert detcode.subcode_spectrum(f2, 2, 2, 1, "projective", 4) == {9: 1}
    assert detcode.subcode_spectrum(f2, 2, 2, 2, "projective", 1) == {8: 15}


def test_subcode_spectrum_totals(f3):
    for r in (1, 2, 3):
        hist = detcode.subcode_spectrum(f3, 2, 2, 1, "projective", r)
        assert sum(hist.values()) == counting.gaussian_binomial(4, r, 3)
        assert min(hist) == detcode.brute_ghw(f3, 2, 2, 1, "projective", r)


def test_subcode_spectrum_affine_transfer(f3):
    proj = detcode.subcode_spectrum(f3, 2, 2, 1, "projective", 2)
    aff = detcode.subcode_spectrum(f3, 2, 2, 1, "affine", 2)
    assert aff == {w * 2: c for w, c in proj.items()}


def test_export_generator_format(f2):
    dom = detcode.make_domain(f2, 2, 2, 1, "projective")
    text = detcode.export_generator(dom)
    lines = text.strip().splitlines()
    assert lines[0] == "2 2 2 1 projective 9 4"
    assert len(lines) == 5
    g = np.array([[int(x) for x in line.split()] for line in lines[1:]])
    assert (g == detcode.generator_matrix(dom)).all()


def _searches(field, l, m, r, t):
    """brute_ghw (both modes, pruned and not), subcode_spectrum (both
    modes) and max_rank1_exhaustive with its witness (pruned and not), as
    the library computes them."""
    out = {}
    for mode in ("projective", "affine"):
        out["ghw", mode] = [detcode.brute_ghw(field, l, m, t, mode, r, prune=p) for p in (True, False)]
        out["spectrum", mode] = detcode.subcode_spectrum(field, l, m, t, mode, r)
    out["rank1"] = []
    for p in (True, False):
        best, witness = rank1.max_rank1_exhaustive(field, l, m, r, prune=p)
        out["rank1"].append((best, witness.tolist()))
    return out


def _eliminated_searches(field, l, m, r, t):
    """The same searches over every r-dimensional subspace, every span
    element built and eliminated by ``span_ranks`` instead of read from
    the rank table.  The rank-1 witness is the first maximizer, in
    canonical order, that contains E_11: its RREF's first row is e_0."""
    q = field.q
    wts = {mode: np.array(detcode.weight_table(detcode.make_domain(field, l, m, t, mode)))
           for mode in ("projective", "affine")}
    hists = {mode: Counter() for mode in wts}
    e0 = np.eye(1, l * m, dtype=np.int64)[0]
    best, witness = -1, None
    for batch in matq.subspace_batches(field, l * m, r):
        ranks = span_ranks(field, batch, l, m)
        for mode, wt in wts.items():
            hists[mode].update((wt[ranks].sum(axis=1) // (q**r - q ** (r - 1))).tolist())
        counts = (ranks == 1).sum(axis=1)
        if counts.max() > best:
            best, witness = int(counts.max()), None
        if witness is None:
            hits = np.flatnonzero((counts == best) & (batch[:, 0] == e0).all(axis=1))
            witness = batch[hits[0]].tolist() if len(hits) else None
    out = {}
    for mode, hist in hists.items():
        out["ghw", mode] = [min(hist)] * 2
        out["spectrum", mode] = dict(sorted(hist.items()))
    out["rank1"] = [(best, witness)] * 2
    return out


@pytest.mark.parametrize(
    "p,e,l,m,r",
    [(2, 1, 2, 3, r) for r in range(1, 7)]
    + [(3, 1, 2, 2, r) for r in range(1, 5)]
    + [(2, 2, 2, 2, r) for r in range(1, 5)]
    + [(2, 1, 2, 4, r) for r in range(5, 9)],
)
def test_searches_match_the_elimination_path(p, e, l, m, r):
    f = make_field(p, e)
    assert _searches(f, l, m, r, 1) == _eliminated_searches(f, l, m, r, 1)


# t = 2 cells.  At t = l = 2 the code is a simplex code, every form has
# one weight, and each spectrum is one weight held by all [N, r]_q
# subcodes: the mu_j / k_j weighting must count them all.  q=2 3x3 t=2
# weighs ranks 1, 2, 3 as 160, 176, 168, not monotone in rank.
@pytest.mark.parametrize(
    "p,e,l,m,r",
    [(2, 1, 2, 3, r) for r in range(1, 7)]
    + [(2, 2, 2, 2, r) for r in range(1, 5)]
    + [(2, 1, 3, 3, r) for r in (1, 2)],
)
def test_searches_match_the_elimination_path_at_t2(p, e, l, m, r):
    f = make_field(p, e)
    assert _searches(f, l, m, r, 2) == _eliminated_searches(f, l, m, r, 2)


def test_searches_read_at_most_one_chunk_of_span_elements(f2, monkeypatch):
    # at r = 5, q^r = 32 exceeds the chunk, so each block is one basis
    expected = {r: _searches(f2, 2, 3, r, 1) for r in (1, 3, 4, 5)}
    blocks = []
    real = matq.span_rank_batches

    def spy(field, l, m, r, js):
        for j, bases, ranks in real(field, l, m, r, js):
            assert ranks.shape == (len(bases), field.q**r)
            blocks.append((len(bases), ranks.size))
            yield j, bases, ranks

    monkeypatch.setattr(matq, "span_rank_batches", spy)
    monkeypatch.setattr(_kernels, "_RANK_CHUNK", 20)
    for r, want in expected.items():
        blocks.clear()
        assert _searches(f2, 2, 3, r, 1) == want
        assert blocks and all(size <= 20 or n == 1 for n, size in blocks)
    # at r = 5 brute_ghw reads the 1-dimensional sections, one basis of 2
    # elements a block, and subcode_spectrum and rank1max one basis of 32
    assert set(blocks) == {(1, 2), (1, 32)}


@pytest.mark.parametrize("q,l,m,r", [(2, 2, 4, 5), (3, 2, 3, 4), (2, 3, 3, 2), (2, 2, 2, 4)])
def test_searches_visit_only_the_spaces_that_contain_E_j(q, l, m, r, monkeypatch):
    # the subcode search visits [N-1, r-1]_q spaces for each of the l ranks
    # j, the section search of dimension N - r [N-1, N-r-1]_q for each of
    # the t ranks j (none at r = N), and the rank-1 search those of j = 1
    f = make_field(q)
    N = l * m
    one_rank = counting.gaussian_binomial(N - 1, r - 1, q)
    dual = counting.gaussian_binomial(N - 1, N - r - 1, q)
    calls, grown = [], []
    real = matq.subspace_batches

    def spy(field, N, k, grow=False):
        calls.append([N, k, 0])
        grown.append(grow)
        for stack in real(field, N, k, grow):
            calls[-1][2] += len(stack)
            yield stack

    monkeypatch.setattr(matq, "subspace_batches", spy)
    detcode._primal_ghw(f, l, m, 1, "projective", r, prune=False)
    assert calls == [[N - 1, r - 1, one_rank]] * l
    assert grown == [True] + [False] * (l - 1)  # only the search's first stack grows
    for t in range(1, l + 1):
        calls.clear()
        detcode.max_section(f, l, m, t, "projective", N - r, prune=False)
        assert calls == ([[N - 1, N - r - 1, dual]] * t if r < N else [])
    calls.clear()
    rank1.max_rank1_exhaustive(f, l, m, r, prune=False)
    assert calls == [[N - 1, r - 1, one_rank]]
    # the budget counts those spaces, and is checked before any walk: the
    # section search builds its domain only once a block has arrived
    monkeypatch.setattr(matq, "SUBSPACE_BUDGET", l * one_rank - 1)
    monkeypatch.setattr(matq, "rank_table", None)
    with pytest.raises(BudgetExceeded, match=f"{l * one_rank} subspaces exceed"):
        detcode._primal_ghw(f, l, m, 1, "projective", r, prune=False)
    if r < N:
        monkeypatch.setattr(matq, "SUBSPACE_BUDGET", l * dual - 1)
        monkeypatch.setattr(detcode, "make_domain", None)
        with pytest.raises(BudgetExceeded, match=f"{l * dual} subspaces exceed"):
            detcode.max_section(f, l, m, l, "projective", N - r, prune=False)


def test_pruned_searches_stop_in_their_first_stack(f2, monkeypatch):
    # the benchmark's subspace_search cells, and every search that verify
    # runs at q=2 2x4, meet their proven bound at the first space of E_1,
    # which is the first stack of one basis, and stop there; at 2x4 r=5
    # d_5 = 38 = 45 - 7 meets the dual floor, and 17 rank-1 forms the
    # ceiling.  verify searches d_r at r = 1, 2, 3, 6, 7 in both modes
    # when t = 1 (r = 8 needs no search; r = 4, 5 are past its cap) and
    # the rank-1 maxima at r = 6, 7, 8.  At q=2 3x3, d_4 = 36 meets the
    # coset floor on the subcode side and d_5 = 40 the rank-1 section
    # floor on the section side, in both modes (q - 1 = 1).
    f3 = make_field(3)
    stacks = []
    real = matq.subspace_batches

    def spy(field, N, k, grow=False):
        stacks.append([])
        for stack in real(field, N, k, grow):
            stacks[-1].append(len(stack))
            yield stack

    monkeypatch.setattr(matq, "subspace_batches", spy)
    assert detcode.brute_ghw(f2, 2, 4, 1, "projective", 5) == 38
    assert detcode.brute_ghw(f3, 2, 3, 1, "projective", 4) == 48
    assert detcode.brute_ghw(f2, 2, 4, 1, "projective", 6) == 42
    assert rank1.max_rank1_exhaustive(f2, 2, 4, 5)[0] == 17
    assert rank1.max_rank1_exhaustive(f3, 2, 3, 4)[0] == 32
    for mode, scale in (("projective", 1), ("affine", 2 - 1)):
        assert detcode.brute_ghw(f2, 3, 3, 1, mode, 4) == 36 * scale
        assert detcode.brute_ghw(f2, 3, 3, 1, mode, 5) == 40 * scale
    assert stacks == [[1]] * 9
    for t in (1, 2):
        stacks.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.dispatch(["verify", "--q", "2", "--l", "2", "--m", "4", "--t", str(t)]) == 0
        assert stacks == [[1]] * (13 if t == 1 else 3)


def test_over_budget_searches_walk_nothing(f2, monkeypatch):
    # q=2 5x5 r=10: each side visits far more than SUBSPACE_BUDGET spaces,
    # and every search refuses before it walks the space or builds a domain
    detcode.make_domain.cache_clear()
    matq._walk.cache_clear()

    def no_walk(*args):
        raise AssertionError("walked before the subspace budget check")

    monkeypatch.setattr(matq, "rank_table", no_walk)
    monkeypatch.setattr(detcode, "make_domain", no_walk)
    for search in (lambda: detcode.brute_ghw(f2, 5, 5, 1, "projective", 10),
                   lambda: detcode._primal_ghw(f2, 5, 5, 1, "projective", 10),
                   lambda: detcode.max_section(f2, 5, 5, 1, "projective", 15),
                   lambda: detcode.subcode_spectrum(f2, 5, 5, 1, "affine", 10)):
        with pytest.raises(BudgetExceeded, match="subspaces exceed the budget"):
            search()


@pytest.mark.parametrize("l,m,t,mode", [(5, 4, 1, "projective"), (4, 5, 1, "projectiv"),
                                        (4, 5, 0, "projective"), (4, 5, 0, "affine")])
def test_invalid_searches_walk_nothing(f2, l, m, t, mode, monkeypatch):
    # l > m, an unknown mode, the empty projective rank-0 locus and the
    # affine one, the origin alone, whose code is the zero code, are
    # refused before the 2^20-matrix walk, on either side of brute_ghw
    def no_walk(*args):
        raise AssertionError("walked before the variety check")

    monkeypatch.setattr(matq, "rank_table", no_walk)
    for search in (lambda: detcode.brute_ghw(f2, l, m, t, mode, 1),
                   lambda: detcode.brute_ghw(f2, l, m, t, mode, 19),
                   lambda: detcode._primal_ghw(f2, l, m, t, mode, 1),
                   lambda: detcode.max_section(f2, l, m, t, mode, 1),
                   lambda: detcode.max_section(f2, l, m, t, mode, 0),
                   lambda: detcode.subcode_spectrum(f2, l, m, t, mode, 1)):
        with pytest.raises(BadParameters):
            search()


def _bound_cells():
    """q in {2, 3, 4}, 1 <= l <= m with l*m <= 6, every t and every r."""
    for p, e in ((2, 1), (3, 1), (2, 2)):
        for l in range(1, 3):
            for m in range(l, 6 // l + 1):
                for r in range(1, l * m + 1):
                    yield p, e, l, m, r


# q=2 3x3 at r = m + 1 = 4, where the coset floor is met, and r = 5,
# where the rank-1 section floor is
@pytest.mark.parametrize("p,e,l,m,r", list(_bound_cells()) + [(2, 1, 3, 3, 4), (2, 1, 3, 3, 5)])
def test_proven_bounds_hold_and_pruning_changes_nothing(p, e, l, m, r):
    f = make_field(p, e)
    for t in range(1, l + 1):
        for mode in ("projective", "affine"):
            d_r = detcode.brute_ghw(f, l, m, t, mode, r, prune=False)
            dom = detcode.make_domain(f, l, m, t, mode)
            assert len(dom) - detcode._section_ceiling(dom, l * m - r) <= d_r
            assert detcode.brute_ghw(f, l, m, t, mode, r) == d_r
    if l >= 2:  # rank1_bound needs 2 <= l
        best, witness = rank1.max_rank1_exhaustive(f, l, m, r, prune=False)
        dom = detcode.make_domain(f, l, m, 1, "projective")
        assert (f.q - 1) * detcode._section_ceiling(dom, r) >= best
        pruned, pruned_witness = rank1.max_rank1_exhaustive(f, l, m, r)
        assert (pruned, pruned_witness.tolist()) == (best, witness.tolist())


@pytest.mark.parametrize("p,e,l,m,r", list(_bound_cells()) + [(2, 1, 3, 3, r) for r in range(1, 10)])
def test_the_searches_bound_is_the_closed_forms_lower_bound(p, e, l, m, r):
    # n - ceiling(N - r), read off the domain, is (q - 1) or 1 times the
    # lower bound of formulas.ghw_bounds on the closed n_hat and d_hat_1
    f = make_field(p, e)
    for t in range(1, l + 1):
        n_hat = counting.lengths(l, m, t, f.q)[1]
        d1 = formulas.closed_weight_enumerator(t, l, m, f.q, "projective").min_distance()
        lower = formulas.ghw_bounds(l, m, t, r, f.q, n_hat, d1).lower
        for mode, scale in (("projective", 1), ("affine", f.q - 1)):
            dom = detcode.make_domain(f, l, m, t, mode)
            assert len(dom) - detcode._section_ceiling(dom, l * m - r) == scale * lower


def test_a_wrong_bound_fails_loudly(f2, monkeypatch):
    # q=2 2x3: d_3 = 14 = 21 - 7 meets the floor n - ceiling(3), and the
    # r = 4 maximum of 9 rank-1 forms its ceiling, so a ceiling one lower
    # is crossed by a visited space on either side, which must raise
    # rather than cut the search short; brute_ghw runs the section side
    ceiling = detcode._section_ceiling
    monkeypatch.setattr(detcode, "_section_ceiling", lambda dom, s: ceiling(dom, s) - 1)
    with pytest.raises(AssertionError, match="below the proven floor"):
        detcode._primal_ghw(f2, 2, 3, 1, "projective", 3)
    with pytest.raises(AssertionError, match="above the proven ceiling"):
        detcode.brute_ghw(f2, 2, 3, 1, "projective", 3)
    with pytest.raises(AssertionError, match="above the proven ceiling"):
        rank1.max_rank1_exhaustive(f2, 2, 3, 4)


@pytest.mark.parametrize("p,e,l,m,r", list(_bound_cells()))
def test_the_subcode_and_section_sides_are_each_others_oracle(p, e, l, m, r):
    # d_r = n - max_section(N - r) at every t and mode, pruned and not
    f = make_field(p, e)
    N = l * m
    for t in range(1, l + 1):
        for mode in ("projective", "affine"):
            n = len(detcode.make_domain(f, l, m, t, mode))
            primal = {detcode._primal_ghw(f, l, m, t, mode, r, prune=k) for k in (True, False)}
            dual = {n - detcode.max_section(f, l, m, t, mode, N - r, prune=k)[0]
                    for k in (True, False)}
            assert primal == dual == {detcode.brute_ghw(f, l, m, t, mode, r)}


@pytest.mark.parametrize("p,e,l,m", sorted({c[:4] for c in _bound_cells() if c[2] >= 2}))
def test_rank1max_is_the_t1_projective_section(p, e, l, m):
    # M(r) = (q - 1)(n_hat - d_(N-r)), with d_(N-r) from the subcode side
    f = make_field(p, e)
    N = l * m
    n_hat = len(detcode.make_domain(f, l, m, 1, "projective"))
    for r in range(N):
        d = detcode._primal_ghw(f, l, m, 1, "projective", N - r, prune=False)
        assert rank1.max_rank1_exhaustive(f, l, m, r)[0] == (f.q - 1) * (n_hat - d)


def test_the_section_side_reaches_cells_past_the_subcode_budget(f2):
    # q=2 t=1 projective; the subcode side of 4x4 r=14 and 3x4 r=9 would
    # visit more than SUBSPACE_BUDGET spaces
    for l, m, r in ((4, 4, 14), (3, 4, 9)):
        assert l * counting.gaussian_binomial(l * m - 1, r - 1, 2) > matq.SUBSPACE_BUDGET
    for l, m, r, want in ((4, 4, 14, 222), (4, 4, 15, 224),
                          (3, 4, 9, 98), (3, 4, 10, 102), (3, 4, 11, 104)):
        got = detcode.brute_ghw(f2, l, m, 1, "projective", r)
        assert got == want
        assert formulas.ghw_t1(l, m, r, 2).contains(got)


def test_unpruned_q2_3x3_t2_middle_weights():
    # d_4 and d_5 of the q=2 3x3 t=2 code, as a full search of all
    # [9, r]_2 subspaces found them; affine weights are (q - 1) times these
    f = make_field(2)
    for r, want in ((4, 312), (5, 328)):
        assert detcode.brute_ghw(f, 3, 3, 2, "projective", r, prune=False) == want
        assert detcode.brute_ghw(f, 3, 3, 2, "affine", r, prune=False) == (2 - 1) * want


@pytest.mark.parametrize("q", [2, 3])
def test_searches_on_a_one_entry_space(q):
    # N = 1: E_1 spans the whole space, and the reduced search walks the
    # one 0-dimensional subspace of GF(q)^0
    f = make_field(q)
    for mode, n in (("projective", 1), ("affine", q - 1)):
        assert detcode.brute_ghw(f, 1, 1, 1, mode, 1) == n
        assert detcode.subcode_spectrum(f, 1, 1, 1, mode, 1) == {n: 1}


def test_search_past_the_walk_budget_names_it(f2, monkeypatch):
    # [8, 8]_2 = 1 subspace fits SUBSPACE_BUDGET, but its table is the walk
    monkeypatch.setattr(matq, "MATRIX_SPACE_BUDGET", 2**8 - 1)
    with pytest.raises(BudgetExceeded, match="MATRIX_SPACE_BUDGET = 255"):
        rank1.max_rank1_exhaustive(f2, 2, 4, 8)
    # the subspace budget is checked first, before any walk
    monkeypatch.setattr(matq, "SUBSPACE_BUDGET", 10)
    monkeypatch.setattr(matq, "rank_table", None)
    with pytest.raises(BudgetExceeded, match="exceed the budget 10"):
        rank1.max_rank1_exhaustive(f2, 2, 4, 7)
