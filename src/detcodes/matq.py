"""Matrices over GF(q): rank, normal form, and deterministic enumeration.

Matrices are plain numpy integer arrays of element indices; the field is
passed explicitly.  Subspaces of GF(q)^N are represented by their
reduced-row-echelon-form basis matrices, which are canonical: two RREF
matrices are equal iff they span the same subspace.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _kernels, counting
from ._kernels import gf_matmul, row_reduce
from .errors import (
    BadParameters,
    BudgetExceeded,
    EmptyVariety,
    IndexOutOfRange,
    ShapeMismatch,
)

# Hard ceilings for exhaustive enumeration (desk-scale verifier).
MATRIX_SPACE_BUDGET = 50_000_000  # q^(l*m) matrices walked, one byte each, by rank_table
DOMAIN_BUDGET = 10_000_000  # points kept in an evaluation domain
SUBSPACE_BUDGET = 10_000_000  # subspaces visited
ELEMENT_BUDGET = 10_000_000  # q^r coefficient vectors walked, by _coeff_blocks
_SUBSPACE_BATCH = 4096  # subspace_batches stacks hold the largest power of q up to this


def _checked(M, q: int | None) -> np.ndarray:
    """M as a 2-d integer array, not copied if it is one already; raises
    unless its entries are element indices in [0, q)."""
    A = np.asarray(M)
    if A.dtype.kind not in "iu":
        A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    if q is not None and A.size and (A.min() < 0 or A.max() >= q):
        raise IndexOutOfRange(f"entries must be element indices in [0, {q})")
    return A


def as_matrix(M, q: int | None = None) -> np.ndarray:
    return _checked(M, q).astype(np.int64, copy=False)


def rank(field, M) -> int:
    """Rank over GF(q), of M or of its transpose, whichever has no more
    columns than rows.  Its rows are eliminated a block of at most
    ``_kernels._RANK_CHUNK`` entries (or one row) at a time, each block
    widened to int64 together with the echelon basis of the rows before
    it, which spans what they span; it stops at full column rank.  So a
    narrow tall matrix, such as a generator matrix's transpose, is never
    copied whole."""
    M = _checked(M, field.q)
    if M.shape[0] < M.shape[1]:
        M = M.T
    per = max(1, _kernels._RANK_CHUNK // max(1, M.shape[1]))
    basis = np.zeros((0, M.shape[1]), dtype=np.int64)
    for lo in range(0, len(M), per):
        w = np.concatenate([basis, M[lo : lo + per]])[None]
        basis = w[0, : int(row_reduce(field, w)[0])]
        if len(basis) == M.shape[1]:
            break
    return len(basis)


def rref(field, A):
    """Reduced row echelon form over GF(q).

    Returns (R, pivots) where R has its zero rows dropped.
    """
    w = as_matrix(A, field.q)[None].copy()
    R = w[0, : int(row_reduce(field, w)[0])]
    return R, [int(np.flatnonzero(row)[0]) for row in R]


def _reduce_with_transform(field, M: np.ndarray):
    """(T, E): the RREF E of M and an invertible T with T @ M = E, read
    off the row reduction of [M | I]."""
    l, m = M.shape
    w = np.concatenate([M, np.eye(l, dtype=np.int64)], axis=1)[None]
    row_reduce(field, w)
    return w[0, :, m:], w[0, :, :m]


def normal_form(field, M):
    """Invertible P, Q with P @ M @ Q equal to the rank-r block identity."""
    P, E = _reduce_with_transform(field, as_matrix(M, field.q))
    # E's nonzero rows are independent and come first, so RREF(E.T) is
    # the transposed block identity and Qt @ E.T = that block.
    Qt, _ = _reduce_with_transform(field, E.T)
    return P, Qt.T, int(np.count_nonzero(E.any(axis=1)))


def outer(field, u, v) -> np.ndarray:
    # checked, not reduced: gf_matmul sums element indices in narrow dtypes
    u, v = (as_matrix([w], field.q)[0] for w in (u, v))
    return gf_matmul(field, u[:, None], v[None, :])


def partial_trace(field, M, r: int) -> int:
    M = as_matrix(M, field.q)
    if not 1 <= r <= M.shape[0]:
        raise IndexOutOfRange(f"partial trace order {r} not in [1, {M.shape[0]}]")
    acc = 0
    for i in range(r):
        acc = field.add(acc, int(M[i, i]))
    return acc


def _base_q_digits(a: np.ndarray, q: int, width: int) -> np.ndarray:
    """(len(a), width) base-q digits of a, most significant first, in the
    element dtype, with no ``%``.  Fewer values than digits, such as the
    walk's run heads, are divided by every place at once: digit i is
    a // q^(width-1-i) less q times a // q^(width-i).  More, such as a
    domain's points, are peeled off a digit at a time, the least
    significant first, as x - q * (x // q): a division by a scalar, and
    no int64 array wider than a."""
    element = np.min_scalar_type(q - 1)
    if len(a) < width:
        quot = a[:, None] // q ** np.arange(width, -1, -1, dtype=np.int64)
        return (quot[:, 1:] - q * quot[:, :-1]).astype(element)
    out = np.empty((len(a), width), dtype=element)
    x = a
    for i in range(width - 1, -1, -1):
        quot = x // q
        out[:, i] = x - quot * q
        x = quot
    return out


def rank_table(field, l: int, m: int) -> np.ndarray:
    """Read-only uint8 rank of every l x m matrix, l <= m, indexed by the
    matrix's base-q value: its row-major entries read as digits, the
    first most significant.  Each call checks q^(l*m) against the budget
    before it reads ``_walk``'s cache, which holds the last table only.
    """
    if not 1 <= l <= m:
        raise BadParameters(f"need 1 <= l <= m, got l={l}, m={m}")
    if field.q ** (l * m) > MATRIX_SPACE_BUDGET:
        raise BudgetExceeded(f"q^(l*m) = {field.q ** (l * m)} exceeds the enumeration budget "
                             f"MATRIX_SPACE_BUDGET = {MATRIX_SPACE_BUDGET}")
    return _walk(field, l, m)


@lru_cache(maxsize=1)
def _walk(field, l: int, m: int) -> np.ndarray:
    """The one walk of the matrix space, grown a row at a time from the
    1 x m table, where the rank is [v != 0].  A k-row matrix's value is
    prefix * q^m + last row, so the k-row table is a (prefixes, q^m)
    grid.  Since rank([P; v]) = rank(P) + [v not in rowspace P], a prefix
    P's row is rank(P) + 1, read off the (k-1)-row table, except at the
    values c @ P that P spans, where it is rank(P); a rank-deficient P
    spans some twice and writes the same rank again.  So the ranks come
    from linear algebra, not from any count, and nothing is eliminated.

    A prefix is a (k-1, m) basis whose value's last b digits are its last
    b row-major entries.  So the grid is filled in blocks of aligned runs
    of q^b prefixes, q^b the largest power of q up to the
    ``_kernels._RANK_CHUNK // q^m`` prefixes of a block (or one prefix),
    and ``_span_values`` lists each run's spans from its first prefix, its
    head: digits are built for the heads only.
    """
    q = field.q
    rows = q**m
    table = np.ones(rows, dtype=np.uint8)
    table[0] = 0
    per = max(1, _kernels._RANK_CHUNK // rows)  # prefixes per block, at most
    for k in range(2, l + 1):
        prefix_ranks, table = table, np.empty(q ** (k * m), dtype=np.uint8)
        grid = table.reshape(-1, rows)
        b = min(_max_power(q, per), (k - 1) * m)
        slots = [(i, j) for i in range(k - 1) for j in range(m)]  # row major
        layout = _block_layout(field, coeff_vectors(field, k - 1), m, slots, b)
        step = per // q**b * q**b  # whole runs per block
        for lo in range(0, len(grid), step):
            hi = min(lo + step, len(grid))
            heads = _base_q_digits(np.arange(lo, hi, q**b, dtype=np.int64), q, (k - 1) * m)
            values = _span_values(field, heads.reshape(-1, k - 1, m), layout)
            ranks = prefix_ranks[lo:hi, None]
            grid[lo:hi] = ranks + 1
            np.put_along_axis(grid[lo:hi], values.reshape(hi - lo, -1), ranks, axis=1)
    table.setflags(write=False)
    return table


def _check_variety(l: int, m: int, t: int, mode: str) -> None:
    """Raise unless (l, m, t, mode) names a rank-<=t variety that the codes
    are defined on; called before any walk."""
    if mode not in ("affine", "projective"):
        raise BadParameters(f"mode must be affine or projective, got {mode!r}")
    if not 0 <= t <= l <= m:
        raise BadParameters(f"need 0 <= t <= l <= m, got t={t}, l={l}, m={m}")
    if mode == "projective" and t == 0:
        raise EmptyVariety("the projective rank-0 locus is empty")


def _domain_chunks(table: np.ndarray, q: int, l: int, m: int, t: int, mode: str):
    """Yield (values, ranks) of the points of the rank-<=t variety of
    l x m matrices, in increasing base-q value: the int64 base-q values of
    the kept table entries and their uint8 ranks.  The table is read
    ``_kernels._RANK_CHUNK`` entries at a time, and the kept entries of
    as many reads as it takes to gather that many are yielded together,
    so a sparse domain's few points per read are decoded in one batch.
    No digit is decoded here; each caller decodes the digits it reads.

    Affine points are all the values of rank <= t.  A projective point is
    represented by the multiple whose first nonzero entry is 1, so its
    value has leading base-q digit 1: it lies in [q^k, 2 q^k) for some k.
    """
    chunk = _kernels._RANK_CHUNK
    ranges = [(0, len(table))] if mode == "affine" else [(q**k, 2 * q**k) for k in range(l * m)]
    values, ranks, kept = [], [], 0
    for lo, hi in ranges:
        for clo in range(lo, hi, chunk):
            block = table[clo : min(clo + chunk, hi)]
            keep = np.flatnonzero(block <= t)
            ranks.append(block[keep])
            keep += clo  # in place: the offsets become the values
            values.append(keep)
            kept += len(keep)
            if kept >= chunk:
                yield np.concatenate(values), np.concatenate(ranks)
                values, ranks, kept = [], [], 0
    if kept:
        yield np.concatenate(values), np.concatenate(ranks)


def enumerate_matrices(field, l: int, m: int, t: int, mode: str) -> np.ndarray:
    """Points of the rank-<=t matrix variety, affine or projective.

    Projective representatives are scaled so the first nonzero row-major
    entry is 1.  Order is lexicographic in row-major entry tuples.  The
    points are in the element dtype, ``np.min_scalar_type(q - 1)``: they
    are unsigned, so a caller widens them before it subtracts.
    """
    _check_variety(l, m, t, mode)
    table = rank_table(field, l, m)
    parts, kept = [], 0
    for values, _ in _domain_chunks(table, field.q, l, m, t, mode):
        parts.append(_base_q_digits(values, field.q, l * m).reshape(-1, l, m))
        kept += len(values)
        if kept > DOMAIN_BUDGET:
            raise BudgetExceeded(f"domain exceeds its budget of {DOMAIN_BUDGET} points")
    return np.concatenate(parts)


def _profile_free_slots(N: int, profile) -> list[tuple[int, int]]:
    pivset = set(profile)
    slots = []
    for i, c in enumerate(profile):
        for j in range(c + 1, N):
            if j not in pivset:
                slots.append((i, j))
    return slots


def _max_power(q: int, n: int) -> int:
    """The largest e with q^e <= n (0 when q > n)."""
    e = 0
    while q ** (e + 1) <= n:
        e += 1
    return e


def subspace_batches(field, N: int, r: int, grow: bool = False):
    """Yield (S, r, N) stacks of RREF bases, one pivot profile at a time.

    Deterministic order: profiles lexicographic, free entries filled by
    base-q digits (first free slot most significant).  A stack holds
    q^min(s, free slots) bases, with q^s the largest power of q up to
    ``_SUBSPACE_BATCH``, and starts at a filling index divisible by its
    size: its bases share every free entry but the last min(s, free
    slots), which run over all their fillings.

    With ``grow``, the first stack grows, so that a search that stops at
    its first basis builds no more: it is cut into stacks of 1 and then
    q - 1 of each q^g, g < its s, each aligned as above.
    """
    if not 0 <= r <= N:
        raise BadParameters(f"need 0 <= r <= N, got r={r}, N={N}")
    q = field.q
    total = counting.gaussian_binomial(N, r, q)
    if total > SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{total} subspaces exceed the budget {SUBSPACE_BUDGET}")
    S = min(_max_power(q, _SUBSPACE_BATCH), r * (N - r))  # no profile has more slots
    fillings = coeff_vectors(field, S)  # every stack's last s digits
    first = grow
    for profile in combinations(range(N), r):
        slots = _profile_free_slots(N, profile)
        si, sj = np.array(slots, dtype=np.int64).reshape(-1, 2).T
        k, s = len(slots), min(S, len(slots))
        base = np.zeros((r, N), dtype=np.int64)
        base[np.arange(r), list(profile)] = 1
        for head in coeff_vectors(field, k - s):
            base[si[: k - s], sj[: k - s]] = head  # the stack's shared free entries
            cuts = ([(0, 1)] + [(c * q**g, q**g) for g in range(s) for c in range(1, q)]
                    if first else [(0, q**s)])  # (offset, size) within the stack
            first = False
            for lo, size in cuts:
                stack = np.broadcast_to(base, (size, r, N)).copy()
                stack[:, si[k - s :], sj[k - s :]] = fillings[lo : lo + size, S - s :]
                yield stack


def coeff_vectors(field, r: int) -> np.ndarray:
    """All q^r coefficient vectors of length r, lexicographic, in the
    element dtype: row i holds the base-q digits of i, with no integer
    division."""
    q = field.q
    return np.indices((q,) * r, dtype=np.min_scalar_type(q - 1)).reshape(r, q**r).T


def _coeff_blocks(field, r: int, per: int):
    """Yield the rows of ``coeff_vectors(field, r)`` in order, q^s at a
    time, q^s the largest power of q up to per (or one row): a block
    shares its first r - s digits, and its last s run over all their
    fillings, so no digit is divided out.  q^r is checked against
    ``ELEMENT_BUDGET`` before the first block."""
    q = field.q
    if q**r > ELEMENT_BUDGET:
        raise BudgetExceeded(f"q^r = {q**r} coefficient vectors exceed the budget "
                             f"ELEMENT_BUDGET = {ELEMENT_BUDGET}")
    s = min(r, _max_power(q, per))
    fillings = coeff_vectors(field, s)
    for head in coeff_vectors(field, r - s):
        yield np.concatenate([np.broadcast_to(head, (q**s, r - s)), fillings], axis=1)


def _block_layout(field, coeffs: np.ndarray, N: int, slots, b: int):
    """How ``_span_values`` sums the span values, over the (q^r, r)
    ``coeff_vectors`` coeffs, of an aligned block of q^b (r, N) bases that
    share every entry but the last b of ``slots``, which run over all
    their fillings, in base-q order.

    Returns (b, coeffs.T, cols, fill, place, nfixed, pieces), which
    shares coeffs with every other layout over them.  Row k of a block's
    column vectors is column cols[k] of the block's first basis plus
    fill[k], with place value place[k] = q^(N-1-cols[k]).  The first
    nfixed rows are the columns that hold none of the last b slots.  Each
    piece (lo, hi, shape) covers the rows of one column j that holds g of
    them: its q^g fillings, whose digits form a table of broadcast
    ``shape``, q on the axes of those slots, 1 on the other b axes, then
    q^r.
    """
    q, r = field.q, coeffs.shape[1]
    tail = slots[len(slots) - b :]
    tail_cols = sorted({j for _, j in tail})
    cols = [j for j in range(N) if j not in tail_cols]
    fills = [np.zeros((len(cols), r), dtype=np.int64)]
    nfixed, pieces = len(cols), []
    for j in tail_cols:
        axes = [k for k, (_, jk) in enumerate(tail) if jk == j]
        fill = np.zeros((q ** len(axes), r), dtype=np.int64)
        fill[:, [tail[k][0] for k in axes]] = coeff_vectors(field, len(axes))
        pieces.append((len(cols), len(cols) + len(fill),
                       [q if k in axes else 1 for k in range(b)] + [q**r]))
        cols += [j] * len(fill)
        fills.append(fill)
    cols = np.array(cols, dtype=np.int64)
    return b, coeffs.T, cols, np.concatenate(fills), q ** (N - 1 - cols), nfixed, pieces


def _span_values(field, heads: np.ndarray, layout) -> np.ndarray:
    """(c, q^b, q^r) base-q values of the span elements, in
    ``coeff_vectors`` order, of the q^b bases of each of c aligned blocks,
    given their (c, r, N) first bases, the heads, and their
    ``_block_layout``.  This one routine serves the walk in
    ``rank_table`` and the searches in ``span_rank_batches``.

    The value of span element x is sum_k q^(N-1-k) * (x @ b_k), with b_k
    column k of the basis: its digits sit in distinct places, so the sum
    is exact integer addition with no carries, and digit k depends on
    column k alone.  A block's bases share every entry but the last b
    slots, which are zero in its head.  So the block's values are one
    vector, from the columns that hold no such slot, plus, for each
    column that holds g of them, a (q^g, q^r) table of its digits over
    their fillings, broadcast over those slots' axes of a (q,)*b + (q^r,)
    array: row major, a column's slots come in increasing axis order.
    The digits come from ``gf_matmul`` in the element dtype; only the
    pieces' rows are widened to int64 before they are placed.
    """
    b, coeffs, cols, fill, place, nfixed, pieces = layout
    c, r, _ = heads.shape
    vectors = heads.transpose(0, 2, 1)[:, cols] + fill  # (c, rows, r)
    digits = gf_matmul(field, vectors.reshape(-1, r), coeffs).reshape(c, len(cols), -1)
    values = np.einsum("ckx,k->cx", digits[:, :nfixed], place[:nfixed])
    values = values.reshape([c] + [1] * b + [-1])
    slot_digits = digits[:, nfixed:] * place[nfixed:, None]  # int64, the pieces' rows only
    for lo, hi, shape in pieces:
        values = values + slot_digits[:, lo - nfixed : hi - nfixed].reshape([c] + shape)
    return values.reshape(c, field.q**b, -1)


def span_rank_batches(field, l: int, m: int, r: int, js):
    """Yield (j, bases, ranks) over the r-dimensional subspaces of the
    l x m matrix space that contain E_j = diag(1, ..., 1, 0, ...) of rank
    j, for each j of ``js`` in turn: (S, r, l*m) bases and the (S, q^r)
    uint8 ranks of their span elements, in ``coeff_vectors`` order.

    E_j has a 1 at position 0.  Write W for the matrices with a 0 there;
    D -> D & W is a bijection from the r-spaces that contain E_j onto
    the (r-1)-spaces of W.  So the bases are [E_j; 0 | R], with R the
    RREF bases of ``subspace_batches(field, l*m - 1, r - 1)`` behind a
    zero column, in their order.  For j = 1, E_1 = e_0 and [e_0; 0 | R]
    is already the RREF of D, in canonical order among the D that
    contain E_1.  Sum_j [l*m - 1, r - 1]_q subspaces are visited; that
    count is checked against ``SUBSPACE_BUDGET`` before the walk.

    Ranks are read off the cached ``rank_table``, so a space past
    ``MATRIX_SPACE_BUDGET`` raises the walk's budget error.  Each stack
    is cut into aligned blocks of q^b bases, the largest with q^b * q^r
    <= ``_kernels._RANK_CHUNK`` that divides the stack (b = 0, one basis,
    when q^r alone exceeds the chunk); a block is what is yielded.  The
    search's first stack, that of its first j, grows from one basis
    (``subspace_batches``), so a search that stops at its first basis
    reads q^r span elements, and a full one reads only about (q - 1) * b
    more blocks.

    The bases of a block share every entry but the last b free slots of
    R, so ``_span_values`` gives its span values from its first basis.
    The row E_j is shared by every basis, so it enters through the first
    basis like any other shared entry.
    """
    q, N = field.q, l * m
    if not 1 <= r <= N:
        raise BadParameters(f"need 1 <= r <= l*m, got r={r}, l*m={N}")
    total = len(js) * counting.gaussian_binomial(N - 1, r - 1, q)
    if total > SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{total} subspaces exceed the budget {SUBSPACE_BUDGET}")
    table = rank_table(field, l, m)
    C = coeff_vectors(field, r)
    b_max = max(0, _max_power(q, _kernels._RANK_CHUNK) - r)
    layouts = {}  # one per pivot profile and block size, shared by every j
    for i, j in enumerate(js):
        lead = np.zeros(N, dtype=np.int64)
        lead[: j * (m + 1) : m + 1] = 1  # E_j, row major
        for stack in subspace_batches(field, N - 1, r - 1, grow=i == 0):
            profile = tuple((stack[0] != 0).argmax(axis=1).tolist()) if r > 1 else ()  # R's pivots
            b = min(b_max, _max_power(q, len(stack)))  # a stack holds a power of q
            if (profile, b) not in layouts:
                slots = [(i + 1, c + 1) for i, c in _profile_free_slots(N - 1, profile)]
                layouts[profile, b] = _block_layout(field, C, N, slots, b)
            for lo in range(0, len(stack), q**b):
                block = np.zeros((q**b, r, N), dtype=np.int64)
                block[:, 0] = lead
                block[:, 1:, 1:] = stack[lo : lo + q**b]
                values = _span_values(field, block[:1], layouts[profile, b])
                yield j, block, table[values.reshape(len(block), q**r)]


def format_matrix(M) -> str:
    """l lines of m space-separated element indices."""
    M = np.asarray(M)
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M)
