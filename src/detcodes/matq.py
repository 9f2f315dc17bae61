"""Matrices over GF(q): rank, normal form, and deterministic enumeration.

Matrices are plain numpy integer arrays of element indices; the field is
passed explicitly.  Subspaces of GF(q)^N are represented by their
reduced-row-echelon-form basis matrices, which are canonical: two RREF
matrices are equal iff they span the same subspace.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import _kernels, counting
from ._kernels import gf_matmul, rank_batch, row_reduce
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
_SUBSPACE_BATCH = 4096  # subspace_batches stacks hold the largest power of q up to this


def as_matrix(M, q: int | None = None) -> np.ndarray:
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    if q is not None and ((A < 0) | (A >= q)).any():
        raise IndexOutOfRange(f"entries must be element indices in [0, {q})")
    return A


def rank(field, M) -> int:
    M = as_matrix(M, field.q)
    return int(rank_batch(field, M[None])[0])


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
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
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
    """(len(a), width) base-q digits of a, most significant first."""
    d = a[:, None] // q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    d %= q  # in place: no second (len(a), width) array
    return d


def _space_size(q: int, l: int, m: int) -> int:
    """q^(l*m), checked against the walk's budget."""
    total = q ** (l * m)
    if total > MATRIX_SPACE_BUDGET:
        raise BudgetExceeded(
            f"q^(l*m) = {total} exceeds the enumeration budget "
            f"MATRIX_SPACE_BUDGET = {MATRIX_SPACE_BUDGET}"
        )
    return total


def rank_table(field, l: int, m: int) -> np.ndarray:
    """uint8 rank of every l x m matrix, indexed by the matrix's base-q
    value: its row-major entries read as digits, the first most
    significant.

    This is the one walk of the matrix space, grown a row at a time from
    the 1 x m table, where the rank is [v != 0].  A k-row matrix's value
    is prefix * q^m + last row, so the k-row table is a (prefixes, q^m)
    grid, filled in blocks of whole prefixes, at most
    ``_kernels._RANK_CHUNK`` entries when q^m fits.  Since rank([P; v])
    = rank(P) + [v not in rowspace P], a prefix P's row is rank(P) + 1,
    read off the (k-1)-row table, except at the values c @ P that
    ``span_indices`` lists, where it is rank(P); a rank-deficient P lists
    some twice and writes the same rank again.  So the ranks come from
    linear algebra, not from any count, and nothing is eliminated.  A
    tall space is ranked as its transpose, whose prefixes span fewer
    values.  The table takes one byte per matrix.
    """
    if min(l, m) < 1:
        raise BadParameters(f"need l, m >= 1, got l={l}, m={m}")
    q = field.q
    _space_size(q, l, m)
    if l > m:  # rank is unchanged by transposition
        wide = rank_table(field, m, l).reshape((q,) * (l * m))
        return wide.transpose([j * l + i for i in range(l) for j in range(m)]).reshape(-1)
    rows = q**m
    table = np.ones(rows, dtype=np.uint8)
    table[0] = 0
    per = max(1, _kernels._RANK_CHUNK // rows)  # prefixes per block
    for k in range(2, l + 1):
        prefix_ranks, table = table, np.empty(q ** (k * m), dtype=np.uint8)
        grid = table.reshape(-1, rows)
        for lo in range(0, len(grid), per):
            hi = min(lo + per, len(grid))
            P = _base_q_digits(np.arange(lo, hi, dtype=np.int64), q, (k - 1) * m)
            ranks = prefix_ranks[lo:hi, None]
            grid[lo:hi] = ranks + 1
            np.put_along_axis(grid[lo:hi], span_indices(field, P.reshape(hi - lo, k - 1, m)),
                              ranks, axis=1)
    return table


def _variety_table(field, l: int, m: int, t: int, mode: str) -> np.ndarray:
    """``rank_table`` of the l x m space, once the rank-<=t variety's
    parameters are checked."""
    if mode not in ("affine", "projective"):
        raise BadParameters(f"mode must be affine or projective, got {mode!r}")
    if not 0 <= t <= l <= m:
        raise BadParameters(f"need 0 <= t <= l <= m, got t={t}, l={l}, m={m}")
    if mode == "projective" and t == 0:
        raise EmptyVariety("the projective rank-0 locus is empty")
    return rank_table(field, l, m)


def _domain_chunks(table: np.ndarray, q: int, l: int, m: int, t: int, mode: str):
    """Yield (points, ranks) of the rank-<=t variety of l x m matrices,
    in increasing base-q value, reading at most ``_kernels._RANK_CHUNK``
    table entries per chunk; points are built for kept values only.

    Affine points are all the values of rank <= t.  A projective point is
    represented by the multiple whose first nonzero entry is 1, so its
    value has leading base-q digit 1: it lies in [q^k, 2 q^k) for some k.
    """
    ranges = [(0, len(table))] if mode == "affine" else [(q**k, 2 * q**k) for k in range(l * m)]
    for lo, hi in ranges:
        for clo in range(lo, hi, _kernels._RANK_CHUNK):
            ranks = table[clo : min(clo + _kernels._RANK_CHUNK, hi)]
            keep = ranks <= t
            values = np.arange(clo, clo + len(ranks), dtype=np.int64)[keep]
            yield _base_q_digits(values, q, l * m).reshape(-1, l, m), ranks[keep]


def enumerate_matrices(field, l: int, m: int, t: int, mode: str) -> np.ndarray:
    """Points of the rank-<=t matrix variety, affine or projective.

    Projective representatives are scaled so the first nonzero row-major
    entry is 1.  Order is lexicographic in row-major entry tuples.
    """
    table = _variety_table(field, l, m, t, mode)
    parts, kept = [], 0
    for pts, _ in _domain_chunks(table, field.q, l, m, t, mode):
        parts.append(pts)
        kept += len(pts)
        if kept > DOMAIN_BUDGET:
            raise BudgetExceeded(f"domain exceeds its budget of {DOMAIN_BUDGET} points")
    return np.concatenate(parts)


def _pivot_profiles(N: int, r: int):
    return combinations(range(N), r)


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


def subspace_batches(field, N: int, r: int):
    """Yield (S, r, N) stacks of RREF bases, one pivot profile at a time.

    Deterministic order: profiles lexicographic, free entries filled by
    base-q digits (first free slot most significant).  A stack holds
    q^min(s, free slots) bases, with q^s the largest power of q up to
    ``_SUBSPACE_BATCH``, and starts at a filling index divisible by its
    size: its bases share every free entry but the last min(s, free
    slots), which run over all their fillings.
    """
    if not 0 <= r <= N:
        raise BadParameters(f"need 0 <= r <= N, got r={r}, N={N}")
    q = field.q
    total = counting.gaussian_binomial(N, r, q)
    if total > SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{total} subspaces exceed the budget {SUBSPACE_BUDGET}")
    S = min(_max_power(q, _SUBSPACE_BATCH), r * (N - r))  # no profile has more slots
    # every stack's last s digits, in the smallest dtype that holds a digit
    fillings = _base_q_digits(np.arange(q**S, dtype=np.int64), q, S)
    fillings = fillings.astype(np.min_scalar_type(q - 1))
    for profile in _pivot_profiles(N, r):
        slots = _profile_free_slots(N, profile)
        si, sj = np.array(slots, dtype=np.int64).reshape(-1, 2).T
        k, s = len(slots), min(S, len(slots))
        base = np.zeros((r, N), dtype=np.int64)
        base[np.arange(r), list(profile)] = 1
        for head in _base_q_digits(np.arange(q ** (k - s), dtype=np.int64), q, k - s):
            base[si[: k - s], sj[: k - s]] = head  # the stack's shared free entries
            stack = np.broadcast_to(base, (q**s, r, N)).copy()
            stack[:, si[k - s :], sj[k - s :]] = fillings[: q**s, S - s :]
            yield stack


def enumerate_subspaces(field, N: int, r: int):
    """Yield each r-dimensional subspace of GF(q)^N once, as an RREF basis."""
    for batch in subspace_batches(field, N, r):
        yield from batch


def coeff_vectors(field, r: int) -> np.ndarray:
    """All q^r coefficient vectors of length r, lexicographic."""
    return _base_q_digits(np.arange(field.q**r, dtype=np.int64), field.q, r)


def span_vectors(field, basis: np.ndarray) -> np.ndarray:
    """All q^r vectors of the row space of an (r, N) basis, in
    ``coeff_vectors`` order."""
    return gf_matmul(field, coeff_vectors(field, basis.shape[0]), basis)


def span_ranks(field, bases: np.ndarray, l: int, m: int) -> np.ndarray:
    """(S, q^r) ranks, as l x m matrices, of the elements spanned by each
    basis of an (S, r, l*m) stack, in ``coeff_vectors`` order.

    Every element is built and eliminated, so this serves single bases
    whose span may lie in a space far past any ``rank_table``; searches
    over many subspaces read ``span_rank_batches`` instead.  The elements
    are built a block of coefficient vectors at a time, at most
    ``_kernels._RANK_CHUNK`` entries (or one vector for a wider stack).
    """
    S, r, N = bases.shape
    q = field.q
    out = np.empty((S, q**r), dtype=np.int64)
    per = max(1, _kernels._RANK_CHUNK // max(1, S * N))  # coefficient vectors per block
    for lo in range(0, q**r, per):
        hi = min(lo + per, q**r)
        elems = gf_matmul(field, _base_q_digits(np.arange(lo, hi, dtype=np.int64), q, r), bases)
        out[:, lo:hi] = rank_batch(field, elems.reshape(-1, l, m)).reshape(S, hi - lo)
    return out


def span_indices(field, bases: np.ndarray) -> np.ndarray:
    """(S, q^r) base-q values of the elements spanned by each basis of an
    (S, r, N) stack, in ``coeff_vectors`` order.

    This serves the walk in ``rank_table``, whose prefix stacks are
    neither in RREF nor aligned to a pivot profile.  Digit k of the
    elements of a span is C @ b_k, with C the coefficient vectors and b_k
    column k of the basis, so it depends on b_k alone.  A stack has at
    most q^r distinct columns: one product over those gives every digit,
    and the values are accumulated a digit at a time, most significant
    first.
    """
    S, r, N = bases.shape
    q = field.q
    C = coeff_vectors(field, r)
    # a column's base-q value is its row of C
    cols = bases.transpose(0, 2, 1) @ q ** np.arange(r - 1, -1, -1, dtype=np.int64)
    uniq, inv = np.unique(cols, return_inverse=True)
    inv = inv.reshape(S, N)
    digits = gf_matmul(field, C[uniq], C.T)  # (distinct columns, q^r)
    out = np.zeros((S, q**r), dtype=np.int64)
    for k in range(N):
        out *= q
        out += digits[inv[:, k]]
    return out


def _block_layout(q: int, N: int, r: int, slots, b: int):
    """How ``span_rank_batches`` sums the span values of an aligned block
    of q^b bases of one pivot profile with free ``slots``.

    Returns (cols, fill, nfixed, pieces).  Row k of the column vectors is
    column cols[k] of the block's first basis plus fill[k].  The first
    nfixed rows are the columns that hold none of the last b slots.  Each
    piece (lo, hi, shape) covers the rows of one column j that holds g of
    them: its q^g fillings, whose digits form a table of broadcast
    ``shape``, q on the axes of those slots, 1 on the other b axes, then
    q^r.
    """
    tail = slots[len(slots) - b :]
    tail_cols = sorted({j for _, j in tail})
    cols = [j for j in range(N) if j not in tail_cols]
    fills = [np.zeros((len(cols), r), dtype=np.int64)]
    nfixed, pieces = len(cols), []
    for j in tail_cols:
        axes = [k for k, (_, jk) in enumerate(tail) if jk == j]
        fill = np.zeros((q ** len(axes), r), dtype=np.int64)
        fill[:, [tail[k][0] for k in axes]] = _base_q_digits(
            np.arange(q ** len(axes), dtype=np.int64), q, len(axes)
        )
        pieces.append((len(cols), len(cols) + len(fill),
                       [q if k in axes else 1 for k in range(b)] + [q**r]))
        cols += [j] * len(fill)
        fills.append(fill)
    return np.array(cols, dtype=np.int64), np.concatenate(fills), nfixed, pieces


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

    Ranks are read from one ``rank_table`` built for the call, so a
    space past ``MATRIX_SPACE_BUDGET`` raises the walk's budget error.
    Each stack is cut into aligned blocks of q^b bases, the largest with
    q^b * q^r <= ``_kernels._RANK_CHUNK`` that divides the stack (b = 0,
    one basis, when q^r alone exceeds the chunk); a block is what is
    yielded.

    The value of span element c is sum_k q^(N-1-k) * (c @ b_k), with b_k
    column k of the basis: its digits sit in distinct places, so the sum
    is exact integer addition with no carries, and digit k depends on
    column k alone.  The bases of a block share every entry but the last
    b free slots of R, which run over all their fillings and are zero in
    the block's first basis.  So the block's values are one vector, from
    the columns that hold no such slot, plus, for each column that holds
    g of them, a (q^g, q^r) table of its digits over their fillings,
    broadcast over those slots' axes of a (q,)*b + (q^r,) array: row
    major, a column's slots come in increasing axis order.  The row E_j
    is shared by every basis, so it enters through the first basis like
    any other shared entry.
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
    layouts = {}  # one per pivot profile, shared by every j
    for j in js:
        lead = np.zeros(N, dtype=np.int64)
        lead[: j * (m + 1) : m + 1] = 1  # E_j, row major
        for stack in subspace_batches(field, N - 1, r - 1):
            bases = np.zeros((len(stack), r, N), dtype=np.int64)
            bases[:, 0] = lead
            bases[:, 1:, 1:] = stack
            # read off the RREF behind E_j's row, whose pivot is column 0,
            # so each row has a nonzero entry even when R has no column
            pivots = tuple((bases[0] != 0).argmax(axis=1).tolist())
            if pivots not in layouts:
                R_slots = _profile_free_slots(N - 1, [c - 1 for c in pivots[1:]])
                b = min(b_max, _max_power(q, len(stack)))  # a stack holds a power of q
                cols, fill, nfixed, pieces = _block_layout(
                    q, N, r, [(i + 1, c + 1) for i, c in R_slots], b)
                layouts[pivots] = b, cols, fill, q ** (N - 1 - cols), nfixed, pieces
            b, cols, fill, place, nfixed, pieces = layouts[pivots]
            for lo in range(0, len(stack), q**b):
                block = bases[lo : lo + q**b]
                digits = gf_matmul(field, block[0].T[cols] + fill, C.T)
                digits *= place[:, None]
                values = digits[:nfixed].sum(axis=0)
                for lo_k, hi_k, shape in pieces:
                    values = values + digits[lo_k:hi_k].reshape(shape)
                yield j, block, table[values.reshape(len(block), q**r)]


def format_matrix(M) -> str:
    """l lines of m space-separated element indices."""
    M = np.asarray(M)
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M)


def parse_matrix(text: str) -> np.ndarray:
    rows = [[int(x) for x in line.split()] for line in text.strip().splitlines() if line.strip()]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ShapeMismatch("ragged rows in matrix text")
    return np.array(rows, dtype=np.int64)
