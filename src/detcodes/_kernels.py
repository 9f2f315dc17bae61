"""Batch kernels for GF(q) linear algebra, in numpy.

Two kernels serve every field and every caller.  One batched in-place
reduction to reduced row echelon form, ``row_reduce``: ``matq.rank``
keeps the echelon basis of its row blocks, ``matq.rref`` and
``matq.normal_form`` read the reduced matrices, and ``rank_batch``,
which ranks a stack of small matrices, is the elimination the tests
compare the walk against.  One product, ``gf_matmul``: the walk of the matrix space in
``matq.rank_blocks`` and the subspace searches reach it through
``matq._span_values`` and eliminate nothing.  Only their arithmetic
depends on the field: prime fields reduce integer arithmetic mod p, so
any p up to ``gf.MAX_Q`` works without tables; extension fields look
sums and products up in ``Field.tables``, so they are limited to
``gf.TABLE_MAX_Q``.  The arithmetic is written inline for each case
rather than through field callables, which lets numpy reuse the
batch-sized temporaries in place.

The reduction works in int64 on chunks it widens itself, so its input
may be narrow.  The product returns element indices in the element
dtype, ``np.min_scalar_type(q - 1)``, on every field, one byte each up
to q = 256; so do the domain points and generator matrices of
``detcode``.  Over a prime field it sums in the narrowest unsigned dtype
that holds both p and the largest sum, k (p - 1)^2 for inner dimension
k, so uint8 at p = 3 up to k = 63.  Its outputs are unsigned and narrow,
so a caller that subtracts or multiplies them widens them first.

Residues mod p are taken as x - p * (x // p) (``reduce_mod``): numpy
divides by a scalar with SIMD, but its ``%`` does not, and is 5-40
times slower.
"""

from __future__ import annotations

import numpy as np

_RANK_CHUNK = 1 << 16  # entries per elimination, walk block, table slice, naive XOR block;
# a domain batch gathers this many bytes of int64 values


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, with one x-sized temporary; returns x.  Floor
    division makes it agree with ``%`` on negative x too."""
    quot = x // p
    quot *= p
    x -= quot
    return x


def row_reduce(field, w: np.ndarray) -> np.ndarray:
    """Bring each matrix of a (B, R, C) int64 stack to reduced row echelon
    form in place, zero rows last, and return the ranks."""
    p = field.p
    t = field.tables if field.e > 1 else None
    inv = field.inverses
    B, R, C = w.shape
    r = np.zeros(B, dtype=np.int64)
    rows = np.arange(R)
    for c in range(C):
        mask = (w[:, :, c] != 0) & (rows[None, :] >= r[:, None])
        has = mask.any(axis=1)
        if not has.any():
            continue
        idx = np.flatnonzero(has)
        piv = mask[idx].argmax(axis=1)
        rr = r[idx]
        pivrow = w[idx, piv]
        w[idx, piv] = w[idx, rr]
        pinv = inv[pivrow[:, c]][:, None]
        pivrow = reduce_mod(pivrow * pinv, p) if t is None else t.mul[pivrow, pinv]
        w[idx, rr] = pivrow
        col = w[idx, :, c]
        col[rows[None, :] == rr[:, None]] = 0
        if t is None:
            w[idx] = reduce_mod(w[idx] - col[:, :, None] * pivrow[:, None, :], p)
        else:
            w[idx] = t.sub[w[idx], t.mul[col[:, :, None], pivrow[:, None, :]]]
        r[idx] += 1
    return r


def rank_batch(field, mats: np.ndarray) -> np.ndarray:
    """Rank over GF(q) of every matrix in a (B, l, m) stack, eliminated
    at most ``_RANK_CHUNK`` entries (or one matrix) at a time."""
    mats = np.asarray(mats)
    out = np.empty(len(mats), dtype=np.int64)
    per = max(1, _RANK_CHUNK // max(1, mats.shape[1] * mats.shape[2]))
    for lo in range(0, len(mats), per):
        chunk = mats[lo : lo + per].astype(np.int64)
        out[lo : lo + len(chunk)] = row_reduce(field, chunk)
    return out


def gf_matmul(field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of A (x, k) and B (k, y), or a stack B (S, k, y), over GF(q),
    in the element dtype.  A prime field's exact narrow sums are reduced
    in place by ``reduce_mod``."""
    A, B = np.asarray(A), np.asarray(B)
    element = np.min_scalar_type(field.q - 1)
    if field.e == 1:
        acc = np.min_scalar_type(max(field.p, A.shape[1] * (field.p - 1) ** 2))
        out = np.einsum("xk,...ky->...xy", A.astype(acc, copy=False), B.astype(acc, copy=False))
        return reduce_mod(out, field.p).astype(element, copy=False)
    t = field.tables
    out = np.zeros(B.shape[:-2] + (A.shape[0], B.shape[-1]), dtype=element)
    for s in range(A.shape[1]):
        out = t.add[out, t.mul[A[:, s, None], B[..., s, None, :]]]
    return out.astype(element, copy=False)
