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

from . import counting
from ._kernels import gf_matmul, rank_batch
from .errors import (
    BadParameters,
    BudgetExceeded,
    EmptyVariety,
    IndexOutOfRange,
    ShapeMismatch,
)

# Hard ceilings for exhaustive enumeration (desk-scale verifier).
MATRIX_SPACE_BUDGET = 50_000_000  # q^(l*m) matrices generated
DOMAIN_BUDGET = 10_000_000  # points kept in an evaluation domain
SUBSPACE_BUDGET = 10_000_000  # subspaces visited


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
    A = [[int(x) for x in row] for row in as_matrix(A, field.q)]
    nrows, ncols = len(A), len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = field.inv(A[r][c])
        A[r] = [field.mul(inv, x) for x in A[r]]
        for i in range(nrows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    R = np.array(A[:r], dtype=np.int64).reshape(r, ncols)
    return R, pivots


def normal_form(field, M):
    """Invertible P, Q with P @ M @ Q equal to the rank-r block identity."""
    M = as_matrix(M, field.q)
    l, m = M.shape
    A = [[int(x) for x in row] for row in M]
    P = [[1 if i == j else 0 for j in range(l)] for i in range(l)]
    Q = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    pivots = []
    for c in range(m):
        piv = next((i for i in range(r, l) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        P[r], P[piv] = P[piv], P[r]
        inv = field.inv(A[r][c])
        A[r] = [field.mul(inv, x) for x in A[r]]
        P[r] = [field.mul(inv, x) for x in P[r]]
        for i in range(l):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(A[i], A[r])]
                P[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(P[i], P[r])]
        pivots.append(c)
        r += 1
    # column operations: move pivot columns to the front ...
    for i, c in enumerate(pivots):
        if c != i:
            for row in A:
                row[i], row[c] = row[c], row[i]
            for row in Q:
                row[i], row[c] = row[c], row[i]
    # ... and clear entries to the right of the identity block
    for j in range(r, m):
        for i in range(r):
            f = A[i][j]
            if f:
                for row in A:
                    row[j] = field.sub(row[j], field.mul(f, row[i]))
                for qrow in Q:
                    qrow[j] = field.sub(qrow[j], field.mul(f, qrow[i]))
    return (
        np.array(P, dtype=np.int64),
        np.array(Q, dtype=np.int64),
        r,
    )


def outer(field, u, v) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    t = field.tables
    return t.mul[u[:, None], v[None, :]].astype(np.int64)


def partial_trace(field, M, r: int) -> int:
    M = as_matrix(M, field.q)
    if not 1 <= r <= M.shape[0]:
        raise IndexOutOfRange(f"partial trace order {r} not in [1, {M.shape[0]}]")
    acc = 0
    for i in range(r):
        acc = field.add(acc, int(M[i, i]))
    return acc


def all_matrices(field, l: int, m: int) -> np.ndarray:
    """All q^(l*m) matrices, lexicographic in their row-major entry tuples."""
    q = field.q
    total = q ** (l * m)
    if total > MATRIX_SPACE_BUDGET:
        raise BudgetExceeded(f"q^(l*m) = {total} exceeds the enumeration budget")
    a = np.arange(total, dtype=np.int64)
    cols = [(a // q ** (l * m - 1 - pos)) % q for pos in range(l * m)]
    return np.stack(cols, axis=1).reshape(total, l, m)


@lru_cache(maxsize=32)
def _space_ranks(field, l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(all matrices, their ranks); cached since several ops share it."""
    mats = all_matrices(field, l, m)
    return mats, rank_batch(field, mats)


def is_canonical_rep(mats: np.ndarray) -> np.ndarray:
    """Mask of matrices whose first nonzero row-major entry equals 1."""
    flat = mats.reshape(mats.shape[0], -1)
    nz = flat != 0
    first = nz.argmax(axis=1)
    return nz.any(axis=1) & (flat[np.arange(len(flat)), first] == 1)


def enumerate_matrices(field, l: int, m: int, t: int, mode: str) -> np.ndarray:
    """Points of the rank-<=t matrix variety, affine or projective.

    Projective representatives are scaled so the first nonzero row-major
    entry is 1.  Order is lexicographic in row-major entry tuples.
    """
    if mode not in ("affine", "projective"):
        raise BadParameters(f"mode must be affine or projective, got {mode!r}")
    if not 0 <= t <= l <= m:
        raise BadParameters(f"need 0 <= t <= l <= m, got t={t}, l={l}, m={m}")
    if mode == "projective" and t == 0:
        raise EmptyVariety("the projective rank-0 locus is empty")
    mats, ranks = _space_ranks(field, l, m)
    if mode == "affine":
        keep = ranks <= t
    else:
        keep = (ranks >= 1) & (ranks <= t) & is_canonical_rep(mats)
    pts = mats[keep]
    if len(pts) > DOMAIN_BUDGET:
        raise BudgetExceeded(f"domain has {len(pts)} points (budget {DOMAIN_BUDGET})")
    return pts


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


def subspace_batches(field, N: int, r: int, max_batch: int = 4096):
    """Yield (S, r, N) stacks of RREF bases, one pivot profile at a time.

    Deterministic order: profiles lexicographic, free entries filled by
    base-q digits (first free slot most significant).
    """
    if not 0 <= r <= N:
        raise BadParameters(f"need 0 <= r <= N, got r={r}, N={N}")
    q = field.q
    total = counting.gaussian_binomial(N, r, q)
    if total > SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{total} subspaces exceed the budget {SUBSPACE_BUDGET}")
    if r == 0:
        yield np.zeros((1, 0, N), dtype=np.int64)
        return
    for profile in _pivot_profiles(N, r):
        slots = _profile_free_slots(N, profile)
        nfill = q ** len(slots)
        base = np.zeros((r, N), dtype=np.int64)
        for i, c in enumerate(profile):
            base[i, c] = 1
        for lo in range(0, nfill, max_batch):
            hi = min(lo + max_batch, nfill)
            a = np.arange(lo, hi, dtype=np.int64)
            batch = np.broadcast_to(base, (hi - lo, r, N)).copy()
            for pos, (i, j) in enumerate(slots):
                batch[:, i, j] = (a // q ** (len(slots) - 1 - pos)) % q
            yield batch


def enumerate_subspaces(field, N: int, r: int):
    """Yield each r-dimensional subspace of GF(q)^N once, as an RREF basis."""
    for batch in subspace_batches(field, N, r):
        yield from batch


def span_vectors(field, basis: np.ndarray) -> np.ndarray:
    """All q^r vectors of the row space of an (r, N) basis."""
    r = basis.shape[0]
    q = field.q
    a = np.arange(q**r, dtype=np.int64)
    coeffs = np.stack([(a // q ** (r - 1 - i)) % q for i in range(r)], axis=1)
    if r == 0:
        return np.zeros((1, basis.shape[1]), dtype=np.int64)
    return gf_matmul(field, coeffs, basis)


def coeff_vectors(field, r: int) -> np.ndarray:
    """All q^r coefficient vectors of length r, lexicographic."""
    q = field.q
    a = np.arange(q**r, dtype=np.int64)
    if r == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.stack([(a // q ** (r - 1 - i)) % q for i in range(r)], axis=1)


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
