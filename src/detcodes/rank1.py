"""Structure of rank-1 matrices and of linear spaces of matrices:
outer-product factorization, the rank-1 sum dichotomy, classification of
constant-rank-1 spaces, and exhaustive extremal rank-1 counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, detcode, matq
from ._kernels import gf_matmul
from .counting import rank1_bound
from .errors import BudgetExceeded, EquationViolated, NotRankOne
from .formulas import griesmer_wei

ELEMENT_BUDGET = 10_000_000


def factor(field, M) -> tuple[np.ndarray, np.ndarray]:
    """Canonical outer-product factorization M = u^T v of a rank-1 matrix.

    u is scaled so its first nonzero entry is 1, which pins down the
    otherwise scalar-ambiguous pair uniquely.
    """
    M = matq.as_matrix(M, field.q)
    nz = np.argwhere(M != 0)
    if len(nz) == 0:
        raise NotRankOne("zero matrix has no rank-1 factorization")
    i0, j0 = (int(x) for x in nz[0])
    v = M[i0].copy()
    pivinv = field.inv(int(M[i0, j0]))
    u = np.array([field.mul(int(M[i, j0]), pivinv) for i in range(M.shape[0])], dtype=np.int64)
    if not (matq.outer(field, u, v) == M).all():
        raise NotRankOne("matrix is not an outer product of two vectors")
    return u, v


def rank1_sum_check(field, u, a, x, v, b, y) -> bool:
    """Dichotomy for a rank-1 sum of two rank-1 matrices.

    Requires u^T v + a^T b = x^T y with all six vectors nonzero; returns
    True iff span(u, a, x) or span(v, b, y) is one-dimensional.  The
    dichotomy is a theorem: exhaustive sweeps must never see False.
    """
    vecs = [np.asarray(w, dtype=np.int64) for w in (u, a, x, v, b, y)]
    u, a, x, v, b, y = vecs
    if any(not w.any() for w in vecs):
        raise EquationViolated("all six vectors must be nonzero")
    # u^T v + a^T b as one product [u^T a^T] @ [v; b]
    lhs = gf_matmul(field, np.stack([u, a], axis=1), np.stack([v, b]))
    if not (lhs == matq.outer(field, x, y)).all():
        raise EquationViolated("u^T v + a^T b != x^T y")
    left = matq.rank(field, np.stack([u, a, x]))
    right = matq.rank(field, np.stack([v, b, y]))
    return left == 1 or right == 1


@dataclass(frozen=True)
class Rank1SpaceClass:
    """Classification of a linear space of matrices.

    ``row`` type: a fixed row direction u with E = {u^T v : v in V};
    ``col`` type: a fixed column direction v with E = {u^T v : u in U}.
    One-dimensional spaces satisfy both; they are reported as row type.
    """

    tag: str  # "row" | "col" | "not-constant-rank1"
    vector: np.ndarray | None = None
    subspace: np.ndarray | None = None  # RREF basis of V (row) or U (col)


def count_rank1(field, basis, l: int, m: int) -> int:
    """Exact number of rank-1 elements of the span of the given basis.

    A matrix has rank 1 iff it is nonzero and every 2 x 2 minor
    M_ij M_kh - M_ih M_kj vanishes, so nothing is eliminated: the minors
    are products mod p in a prime field and ``Field.tables.mul`` lookups
    in an extension field.  The span is built a block of at most
    ``_kernels._RANK_CHUNK`` entries (or one element) at a time.
    """
    basis = matq.as_matrix(basis, field.q)
    q, r = field.q, basis.shape[0]
    if q**r > ELEMENT_BUDGET:
        raise BudgetExceeded(f"q^{r} elements exceed the budget")
    # flat indices of M_ij, M_kh, M_ih, M_kj over rows i < k, columns j < h
    i, k = (x[:, None] * m for x in np.triu_indices(l, 1))
    j, h = np.triu_indices(m, 1)
    a, b, c, d = (x.ravel() for x in (i + j, k + h, i + h, k + j))
    per = max(1, _kernels._RANK_CHUNK // (l * m))  # span elements per block
    count = 0
    for lo in range(0, q**r, per):
        coeffs = matq._base_q_digits(np.arange(lo, min(lo + per, q**r), dtype=np.int64), q, r)
        E = gf_matmul(field, coeffs, basis)
        if field.e == 1:
            flat = (E[:, a] * E[:, b] - E[:, c] * E[:, d]) % field.p == 0
        else:
            mul = field.tables.mul
            flat = mul[E[:, a], E[:, b]] == mul[E[:, c], E[:, d]]
        count += int(np.count_nonzero(flat.all(axis=1) & E.any(axis=1)))
    return count


def classify_space(field, basis, l: int, m: int) -> Rank1SpaceClass:
    basis = matq.as_matrix(basis, field.q)
    r = basis.shape[0]
    if r == 0:
        return Rank1SpaceClass(
            tag="row",
            vector=np.zeros(l, dtype=np.int64),
            subspace=np.zeros((0, m), dtype=np.int64),
        )
    if count_rank1(field, basis, l, m) != field.q**r - 1:
        return Rank1SpaceClass(tag="not-constant-rank1")
    assert r <= m, "constant-rank-1 spaces cannot exceed dimension m"
    factors = [factor(field, row.reshape(l, m)) for row in basis]
    us = np.stack([u for u, _ in factors])
    vs = np.stack([v for _, v in factors])
    if matq.rank(field, us) == 1:
        # canonical u is shared exactly (first nonzero entry scaled to 1)
        vbasis, _ = matq.rref(field, vs)
        return Rank1SpaceClass(tag="row", vector=us[0], subspace=vbasis)
    assert matq.rank(field, vs) == 1
    # rescale so every row uses one common v, then collect the u's
    v0 = vs[0]
    j0 = int(np.flatnonzero(v0)[0])
    us_scaled = []
    for u, v in factors:
        lam = field.mul(int(v[j0]), field.inv(int(v0[j0])))
        us_scaled.append([field.mul(int(x), lam) for x in u])
    ubasis, _ = matq.rref(field, np.array(us_scaled, dtype=np.int64))
    return Rank1SpaceClass(tag="col", vector=v0, subspace=ubasis)


def _rank1_ceiling(field, l: int, m: int, r: int) -> int:
    """A proven upper bound on the rank-1 count of an r-dimensional space
    S of l x m matrices: the least of ``rank1_bound`` and
    (q - 1) * (n_hat - GW(d_1, N - r)), N = l*m, with n_hat and d_1 read
    off the t = 1 projective domain and GW the Griesmer-Wei bound (0 at
    r = N).

    A rank-1 point P lies in S iff every form of S^perp vanishes at P,
    so S holds n_hat - wt(S^perp) rank-1 points, q - 1 rank-1 matrices
    each; S^perp is an (N - r)-dimensional subcode of the t = 1 code, so
    wt(S^perp) >= d_(N-r) >= GW(d_1, N - r).
    """
    q, N = field.q, l * m
    dom = detcode.make_domain(field, l, m, 1, "projective")
    gw = griesmer_wei(min(detcode.weight_table(dom)[1:]), N - r, q) if r < N else 0
    return min(rank1_bound(r, l, m, q).max_rank1, (q - 1) * (len(dom) - gw))


def max_rank1_exhaustive(
    field, l: int, m: int, r: int, prune: bool = True
) -> tuple[int, np.ndarray]:
    """Maximum rank-1 count over all r-dimensional subspaces of the l x m
    matrix space, with a maximizing witness: the first, in canonical
    order, of the maximizers that contain E_11.

    A maximizer holds a rank-1 form, and GL_l x GL_m, which keeps rank-1
    counts, maps it to E_11; so the search visits only the spaces that
    contain E_11 (``matq.span_rank_batches`` with j = 1), whose bases
    come as RREFs in canonical order.  Every count is checked against the
    proven ceiling of ``_rank1_ceiling``, and one above it raises
    AssertionError.  With ``prune`` the search stops at the first space
    that reaches the ceiling: no later space can beat it, so that space
    is the first maximizer.  Without it, every space is visited, which is
    the tests' oracle.
    """
    q = field.q
    bound = rank1_bound(r, l, m, q)
    if r == 0:  # the zero space holds no rank-1 form, and not E_11
        return 0, np.zeros((0, l * m), dtype=np.int64)
    best, witness, ceiling = -1, None, None
    for _, bases, ranks in matq.span_rank_batches(field, l, m, r, (1,)):
        if ceiling is None:  # read once the search has passed its budget check
            ceiling = _rank1_ceiling(field, l, m, r)
        counts = (ranks == 1).sum(axis=1)
        i = int(counts.argmax())
        if counts[i] > ceiling:
            raise AssertionError(f"rank-1 count {counts[i]} above the proven ceiling {ceiling}")
        if counts[i] > best:
            best = int(counts[i])
            witness = bases[i].copy()
        if prune and best == ceiling:
            break
    if not bound.from_coset_argument:
        assert best == q**r - 1, "for r <= m the constant-rank-1 maximum is exact"
    return best, witness
