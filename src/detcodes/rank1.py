"""Structure of rank-1 matrices and of linear spaces of matrices:
outer-product factorization, the rank-1 sum dichotomy, classification of
constant-rank-1 spaces, and exhaustive extremal rank-1 counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, detcode, matq
from ._kernels import gf_matmul, reduce_mod
from .counting import rank1_bound
from .errors import EquationViolated, NotRankOne


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
    vecs = [matq.as_matrix([w], field.q)[0] for w in (u, a, x, v, b, y)]
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
    ``_kernels._RANK_CHUNK`` entries (or one element) at a time, by
    ``matq._coeff_blocks``, which checks q^r against its ELEMENT_BUDGET.
    """
    basis = matq.as_matrix(basis, field.q)
    # flat indices of M_ij, M_kh, M_ih, M_kj over rows i < k, columns j < h
    i, k = (x[:, None] * m for x in np.triu_indices(l, 1))
    j, h = np.triu_indices(m, 1)
    a, b, c, d = (x.ravel() for x in (i + j, k + h, i + h, k + j))
    count = 0
    for coeffs in matq._coeff_blocks(field, len(basis), max(1, _kernels._RANK_CHUNK // (l * m))):
        E = gf_matmul(field, coeffs, basis)
        if field.e == 1:  # unsigned, so the two products are compared, not subtracted
            E = E.astype(np.min_scalar_type((field.p - 1) ** 2), copy=False)
            flat = reduce_mod(E[:, a] * E[:, b], field.p) == reduce_mod(E[:, c] * E[:, d], field.p)
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


def max_rank1_exhaustive(field, l: int, m: int, r: int,
                         prune: bool = True) -> tuple[int, np.ndarray]:
    """Maximum rank-1 count over all r-dimensional subspaces of the l x m
    matrix space, with a maximizing witness: q - 1 times the points of
    the t = 1 projective ``detcode.max_section`` of dimension r, and its
    witness, the first maximizer in canonical order of the spaces that
    contain E_11.  ``prune`` is passed on to the section search.
    """
    q = field.q
    bound = rank1_bound(r, l, m, q)
    points, witness = detcode.max_section(field, l, m, 1, "projective", r, prune)
    best = (q - 1) * points
    if not bound.from_coset_argument:
        assert best == q**r - 1, "for r <= m the constant-rank-1 maximum is exact"
    return best, witness
