"""Shared test helpers: tiny independent oracles built only on the scalar
field operations, so they share no code path with the batch kernels or
the closed forms they are used to check, ``span_vectors``, the span
oracle, ``span_ranks``, the elimination oracle for the searches that
read ranks off the walk, and ``subspaces``, which lists the bases of
``matq.subspace_batches``."""

import numpy as np
import pytest

from detcodes import _kernels, make_field, matq


def scalar_rank(field, M):
    """Gaussian elimination using only Field scalar ops."""
    M = [[int(x) for x in row] for row in np.atleast_2d(M)]
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = field.inv(M[r][c])
        for i in range(r + 1, nrows):
            f = field.mul(M[i][c], inv)
            if f:
                for j in range(ncols):
                    M[i][j] = field.sub(M[i][j], field.mul(f, M[r][j]))
        r += 1
    return r


def scalar_dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(int(a), int(b)))
    return acc


def naive_codeword(field, F, points):
    """Evaluate the form with coefficient matrix F point by point."""
    F = np.asarray(F)
    return [scalar_dot(field, F.flatten(), P.flatten()) for P in points]


def subspaces(field, N, r):
    """Every RREF basis of ``matq.subspace_batches``, in order."""
    return [S for batch in matq.subspace_batches(field, N, r) for S in batch]


def span_vectors(field, basis):
    """All q^r vectors of the row space of an (r, N) basis, in
    ``matq.coeff_vectors`` order, each the product of its digits with the
    basis."""
    q, r = field.q, basis.shape[0]
    return _kernels.gf_matmul(field, matq._base_q_digits(np.arange(q**r), q, r), basis)


def span_ranks(field, bases, l, m):
    """(S, q^r) ranks, as l x m matrices, of the elements spanned by each
    basis of an (S, r, l*m) stack, in ``matq.coeff_vectors`` order.

    Every element is built and eliminated by ``_kernels.rank_batch``, so
    no rank is read off ``matq.rank_table``.  The elements are built a
    block of coefficient vectors at a time, at most
    ``_kernels._RANK_CHUNK`` entries (or one vector for a wider stack).
    """
    S, r, N = bases.shape
    q = field.q
    out = np.empty((S, q**r), dtype=np.int64)
    per = max(1, _kernels._RANK_CHUNK // max(1, S * N))  # coefficient vectors per block
    for lo in range(0, q**r, per):
        hi = min(lo + per, q**r)
        coeffs = matq._base_q_digits(np.arange(lo, hi, dtype=np.int64), q, r)
        elems = _kernels.gf_matmul(field, coeffs, bases)
        out[:, lo:hi] = _kernels.rank_batch(field, elems.reshape(-1, l, m)).reshape(S, hi - lo)
    return out


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)
