"""Closed forms for the rank-<=t evaluation codes.

Covers the t=1 weight hierarchy, the alternating-sum count of rank-t
matrices with nonvanishing partial trace (valid for every t), closed
weight enumerators, exact generalized-Hamming-weight values and bounds
for t=1, the Griesmer-Wei bound, and the explicit witness subcodes that
attain the known upper bounds.

Exact GHW values carry a source tag; everything else is reported as an
honest (lower, upper) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

import numpy as np

from .counting import _exact_div, gaussian_binomial, lengths, mu
from .errors import BadParameters, NonIntegerDivision


def _head_weight(l: int, m: int, r: int, q: int) -> int:
    """q^(l+m-r-1) (q^r - 1) / (q - 1): the weight of a rank-r form in the
    projective t=1 code, and d_hat_r for r <= m."""
    return q ** (l + m - r - 1) * _exact_div(q**r - 1, q - 1)


def what_r(l: int, m: int, r: int, q: int) -> int:
    """Nonzero weight of the projective t=1 code attached to rank-r forms:
    q^(l+m-r-1) (q^r - 1) / (q - 1).  Strictly increasing in r.
    """
    if not 1 <= r <= l <= m:
        raise BadParameters(f"need 1 <= r <= l <= m, got r={r}, l={l}, m={m}")
    val = _head_weight(l, m, r, q)
    if r > 1:
        assert val > what_r(l, m, r - 1, q), "weights must increase with rank"
    return val


def delsarte_N(t: int, r: int, l: int, m: int, q: int) -> int:
    """Number of rank-t matrices M with tau_r(M) != 0, by the alternating
    sum with exact rational arithmetic; the division by q must be exact.
    """
    if not (0 <= t <= l and 0 <= r <= l and l <= m):
        raise BadParameters(f"bad parameters t={t}, r={r}, l={l}, m={m}")
    acc = 0
    for i in range(l + 1):
        g1 = gaussian_binomial(l - i, l - t, q)
        g2 = gaussian_binomial(l - r, i, q)
        if g1 == 0 or g2 == 0:
            continue
        sign = -1 if (t - i) % 2 else 1
        acc += sign * q ** (i * m + comb(t - i, 2)) * g1 * g2
    val = Fraction(q - 1, q) * (mu(l, m, t, q) - acc)
    if val.denominator != 1:
        raise NonIntegerDivision(f"alternating sum not divisible by q: {val}")
    return int(val)


def affine_weight(t: int, r: int, l: int, m: int, q: int) -> int:
    """w_r for the affine rank-<=t code: sum of rank-exactly-s counts."""
    return sum(delsarte_N(s, r, l, m, q) for s in range(1, t + 1))


def closed_weight_enumerator(t, l, m, q, mode: str):
    """SpectrumReport built purely from closed forms, no enumeration.

    Weights of different rank classes may coincide (they always do at
    t = l, the simplex case); equal weights are merged.
    """
    from .detcode import _spectrum_from  # report type lives with the oracles

    if mode not in ("affine", "projective"):
        raise BadParameters(f"mode must be affine or projective, got {mode!r}")
    if not 1 <= t <= l <= m:
        raise BadParameters(f"need 1 <= t <= l <= m, got t={t}, l={l}, m={m}")
    counts: dict[int, int] = {}
    for r in range(l + 1):
        w = affine_weight(t, r, l, m, q)
        if mode == "projective":
            w = _exact_div(w, q - 1) if r else 0
        counts[w] = counts.get(w, 0) + mu(l, m, r, q)
    return _spectrum_from(mode, counts)


def griesmer_wei(d1: int, r: int, q: int) -> int:
    """Lower bound sum_{j<r} ceil(d1 / q^j) on the r-th higher weight."""
    if d1 < 1 or r < 1:
        raise BadParameters(f"need d1 >= 1 and r >= 1, got d1={d1}, r={r}")
    return sum(-(-d1 // q**j) for j in range(r))


@dataclass(frozen=True)
class GhwResult:
    """Either an exact r-th higher weight or honest two-sided bounds."""

    r: int
    kind: str  # "exact" | "bounds"
    value: int | None = None
    lower: int | None = None
    upper: int | None = None
    sources: tuple[str, ...] = ()

    def contains(self, v: int) -> bool:
        if self.kind == "exact":
            return v == self.value
        return self.lower <= v <= self.upper


def _rank1_floor(l: int, m: int, r: int, q: int) -> int:
    """Lower bound on d_hat_r for r > m from the rank-1 coset bound:
    q^(l+m-r-1) ((q^r - 1)/(q - 1) + q^(r-2) - 1), rounded up.
    """
    val = Fraction(q) ** (l + m - r - 1) * (
        Fraction(q**r - 1, q - 1) + q ** (r - 2) - 1
    )
    return ceil(val)


def _span_upper(l: int, m: int, r: int, q: int) -> int:
    """Support weight of the explicit (m+s)-dimensional witness subcode,
    valid as an upper bound for m < r < l + m (s = r - m):
    d_hat_m + q^(l+m-s-2) (q^s - 1)/(q - 1).
    """
    s = r - m
    return _head_weight(l, m, m, q) + q ** (l + m - s - 2) * _exact_div(q**s - 1, q - 1)


def ghw_t1(l: int, m: int, r: int, q: int) -> GhwResult:
    """r-th higher weight of the projective t=1 code, exact where known.

    Exact: r <= m (meets Griesmer-Wei), r = m+1 (rank-1 coset bound is
    attained), and r = l*m (full support by nondegeneracy).  Otherwise
    the best applicable lower/upper bounds are combined.
    """
    if not 1 <= r <= l * m:
        raise BadParameters(f"need 1 <= r <= l*m, got r={r}")
    if l > m:
        raise BadParameters(f"need l <= m, got l={l}, m={m}")
    if r > m and l < 2:
        raise BadParameters("r > m requires l >= 2")
    _, n_hat = lengths(l, m, 1, q)
    if r <= m:
        val = _head_weight(l, m, r, q)
        assert val == griesmer_wei(q ** (l + m - 2), r, q)
        return GhwResult(r=r, kind="exact", value=val, sources=("griesmer-wei-met",))
    if r == m + 1:
        return GhwResult(
            r=r,
            kind="exact",
            value=_head_weight(l, m, m, q) + q ** (l + m - 3),
            sources=("rank1-coset-bound-attained",),
        )
    if r == l * m:
        return GhwResult(r=r, kind="exact", value=n_hat, sources=("full-support",))
    lowers = {
        "griesmer-wei": griesmer_wei(q ** (l + m - 2), r, q),
        "rank1-coset-bound": _rank1_floor(l, m, r, q),
    }
    uppers = {"length": n_hat}
    if m < r < l + m:
        uppers["witness-subcode"] = _span_upper(l, m, r, q)
    lo_tag = max(lowers, key=lowers.get)
    up_tag = min(uppers, key=uppers.get)
    return GhwResult(
        r=r,
        kind="bounds",
        lower=lowers[lo_tag],
        upper=uppers[up_tag],
        sources=(f"lower:{lo_tag}", f"upper:{up_tag}"),
    )


def witness_subcode(l: int, m: int, r: int, q: int) -> np.ndarray:
    """Explicit r-dimensional form subspace attaining the known values.

    For r <= m: the span of the first r entries of the first row.  For
    m < r < l + m: the whole first row plus the first r - m entries of
    the first column (below the corner).  Basis rows are unit vectors in
    the l*m-dimensional form space, already in RREF.
    """
    if not 1 <= r < l + m:
        raise BadParameters(f"need 1 <= r < l + m, got r={r}")
    positions = [j for j in range(min(r, m))]
    if r > m:
        positions += [i * m for i in range(1, r - m + 1)]
    positions.sort()
    basis = np.zeros((r, l * m), dtype=np.int64)
    for row, pos in enumerate(positions):
        basis[row, pos] = 1
    return basis


def serre_example_bound(l: int, q: int) -> int:
    """Lower bound on the minimum distance of the projective code of the
    rank-<(l) locus of square l x l matrices (the determinant hypersurface):
    q^(l^2-1) + q^(l^2-2) - (l-1) q^(l^2-3) - q^C(l,2) prod_{i=2}^l (q^i - 1).
    """
    if l < 2:
        raise BadParameters(f"need l >= 2, got l={l}")
    prod = 1
    for i in range(2, l + 1):
        prod *= q**i - 1
    return (
        q ** (l * l - 1)
        + q ** (l * l - 2)
        - (l - 1) * q ** (l * l - 3)
        - q ** comb(l, 2) * prod
    )
