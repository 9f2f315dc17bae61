"""Closed forms for the rank-<=t evaluation codes.

Covers the t=1 weight hierarchy, the alternating-sum count of rank-t
matrices with nonvanishing partial trace (valid for every t), closed
weight enumerators, the Griesmer-Wei bound, the explicit witness
subcodes that attain the known upper bounds, and one table of proven
generalized-Hamming-weight bounds (``ghw_bounds``), read by ``ghw_t1``
and by the searches alike.  Each bound carries the tag of its proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .counting import _exact_div, gaussian_binomial, lengths, mu, rank1_bound
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


# An exact value is named by the lower bound that the witness subcode meets,
# or is the full support where it meets the length.
_MET = {"griesmer-wei": "griesmer-wei-met", "rank1-coset-bound": "rank1-coset-bound-attained",
        "rank1-section": "rank1-section-met"}


@dataclass(frozen=True)
class GhwResult:
    """Proven bounds lower <= d_hat_r <= upper, each named by its proof."""

    r: int
    lower: int
    upper: int
    lower_by: str
    upper_by: str

    @property
    def kind(self) -> str:  # exact iff the bounds meet
        return "exact" if self.lower == self.upper else "bounds"

    @property
    def value(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    @property
    def sources(self) -> tuple[str, ...]:
        if self.lower < self.upper:
            return (f"lower:{self.lower_by}", f"upper:{self.upper_by}")
        return ("full-support" if self.upper_by == "length" else _MET[self.lower_by],)

    def contains(self, v: int) -> bool:
        return self.lower <= v <= self.upper


def _witness_weight(l: int, m: int, r: int, q: int) -> int:
    """Support weight of ``witness_subcode``, r < l + m (s = max(r - m, 0)):
    d_hat_(r-s) + q^(l+m-s-2) (q^s - 1)/(q - 1)."""
    s = max(r - m, 0)
    return _head_weight(l, m, r - s, q) + q ** (l + m - s - 2) * _exact_div(q**s - 1, q - 1)


def ghw_bounds(l: int, m: int, t: int, r: int, q: int, n_hat: int, d1: int) -> GhwResult:
    """Every proven bound on d_hat_r, the r-th higher weight of the
    projective rank-<=t code of length n_hat and minimum distance d1.

    A subcode D of dimension r misses exactly the points of the section
    S = D^perp, of dimension s = N - r (N = l*m), so d_hat_r = n_hat - the
    most points in an s-space.  The largest lower bound is kept, the
    first on a tie:
    - griesmer-wei: GW(d1, r), true of every linear code;
    - rank1-coset-bound (t = 1, r > m): wt(D) averages the weights of its
      q^r - 1 nonzero forms over q^r - q^(r-1); at most
      ``rank1_bound(r)`` of them have rank 1, and each other one weighs
      at least w_hat_2, the weight of a rank-2 form;
    - section-size: n_hat - c(s), c(s) = (q^s - 1)/(q - 1) the points of S;
    - rank1-section (t = 1, s > m): n_hat - ``rank1_bound(s)`` / (q - 1),
      since the points of S are its rank-1 matrices up to scalars.
    The least upper bound is kept, the first on a tie:
    - witness-subcode (t = 1, r < l + m): the support weight of
      ``witness_subcode(l, m, r, q)``;
    - length: n_hat.
    """
    N = l * m
    if not (1 <= t <= l <= m and 1 <= r <= N):
        raise BadParameters(f"need 1 <= t <= l <= m and 1 <= r <= l*m, got {t=}, {l=}, {m=}, {r=}")
    lowers = {"griesmer-wei": griesmer_wei(d1, r, q)}
    if t == 1 and r > m:
        rank1 = rank1_bound(r, l, m, q).max_rank1
        total = rank1 * _head_weight(l, m, 1, q) + (q**r - 1 - rank1) * _head_weight(l, m, 2, q)
        lowers["rank1-coset-bound"] = -(-total // (q**r - q ** (r - 1)))
    lowers["section-size"] = n_hat - (q ** (N - r) - 1) // (q - 1)
    if t == 1 and N - r > m:
        lowers["rank1-section"] = n_hat - rank1_bound(N - r, l, m, q).max_rank1 // (q - 1)
    uppers = {"witness-subcode": _witness_weight(l, m, r, q)} if t == 1 and r < l + m else {}
    uppers["length"] = n_hat
    lower_by = max(lowers, key=lowers.get)
    upper_by = min(uppers, key=uppers.get)
    return GhwResult(r, lowers[lower_by], uppers[upper_by], lower_by, upper_by)


def ghw_t1(l: int, m: int, r: int, q: int) -> GhwResult:
    """``ghw_bounds`` for the projective t=1 code, with its closed length
    and d_hat_1 = q^(l+m-2)."""
    return ghw_bounds(l, m, 1, r, q, lengths(l, m, 1, q)[1], _head_weight(l, m, 1, q))


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
