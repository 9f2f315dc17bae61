"""Evaluation codes on rank-bounded matrix varieties, plus brute-force
oracles: codeword weights, weight enumerators, subcode support weights,
generalized Hamming weights, and subcode support-weight spectra.

A linear form f = sum f_ij X_ij is identified with its coefficient
matrix F throughout; the matrix space doubles as the form space.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _kernels, counting, matq
from ._kernels import gf_matmul
from .counting import _exact_div
from .errors import BadParameters, BudgetExceeded, ShapeMismatch
from .formulas import ghw_bounds

NAIVE_COST_BUDGET = 200_000_000  # forms x domain points for the naive path


# eq=False: domains are cached and compared by identity (ndarray field)
@dataclass(frozen=True, eq=False)
class EvaluationDomain:
    field: object
    l: int
    m: int
    t: int
    mode: str
    points: np.ndarray  # (n, l, m), canonical order, element dtype: unsigned, widen to subtract

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=64)
def make_domain(field, l: int, m: int, t: int, mode: str) -> EvaluationDomain:
    pts = matq.enumerate_matrices(field, l, m, t, mode)
    pts.setflags(write=False)
    return EvaluationDomain(field=field, l=l, m=m, t=t, mode=mode, points=pts)


def evaluate(dom: EvaluationDomain, F) -> np.ndarray:
    """Codeword of the linear form with coefficient matrix F."""
    F = matq.as_matrix(F, dom.field.q)
    if F.shape != (dom.l, dom.m):
        raise ShapeMismatch(f"form shape {F.shape} != domain shape {(dom.l, dom.m)}")
    flat_pts = dom.points.reshape(len(dom), dom.l * dom.m)
    return gf_matmul(dom.field, F.reshape(1, -1), flat_pts.T)[0]


def generator_matrix(dom: EvaluationDomain) -> np.ndarray:
    """(l*m) x n matrix whose row (i, j) evaluates X_ij on the domain, in
    the points' element dtype."""
    return dom.points.reshape(len(dom), dom.l * dom.m).T.copy()


def _trace_nonzero(field, diag: np.ndarray) -> np.ndarray:
    """(B, l+1) mask of tau_r != 0 for r = 0..l over the (B, l) diagonals
    of B matrices, where the partial trace tau_r sums the first r
    diagonal entries."""
    B, l = diag.shape
    add = field.tables.add if field.e > 1 else None  # prime fields need no table
    acc = np.zeros(B, dtype=np.int64)
    out = np.zeros((B, l + 1), dtype=bool)
    for r in range(1, l + 1):
        d = diag[:, r - 1]
        acc = _kernels.reduce_mod(acc + d, field.p) if add is None else add[acc, d]
        out[:, r] = acc != 0
    return out


@lru_cache(maxsize=64)
def weight_table(dom: EvaluationDomain) -> tuple[int, ...]:
    """w_r = #{M in the domain : tau_r(M) != 0} for r = 0..l.

    By the partial-trace reduction these are all the codeword weights.
    """
    diag = np.diagonal(dom.points, axis1=1, axis2=2)
    return tuple(int(w) for w in _trace_nonzero(dom.field, diag).sum(axis=0))


@dataclass(frozen=True)
class SpectrumReport:
    mode: str
    pairs: tuple[tuple[int, int], ...]  # (weight, codeword count), weight-sorted
    total: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def min_distance(self) -> int:
        return min(w for w, _ in self.pairs if w > 0)


def _spectrum_from(mode, weight_counts: dict[int, int]) -> SpectrumReport:
    pairs = tuple(sorted((w, c) for w, c in weight_counts.items() if c))
    return SpectrumReport(mode=mode, pairs=pairs, total=sum(c for _, c in pairs))


def rank_trace_counts(field, l, m, t, mode) -> tuple[np.ndarray, np.ndarray]:
    """(rank_counts, trace_counts), counted off one walk of the matrix
    space, ``matq.rank_blocks``, block by block; no table is kept.

    ``rank_counts[j]`` is the number of l x m matrices of rank j, and
    ``trace_counts[j, r]`` the number of points of the rank-<=t domain
    that have rank j and tau_r != 0, for r = 0..l.  Ranks are counted on
    each uint8 block itself, one comparison per rank, with no widening;
    the points are filtered out of the same blocks by
    ``matq._domain_chunks``.  So besides the walk's (l-1)-row table, no
    array spans the space.

    A point's partial traces depend on its diagonal alone, read as a
    base-q number D < q^l whose digit i is entry (i, i), digit i*(m+1) of
    the point's value from the most significant.  So each batch decodes
    only D: its values, which are its own, are shifted right in place to
    each diagonal digit in turn, the least significant first, and the
    digits are summed into one vector of cells.  One ``np.bincount``
    counts its points by (D, rank); at the end the (q^l, l+1)
    ``_trace_nonzero`` table of every diagonal turns those counts into
    trace counts with one product.  Since l <= m, q^l is at most the
    square root of the walk's budget, or q itself at l = 1.
    """
    matq._check_variety(l, m, t, mode)
    matq._check_space(field, l, m)  # before the cells are allocated: rank_blocks checks lazily
    q = field.q
    rank_counts = np.zeros(l + 1, dtype=np.int64)

    def counted(blocks):
        for lo, ranks in blocks:
            rank_counts[:] += [np.count_nonzero(ranks == j) for j in range(l + 1)]
            yield lo, ranks

    cells = np.zeros(q**l * (l + 1), dtype=np.int64)  # cell (D, j) is D * (l + 1) + j
    blocks = counted(matq.rank_blocks(field, l, m))
    for values, ranks in matq._domain_chunks(blocks, q, l, m, t, mode):
        code = ranks.astype(np.int64)
        digit = np.empty_like(values)
        values //= q ** (l * m - 1 - (l - 1) * (m + 1))  # the batch's own: shifted in place
        for i in range(l):  # digit l-1-i of the diagonal, least significant first
            if i:
                values //= q ** (m + 1)
            np.floor_divide(values, q, out=digit)
            digit *= -q
            digit += values
            digit *= (l + 1) * q**i
            code += digit
        cells += np.bincount(code, minlength=len(cells))
    nonzero = _trace_nonzero(field, matq.coeff_vectors(field, l))  # row D: the digits of D
    return rank_counts, cells.reshape(q**l, l + 1).T @ nonzero.astype(np.int64)


def weight_spectrum(mode, rank_counts, trace_counts) -> SpectrumReport:
    """Weight enumerator from ``rank_trace_counts``' two tables: the
    rank_counts[r] forms of rank r have weight w_r, the number of domain
    points with tau_r != 0, sum_j trace_counts[j, r].  The rows j <= t of
    the trace counts of a larger t are those of t."""
    wt = trace_counts.sum(axis=0)
    counts: Counter[int] = Counter()
    for r in range(len(rank_counts)):
        counts[int(wt[r])] += int(rank_counts[r])
    return _spectrum_from(mode, counts)


def brute_weight_enumerator(field, l, m, t, mode) -> SpectrumReport:
    """Weight enumerator by exhaustive computation, grouped by form rank.

    Forms of equal coefficient-matrix rank share a weight: w_r, the number
    of domain points with tau_r != 0.  One walk of the matrix space counts
    both these weights and the forms of each rank; no domain is kept.
    """
    return weight_spectrum(mode, *rank_trace_counts(field, l, m, t, mode))


def _bit_planes(words: np.ndarray, planes: int, width: int) -> np.ndarray:
    """(planes, rows, width) uint64: plane j packs bit j of the element
    index at every coordinate of the (rows, n) words, zero-padded to
    ``width`` 64-bit words."""
    rows, n = words.shape
    out = np.zeros((planes, rows, 8 * width), dtype=np.uint8)
    for j in range(planes):
        out[j, :, : -(-n // 8)] = np.packbits(words & (1 << j), axis=1)  # nonzero packs as 1
    return out.view(np.uint64)


def naive_weight_enumerator(field, l, m, t, mode) -> SpectrumReport:
    """Fully naive oracle: evaluate every form over the whole domain.

    Split the k = l*m coefficients of a form into a head a (the first
    k - h) and a tail b (the last h, with h = k // 2).  By linearity the
    codeword of (a, b) is A[a] + B[b], where A and B hold the partial
    codewords of the heads and of the tails.  As b runs over GF(q)^h, so
    does -b, and A[a] + B[-b] = A[a] - B[b] is zero exactly where the two
    rows are equal.  So the weights of all q^k codewords are the Hamming
    distances between every head row and every tail row: one table of
    tails, then one distance histogram per head.

    One head per scalar class: for c != 0, A[c*a] = c*A[a] and B is
    linear, so the distance from A[c*a] to B[b] is the distance from A[a]
    to B[c^-1 * b], and c^-1 * b runs over all tails as b does.  So c*a
    and a have the same histogram.  Every nonzero head is c*a for exactly
    one c and one head a whose first nonzero digit is element 1; the
    oracle counts the zero head once and each of those heads q - 1 times.

    A coordinate differs iff some bit of its element index differs.  The
    rows are packed into bit_length(q - 1) bit planes of 64-bit words, and
    a distance is the popcount of the planes' XORs, ORed together.  Heads
    go in blocks of at most ``_kernels._RANK_CHUNK`` XOR words, XORed into
    one buffer that every block reuses (and ORed from a second one when
    there are two planes or more).  The unpacked tails are dropped once
    they are packed.  Nothing is ranked.
    """
    dom = make_domain(field, l, m, t, mode)
    q, k, n = field.q, l * m, len(dom)
    cost = q**k * n
    if cost > NAIVE_COST_BUDGET:
        raise BudgetExceeded(
            f"naive enumeration cost q^(l*m) * n = {cost} exceeds "
            f"NAIVE_COST_BUDGET = {NAIVE_COST_BUDGET}"
        )
    h = k // 2
    gen = generator_matrix(dom)
    tails = gf_matmul(field, matq.coeff_vectors(field, h), gen[k - h :])
    planes, width = (q - 1).bit_length(), -(-n // 64)
    tail_planes = _bit_planes(tails, planes, width)
    zero_head = np.bincount(np.count_nonzero(tails, axis=1), minlength=n + 1)
    del tails
    heads = matq.coeff_vectors(field, k - h)
    lead = heads[np.arange(len(heads)), (heads != 0).argmax(axis=1)]
    heads = heads[lead == 1]
    per = max(1, _kernels._RANK_CHUNK // (q**h * width))
    counts = np.zeros(n + 1, dtype=np.int64)
    xor = np.empty((min(per, len(heads)), q**h, width), dtype=np.uint64)
    other = np.empty_like(xor) if planes > 1 else None
    for lo in range(0, len(heads), per):
        words = gf_matmul(field, heads[lo : lo + per], gen[: k - h])
        head_planes = _bit_planes(words, planes, width)
        diff = xor[: len(words)]
        np.bitwise_xor(head_planes[0][:, None], tail_planes[0], out=diff)
        for j in range(1, planes):
            np.bitwise_xor(head_planes[j][:, None], tail_planes[j], out=other[: len(words)])
            diff |= other[: len(words)]
        dist = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
        counts += np.bincount(dist.ravel(), minlength=n + 1)
    counts = (q - 1) * counts + zero_head
    weights = np.flatnonzero(counts)  # a dict of every weight 0..n would outweigh the buffers
    return _spectrum_from(mode, dict(zip(weights.tolist(), counts[weights].tolist())))


def support_weight(dom: EvaluationDomain, basis) -> int:
    """Support weight of the subcode spanned by the given forms.

    Computed twice, independently, and asserted equal: from the
    rank-determined weights of all q^r elements of the span (q^r within
    ``matq.ELEMENT_BUDGET``), their ranks read off ``matq.rank_table``
    (the domain's walk, so it fits the budget) a block of at most
    ``_kernels._RANK_CHUNK`` entries at a time, and as the number of
    coordinates hit by the basis codewords.
    """
    basis = matq.as_matrix(basis, dom.field.q)
    r, nm = basis.shape
    if nm != dom.l * dom.m:
        raise ShapeMismatch("basis must live in the form space of the domain")
    if r == 0:
        raise BadParameters("support weight of the zero subcode is undefined here")
    q = dom.field.q
    table, wt = matq.rank_table(dom.field, dom.l, dom.m), np.array(weight_table(dom))
    powers = q ** np.arange(nm - 1, -1, -1, dtype=np.int64)  # an element's base-q value
    total = 0
    for coeffs in matq._coeff_blocks(dom.field, r, max(1, _kernels._RANK_CHUNK // nm)):
        total += int(wt[table[gf_matmul(dom.field, coeffs, basis) @ powers]].sum())
    average = _exact_div(total, q**r - q ** (r - 1))
    words = gf_matmul(dom.field, basis, generator_matrix(dom))
    union = int(np.count_nonzero(words.any(axis=0)))
    assert average == union, ("support-weight routes disagree", average, union)
    return average


def _subspace_supports(field, l, m, t, mode, r):
    """Yield (j, ranks, supports) over the r-dimensional subcodes of the
    rank-<=t code that contain E_j, for j = 1..l in turn, one block at a
    time: the ranks of their span elements and their support weights,
    via rank grouping.  The domain is built once the first block has
    arrived, so an over-budget search is refused before any walk.

    G = GL_l x GL_m acts on the forms by F -> A F B^T.  It keeps ranks,
    so it keeps codeword weights and support weights, and it is
    transitive on each rank class.  Every nonzero subcode holds a form of
    some rank j, and some g in G maps that form to E_j; so these
    subcodes stand for all of them.
    """
    denom, wt = field.q**r - field.q ** (r - 1), None
    for j, _, ranks in matq.span_rank_batches(field, l, m, r, range(1, l + 1)):
        if wt is None:
            wt = np.array(weight_table(make_domain(field, l, m, t, mode)), dtype=np.int64)
        sums = wt[ranks].sum(axis=1)
        if (sums % denom).any():
            raise AssertionError("support-weight sum not divisible; implementation bug")
        yield j, ranks, sums // denom


def _section_ceiling(dom: EvaluationDomain, s: int) -> int:
    """A proven upper bound on the points of the domain in an
    s-dimensional space S of l x m matrices, N = l*m.  A point lies in S
    iff every form of D = S^perp vanishes at it, so S holds n - wt(D)
    points, and wt(D) >= d_(N-s), which ``formulas.ghw_bounds`` bounds
    below.  Its n_hat and d_hat_1 are read off the domain.
    """
    q, N, affine = dom.field.q, dom.l * dom.m, dom.mode == "affine"
    if s == N:
        return len(dom)
    scale = q - 1 if affine else 1  # n = n_hat projective, 1 + (q - 1) n_hat affine
    n_hat, d1 = _exact_div(len(dom) - affine, scale), _exact_div(min(weight_table(dom)[1:]), scale)
    return len(dom) - scale * ghw_bounds(dom.l, dom.m, dom.t, N - s, q, n_hat, d1).lower


def _check_search(l, m, t, mode) -> None:
    """Raise unless the rank-<=t code has generalized weights to search;
    called before any walk.  The affine rank-0 variety is the origin,
    where every form vanishes, so its code is the zero code."""
    matq._check_variety(l, m, t, mode)
    if t == 0:
        raise BadParameters("the rank-0 code is the zero code: it has no generalized weights")


def max_section(field, l, m, t, mode, s, prune: bool = True) -> tuple[int, np.ndarray]:
    """Most points of the domain in an s-dimensional space S of l x m
    matrices (a maximal linear section of the variety), and the first
    maximizer in canonical order among the S that contain E_1, E_2, ...

    A point is outside supp(D) iff it is in D^perp, so d_r = n -
    max_section(N - r), N = l*m.  A maximizer holds a point of some rank
    j <= t, which G maps to E_j, so only the S that contain E_j, j <= t,
    are searched (``matq.span_rank_batches``).  S holds its span elements
    of rank 1..t, over q - 1 projective and plus the origin affine (s = 0:
    the origin alone).  A count above ``_section_ceiling`` raises
    AssertionError; ``prune`` stops at the first S that reaches it, which
    is the first maximizer.  Unpruned, every S is visited: the oracle.
    """
    _check_search(l, m, t, mode)
    q = field.q
    if s == 0:
        return int(mode == "affine"), np.zeros((0, l * m), dtype=np.int64)
    best, witness, ceiling = -1, None, None
    for _, bases, ranks in matq.span_rank_batches(field, l, m, s, range(1, t + 1)):
        if ceiling is None:  # built once the search has passed its budget check
            ceiling = _section_ceiling(make_domain(field, l, m, t, mode), s)
        counts = ((ranks > 0) & (ranks <= t)).sum(axis=1)
        i = int(counts.argmax())
        points = int(counts[i]) // (q - 1) if mode == "projective" else int(counts[i]) + 1
        if points > ceiling:
            raise AssertionError(f"section of {points} points above the proven ceiling {ceiling}")
        if points > best:
            best, witness = points, bases[i].copy()
        if prune and best == ceiling:
            break
    return best, witness


def _primal_ghw(field, l, m, t, mode, r, prune: bool = True) -> int:
    """d_r = min_j min{wt(D) : E_j in D} over the r-dimensional subcodes,
    j = 1..l (``_subspace_supports``).  A support weight below the floor
    n - ``_section_ceiling``(N - r) raises AssertionError; ``prune`` stops
    at the first block that meets it.  Unpruned, every D is visited.
    """
    _check_search(l, m, t, mode)
    floor = None
    for _, _, supports in _subspace_supports(field, l, m, t, mode, r):
        if floor is None:  # built once the search has passed its budget check
            dom = make_domain(field, l, m, t, mode)
            floor, best = len(dom) - _section_ceiling(dom, l * m - r), len(dom)
        best = min(best, int(supports.min()))
        if best < floor:
            raise AssertionError(f"support weight {best} below the proven floor {floor}")
        if prune and best == floor:
            break
    return best


def brute_ghw(field, l, m, t, mode, r, prune: bool = True) -> int:
    """r-th generalized Hamming weight by exhaustive search, from the side
    that reads fewer span elements, a rule that depends only on
    (q, l, m, t, r): the subcodes (``_primal_ghw``, l * [N-1, r-1]_q * q^r)
    or the sections (``max_section``, t * [N-1, N-r-1]_q * q^(N-r)).
    """
    _check_search(l, m, t, mode)
    q, N = field.q, l * m
    if not 1 <= r <= N:
        raise BadParameters(f"subcode dimension r={r} not in [1, {N}]")
    primal = l * counting.gaussian_binomial(N - 1, r - 1, q) * q**r
    if primal <= t * counting.gaussian_binomial(N - 1, N - r - 1, q) * q ** (N - r):
        return _primal_ghw(field, l, m, t, mode, r, prune)
    points, _ = max_section(field, l, m, t, mode, N - r, prune)
    return len(make_domain(field, l, m, t, mode)) - points


def subcode_spectrum(field, l, m, t, mode, r) -> dict[int, int]:
    """Histogram: support weight -> number of r-dimensional subcodes.

    Let j(D) be the least rank of a nonzero form in D, and k_j(D) the
    number of rank-j forms in D.  Each D is counted once for each of its
    k_j(D) forms F of rank j = j(D); G is transitive on the mu_j forms of
    rank j, so every F sees what E_j sees (``_subspace_supports``):

        A_w = sum_j mu_j * sum_{D ∋ E_j, j(D) = j, wt(D) = w} 1 / k_j(D).

    The sums are exact fractions, and each total is asserted integral.
    """
    _check_search(l, m, t, mode)
    if not 1 <= r <= l * m:
        raise BadParameters(f"subcode dimension r={r} not in [1, {l * m}]")
    q = field.q
    seen: Counter[tuple[int, int, int]] = Counter()  # (j, w, k_j) -> subcodes
    for j, ranks, supports in _subspace_supports(field, l, m, t, mode, r):
        least = ~((ranks > 0) & (ranks < j)).any(axis=1)  # j(D) = j
        k = (ranks[least] == j).sum(axis=1)
        keys, counts = np.unique(supports[least] * q**r + k, return_counts=True)
        for key, c in zip(keys.tolist(), counts.tolist()):
            w, kj = divmod(key, q**r)
            seen[j, w, kj] += c
    totals: dict[int, Fraction] = {}
    for (j, w, k), c in seen.items():
        totals[w] = totals.get(w, 0) + Fraction(counting.mu(l, m, j, q) * c, k)
    assert all(a.denominator == 1 for a in totals.values()), ("non-integral count", totals)
    return {w: int(a) for w, a in sorted(totals.items())}


def export_generator(dom: EvaluationDomain) -> str:
    """Generator matrix text: header 'q l m t mode n k', then k rows."""
    header = f"{dom.field.q} {dom.l} {dom.m} {dom.t} {dom.mode} {len(dom)} {dom.l * dom.m}"
    return f"{header}\n{matq.format_matrix(generator_matrix(dom))}\n"
