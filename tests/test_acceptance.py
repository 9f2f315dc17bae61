"""Acceptance suite: end-to-end checks of every closed form against an
independent brute-force route, at the stated sizes and time budgets.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them); a test only prints PASS after all of its assertions held.
"""

import itertools
import time

import numpy as np
import pytest

from detcodes import counting, detcode, formulas, gf, matq, rank1
from detcodes._kernels import rank_batch
from detcodes.counting import gaussian_binomial, mu, rank1_bound


def _field_for(q):
    for p in (2, 3, 5, 7):
        e, n = 0, q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1 and e > 0:
            return gf.make_field(p, e)
    raise ValueError(q)


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_acceptance_1_spectrum_closed_vs_brute():
    """Closed-form weight enumerator equals exhaustive enumeration for all
    q in {2,3,4}, l <= m, l*m <= 9, 1 <= t <= l, both modes; under 60 s."""
    start = time.monotonic()
    ok = True
    cases = 0
    for q in (2, 3, 4):
        field = _field_for(q)
        for l in range(1, 4):
            for m in range(l, 10):
                if l * m > 9:
                    continue
                for t in range(1, l + 1):
                    for mode in ("projective", "affine"):
                        closed = formulas.closed_weight_enumerator(t, l, m, q, mode)
                        brute = detcode.brute_weight_enumerator(field, l, m, t, mode)
                        if closed.as_dict() != brute.as_dict():
                            ok = False
                        cases += 1
    elapsed = time.monotonic() - start
    ok = ok and cases == 2 * sum(
        l
        for q in (2, 3, 4)
        for l in range(1, 4)
        for m in range(l, 10)
        if l * m <= 9
    ) and elapsed < 60.0
    _report(
        f"criterion 1: spectrum closed vs brute ({cases} cases, {elapsed:.1f}s)", ok
    )


def test_acceptance_2_flagship_code():
    """The minimal-rank 2x2 binary code: length 9, dimension 4, spectrum
    {0:1, 4:9, 6:6}, minimum distance 4."""
    field = gf.make_field(2, 1)
    dom = detcode.make_domain(field, 2, 2, 1, "projective")
    gen = detcode.generator_matrix(dom)
    rep = detcode.brute_weight_enumerator(field, 2, 2, 1, "projective")
    ok = (
        len(dom) == 9
        and gen.shape == (4, 9)
        and matq.rank(field, gen) == 4
        and rep.as_dict() == {0: 1, 4: 9, 6: 6}
        and rep.min_distance() == 4 == 2**2
    )
    _report("criterion 2: flagship binary code [9,4] with spectrum {4:9, 6:6}", ok)


def test_acceptance_3_delsarte_cross_check():
    """Alternating-sum rank-class counts equal direct enumeration for all
    q in {2,3}, l <= m <= 3, all (t, r); and the t=1 affine/projective
    weight identity holds across q in {2,3,4}, l <= m <= 4."""
    ok = True
    for q in (2, 3):
        field = _field_for(q)
        for l in range(1, 4):
            for m in range(l, 4):
                mats = matq.enumerate_matrices(field, l, m, l, "affine")
                ranks = rank_batch(field, mats)
                add_t = field.tables.add
                for r in range(l + 1):
                    acc = np.zeros(len(mats), dtype=np.int64)
                    for i in range(r):
                        acc = add_t[acc, mats[:, i, i]]
                    for t in range(l + 1):
                        direct = int(np.count_nonzero((ranks == t) & (acc != 0)))
                        if formulas.delsarte_N(t, r, l, m, q) != direct:
                            ok = False
    for q in (2, 3, 4):
        for l in range(1, 5):
            for m in range(l, 5):
                for r in range(1, l + 1):
                    lhs = (q - 1) * formulas.what_r(l, m, r, q)
                    if lhs != formulas.delsarte_N(1, r, l, m, q):
                        ok = False
    _report("criterion 3: alternating-sum counts vs enumeration, weight identity", ok)


def test_acceptance_4_ghw_hierarchies():
    """Exhaustive higher-weight hierarchies: (4,6,8,9) for the 2x2 binary
    code and (8,12,14,18,20,21) for the 2x3 binary code, with r=4 exactly
    18 and every value inside the closed-form answer; under 120 s."""
    start = time.monotonic()
    field = gf.make_field(2, 1)
    h22 = [detcode.brute_ghw(field, 2, 2, 1, "projective", r) for r in range(1, 5)]
    ok = h22 == [4, 6, 8, 9]
    h23 = [detcode.brute_ghw(field, 2, 3, 1, "projective", r) for r in range(1, 7)]
    ok = ok and h23 == [8, 12, 14, 18, 20, 21]
    res4 = formulas.ghw_t1(2, 3, 4, 2)
    ok = ok and res4.kind == "exact" and res4.value == 18
    for r, val in enumerate(h22, start=1):
        ok = ok and formulas.ghw_t1(2, 2, r, 2).contains(val)
    for r, val in enumerate(h23, start=1):
        ok = ok and formulas.ghw_t1(2, 3, r, 2).contains(val)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(
        f"criterion 4: higher-weight hierarchies (4,6,8,9) and "
        f"(8,12,14,18,20,21), r=4 -> 18 exact ({elapsed:.1f}s)",
        ok,
    )


def test_acceptance_5_griesmer_floor():
    """For r <= m the exact higher weight equals the Griesmer-style floor;
    at r = m+1 it strictly exceeds the floor (l, m >= 2, q in {2,3})."""
    ok = True
    for q in (2, 3):
        for l in (2, 3):
            for m in range(l, 5):
                d1 = formulas.what_r(l, m, 1, q)
                for r in range(1, m + 1):
                    res = formulas.ghw_t1(l, m, r, q)
                    if res.kind != "exact" or res.value != formulas.griesmer_wei(
                        d1, r, q
                    ):
                        ok = False
                res = formulas.ghw_t1(l, m, m + 1, q)
                if res.kind != "exact" or res.value <= formulas.griesmer_wei(
                    d1, m + 1, q
                ):
                    ok = False
    _report("criterion 5: floor met for r <= m, strictly exceeded at r = m+1", ok)


def test_acceptance_6_rank1_extremal():
    """Exhaustive extremal rank-1 counts: the binary 2x2 r=3 maximum is 5
    and meets the bound q^(r-1) + q^2 - q - 1; every enumerable case with
    r > m and at most 10^6 subspaces respects the bound and the rank >= 2
    floor (q^(r-1) - q)(q - 1)."""
    field2 = gf.make_field(2, 1)
    best, witness = rank1.max_rank1_exhaustive(field2, 2, 2, 3)
    bound = rank1_bound(3, 2, 2, 2)
    ok = best == 5 == bound.max_rank1 == 2**2 + 2**2 - 2 - 1
    for q in (2, 3):
        field = _field_for(q)
        for l in (2, 3):
            for m in range(l, 4):
                for r in range(m + 1, l * m + 1):
                    if gaussian_binomial(l * m, r, q) > 10**6:
                        continue
                    if gaussian_binomial(l * m, r, q) * q**r > 4_000_000:
                        continue  # keep the criterion inside its time budget
                    got, wit = rank1.max_rank1_exhaustive(field, l, m, r)
                    b = rank1_bound(r, l, m, q)
                    floor = (q ** (r - 1) - q) * (q - 1)
                    if not (got <= b.max_rank1 and q**r - 1 - got >= floor):
                        ok = False
                    if b.rank2_floor != floor:
                        ok = False
    _report("criterion 6: extremal rank-1 counts meet and never exceed the bound", ok)


def test_acceptance_7_transfer_identities():
    """Affine/projective transfer: A_{i(q-1)} = A_hat_i, A_j = 0 unless
    (q-1) | j, d_r = (q-1) d_hat_r, n = 1 + n_hat (q-1)."""
    ok = True
    for q in (2, 3, 4):
        field = _field_for(q)
        for l in (1, 2):
            for m in range(l, 4):
                for t in range(1, l + 1):
                    n, n_hat = counting.lengths(l, m, t, q)
                    if n != 1 + n_hat * (q - 1):
                        ok = False
                    aff = detcode.brute_weight_enumerator(field, l, m, t, "affine")
                    proj = detcode.brute_weight_enumerator(
                        field, l, m, t, "projective"
                    )
                    a, p = aff.as_dict(), proj.as_dict()
                    if any(j % (q - 1) for j in a if j):
                        ok = False
                    if any(a.get(i * (q - 1), 0) != c for i, c in p.items()):
                        ok = False
    # d_r = (q-1) d_hat_r on exhaustively searchable hierarchies
    for q, l, m in [(2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        field = _field_for(q)
        for r in (1, 2):
            da = detcode.brute_ghw(field, l, m, 1, "affine", r)
            dp = detcode.brute_ghw(field, l, m, 1, "projective", r)
            if da != (q - 1) * dp:
                ok = False
    _report("criterion 7: affine/projective transfer identities", ok)


def test_acceptance_8_simplex_degeneration():
    """At t = l the projective code is the simplex code: length
    (q^(l*m) - 1)/(q - 1), single nonzero weight q^(l*m - 1); q = 2,
    l*m <= 6."""
    ok = True
    field = gf.make_field(2, 1)
    q = 2
    for l in range(1, 3):
        for m in range(l, 7):
            if l * m > 6:
                continue
            dom = detcode.make_domain(field, l, m, l, "projective")
            rep = detcode.brute_weight_enumerator(field, l, m, l, "projective")
            expect_n = (q ** (l * m) - 1) // (q - 1)
            nz = {w for w in rep.as_dict() if w}
            if len(dom) != expect_n or nz != {q ** (l * m - 1)}:
                ok = False
            if rep.as_dict()[q ** (l * m - 1)] != q ** (l * m) - 1:
                ok = False
    _report("criterion 8: rank-unrestricted code degenerates to the simplex code", ok)


def test_acceptance_9_counting_identities():
    """Rank-class counts sum to q^(l*m) with all three closed forms in
    agreement (asserted internally), and the rank-1 sum dichotomy has no
    counterexample in the exhaustive binary 2x2 sweep."""
    ok = True
    for q in (2, 3, 4, 5):
        for l in range(1, 4):
            for m in range(l, 5):
                if sum(mu(l, m, r, q) for r in range(l + 1)) != q ** (l * m):
                    ok = False
    field = gf.make_field(2, 1)
    r1 = [M for M in matq.enumerate_matrices(field, 2, 2, 1, "affine") if M.any()]
    add = field.tables.add
    checked = 0
    for A, B in itertools.product(r1, repeat=2):
        S = add[A, B]
        if not S.any() or matq.rank(field, S) != 1:
            continue
        u, v = rank1.factor(field, A)
        a, b = rank1.factor(field, B)
        x, y = rank1.factor(field, S)
        if not rank1.rank1_sum_check(field, u, a, x, v, b, y):
            ok = False
        checked += 1
    ok = ok and checked > 0
    _report(
        f"criterion 9: counting identities and rank-1 sum dichotomy "
        f"({checked} sums checked)",
        ok,
    )
