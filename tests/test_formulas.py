"""Tests for the closed-form weight and subcode-weight machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcodes import counting, detcode, formulas, gf, matq
from detcodes._kernels import rank_batch
from detcodes.errors import BadParameters

from conftest import scalar_rank


def _field_for(q):
    for p in (2, 3, 5, 7, 11, 13):
        e, n = 0, q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1 and e > 0:
            return gf.make_field(p, e)
    raise ValueError(q)


# ---------------------------------------------------------------------------
# what_r: the nonzero weights of the projective rank-<=1 code
# ---------------------------------------------------------------------------


def test_what_r_examples():
    assert formulas.what_r(2, 2, 1, 2) == 4
    assert formulas.what_r(2, 2, 2, 2) == 6
    assert formulas.what_r(2, 3, 1, 2) == 8
    assert formulas.what_r(2, 3, 2, 2) == 12
    assert formulas.what_r(2, 2, 1, 3) == 9
    assert formulas.what_r(2, 2, 2, 3) == 12


def test_what_r_closed_form():
    for q in (2, 3, 4):
        for l in (1, 2, 3):
            for m in range(l, 5):
                for r in range(1, l + 1):
                    expect = q ** (l + m - r - 1) * (q**r - 1) // (q - 1)
                    assert formulas.what_r(l, m, r, q) == expect


def test_what_r_rejects_rank_beyond_l():
    with pytest.raises(BadParameters):
        formulas.what_r(2, 2, 3, 2)
    with pytest.raises(BadParameters):
        formulas.what_r(2, 2, 0, 2)


def test_what_r_matches_enumerated_weight_table():
    # The weight table of the projective rank-<=1 domain, by rank class.
    for q, l, m in [(2, 1, 2), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2)]:
        field = _field_for(q)
        dom = detcode.make_domain(field, l, m, 1, "projective")
        wt = detcode.weight_table(dom)
        for r in range(1, l + 1):
            assert wt[r] == formulas.what_r(l, m, r, q)


# ---------------------------------------------------------------------------
# delsarte_N: rank-t matrices pairing nontrivially with a rank-r form
# ---------------------------------------------------------------------------


def _direct_N(field, l, m, t, r):
    """Count rank-t matrices M with tau_r(M) != 0, by full enumeration."""
    mats = matq.enumerate_matrices(field, l, m, l, "affine")
    count = 0
    for M in mats[rank_batch(field, mats) == t]:
        acc = 0
        for i in range(r):
            acc = field.add(acc, int(M[i, i]))
        if acc != 0:
            count += 1
    return count


@pytest.mark.parametrize("q", [2, 3])
def test_delsarte_vs_enumeration(q):
    field = _field_for(q)
    for l in (1, 2, 3):
        for m in range(l, 4):
            if q ** (l * m) > 3**6:
                continue
            rank_counts, trace_counts = detcode.rank_trace_counts(field, l, m, l, "affine")
            space = matq.enumerate_matrices(field, l, m, l, "affine")
            scalar = [scalar_rank(field, M) for M in space]
            assert rank_counts.tolist() == [scalar.count(j) for j in range(l + 1)]
            for t in range(l + 1):
                for r in range(l + 1):
                    direct = _direct_N(field, l, m, t, r)
                    assert formulas.delsarte_N(t, r, l, m, q) == direct, (q, l, m, t, r)
                    assert trace_counts[t, r] == direct, (q, l, m, t, r)


def test_delsarte_hand_values():
    assert formulas.delsarte_N(1, 0, 2, 2, 2) == 0
    assert formulas.delsarte_N(1, 1, 2, 2, 2) == 4
    assert formulas.delsarte_N(1, 2, 2, 2, 2) == 6
    assert formulas.delsarte_N(2, 1, 2, 2, 2) == 4


def test_affine_weight_transfers_to_what_r():
    # For the rank-<=1 code, the affine weight of a rank-r form is exactly
    # (q - 1) times the projective weight.
    for q in (2, 3, 4):
        for l in (1, 2, 3):
            for m in range(l, 5):
                for r in range(1, l + 1):
                    assert formulas.affine_weight(1, r, l, m, q) == (
                        q - 1
                    ) * formulas.what_r(l, m, r, q)


# ---------------------------------------------------------------------------
# Closed weight enumerator vs exhaustive enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["projective", "affine"])
def test_closed_vs_brute_enumerator(mode):
    for q in (2, 3):
        field = _field_for(q)
        for l in (1, 2):
            for m in range(l, 4):
                for t in range(1, l + 1):
                    closed = formulas.closed_weight_enumerator(t, l, m, q, mode)
                    brute = detcode.brute_weight_enumerator(field, l, m, t, mode)
                    assert closed.as_dict() == brute.as_dict(), (q, l, m, t, mode)


# Every (q, l, m) whose whole space is at most 2^16 matrices.
RANDOM_SPACES = [
    (q, l, m)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for l in range(1, 5)
    for m in range(l, 17)
    if q ** (l * m) <= 1 << 16
]


@settings(max_examples=25, deadline=5000, database=None)
@given(st.sampled_from(RANDOM_SPACES))
def test_closed_vs_brute_on_random_spaces(space):
    q, l, m = space
    field = _field_for(q)
    for mode in ("affine", "projective"):
        for t in range(1, l + 1):
            closed = formulas.closed_weight_enumerator(t, l, m, q, mode)
            brute = detcode.brute_weight_enumerator(field, l, m, t, mode)
            assert closed.pairs == brute.pairs, (q, l, m, t, mode)
    _, trace_counts = detcode.rank_trace_counts(field, l, m, l, "affine")
    for t in range(l + 1):
        for r in range(l + 1):
            assert trace_counts[t, r] == formulas.delsarte_N(t, r, l, m, q), (q, l, m, t, r)


def test_closed_enumerator_examples():
    assert formulas.closed_weight_enumerator(1, 2, 2, 2, "projective").as_dict() == {
        0: 1,
        4: 9,
        6: 6,
    }
    assert formulas.closed_weight_enumerator(2, 2, 2, 2, "projective").as_dict() == {
        0: 1,
        8: 15,
    }
    assert formulas.closed_weight_enumerator(1, 2, 3, 2, "projective").as_dict() == {
        0: 1,
        8: 21,
        12: 42,
    }


def test_closed_enumerator_totals():
    for q in (2, 3, 4):
        for l in (1, 2):
            for m in range(l, 4):
                for t in range(1, l + 1):
                    for mode in ("projective", "affine"):
                        rep = formulas.closed_weight_enumerator(t, l, m, q, mode)
                        assert rep.total == q ** (l * m)
                        assert rep.total == sum(c for _, c in rep.pairs)


def test_closed_enumerator_rejects_bad_mode_and_params():
    with pytest.raises(BadParameters):
        formulas.closed_weight_enumerator(1, 2, 2, 2, "spherical")
    with pytest.raises(BadParameters):
        formulas.closed_weight_enumerator(0, 2, 2, 2, "affine")
    with pytest.raises(BadParameters):
        formulas.closed_weight_enumerator(3, 2, 2, 2, "affine")


# ---------------------------------------------------------------------------
# Griesmer-style floor for the higher-weight hierarchy
# ---------------------------------------------------------------------------


def test_griesmer_wei_examples():
    assert formulas.griesmer_wei(4, 1, 2) == 4
    assert formulas.griesmer_wei(4, 2, 2) == 6
    assert formulas.griesmer_wei(4, 3, 2) == 7
    assert formulas.griesmer_wei(8, 4, 2) == 15
    assert formulas.griesmer_wei(6, 2, 3) == 8
    with pytest.raises(BadParameters):
        formulas.griesmer_wei(0, 1, 2)


def test_griesmer_wei_strictly_below_actual_at_r4():
    # l=2, m=3, q=2: the floor at r=4 is 15 but the true fourth higher
    # weight is 18, so the floor alone is not tight past r = m.
    assert formulas.griesmer_wei(8, 4, 2) == 15
    field = gf.make_field(2, 1)
    assert detcode.brute_ghw(field, 2, 3, 1, "projective", 4) == 18


# ---------------------------------------------------------------------------
# ghw_t1: the higher-weight hierarchy of the projective rank-<=1 code
# ---------------------------------------------------------------------------


def test_ghw_t1_exact_small_ranks():
    for q in (2, 3, 4):
        for l in (1, 2, 3):
            for m in range(l, 4):
                d1 = formulas.what_r(l, m, 1, q)
                for r in range(1, m + 1):
                    res = formulas.ghw_t1(l, m, r, q)
                    assert res.kind == "exact"
                    assert res.value == formulas.griesmer_wei(d1, r, q)
                    assert res.sources == ("griesmer-wei-met",)


def test_ghw_t1_rank_boundary_and_top():
    for q in (2, 3):
        for l in (2, 3):
            for m in range(l, 4):
                d_hat_m = q ** (l - 1) * (q**m - 1) // (q - 1)
                res = formulas.ghw_t1(l, m, m + 1, q)
                assert res.kind == "exact"
                assert res.value == d_hat_m + q ** (l + m - 3)
                n_hat = counting.lengths(l, m, 1, q)[1]
                top = formulas.ghw_t1(l, m, l * m, q)
                assert top.kind == "exact"
                assert top.value == n_hat


def test_ghw_t1_contains_brute_hierarchy():
    # l=2, m=3, q=2: exhaustive hierarchy is (8, 12, 14, 18, 20, 21).
    expect = [8, 12, 14, 18, 20, 21]
    for r, val in enumerate(expect, start=1):
        res = formulas.ghw_t1(2, 3, r, 2)
        assert res.contains(val), (r, res, val)
    # r = 5 is only bounded, and the bounds are honest: 20 <= 20 <= 21.
    mid = formulas.ghw_t1(2, 3, 5, 2)
    assert mid.kind == "bounds"
    assert mid.lower == 20 and mid.upper == 21


def test_ghw_t1_exact_values_strictly_increase():
    for q in (2, 3):
        for l, m in [(2, 2), (2, 3), (3, 3)]:
            prev = 0
            for r in range(1, l * m + 1):
                res = formulas.ghw_t1(l, m, r, q)
                lo = res.value if res.kind == "exact" else res.lower
                hi = res.value if res.kind == "exact" else res.upper
                assert lo <= hi
                assert hi > prev or res.kind == "bounds"
                if res.kind == "exact":
                    assert lo > prev
                    prev = lo


def test_ghw_t1_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        formulas.ghw_t1(2, 2, 0, 2)
    with pytest.raises(BadParameters):
        formulas.ghw_t1(2, 2, 5, 2)
    with pytest.raises(BadParameters):
        formulas.ghw_t1(1, 3, 4, 2)  # r > m needs at least two rows


# ---------------------------------------------------------------------------
# Witness subcodes realize the exact values / upper bounds
# ---------------------------------------------------------------------------


def test_witness_subcode_shape_and_independence():
    for l, m in [(2, 2), (2, 3), (3, 3)]:
        for r in range(1, l + m):
            basis = formulas.witness_subcode(l, m, r, 2)
            assert basis.shape == (r, l * m)
            field = gf.make_field(2, 1)
            assert int(rank_batch(field, basis[None, :, :])[0]) == r
    with pytest.raises(BadParameters):
        formulas.witness_subcode(2, 2, 4, 2)


def test_witness_subcode_support_weights():
    for q, l, m in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        field = _field_for(q)
        dom = detcode.make_domain(field, l, m, 1, "projective")
        for r in range(1, l + m):
            basis = formulas.witness_subcode(l, m, r, q)
            got = detcode.support_weight(dom, basis)
            res = formulas.ghw_t1(l, m, r, q)
            if res.kind == "exact":
                assert got == res.value, (q, l, m, r)
            else:
                assert res.lower <= got <= res.upper
                assert got == res.upper  # the witness achieves the upper bound


# ---------------------------------------------------------------------------
# Determinant-hypersurface minimum-distance floor
# ---------------------------------------------------------------------------


def test_serre_example_values():
    assert formulas.serre_example_bound(2, 2) == 4
    assert formulas.serre_example_bound(2, 3) == 9
    assert formulas.serre_example_bound(3, 2) == 88
    with pytest.raises(BadParameters):
        formulas.serre_example_bound(1, 2)


def test_serre_floor_below_true_min_distance():
    # The projective rank-<l code on square l x l matrices has minimum
    # distance at least the floor; at l = 2 the floor is attained.
    for q in (2, 3, 4, 5):
        rep = formulas.closed_weight_enumerator(1, 2, 2, q, "projective")
        assert rep.min_distance() == formulas.serre_example_bound(2, q)
    rep = formulas.closed_weight_enumerator(2, 3, 3, 2, "projective")
    assert rep.min_distance() >= formulas.serre_example_bound(3, 2)
