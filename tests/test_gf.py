import builtins
import functools

import numpy as np
import pytest

from detcodes import gf, make_field, matq
from detcodes.errors import DegreeZero, DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime
from detcodes.gf import _is_irreducible, parse_q

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


def test_prime_fields():
    assert make_field(2, 1).q == 2
    assert make_field(3, 1).q == 3


def test_gf4_modulus_is_unique_irreducible_quadratic():
    f = make_field(2, 2)
    # oracle: trial division over all four monic quadratics over GF(2)
    irreducible = [
        poly
        for poly in [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        if _is_irreducible(list(poly), 2)
    ]
    assert irreducible == [(1, 1, 1)]  # X^2 + X + 1
    assert f.modulus == (1, 1, 1)


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(DegreeZero):
        make_field(2, 0)
    with pytest.raises(FieldTooLarge):
        make_field(2, 17)


def test_basic_arith_examples(f2, f3, f4):
    assert f2.add(1, 1) == 0
    assert f3.inv(2) == 2
    # X * X = X + 1 modulo X^2 + X + 1
    assert f4.mul(2, 2) == 3


def test_inv_of_zero_raises(f3):
    with pytest.raises(DivisionByZero):
        f3.inv(0)


def test_out_of_range_element_rejected(f3):
    with pytest.raises(FieldMismatch):
        f3.add(1, 5)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    f = make_field(p, e)
    q = f.q
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    if q <= 9:
        for a in els:
            for b in els:
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_frobenius(p, e):
    f = make_field(p, e)
    for a in range(f.q):
        assert f.pow(a, f.q) == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
def test_tables_agree_with_polynomial_arithmetic(p, e):
    f = make_field(p, e)
    t = f.tables
    for a in range(f.q):
        assert t.neg[a] == f.neg(a)
        if a:
            assert t.inv[a] == f.inv(a)
        for b in range(f.q):
            assert t.add[a, b] == f.add(a, b)
            assert t.sub[a, b] == f.sub(a, b)
            assert t.mul[a, b] == f.mul(a, b)


def test_prime_inverses_are_built_once_per_field(monkeypatch):
    builds = []
    real = gf.Field.__dict__["inverses"].func
    prop = functools.cached_property(lambda self: builds.append(self.q) or real(self))
    prop.__set_name__(gf.Field, "inverses")
    monkeypatch.setattr(gf.Field, "inverses", prop)
    f = gf.Field(p=65521, e=1, q=65521, modulus=(65520, 1))
    assert matq.rank(f, [[1, 2], [3, 4]]) == 2
    inv = f.inverses
    assert inv[0] == 0 and (inv[1:] * np.arange(1, 65521) % 65521 == 1).all()

    def no_pow(*args):
        raise AssertionError("inverses recomputed with pow")

    monkeypatch.setattr(builtins, "pow", no_pow)
    assert matq.rank(f, [[1, 2], [2, 4]]) == 1
    assert builds == [65521]


def test_parse_q():
    assert parse_q("3").q == 3
    assert parse_q("2^3").q == 8
    assert parse_q("9").q == 9 and parse_q("9").p == 3
    with pytest.raises(NotPrime):
        parse_q("6")


def test_parse_q_checks_size_before_factoring(monkeypatch):
    calls = []
    real = gf._is_prime
    monkeypatch.setattr(gf, "_is_prime", lambda n: calls.append(n) or real(n))
    with pytest.raises(FieldTooLarge):
        parse_q("1000003")
    assert calls == []


def test_element_rendering_roundtrip(f4):
    # the external representation is the decimal index
    assert str(3) == "3" and int("3") == 3
    assert f4.index(f4.digits(3)) == 3
