"""Exact arithmetic in GF(q) for prime and prime-power q.

Elements are canonical integer indices 0..q-1.  For q = p^e the base-p
digits of an index (little-endian, constant term least significant) are
the coefficients of the polynomial representative modulo a fixed monic
irreducible of degree e.  The modulus is chosen deterministically: the
irreducible whose coefficient tuple, read as a base-p integer, is
minimal, so all outputs are reproducible.

Scalar operations always go through polynomial arithmetic; the lookup
tables used by the batch kernels on extension fields are built
separately and validated against the scalar path in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    BadParameters,
    BudgetExceeded,
    DegreeZero,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
)

MAX_Q = 1 << 16
# Full q x q tables are only built for fields small enough that
# exhaustive enumeration is conceivable at all.
TABLE_MAX_Q = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- polynomial helpers over GF(p), little-endian coefficient lists --


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, b, p):
    """Remainder of a modulo b; b must be monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        if a[-1]:
            c = a[-1]
            shift = len(a) - 1 - db
            for i in range(len(b)):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
        _ptrim(a)
        if not a:
            break
    return a


def _monic_polys(p, d):
    """All monic polynomials of degree d over GF(p), little-endian."""
    for k in range(p**d):
        coeffs = []
        kk = k
        for _ in range(d):
            coeffs.append(kk % p)
            kk //= p
        yield coeffs + [1]


def _is_irreducible(poly, p):
    """Trial division against all monic polynomials of lower degree."""
    d = len(poly) - 1
    if d < 1:
        return False
    for dd in range(1, d // 2 + 1):
        for g in _monic_polys(p, dd):
            if not _pmod(poly, g, p):
                return False
    return True


@dataclass(frozen=True)
class Field:
    """GF(q) with q = p^e; immutable and safely shareable."""

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]  # little-endian, monic, length e+1

    # -- element <-> digit conversions --

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def index(self, digits) -> int:
        a = 0
        for c in reversed(list(digits)):
            a = a * self.p + (c % self.p)
        return a

    def _check(self, *els):
        for a in els:
            if not 0 <= a < self.q:
                raise FieldMismatch(f"element index {a} not in GF({self.q})")

    # -- scalar arithmetic (polynomial path) --

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.e == 1:
            return (a + b) % self.p
        return self.index((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        self._check(a)
        if self.e == 1:
            return (-a) % self.p
        return self.index((-x) % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.e == 1:
            return (a * b) % self.p
        prod = _pmul(_ptrim(self.digits(a)), _ptrim(self.digits(b)), self.p)
        return self.index(_pmod(prod, list(self.modulus), self.p) + [0] * self.e)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        self._check(a)
        if n < 0:
            a, n = self.inv(a), -n
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    # -- lookup tables for the batch kernels --

    @cached_property
    def tables(self) -> SimpleNamespace:
        q, p = self.q, self.p
        if q > TABLE_MAX_Q:
            raise BudgetExceeded(f"q={q} too large for table-backed kernels (max {TABLE_MAX_Q})")
        D, pows = self.prime_rep.digits, self.prime_rep.pows
        add = ((D[:, None, :] + D[None, :, :]) % p) @ pows
        neg = ((-D) % p) @ pows
        # multiplicative group via log/antilog over a generator
        g = self._generator()
        antilog = np.empty(q - 1, dtype=np.int64)
        x = 1
        for k in range(q - 1):
            antilog[k] = x
            x = self.mul(x, g)
        log = np.zeros(q, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int64)
        nz = np.arange(1, q)
        mul[1:, 1:] = antilog[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
        inv = np.zeros(q, dtype=np.int64)
        inv[antilog] = antilog[(-np.arange(q - 1)) % (q - 1)]
        sub = add[:, neg]
        return SimpleNamespace(
            add=np.ascontiguousarray(add, dtype=np.int32),
            sub=np.ascontiguousarray(sub, dtype=np.int32),
            mul=np.ascontiguousarray(mul, dtype=np.int32),
            neg=np.ascontiguousarray(neg, dtype=np.int32),
            inv=np.ascontiguousarray(inv, dtype=np.int32),
        )

    @cached_property
    def inverses(self) -> np.ndarray:
        """int64 array of a^-1 for every element a (0 maps to 0), built
        once per field.  Prime fields take a^(p-2) in numpy, so no q x q
        table is needed; extension fields read ``tables.inv``."""
        if self.e > 1:
            return self.tables.inv.astype(np.int64)
        p = self.p
        out = np.ones(p, dtype=np.int64)
        base = np.arange(p, dtype=np.int64)
        n = p - 2
        while n:
            if n & 1:
                out = out * base % p
            base = base * base % p
            n >>= 1
        out[0] = 0
        return out

    def _generator(self) -> int:
        for g in range(1, self.q):  # 1 generates only GF(2)'s group
            x, order = g, 1
            while x != 1:
                x = self.mul(x, g)
                order += 1
            if order == self.q - 1:
                return g
        raise AssertionError("no generator found; field construction is broken")

    @cached_property
    def prime_rep(self) -> SimpleNamespace:
        """Elements as vectors over the prime subfield.

        ``digits[a]`` is the coefficient vector of the element a in the
        basis 1, X, ..., X^(e-1), and ``digits @ pows`` maps such vectors
        back to indices.
        """
        D = np.array([self.digits(a) for a in range(self.q)], dtype=np.int64)
        return SimpleNamespace(digits=D, pows=self.p ** np.arange(self.e, dtype=np.int64))

    def __str__(self) -> str:
        return f"GF({self.q})" if self.e == 1 else f"GF({self.p}^{self.e})"


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> Field:
    """Construct GF(p^e) with the deterministically minimal modulus."""
    if not _is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if e < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > MAX_Q:
        raise FieldTooLarge(f"q={q} exceeds the enumeration budget (max {MAX_Q})")
    if e == 1:
        modulus = (p - 1, 1)  # placeholder X - 1, unused for prime fields
    else:
        modulus = None
        for cand in _monic_polys(p, e):
            if _is_irreducible(cand, p):
                modulus = tuple(cand)
                break
        assert modulus is not None
    return Field(p=p, e=e, q=q, modulus=modulus)


def parse_q(text: str) -> Field:
    """Parse 'p' or 'p^e' or a prime-power literal like '9' into a field."""
    text = text.strip()
    try:
        if "^" in text:
            ps, es = text.split("^", 1)
            return make_field(int(ps), int(es))
        q = int(text)
    except ValueError:
        raise BadParameters(f"q must be p, p^e or a prime power literal, got {text!r}") from None
    if q > MAX_Q:
        raise FieldTooLarge(f"q={q} exceeds the enumeration budget (max {MAX_Q})")
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            e = 0
            qq = q
            while qq % p == 0:
                qq //= p
                e += 1
            if qq != 1:
                raise NotPrime(f"q={q} is not a prime power")
            return make_field(p, e)
    raise NotPrime(f"q={q} is not a prime power")
