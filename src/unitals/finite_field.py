"""Table-backed arithmetic in GF(p^(2t)) and its index-2 subfield GF(q), q = p^t.

A field is built as GF(p)[X]/(f) for a monic irreducible f of degree 2t.  By
default f is the lexicographically smallest monic irreducible of that degree,
coefficients compared constant-term first, so element encodings are stable
across runs and machines (no Conway tables needed).  Elements are encoded as
integers e = sum(c_i * p**i) over the polynomial-basis coefficients c_i.

Multiplication, inversion, powering and Frobenius run on discrete-log tables
built eagerly at construction; addition is carry-free base-p digit addition
(plain XOR when p = 2).  Intended field sizes are small (p^(2t) <= 2^16).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

MAX_FIELD_SIZE = 1 << 16
_ADD_TABLE_LIMIT = 1 << 10


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == (n,)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials over GF(p): little-endian coefficient lists


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo b; b must be monic."""
    a = [c % p for c in a]
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return a[:db]


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a*b modulo the monic mod, coefficients mod p; p may be any modulus, e.g. p^k."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=deg):
            g = list(low) + [1]
            if not any(_poly_rem(list(f), g, p)):
                return False
    return True


@lru_cache(maxsize=None)
def _lex_smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
    # ascending lex on (c_0, ..., c_{d-1}); itertools.product varies the last
    # slot fastest, which is exactly constant-term-first comparison order
    for low in itertools.product(range(p), repeat=d):
        f = low + (1,)
        if _is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible of degree {d} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------


class FieldElem:
    """One element of a Field, identified by its integer encoding.

    Instances are interned per field (field.elem(e) returns a shared object),
    so equality and hashing are cheap.  Arithmetic between elements of
    different Field instances raises ValueError.
    """

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        self.field = field
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Polynomial-basis coefficients, little-endian, length 2t."""
        return tuple(self.field._enc_to_poly(self.enc))

    def _check(self, other) -> int:
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.field is not self.field:
            raise ValueError("mixed-field operands")
        return other.enc

    def __add__(self, other):
        f = self.field
        return f._elems[f.add_enc(self.enc, self._check(other))]

    def __sub__(self, other):
        f = self.field
        return f._elems[f.add_enc(self.enc, f.neg_enc(self._check(other)))]

    def __neg__(self):
        f = self.field
        return f._elems[f.neg_enc(self.enc)]

    def __mul__(self, other):
        f = self.field
        return f._elems[f.mul_enc(self.enc, self._check(other))]

    def __truediv__(self, other):
        f = self.field
        return f._elems[f.mul_enc(self.enc, f.inv_enc(self._check(other)))]

    def __pow__(self, k: int):
        f = self.field
        return f._elems[f.pow_enc(self.enc, k)]

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and other.field is self.field
            and other.enc == self.enc
        )

    def __hash__(self):
        return hash((id(self.field), self.enc))

    def __bool__(self):
        return self.enc != 0

    def __repr__(self):
        return f"GF({self.field.size}):{self.enc}"


class Field:
    """GF(p^(2t)) with eager discrete-log tables; q = p^t.

    Public element-level API returns interned FieldElem objects; the *_enc
    methods are the integer-encoding kernel used by the hot loops.
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...] | None = None):
        self.size = _field_size(p, t)
        self.p = p
        self.t = t
        self.degree = 2 * t
        self.q = p**t
        if modulus is None:
            modulus = _lex_smallest_irreducible(p, self.degree)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != self.degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree 2t")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = tuple(modulus)
        self._build_tables()
        self._elems = tuple(FieldElem(self, e) for e in range(self.size))
        self.zero = self._elems[0]
        self.one = self._elems[1]
        self.gen = self._elems[self.generator]
        self._conj = tuple(self.frob_enc(e, t) for e in range(self.size))  # x -> x^q
        self.subfield_encs = tuple(e for e in range(self.size) if self._conj[e] == e)
        assert len(self.subfield_encs) == self.q

    # -- table construction -------------------------------------------------

    def _enc_to_poly(self, e: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.degree):
            out.append(e % p)
            e //= p
        return out

    def _poly_to_enc(self, poly: list[int]) -> int:
        e = 0
        for c in reversed(poly):
            e = e * self.p + (c % self.p)
        return e

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _poly_mul_mod(
            self._enc_to_poly(a), self._enc_to_poly(b), list(self.modulus), self.p
        )
        return self._poly_to_enc(prod)

    def _pow_slow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            k >>= 1
        return r

    def _build_tables(self) -> None:
        n = self.size - 1
        factors = prime_factors(n)
        gen = 0
        for cand in range(2, self.size):
            if all(self._pow_slow(cand, n // r) != 1 for r in factors):
                gen = cand
                break
        assert gen, "no generator found"
        self.generator = gen
        exp = [0] * n
        log = [-1] * self.size
        acc = 1
        for i in range(n):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_slow(acc, gen)
        assert acc == 1, "generator order mismatch"
        self._exp = exp
        self._log = log
        # add_enc(a, b), chosen once per field: XOR, an add-table lookup, or digit addition
        self._add_table = None
        if self.p == 2:
            self.add_enc = operator.xor
        elif self.size <= _ADD_TABLE_LIMIT:
            table = self._add_table = [[self._add_digits(a, b) for b in range(self.size)] for a in range(self.size)]
            self.add_enc = lambda a, b: table[a][b]
        else:
            self.add_enc = self._add_digits
        self._neg_table = [self.mul_enc(a, self.p - 1) for a in range(self.size)]  # p - 1 encodes -1

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        shift = 1
        while a or b:
            out += ((a + b) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    # -- integer-encoding kernel --------------------------------------------

    def neg_enc(self, a: int) -> int:
        return self._neg_table[a]

    def mul_enc(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.size - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv_enc(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        n = self.size - 1
        return self._exp[-self._log[a] % n]

    def pow_enc(self, a: int, k: int) -> int:
        # exponents reduce mod p^(2t)-1 for nonzero bases
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0
        n = self.size - 1
        return self._exp[(self._log[a] * k) % n]

    def mat_vec_enc(self, M, v) -> tuple[int, ...]:
        """The product M v on encodings; M is a sequence of rows of encodings."""
        add, exp, log, n = self.add_enc, self._exp, self._log, self.size - 1
        logs = [(log[x], j) for j, x in enumerate(v) if x]
        out = []
        for row in M:
            acc = 0
            for lx, j in logs:
                if row[j]:
                    acc = add(acc, exp[(log[row[j]] + lx) % n])
            out.append(acc)
        return tuple(out)

    def conj_dot_enc(self, x, y) -> int:
        """sum_i conj(x_i) * y_i on encodings, conj(x) = x^q: the Hermitian product."""
        add, mul, conj = self.add_enc, self.mul_enc, self._conj
        acc = 0
        for a, b in zip(x, y):
            acc = add(acc, mul(conj[a], b))
        return acc

    def add_row_enc(self, b: int, xs: list[int]) -> list[int]:
        """[b + x for x in xs] on encodings, one add-table row per call; xs itself when b = 0."""
        if b == 0:
            return xs
        if self.p == 2:
            return [b ^ x for x in xs]
        if self._add_table is not None:
            return list(map(self._add_table[b].__getitem__, xs))
        return [self._add_digits(b, x) for x in xs]

    def multiples_enc(self, x: int) -> list[int]:
        """c*x for c = 0, g^0, g^1, ..., g^(size-2): 0, then _exp rotated by log x."""
        if x == 0:
            return [0] * self.size
        lx = self._log[x]
        return [0, *self._exp[lx:], *self._exp[:lx]]

    def frob_enc(self, a: int, k: int) -> int:
        if k < 0:
            raise ValueError("frobenius power must be >= 0")
        return self.pow_enc(a, pow(self.p, k, self.size - 1))  # p^k mod (size - 1) is never 0

    # -- element-level API ----------------------------------------------------

    @property
    def elements(self) -> tuple[FieldElem, ...]:
        return self._elems

    def elem(self, enc: int) -> FieldElem:
        if not 0 <= enc < self.size:
            raise ValueError(f"encoding {enc} out of range for GF({self.size})")
        return self._elems[enc]

    def from_coeffs(self, coeffs) -> FieldElem:
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        return self._elems[self._poly_to_enc(coeffs)]

    def __repr__(self):
        return f"Field(p={self.p}, t={self.t}, modulus={self.modulus})"


def _field_size(p: int, t: int) -> int:
    """p^(2t) for t >= 1 and a prime p; the size bound comes before trial division."""
    if t < 1:
        raise ValueError(f"t = {t} must be >= 1")
    # the first two tests keep p ** (2 * t) from being computed for a huge p or t
    if p > MAX_FIELD_SIZE or 2 * t > MAX_FIELD_SIZE.bit_length() or p ** (2 * t) > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{2 * t} exceeds {MAX_FIELD_SIZE}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p ** (2 * t)


@lru_cache(maxsize=None)
def _cached_field(p: int, t: int, modulus: tuple[int, ...]) -> Field:
    return Field(p, t, modulus)


def make_field(p: int, t: int, modulus: tuple[int, ...] | None = None) -> Field:
    """Construct (and cache) GF(p^(2t)); equal field parameters give the same object.

    Passing the default modulus explicitly and passing None hit the same cache
    entry, so Field identity can be relied on after serialization round trips.
    """
    _field_size(p, t)
    if modulus is None:
        modulus = _lex_smallest_irreducible(p, 2 * t)
    else:
        modulus = tuple(c % p for c in modulus)
    return _cached_field(p, t, modulus)


def field_for_q(q: int) -> Field:
    """GF(q^2) for a prime power q, via the deterministic default modulus."""
    factors = prime_factors(q) if q * q <= MAX_FIELD_SIZE else ()  # bounded trial division
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power with q^2 <= {MAX_FIELD_SIZE}")
    p = factors[0]
    t = 1
    while p**t != q:
        t += 1
    return make_field(p, t)


# ---------------------------------------------------------------------------
# named maps on elements


def frobenius(x: FieldElem, k: int) -> FieldElem:
    """x^(p^k)."""
    return x.field._elems[x.field.frob_enc(x.enc, k)]


def norm_q(x: FieldElem) -> FieldElem:
    """Relative norm GF(q^2) -> GF(q): x^(q+1)."""
    return x.field._elems[x.field.pow_enc(x.enc, x.field.q + 1)]


def trace_q(x: FieldElem) -> FieldElem:
    """Relative trace GF(q^2) -> GF(q): x + x^q."""
    f = x.field
    return f._elems[f.add_enc(x.enc, f.frob_enc(x.enc, f.t))]


def abs_trace(x: FieldElem) -> int:
    """Absolute trace GF(q) -> GF(p), returned as an integer in [0, p)."""
    f = x.field
    if f._conj[x.enc] != x.enc:
        raise ValueError("abs_trace takes an element of the subfield GF(q)")
    acc = 0
    for i in range(f.t):
        acc = f.add_enc(acc, f.frob_enc(x.enc, i))
    if acc >= f.p:
        raise AssertionError("absolute trace not a prime-field scalar")
    return acc


def is_square(x: FieldElem) -> bool:
    """Whether x in GF(q) is a square there (q odd); 0 counts as a square."""
    f = x.field
    if f.p == 2:
        raise ValueError("is_square is for odd q only")
    if f._conj[x.enc] != x.enc:
        raise ValueError("is_square takes an element of the subfield GF(q)")
    if x.enc == 0:
        return True
    return f.pow_enc(x.enc, (f.q - 1) // 2) == 1
