"""Exact arithmetic in GF(p^h) with deterministic construction.

A field element is an integer code in [0, q): the base-p digits of the
code are the coefficients of the element over the polynomial basis
1, x, x^2, ..., x^(h-1).  The modulus is the first monic irreducible of
degree h in low-degree-first lexicographic coefficient order, so the
same (p, h) always yields the same field, bit for bit.

Multiplication, inversion and powers run on exp/log tables over a fixed
generator (O(q) memory).  Addition is an xor in characteristic 2, a
q x q table for small odd-characteristic fields, and digit arithmetic
otherwise.  Field objects are immutable after construction and cached
by (p, h); they are safe to share between threads and pickle cheaply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

DEFAULT_MAX_ORDER = 1 << 20
_ADD_TABLE_MAX = 1 << 10


class SoundnessError(RuntimeError):
    """A verified mathematical invariant failed; indicates a bug, never data."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _gfp_polymod(num, den, p):
    """Remainder of num by den over GF(p); coefficient lists, low degree first."""
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            c = (c * inv_lead) % p
            for i in range(dn + 1):
                num[k - dn + i] = (num[k - dn + i] - c * den[i]) % p
    while num and num[-1] == 0:
        num.pop()
    return num


def _gfp_irreducible(coeffs, p):
    """Brute-force irreducibility over GF(p): trial division by every monic
    polynomial of degree 1..deg/2.  Adequate for desk-scale degrees."""
    h = len(coeffs) - 1
    for d in range(1, h // 2 + 1):
        for code in range(p ** d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)
            if not _gfp_polymod(coeffs, div, p):
                return False
    return True


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Field:
    """GF(p^h) on integer codes.  Use :func:`make_field`, not the constructor,
    so that equal parameters share one instance."""

    __slots__ = ("p", "h", "q", "modulus", "_exp", "_log", "_neg_t", "_add_rows")

    def __init__(self, p: int, h: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if h < 1:
            raise ValueError(f"h = {h} must be positive")
        self.p = p
        self.h = h
        self.q = p ** h
        self.modulus = self._find_modulus()
        self._build_neg()
        self._build_add()
        self._build_exp_log()

    # -- construction ------------------------------------------------------

    def _find_modulus(self):
        p, h = self.p, self.h
        for code in range(p ** h):
            coeffs = []
            c = code
            for _ in range(h):
                coeffs.append(c % p)
                c //= p
            # low-degree-first lexicographic order wants the constant term to
            # vary slowest, which is the reverse of base-p digit order
            coeffs = coeffs[::-1]
            cand = tuple(coeffs) + (1,)
            if _gfp_irreducible(cand, p):
                return cand
        raise SoundnessError("no irreducible modulus found")  # pragma: no cover

    def _build_neg(self):
        p, q = self.p, self.q
        if p == 2:
            self._neg_t = None
            return
        neg = [0] * q
        for a in range(q):
            c, out, mult = a, 0, 1
            for _ in range(self.h):
                out += ((p - c % p) % p) * mult
                c //= p
                mult *= p
            neg[a] = out
        self._neg_t = neg

    def _digit_add(self, a: int, b: int) -> int:
        p = self.p
        out, mult = 0, 1
        for _ in range(self.h):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _build_add(self):
        if self.p == 2 or self.q > _ADD_TABLE_MAX:
            self._add_rows = None
            return
        q = self.q
        self._add_rows = [[self._digit_add(a, b) for b in range(q)]
                          for a in range(q)]

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial-basis product, used only while building the log tables."""
        p, h, mod = self.p, self.h, self.modulus
        da = [0] * h
        c = a
        for i in range(h):
            da[i] = c % p
            c //= p
        db = [0] * h
        c = b
        for i in range(h):
            db[i] = c % p
            c //= p
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        prod = _gfp_polymod(prod, list(mod), p)
        out, mult = 0, 1
        for d in prod:
            out += d * mult
            mult *= p
        return out

    def _raw_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_exp_log(self):
        q = self.q
        if q == 2:
            gen = 1
        else:
            factors = _prime_factors(q - 1)
            gen = None
            for g in range(2, q):
                if all(self._raw_pow(g, (q - 1) // r) != 1 for r in factors):
                    gen = g
                    break
            if gen is None:  # pragma: no cover
                raise SoundnessError("no generator found")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        if x != 1:  # pragma: no cover
            raise SoundnessError("generator cycle did not close")
        self._exp = exp
        self._log = log

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        rows = self._add_rows
        if rows is not None:
            return rows[a][b]
        return self._digit_add(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._neg_t[a]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        rows = self._add_rows
        if rows is not None:
            return rows[a][self._neg_t[b]]
        return self._digit_add(a, self._neg_t[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        """a**e with the 0**0 = 1 convention; negative e inverts first."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def frobenius(self, a: int, times: int = 1) -> int:
        return self.pow(a, self.p ** times)

    # -- codec ---------------------------------------------------------------

    def coeffs(self, a: int):
        """Base-p digits of the code = coefficients on the polynomial basis."""
        out = []
        for _ in range(self.h):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        if len(coeffs) != self.h:
            raise ValueError(f"expected {self.h} coefficients")
        out, mult = 0, 1
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} out of range")
            out += c * mult
            mult *= self.p
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self):
        return hash((self.p, self.h))

    def __repr__(self):
        return f"Field({self.p}^{self.h})"

    def __str__(self):
        return f"{self.p}^{self.h}"

    def __reduce__(self):
        return (make_field, (self.p, self.h))


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, h: int) -> Field:
    return Field(p, h)


def make_field(p: int, h: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """The unique GF(p^h) instance for these parameters.

    The order bound protects the enumeration-based operations elsewhere in
    the package; raise it explicitly if you know what you are doing.
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if h < 1:
        raise ValueError(f"h = {h} must be positive")
    if p ** h > max_order:
        raise ValueError(f"field order {p}^{h} exceeds bound {max_order}")
    return _cached_field(p, h)


@dataclass(frozen=True)
class SubfieldEmbedding:
    """A subfield GF(p^e) of GF(p^h) together with its embedding.

    ``into_parent[code]`` is the parent code of the subfield element with
    that code; the image is exactly the fixed field of x -> x^(p^e).
    """
    order: int
    subfield: Field
    into_parent: tuple


def subfields(field: Field):
    """One entry per divisor e of h, ascending by order.

    Membership test: a lies in the subfield of order s iff a**s == a.
    """
    out = []
    p, h = field.p, field.h
    for e in range(1, h + 1):
        if h % e:
            continue
        small = make_field(p, e, max_order=field.q)
        if e == h:
            emb = tuple(range(field.q))
        else:
            beta = _modulus_root(field, small)
            emb = []
            for code in range(small.q):
                digits = small.coeffs(code)
                acc, power = 0, 1
                for d in digits:
                    acc = field.add(acc, field.mul(d, power))
                    power = field.mul(power, beta)
                emb.append(acc)
            emb = tuple(emb)
        out.append(SubfieldEmbedding(small.q, small, emb))
    return out


def _modulus_root(field: Field, small: Field) -> int:
    """Least root in the parent field of the subfield's modulus."""
    mod = small.modulus
    for a in range(field.q):
        acc, power = 0, 1
        for c in mod:
            if c:
                acc = field.add(acc, field.mul(c, power))
            power = field.mul(power, a)
        if acc == 0:
            return a
    raise SoundnessError(
        f"modulus of GF({small}) has no root in GF({field})")  # pragma: no cover


def subfield_elements(field: Field, s: int):
    """Sorted parent codes of the order-s subfield (fixed field of x -> x^s)."""
    orders = {p for p in _subfield_orders(field)}
    if s not in orders:
        raise ValueError(f"{s} is not a subfield order of GF({field})")
    return tuple(a for a in range(field.q) if field.pow(a, s) == a)


def _subfield_orders(field: Field):
    return tuple(field.p ** e for e in range(1, field.h + 1) if field.h % e == 0)


def subfield_orders(field: Field):
    """All subfield orders p^e with e | h, ascending."""
    return _subfield_orders(field)


def prime_power_parts(q: int):
    """(p, h) with q = p^h, or ValueError.  The least divisor of q is prime;
    q is a prime power iff that divisor exhausts it."""
    if q >= 2:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        h, m = 0, q
        while m % p == 0:
            m //= p
            h += 1
        if m == 1:
            return p, h
    raise ValueError(f"{q} is not a prime power")
