"""Dense univariate polynomials over a Field.

A polynomial is a tuple of integer codes, low degree first, with no
trailing zeros; () is the zero polynomial.  All functions take the field
as first argument and never mutate their inputs.
"""

from __future__ import annotations

from math import gcd

from .field import Field, SoundnessError


def p_trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def p_degree(a) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def p_add(F: Field, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    add = F.add
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return p_trim(out)


def p_neg(F: Field, a) -> tuple:
    neg = F.neg
    return tuple(neg(c) for c in a)


def p_sub(F: Field, a, b) -> tuple:
    return p_add(F, a, p_neg(F, b))


def p_scale(F: Field, a, k: int) -> tuple:
    if k == 0:
        return ()
    mul = F.mul
    return tuple(mul(c, k) for c in a)


def p_mul(F: Field, a, b) -> tuple:
    if not a or not b:
        return ()
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return p_trim(out)


def p_divmod(F: Field, a, b) -> tuple:
    """(quotient, remainder) with deg r < deg b; b need not be monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db and len(a) < len(b):
        return (), tuple(a)
    add, mul, neg = F.add, F.mul, F.neg
    inv_lead = F.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = rem[k]
        if c:
            c = mul(c, inv_lead)
            quot[k - db] = c
            nc = neg(c)
            for i in range(db + 1):
                if b[i]:
                    rem[k - db + i] = add(rem[k - db + i], mul(nc, b[i]))
    return p_trim(quot), p_trim(rem[:db])


def p_mod(F: Field, a, b) -> tuple:
    return p_divmod(F, a, b)[1]


def p_div(F: Field, a, b) -> tuple:
    return p_divmod(F, a, b)[0]


def p_eval(F: Field, a, x: int) -> int:
    add, mul = F.add, F.mul
    acc = 0
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def p_monic(F: Field, a) -> tuple:
    if not a or a[-1] == 1:
        return tuple(a)
    return p_scale(F, a, F.inv(a[-1]))


def p_gcd(F: Field, a, b) -> tuple:
    while b:
        a, b = b, p_mod(F, a, b)
    return p_monic(F, a)


def p_monomial(deg: int) -> tuple:
    return (0,) * deg + (1,)


def p_exponents(a):
    """Exponents carrying a nonzero coefficient, ascending."""
    return tuple(i for i, c in enumerate(a) if c)


def in_power_basis(a, m: int) -> bool:
    """True iff every monomial exponent of a is divisible by m."""
    return all(i % m == 0 for i, c in enumerate(a) if c)


def p_power_gcd(a) -> int:
    """gcd of the nonzero-coefficient exponents (0 for constants / zero)."""
    g = 0
    for i, c in enumerate(a):
        if c:
            g = gcd(g, i)
    return g


def p_frob_pow(F: Field, a, tau: int) -> tuple:
    """a(X)**tau for a power tau of the characteristic."""
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * tau + 1)
    for i, c in enumerate(a):
        if c:
            out[i * tau] = F.pow(c, tau)
    return tuple(out)


def p_frob_root(F: Field, a, tau: int) -> tuple:
    """The tau-th root of a polynomial whose exponents are multiples of tau.

    Coefficients map through c -> c**(q/tau), the inverse of x -> x**tau
    on GF(q).  Verified against p_frob_pow by the caller.
    """
    if not a:
        return ()
    root_pow = F.q // tau
    out = [0] * ((len(a) - 1) // tau + 1)
    for i, c in enumerate(a):
        if c:
            if i % tau:
                raise ValueError(f"exponent {i} not divisible by {tau}")
            out[i // tau] = F.pow(c, root_pow)
    return tuple(out)


def root_multiplicity(F: Field, a, x: int) -> int:
    """Multiplicity of x as a root, by repeated synthetic division."""
    count = 0
    coeffs = tuple(a)
    while coeffs and p_degree(coeffs) >= 1:
        quot, rem = _synth_div(F, coeffs, x)
        if rem != 0:
            break
        count += 1
        coeffs = quot
    return count


def _synth_div(F: Field, a, x: int):
    """Divide by (X - x): (quotient, remainder value)."""
    add, mul = F.add, F.mul
    acc = 0
    out = [0] * (len(a) - 1)
    for i in range(len(a) - 1, 0, -1):
        acc = add(mul(acc, x), a[i])
        out[i - 1] = acc
    rem = add(mul(acc, x), a[0])
    return p_trim(out), rem


def count_roots_with_multiplicity(F: Field, a) -> int:
    """Number of roots in GF(q) counted with multiplicity."""
    if not a:
        raise ValueError("root count of the zero polynomial")
    return sum(root_multiplicity(F, a, x) for x in range(F.q))


def x_power_minus_x(F: Field) -> tuple:
    """X^q - X over F."""
    out = [0] * (F.q + 1)
    out[1] = F.neg(1)
    out[F.q] = 1
    return tuple(out)


def splits_into_distinct_roots(F: Field, a) -> bool:
    """True iff a is a nonzero product of distinct linear factors over GF(q),
    tested via gcd with X^q - X."""
    if not a:
        return False
    return p_gcd(F, a, x_power_minus_x(F)) == p_monic(F, a)


def assert_power_root(F: Field, a, tau: int, root) -> None:
    if p_frob_pow(F, root, tau) != tuple(a):
        raise SoundnessError("extracted power root does not reproduce the polynomial")
