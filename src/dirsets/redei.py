"""The Rédei polynomial pipeline for a point set U of AG(2,q).

The Rédei polynomial is R(X,Y) = prod over (a,b) in U of (X - aY + b);
its specialization R(X,y) records, through root multiplicities, how the
lines of slope y meet U.  Dividing X^q - X by R as a univariate in X
over the coefficient ring GF(q)[Y] yields a quotient and a tail T with

    R(X,Y) * Q(X,Y) = X^q + T(X,Y),      deg_X T < deg_X R.

For a determined slope y the specialized tail T(X,y) is a perfect
power: the algebraic modulus of y is the largest characteristic power
tau with T(X,y) = f(X)^tau for some f outside GF(q)[X^p].  For an
undetermined slope T(X,y) = -X.  The set-level algebraic modulus is the
minimum over the determined non-vertical slopes (the convention when
nothing qualifies is the field order, which happens exactly when the
vertical direction is the only one determined; t = q holds for every
single-direction set).

Sweeps never build the bivariate system: SlopeTable, the one table per
set that the statements read, computes the specializations one slope at
a time.  R(X,y) = prod over c of (X + c)^(m_c) is read off the line
profile of slope y, m_c points lying on the line of intercept c, and
likewise for the vertical direction q (lines X = c), so what a slope
yields depends only on its profile (s(y) and the outcome of
power-membership's checks at the slope included), and a sweep's tables
share it through one slope memo keyed by the profile's integer key,
which an exhaustive sweep's walk keeps up to date point by point.  The
alarms that depend on the profile alone run once per memo entry, the
ones that involve the set on every read (see SlopeTable).  Every
per-slope fact is read through SlopeTable (modulus, tail, power, kappa,
membership) and every set-level t through its alg; the statements read
the table itself, with no wrapper between.  t and deg_X T are affine
invariants (see SlopeTable), so no direction is moved to the vertical
one first.
RedeiSystem serves the `redei` verb and is the reference the tests
compare the table against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field, SoundnessError
from .geometry import AffinePointSet, LineTable, kept
from . import polys
from .polys import (p_add, p_degree, p_eval, p_frob_root, p_mul, p_neg,
                    p_sub, p_trim, in_power_basis, x_power_minus_x)

__all__ = [
    "BivariatePoly", "RedeiSystem", "SlopeTable", "TailData",
    "AlgebraicInvariants", "redei_polynomial", "redei_system",
    "specialized_redei", "specialized_tail", "tail_power", "root_count",
    "algebraic_invariants",
]


@dataclass(frozen=True)
class BivariatePoly:
    """Element of GF(q)[Y][X]: coeffs[i] is the Y-polynomial on X^i.

    Both layers are trimmed; the zero polynomial has empty coeffs.
    """

    field: Field
    coeffs: tuple

    @classmethod
    def of(cls, field: Field, coeffs) -> "BivariatePoly":
        rows = [p_trim(c) for c in coeffs]
        while rows and not rows[-1]:
            rows.pop()
        return cls(field, tuple(rows))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def deg_x(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> tuple:
        """Y-polynomial on X^i."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ()

    def specialize(self, y: int) -> tuple:
        """Univariate in X obtained by evaluating every Y-coefficient at y."""
        F = self.field
        return p_trim([p_eval(F, c, y) for c in self.coeffs])

    def add(self, other: "BivariatePoly") -> "BivariatePoly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        rows = [p_add(F, self.coefficient(i), other.coefficient(i)) for i in range(n)]
        return BivariatePoly.of(F, rows)

    def neg(self) -> "BivariatePoly":
        return BivariatePoly.of(self.field, [p_neg(self.field, c) for c in self.coeffs])

    def mul(self, other: "BivariatePoly") -> "BivariatePoly":
        F = self.field
        if self.is_zero or other.is_zero:
            return BivariatePoly(F, ())
        rows = [() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    if cj:
                        rows[i + j] = p_add(F, rows[i + j], p_mul(F, ci, cj))
        return BivariatePoly.of(F, rows)

    def terms(self):
        """Sparse term list [(code, x_exp, y_exp)] sorted by (x desc, y desc)."""
        out = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            row = self.coeffs[i]
            for j in range(len(row) - 1, -1, -1):
                if row[j]:
                    out.append((row[j], i, j))
        return out

    def render(self) -> str:
        """Human-readable form; '0' for the zero polynomial."""
        if self.is_zero:
            return "0"
        parts = []
        for c, i, j in self.terms():
            bits = []
            if c != 1 or (i == 0 and j == 0):
                bits.append(str(c))
            if i:
                bits.append("X" if i == 1 else f"X^{i}")
            if j:
                bits.append("Y" if j == 1 else f"Y^{j}")
            parts.append("*".join(bits))
        return " + ".join(parts)


def _bivariate_divmod(num: BivariatePoly, den: BivariatePoly):
    """Division in X over GF(q)[Y]; the divisor must be monic in X."""
    F = num.field
    dn = den.deg_x()
    lead = den.coefficient(dn)
    if lead != (1,):
        raise ValueError("divisor must be monic in X")
    rem = list(num.coeffs)
    quot = [()] * max(len(rem) - dn, 0)
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            quot[k - dn] = c
            for i in range(dn):
                bc = den.coefficient(i)
                if bc:
                    rem[k - dn + i] = p_sub(F, rem[k - dn + i], p_mul(F, c, bc))
            rem[k] = ()
    return BivariatePoly.of(F, quot), BivariatePoly.of(F, rem[:dn] if dn else [])


def redei_polynomial(U: AffinePointSet) -> BivariatePoly:
    """prod over (a,b) in U of (X - aY + b), monic in X of degree |U|.

    The X^(n-k) coefficient is the k-th elementary symmetric polynomial of
    the linear forms b - aY, so its Y-degree is at most k.
    """
    if not U.points:
        raise ValueError("Rédei polynomial of the empty set")
    F = U.field
    rows = [(1,)]  # the constant polynomial 1, as X^0 coefficient list
    for a, b in sorted(U.points):
        lin = p_trim((b, F.neg(a)))  # b - aY
        new = [()] * (len(rows) + 1)
        for i, c in enumerate(rows):
            if c:
                new[i + 1] = p_add(F, new[i + 1], c)
                if lin:
                    new[i] = p_add(F, new[i], p_mul(F, c, lin))
        rows = new
    return BivariatePoly.of(F, rows)


@dataclass(frozen=True)
class RedeiSystem:
    """R, Q and the tail T with R*Q = X^q + T and deg_X T < deg_X R."""

    field: Field
    n: int
    redei: BivariatePoly
    quotient: BivariatePoly
    tail: BivariatePoly

    def sigma(self, k: int) -> tuple:
        """Y-coefficient on X^(n-k) of R (k-th elementary symmetric form)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"sigma index {k} outside [0, {self.n}]")
        return self.redei.coefficient(self.n - k)

    def sigma_star(self, k: int) -> tuple:
        """Y-coefficient on X^(q-n-k) of the quotient."""
        d = self.field.q - self.n
        if not 0 <= k <= d:
            raise ValueError(f"sigma* index {k} outside [0, {d}]")
        return self.quotient.coefficient(d - k)

    def deg_x_tail(self) -> int:
        return self.tail.deg_x()


def redei_system(U: AffinePointSet, verify: bool = True) -> RedeiSystem:
    """Divide X^q - X by the Rédei polynomial over GF(q)[Y].

    Requires 1 <= |U| <= q so the quotient is monic of degree q - |U|.
    With verify=True the product identity and the structural facts about
    the tail and the quotient coefficients are re-checked exactly.
    """
    F = U.field
    n = len(U)
    if not 1 <= n <= F.q:
        raise ValueError(f"need 1 <= |U| <= q, got |U| = {n}, q = {F.q}")
    R = redei_polynomial(U)
    dividend_rows = [() for _ in range(F.q + 1)]
    dividend_rows[1] = (F.neg(1),)
    dividend_rows[F.q] = (1,)
    dividend = BivariatePoly.of(F, dividend_rows)
    Q, rem = _bivariate_divmod(dividend, R)
    # remainder is -X - T, so T = -(remainder + X)
    x_row = [(), (1,)]
    tail = rem.add(BivariatePoly.of(F, x_row)).neg()
    sys = RedeiSystem(F, n, R, Q, tail)
    if verify:
        _verify_system(sys)
    return sys


def _verify_system(sys: RedeiSystem) -> None:
    F = sys.field
    q, n = F.q, sys.n
    if sys.redei.deg_x() != n or sys.redei.coefficient(n) != (1,):
        raise SoundnessError("Rédei polynomial is not monic of degree |U|")
    if sys.quotient.deg_x() != q - n or sys.quotient.coefficient(q - n) != (1,):
        raise SoundnessError("quotient is not monic of degree q - |U|")
    lhs = sys.redei.mul(sys.quotient)
    rhs_rows = [sys.tail.coefficient(i) for i in range(q + 1)]
    rhs_rows[q] = p_add(F, rhs_rows[q], (1,))
    if lhs != BivariatePoly.of(F, rhs_rows):
        raise SoundnessError("product identity R*Q = X^q + T failed")
    if n >= 2:
        if sys.tail.deg_x() >= n:
            raise SoundnessError("tail degree reaches deg_X R")
    else:
        # singleton set: the remainder carries a multiple of Y^q - Y which
        # vanishes at every field point, so the bivariate tail has X-degree
        # 1 = deg_X R while every specialization is still -X
        if sys.tail.deg_x() > 1:
            raise SoundnessError("singleton tail degree exceeds 1")
        minus_x = p_trim((0, F.neg(1)))
        for y in range(q):
            if sys.tail.specialize(y) != minus_x:
                raise SoundnessError("singleton tail specialization is not -X")
    for i, row in enumerate(sys.tail.coeffs):
        if p_degree(row) > q - i:
            raise SoundnessError("tail Y-degree bound exceeded")
    for k in range(q - n + 1):
        if p_degree(sys.sigma_star(k)) > k:
            raise SoundnessError("quotient coefficient Y-degree bound exceeded")
    # the vanishing low tail coefficients pin the quotient coefficients:
    # sigma*_j = -(sum over i of sigma_i sigma*_{j-i}); the range is
    # 1 <= j <= q - n, shortened by one for a singleton set whose X^1 tail
    # coefficient does not vanish
    star = [(1,)]
    for j in range(1, (q - n if n >= 2 else q - 2) + 1):
        acc = ()
        for i in range(1, min(j, n) + 1):
            acc = p_add(F, acc, p_mul(F, sys.sigma(i), star[j - i]))
        star.append(p_neg(F, acc))
        if star[j] != sys.sigma_star(j):
            raise SoundnessError("quotient coefficients break the recurrence")


def specialized_redei(F: Field, profile) -> tuple:
    """R(X, y) = prod over intercepts c of (X + c)^(m_c), where m_c =
    profile[c] counts the points on the line Y = yX + c, or on X = c for
    the vertical direction y = q: it depends on q and the profile only."""
    add, mul = F.add, F.mul
    r = [1]
    for c, m in enumerate(profile):
        for _ in range(m):
            # multiply the monic r by X + c, highest coefficient first
            r.append(1)
            for i in range(len(r) - 2, 0, -1):
                r[i] = add(r[i - 1], mul(c, r[i]))
            r[0] = mul(c, r[0])
    return tuple(r)


def specialized_tail(U, y: int):
    """T(X, y) of U, a point set or a table, from R(X, y).

    -X - T(X,y) is the remainder of X^q - X by R(X,y); this commutes with
    the bivariate division because R is monic in X.  Much cheaper than
    building the full system when only one slope matters.
    """
    F = U.field
    r_y = specialized_redei(F, LineTable.of(U).profile(y))
    rem = polys.p_mod(F, x_power_minus_x(F), r_y)
    return p_neg(F, p_add(F, rem, (0, 1)))


def tail_power(tail, field: Field):
    """(modulus, root) for a specialized tail on a determined slope.

    The modulus is the largest characteristic power tau such that the tail
    is f(X)^tau with f outside GF(q)[X^p]; equivalently the p-part of the
    gcd of its exponents.  A constant tail yields (q, None) -- the
    single-direction convention.
    """
    F = field
    t_y = tuple(tail)
    if p_degree(t_y) <= 0:
        return F.q, None
    g = polys.p_power_gcd(t_y)
    tau = 1
    while g % F.p == 0:
        tau *= F.p
        g //= F.p
    root = p_frob_root(F, t_y, tau)
    polys.assert_power_root(F, t_y, tau, root)
    if in_power_basis(root, F.p):
        raise SoundnessError("power root unexpectedly lies in GF(q)[X^p]")
    if tau >= F.q:
        raise SoundnessError("tail modulus reached the field order")
    return tau, root


def root_count(tail, field: Field) -> int:
    """Roots of X^q + T(X,y) in GF(q), counted with multiplicity."""
    poly = p_add(field, polys.p_monomial(field.q), tail)
    return polys.count_roots_with_multiplicity(field, poly)


@dataclass(frozen=True)
class TailData:
    modulus: int
    root: tuple | None
    tail_degree: int


# the most profiles one slope memo keeps; a sweep at q <= 8 stays below it
# (at most C(2q, q) profiles have |U| <= q), while q = 16 has C(32, 16)
SLOPE_MEMO_CAP = 1 << 14


class _SlopeAlgebra:
    """What a line profile fixes: s(y), set when the entry is made, and
    T(X,y), its TailData, kappa(y) and the power-membership outcome
    (determined, ok, note) of slope y, each None until first read."""

    __slots__ = ("modulus", "tail", "power", "kappa", "membership")

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.tail = self.power = self.kappa = self.membership = None


class SlopeTable(LineTable):
    """The line table of one point set plus its Rédei specializations, at
    every direction code including the vertical q.

    R(X,y) = prod over c of (X + c)^(m_c) depends only on q and the
    profile (m_0, ..., m_(q-1)) of direction y, and so do T(X,y), Q(X,y),
    t(y), the power root, deg T(X,y) and kappa(y).  So does the outcome of
    power-membership at slope y: y is determined iff some m_c >= 2, its
    geometric modulus s(y) is gcd(q, m_0, ..., m_(q-1)), the sharper
    quotient bound depends on |U| = m_0 + ... + m_(q-1), and the checks
    read only R(X,y), Q(X,y) and T(X,y).  They are kept in a slope memo
    keyed by the profile's key, sum of m_c (q+1)^c (geometry.profile_key;
    one integer per profile, as 0 <= m_c <= q).  An entry is made on the
    first read of any of them and holds s(y) from then on, so geo reads
    s(y) off the memo (modulus(y)); T(X,y), its TailData, kappa(y) and
    that outcome are filled on first read.  Each read probes the memo
    once, and only this class reads or writes an entry.  A sweep passes
    one memo to every table it builds, so a profile that recurs across
    sets is divided out once; a table built without one gets its own.  A
    memo serves one field.  It stores at most SLOPE_MEMO_CAP profiles;
    past that, a read of a new profile computes what it needs and stores
    nothing.

    The alarms that depend on the profile alone run once per entry, when
    its TailData is filled: a determined slope with the tail -X of a free
    one, and s(y) > t(y).  A failed check leaves the entry unfilled, so
    it fires again on every later read.  The checks that involve the set
    itself run on every read: 1 <= |U| <= q for any read that needs the
    tail, y determined for power, kappa(y) >= |U| on a determined
    direction, and s <= t in aggregate (algebraic_invariants).

    The bivariate system specializes slope by slope, R(X,y) Q(X,y) =
    X^q + T(X,y), so its set-level facts are read off the q specialized
    tails.  On X^i, i >= 1, the Y-coefficient of T has degree at most
    q - i < q, so it vanishes at every field value only when it is zero:
    deg_X T is the largest deg T(X,y) (for |U| >= 2, where deg_X T >= 1),
    and the X-exponents of T from 1 up are the union of those of the
    T(X,y).  Tails need 1 <= |U| <= q.

    The paper first moves a determined direction to the vertical one.
    That is not needed: the least t(y) over D and the largest deg T(X,y)
    over all q + 1 directions are each reached at two directions or more,
    so setting any one direction aside changes neither, and both are
    affine invariants.  A collineation keeps each direction's t(y) and
    deg T(X,y), so a direction may be taken to be a slope.  Let
    2 <= |U| <= q, |D| >= 2 and T = sum of c_i(Y) X^i, deg c_i <= q - i.
    (a) Were a slope v alone in reaching the least t(v) = tau, take an
    exponent i of T(X,v) with p tau not dividing i.  At every other slope
    y, c_i(y) = 0 for i >= 2: t(y) >= p tau divides the exponents of
    T(X,y) on D, and T(X,y) = -X off D.  Then c_i has q - 1 > q - i roots
    and is zero, so i = 1, tau = 1 and T(X,v) = aX + g(X^p) with a != 0.
    But R(X,v) has a double root r, at which the X-derivative of
    R(X,v) Q(X,v) = X^q + T(X,v), the constant a, vanishes.  (b) Were v alone in reaching degree d >= 2,
    c_d would vanish at the q - 1 other slopes, so c_d = 0.  For d <= 1
    every tail has degree 1, since a constant tail forces |D| = 1.  With
    |D| = 1 the least t is q and the other tails are -X either way.
    """

    def __init__(self, U: AffinePointSet, memo: dict | None = None, lines=None):
        super().__init__(U, lines)
        self._memo = {} if memo is None else memo
        self._sized = 1 <= len(U.points) <= U.field.q

    def _entry(self, y: int) -> _SlopeAlgebra:
        """The memo entry of direction y's profile, made with s(y)."""
        key = self.key(y)
        entry = self._memo.get(key)
        if entry is None:
            entry = _SlopeAlgebra(super().modulus(y))
            if len(self._memo) < SLOPE_MEMO_CAP:
                self._memo[key] = entry
        return entry

    def _algebra(self, y: int) -> _SlopeAlgebra:
        """The memo entry of direction y's profile, its tail filled."""
        if not self._sized:
            raise ValueError(f"need 1 <= |U| <= q, got |U| = {len(self.U)}, "
                             f"q = {self.field.q}")
        entry = self._entry(y)
        if entry.tail is None:
            entry.tail = specialized_tail(self, y)
        return entry

    def modulus(self, y: int) -> int:
        """s(y), read off the memo entry."""
        return self._entry(y).modulus

    def tail(self, y: int) -> tuple:
        """T(X, y) at a direction code y."""
        return self._algebra(y).tail

    def power(self, y: int) -> TailData:
        """t(y), the power root and deg T(X,y) on a determined direction,
        where T(X,y) = -X would contradict the theory, and so would
        s(y) > t(y)."""
        if y not in self.dirs.determined:
            raise ValueError(f"direction {y} is not determined")
        entry = self._algebra(y)
        if entry.power is None:
            F = self.field
            t_y = entry.tail
            if t_y == (0, F.neg(1)):
                raise SoundnessError("determined slope produced an undetermined tail")
            tau, root = tail_power(t_y, F)
            if entry.modulus > tau:
                raise SoundnessError("geometric modulus exceeds algebraic modulus")
            entry.power = TailData(tau, root, p_degree(t_y))
        return entry.power

    def kappa(self, y: int) -> int:
        """Roots of X^q + T(X,y) in GF(q) with multiplicity; at least |U| on
        a determined direction."""
        entry = self._algebra(y)
        if entry.kappa is None:
            entry.kappa = root_count(entry.tail, self.field)
        k = entry.kappa
        if y in self.dirs.determined and k < len(self.U):
            raise SoundnessError("root count below |U| on a determined slope")
        return k

    def membership(self, y: int) -> tuple:
        """(determined, ok, note) of power-membership's checks at slope y:
        for a determined slope both Q(X,y) and T(X,y) lie in GF(q)[X^m] for
        its modulus m, and Q(X,y) avoids GF(q)[X^(p m)] when
        deg R <= deg Q; for a free one R(X,y) Q(X,y) = X^q - X and Q(X,y)
        splits into distinct linear factors."""
        entry = self._algebra(y)
        if entry.membership is None:
            F = self.field
            r_y, q_y = self.specialization(y)
            if y in self.dirs.determined:
                m = entry.modulus
                ok = in_power_basis(q_y, m) and in_power_basis(entry.tail, m)
                note = f"modulus {m}"
                if len(self.U) <= F.q - len(self.U):
                    ok = ok and not in_power_basis(q_y, F.p * m)
                    note += ", sharper quotient bound applies"
                entry.membership = True, ok, note
            else:
                ok = (p_mul(F, r_y, q_y) == x_power_minus_x(F)
                      and polys.splits_into_distinct_roots(F, q_y))
                entry.membership = False, ok, "split check"
        return entry.membership

    def specialization(self, y: int):
        """(R(X,y), Q(X,y)) with Q(X,y) the quotient of X^q - X by R(X,y);
        not kept, since power-membership keeps its outcome instead."""
        F = self.field
        r_y = specialized_redei(F, self.profile(y))
        return r_y, polys.p_div(F, x_power_minus_x(F), r_y)

    @kept
    def deg_x_tail(self) -> int:
        """deg_X T, the largest deg T(X,y) over the slopes, for |U| >= 2."""
        return max(p_degree(self.tail(y)) for y in range(self.field.q))

    @kept
    def alg(self) -> "AlgebraicInvariants":
        return algebraic_invariants(self)


@dataclass(frozen=True)
class AlgebraicInvariants:
    """Per-slope tail data over the determined non-vertical slopes.

    The aggregate modulus t is the least of their moduli, or the field
    order when no non-vertical slope is determined.  It is also the least
    t(y) over all of D, the vertical direction included (see SlopeTable).
    SlopeTable.alg holds a set's; every reader of t takes it from there.
    """

    per_direction: dict
    modulus: int


def algebraic_invariants(U) -> AlgebraicInvariants:
    """Tail moduli of every determined non-vertical slope plus the aggregate.

    Also asserts the order relation between the geometric and algebraic
    moduli in aggregate; SlopeTable.power asserts it per direction.
    """
    table = SlopeTable.of(U)
    dirs = table.dirs
    if not dirs.determined:
        raise ValueError("no determined direction")
    per = {y: table.power(y) for y in dirs.affine()}
    modulus = min((d.modulus for d in per.values()), default=table.field.q)
    if table.geo.modulus > modulus:
        raise SoundnessError("aggregate geometric modulus exceeds algebraic one")
    return AlgebraicInvariants(per, modulus)
