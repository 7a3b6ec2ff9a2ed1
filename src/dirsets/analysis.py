"""Verdict engine: refutable checks of the classification statements.

Each statement takes a concrete point set and returns a Verdict that
separates "hypotheses unmet" (applicable = False) from "conclusion
failed" (a check with holds = False).  Statements are checked, never
proven; on exhaustive sweeps a failed applicable verdict for a theorem
is an implementation alarm, while for a conjecture it is a genuine
counterexample.

Statement catalog (ids are stable interface tokens):

  thm-m                trichotomy bounding the direction count through
                       the geometric and algebraic moduli, for sets
                       missing at least one direction
  size-q-trichotomy    trichotomy for sets of exactly q points not
                       determining the vertical direction
  prime-dichotomy      prime order: collinear, or at least (|U|+3)/2
                       directions
  line-congruence      every projective line meets the set plus its
                       directions in 0 or 1 modulo the geometric modulus
  tail-degree-bound    the direction count exceeds the X-degree of the
                       division tail
  root-power-bound     per-slope root-count bound against the tail
                       modulus
  power-membership     specialized quotient and tail lie in the power
                       basis of the slope modulus
  power-span           X-exponents of X^q + T lie in {0, 1} or the
                       lattice of the algebraic modulus
  moduli-order         the geometric modulus never exceeds the algebraic
                       one
  conj-moduli-match    on maximal sets, slopes with tail modulus above 2
                       have equal moduli (reported, never asserted)
  conj-maximal-linear  maximal sets with equal moduli above 2 are
                       subfield linear (reported, never asserted)

All bound arithmetic is exact (integers and fractions); no floats.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .field import (Field, SoundnessError, make_field, prime_power_parts,
                    subfield_orders, subfields)
from .geometry import (AffinePointSet, LineTable, check_line_congruence,
                       direction_of, directions_of, format_direction,
                       is_maximal)
from .redei import SlopeTable
# the tails reach this module through SlopeTable; the name stays bound here
# because bench/spans.py wraps every module binding of a traced function
from .redei import specialized_tail  # noqa: F401
from .linsets import is_subfield_linear
from . import polys
from .polys import in_power_basis, p_degree, p_div, p_divmod, p_monomial, p_mul

__all__ = [
    "Check", "Verdict", "STATEMENTS", "verify_statement",
    "classify_direction_trichotomy", "classify_size_q_trichotomy",
    "classify_prime_dichotomy", "line_congruence_verdict",
    "tail_degree_bound", "root_power_bound", "moduli_order",
    "membership_verdict", "power_span_verdict",
    "conjecture_moduli_match", "conjecture_maximal_linearity",
    "quotient_extension", "ExtensionOutcome", "build_extension_instance",
    "nonlinear_maximal_example", "nonmaximal_linear_example", "section5_reports",
]


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


@dataclass(frozen=True)
class Check:
    label: str
    lhs: object
    rel: str
    rhs: object
    holds: bool

    def as_dict(self):
        return {"label": self.label, "lhs": _jsonable(self.lhs), "rel": self.rel,
                "rhs": _jsonable(self.rhs), "holds": self.holds}


@dataclass(frozen=True)
class Verdict:
    statement: str
    applicable: bool
    case: int | None = None
    checks: tuple = ()
    notes: tuple = ()
    # "pass", "fail" or "inapplicable", worked out once, when the verdict
    # is built, so every set that shares a cached verdict shares it too
    outcome: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "outcome", "inapplicable" if not self.applicable
                           else "pass" if all(c.holds for c in self.checks)
                           else "fail")

    @property
    def holds(self):
        """True/False when applicable, None otherwise."""
        return self.outcome == "pass" if self.applicable else None

    def as_dict(self):
        return {
            "statement": self.statement,
            "applicable": self.applicable,
            "case": self.case,
            "checks": [c.as_dict() for c in self.checks],
            "notes": list(self.notes),
        }


_RELATIONS = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _cmp(label, lhs, rel, rhs) -> Check:
    return Check(label, lhs, rel, rhs, _RELATIONS[rel](lhs, rhs))


# A verdict that is a function of a few integers is built once per
# distinct key by a functools.cache helper, and every set with that key
# shares it: Verdict is frozen and its fields are tuples.  The keys range
# over small integers (q, |U|, |D|, the moduli, ...), so the caches stay
# small; root-power-bound and power-membership, whose keys would be as
# large as their verdicts, build theirs per set.

@functools.cache
def _inapplicable(stmt: str, why: str) -> Verdict:
    """One shared verdict per (statement, reason); a reason names at most
    q, and most verdicts of a sweep are inapplicable."""
    return Verdict(stmt, False, notes=(why,))


def _linearity_check(table: SlopeTable, s: int, witness: str):
    """The "subfield linear" check of the set for modulus s, and its notes:
    the witness generators (labelled witness) of a GF(s)-linear set, or
    why linearity is impossible when s is not a subfield order."""
    F = table.field
    notes = ()
    if s in subfield_orders(F):
        linear, found = is_subfield_linear(F, table.U.points, s)
        if linear:
            notes = (f"{witness}: {sorted(found[0])}",)
    else:
        linear = False
        notes = ("modulus is not a subfield order; linearity impossible",)
    return Check("subfield linear", "set", "is", f"GF({s})-linear", linear), notes


# -- the trichotomy through both moduli ------------------------------------

def classify_direction_trichotomy(U) -> Verdict:
    """Cases: (1) geometric modulus 1, (2) both moduli proper, (3) algebraic
    modulus q with a single determined direction.  The paper assumes the
    vertical direction determined; s, t, |D| and the counting facts are
    affine invariants (see SlopeTable), so they are read off the set as it
    is."""
    table = SlopeTable.of(U)
    stmt = "thm-m"
    if len(table.U) < 2 or not table.dirs.determined:
        return _inapplicable(stmt, "no determined direction")
    if table.dirs.is_all:
        return _inapplicable(stmt, "every direction is determined")
    q = table.field.q
    n = len(table.U)
    if n > q:
        raise SoundnessError("more than q points but not all directions determined")
    s, t = table.s, table.t
    cross = _counting_cross_check(table, s) if t != q and s != 1 else None
    return _trichotomy_verdict(q, n, s, t, len(table.dirs), cross)


@functools.cache
def _trichotomy_verdict(q: int, n: int, s: int, t: int, D: int, cross) -> Verdict:
    """thm-m's verdict; cross is the counting cross-check's outcome in
    case 2 (see _counting_cross_check), else None."""
    checks = [_cmp("geometric <= algebraic modulus", s, "<=", t)]
    if t == q:
        case = 3
        checks.append(_cmp("single determined direction", D, "==", 1))
    else:
        lower = Fraction(n - 1, t + 1) + 2
        checks.append(_cmp("lower bound", lower, "<=", Fraction(D)))
        if s == 1:
            case = 1
            checks.append(_cmp("upper bound", Fraction(D), "<=", Fraction(q + 1)))
        else:
            case = 2
            checks.append(_cmp("upper bound", Fraction(D), "<=", Fraction(n - 1, s - 1)))
            partition, covers_all, min_count = cross
            checks += [_cmp("lines at set points partition the set",
                            partition, "==", n - 1),
                       Check("every determined slope appears at every set point",
                             "slopes at set points", "==", "determined directions",
                             covers_all),
                       _cmp("line counts at set points reach the modulus",
                            min_count, ">=", s),
                       _cmp("counting bound", D * (s - 1), "<=", n - 1)]
    return Verdict("thm-m", True, case, tuple(checks))


def _counting_cross_check(table: SlopeTable, s: int) -> tuple:
    """Through any set point, each line with determined slope carries at
    least s set points, and those lines partition the rest of the set:
    the sum over D of m_y(P) - 1, with m_y(P) read off the keys
    (LineTable.through), is n - 1.  Returns (the first such sum that is
    not n - 1, else n - 1; whether every determined slope appears at
    every set point; the least count of set points on a line through a
    set point).  Only the partition reads the keys; the slopes at each
    point come from one division per pair of set points, a count apart
    from the keys that the other two facts rest on."""
    F = table.field
    det = table.dirs.determined
    pts = sorted(table.U.points)
    n = len(pts)
    min_count = None
    partition = n - 1
    covers_all = True
    for P in pts:
        if partition == n - 1:
            through = table.through(P)
            partition = sum(through[y] - 1 for y in det)
        per_slope = {}
        for u in pts:
            if u != P:
                y = direction_of(F, P, u)
                per_slope[y] = per_slope.get(y, 0) + 1
        if set(per_slope) - det:
            raise SoundnessError("slope through two set points not determined")
        # above modulus 1 the slope-y line through P holds a multiple of
        # s(y) >= 2 points, so every determined slope must reappear at P
        if set(per_slope) != det:
            covers_all = False
        counts = [c + 1 for c in per_slope.values()]
        m = min(counts) if counts else s
        min_count = m if min_count is None else min(min_count, m)
    return partition, covers_all, min_count


# -- the q-point trichotomy --------------------------------------------------

def classify_size_q_trichotomy(U) -> Verdict:
    """For |U| = q the geometric modulus forces one of three ranges for the
    direction count; above modulus 2 the set must be subfield linear.  s,
    |D| and linearity are collineation invariants, so the set need not be
    moved off the vertical direction; the witness is the set's own."""
    table = SlopeTable.of(U)
    stmt = "size-q-trichotomy"
    q = table.field.q
    if len(table.U) != q:
        return _inapplicable(stmt, f"needs exactly q = {q} points")
    if table.dirs.is_all:
        return _inapplicable(stmt, "every direction is determined")
    s = table.s
    verdict = _size_q_verdict(table.field, s, len(table.dirs))
    if s <= 2:
        return verdict
    check, notes = _linearity_check(table, s, "linearity witness generators")
    return replace(verdict, checks=verdict.checks + (check,), notes=notes)


@functools.cache
def _size_q_verdict(F: Field, s: int, D: int) -> Verdict:
    """size-q-trichotomy's verdict on a q-point set, all of it for s <= 2;
    above that the linearity check is added per set."""
    q = F.q
    if s == 1:
        case = 1
        checks = (_cmp("lower bound", Fraction(q + 3, 2), "<=", Fraction(D)),
                  _cmp("upper bound", D, "<=", q))
    elif s == q:
        case = 3
        checks = (_cmp("single direction", D, "==", 1),)
    else:
        case = 2
        checks = (Check("modulus is a subfield order", s, "in",
                        "subfield orders", s in subfield_orders(F)),
                  _cmp("lower bound", q // s + 1, "<=", D),
                  _cmp("upper bound", D, "<=", Fraction(q - 1, s - 1)))
    return Verdict("size-q-trichotomy", True, case, checks)


# -- the prime-order dichotomy -----------------------------------------------

def classify_prime_dichotomy(U) -> Verdict:
    """Prime order: a set of 1 < |U| <= p points is collinear or determines
    at least (|U|+3)/2 directions."""
    table = SlopeTable.of(U)
    stmt = "prime-dichotomy"
    F = table.field
    if F.h != 1:
        return _inapplicable(stmt, "field order is not prime")
    n = len(table.U)
    if not 1 < n <= F.q:
        return _inapplicable(stmt, f"needs 1 < |U| <= {F.q}")
    if table.dirs.is_all:
        return _inapplicable(stmt, "every direction is determined")
    D = len(table.dirs)
    collinear = None
    if D == 1:
        pts = sorted(table.U.points)
        base_dir = direction_of(F, pts[0], pts[1])
        collinear = all(direction_of(F, pts[0], u) == base_dir for u in pts[2:])
    return _prime_verdict(F.q, n, D, collinear)


@functools.cache
def _prime_verdict(q: int, n: int, D: int, collinear) -> Verdict:
    """prime-dichotomy's verdict; collinear is None unless |D| = 1."""
    notes = ()
    if D == 1:
        case = 2
        checks = (Check("points are collinear", "set", "is", "collinear", collinear),
                  _cmp("single direction", D, "==", 1))
    else:
        case = 1
        checks = (_cmp("lower bound", Fraction(n + 3, 2), "<=", Fraction(D)),
                  _cmp("upper bound", D, "<=", q))
        sharp_at = Fraction(n + 3, 2)
        if sharp_at.denominator == 1 and D == sharp_at:
            notes = ("sharp",)
    return Verdict("prime-dichotomy", True, case, checks, notes)


# -- incidence congruence ------------------------------------------------------

def line_congruence_verdict(U) -> Verdict:
    table = SlopeTable.of(U)
    stmt = "line-congruence"
    rep = check_line_congruence(table)
    if not rep.applicable:
        why = ("geometric modulus is 1; congruence vacuous" if rep.modulus == 1
               else "no determined direction")
        return _inapplicable(stmt, why)
    m = rep.modulus
    return _congruence_verdict(len(rep.failures), len(table.U) % m,
                               len(table.dirs) % m, m)


@functools.cache
def _congruence_verdict(failures: int, size_rest: int, dirs_rest: int,
                        m: int) -> Verdict:
    """line-congruence's verdict from the failure count and |U| and |D|
    modulo m."""
    checks = (_cmp("lines meet in 0 or 1 mod m points", failures, "==", 0),
              _cmp("set size is 0 mod m", size_rest, "==", 0),
              _cmp("direction count is 1 mod m", dirs_rest, "==", 1))
    return Verdict("line-congruence", True, None, checks, (f"modulus {m}",))


# -- tail lemmas ---------------------------------------------------------------

def _tail_lemmas_applicable(table: SlopeTable):
    if not table.dirs.determined:
        return "no determined direction"
    if table.dirs.is_all:
        return "every direction is determined"
    if len(table.dirs) < 2:
        return "needs two determined directions"
    return None


def tail_degree_bound(U) -> Verdict:
    """With two directions determined or more and some direction free, the
    direction count exceeds the X-degree of the division tail.  The paper
    takes one of D to be vertical; deg_X T is an affine invariant (see
    SlopeTable), so the set is read as it is."""
    table = SlopeTable.of(U)
    stmt = "tail-degree-bound"
    why = _tail_lemmas_applicable(table)
    if why:
        return _inapplicable(stmt, why)
    return _tail_degree_verdict(len(table.dirs), table.deg_x_tail)


@functools.cache
def _tail_degree_verdict(D: int, deg: int) -> Verdict:
    return Verdict("tail-degree-bound", True, None,
                   (_cmp("direction count exceeds tail degree", D, ">=", deg + 1),))


def root_power_bound(U) -> Verdict:
    """Per determined non-vertical slope y, in code order: with k the root
    count of X^q + T(X,y) and tau its tail modulus,
    (k + tau)/(tau + 1) <= tau deg f = deg_X T(X,y) <= deg_X T."""
    table = SlopeTable.of(U)
    stmt = "root-power-bound"
    why = _tail_lemmas_applicable(table)
    if why:
        return _inapplicable(stmt, why)
    F = table.field
    deg_total = table.deg_x_tail
    checks = []
    for y in table.dirs.affine():
        data = table.power(y)
        tau, kappa = data.modulus, table.kappa(y)
        deg_f = p_degree(data.root) if data.root is not None else None
        if deg_f is None:
            raise SoundnessError("constant tail on a slope of a multi-direction set")
        label = f"slope {format_direction(F, y)}"
        checks.append(_cmp(f"{label}: root-count bound",
                           Fraction(kappa + tau, tau + 1), "<=", Fraction(tau * deg_f)))
        checks.append(_cmp(f"{label}: power degree identity",
                           tau * deg_f, "==", data.tail_degree))
        checks.append(_cmp(f"{label}: specialization degree bound",
                           data.tail_degree, "<=", deg_total))
    return Verdict(stmt, True, None, tuple(checks))


# -- modulus order ---------------------------------------------------------------

def moduli_order(U) -> Verdict:
    """The geometric modulus never exceeds the algebraic one.  Computed on
    the raw set: the algebraic modulus ranges over determined non-vertical
    slopes (field-order convention when there is none)."""
    table = SlopeTable.of(U)
    stmt = "moduli-order"
    if not table.dirs.determined:
        return _inapplicable(stmt, "no determined direction")
    if len(table.U) > table.field.q:
        return _inapplicable(stmt, "tail system needs at most q points")
    return _moduli_order_verdict(table.s, table.t)


@functools.cache
def _moduli_order_verdict(s: int, t: int) -> Verdict:
    return Verdict("moduli-order", True, None, (_cmp("modulus order", s, "<=", t),))


# -- power-basis memberships ------------------------------------------------------

def membership_verdict(U) -> Verdict:
    table = SlopeTable.of(U)
    stmt = "power-membership"
    n = len(table.U)
    if not 1 <= n <= table.field.q:
        return _inapplicable(stmt, "needs 1 <= |U| <= q")
    checks = tuple(Check(f"slope {y} ({'determined' if det else 'free'}): {note}",
                         "membership", "==", "expected", ok)
                   for y, (det, ok, note)
                   in enumerate(map(table.membership, range(table.field.q))))
    return Verdict(stmt, True, None, checks)


def power_span_verdict(U) -> Verdict:
    table = SlopeTable.of(U)
    stmt = "power-span"
    n = len(table.U)
    if not table.dirs.determined:
        return _inapplicable(stmt, "no determined direction")
    if n > table.field.q:
        return _inapplicable(stmt, "tail system needs at most q points")
    # every X-exponent of X^q + T lies in {0, 1} or is a multiple of t;
    # from X^1 up, those of T are the union of the T(X,y)'s (see SlopeTable)
    q, t = table.field.q, table.t
    exps = {q}.union(*(polys.p_exponents(table.tail(y)) for y in range(q)))
    return _power_span_verdict(tuple(sorted(e for e in exps
                                            if e not in (0, 1) and e % t)))


@functools.cache
def _power_span_verdict(bad: tuple) -> Verdict:
    """power-span's verdict from its offending exponents, in order."""
    notes = (f"offending exponents: {list(bad)}",) if bad else ()
    return Verdict("power-span", True, None,
                   (Check("X-exponents lie in {0,1} or the modulus lattice",
                          len(bad), "==", 0, not bad),), notes)


# -- conjecture reports -------------------------------------------------------------

def _conjecture_gate(table: SlopeTable, stmt: str):
    if len(table.U) < 2:
        return _inapplicable(stmt, "needs at least two points")
    if table.dirs.is_all:
        return _inapplicable(stmt,
                             "every direction determined: no extension can grow the direction set")
    if not table.maximal:
        return _inapplicable(stmt, "set is not maximal")
    return None


def conjecture_moduli_match(U) -> Verdict:
    """Reported, not asserted: on maximal sets every determined non-vertical
    slope with tail modulus above 2 has equal geometric and tail moduli."""
    table = SlopeTable.of(U)
    stmt = "conj-moduli-match"
    gate = _conjecture_gate(table, stmt)
    if gate:
        return gate
    checks = []
    notes = []
    for y in table.dirs.affine():
        tau = table.power(y).modulus
        if tau > 2:
            checks.append(_cmp(f"slope {y}: moduli agree",
                               tau, "==", table.modulus(y)))
    if table.dirs.has_infinity:
        notes.append("vertical direction not examined (tail undefined there)")
    if not checks:
        notes.append("no slope with tail modulus above 2; vacuous")
    return Verdict(stmt, True, None, tuple(checks), tuple(notes))


def conjecture_maximal_linearity(U) -> Verdict:
    """Reported, not asserted: a maximal set whose moduli agree and exceed 2
    is subfield linear for that modulus."""
    table = SlopeTable.of(U)
    stmt = "conj-maximal-linear"
    gate = _conjecture_gate(table, stmt)
    if gate:
        return gate
    s, t = table.s, table.t
    if not (s == t and s > 2):
        return _inapplicable(stmt, f"hypothesis unmet: moduli {s} and {t}")
    check, notes = _linearity_check(table, s, "witness generators")
    return Verdict(stmt, True, None, (check,), notes)


STATEMENTS = {
    "thm-m": classify_direction_trichotomy,
    "size-q-trichotomy": classify_size_q_trichotomy,
    "prime-dichotomy": classify_prime_dichotomy,
    "line-congruence": line_congruence_verdict,
    "tail-degree-bound": tail_degree_bound,
    "root-power-bound": root_power_bound,
    "power-membership": membership_verdict,
    "power-span": power_span_verdict,
    "moduli-order": moduli_order,
    "conj-moduli-match": conjecture_moduli_match,
    "conj-maximal-linear": conjecture_maximal_linearity,
}

CONJECTURES = ("conj-moduli-match", "conj-maximal-linear")


def verify_statement(statement: str, U) -> Verdict:
    try:
        fn = STATEMENTS[statement]
    except KeyError:
        raise ValueError(f"unknown statement {statement!r}; "
                         f"known: {', '.join(sorted(STATEMENTS))}") from None
    return fn(U)


# -- quotient extension oracle -------------------------------------------------------

@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of the power-basis extension check for one polynomial."""

    applicable: bool
    f: tuple | None
    quotient: tuple | None
    remainder: tuple | None
    checks: tuple = ()
    notes: tuple = ()

    @property
    def passed(self):
        if not self.applicable:
            return None
        return all(c.holds for c in self.checks)


def _is_char_power(F: Field, m: int) -> bool:
    if m < 1:
        return False
    while m % F.p == 0:
        m //= F.p
    return m == 1


def quotient_extension(F: Field, g, s: int, power: int | None = None,
                       f=None) -> ExtensionOutcome:
    """If some nonzero f with deg f < s makes g*f a polynomial in X^s, then
    dividing X^power by g extends g into the X^s power basis.

    With f omitted, a multiplier is searched by solving the linear
    constraints on its s coefficients; when none exists the statement does
    not apply.  Checked facts: the quotient of X^power by g*f and the
    remainder both lie in the power basis, the remainder drops below
    deg g, and X^power // g factors as f times that quotient.
    """
    g = polys.p_trim(g)
    if not g:
        raise ValueError("zero polynomial cannot be extended")
    power = F.q if power is None else power
    if not (_is_char_power(F, s) and _is_char_power(F, power) and s <= power):
        raise ValueError("moduli must be characteristic powers with s dividing the target")
    if f is None:
        f = _find_multiplier(F, g, s)
        if f is None:
            return ExtensionOutcome(False, None, None, None,
                                    notes=("no multiplier of degree below s exists",))
    else:
        f = polys.p_trim(f)
        if not f or p_degree(f) >= s:
            raise ValueError("multiplier must be nonzero of degree below s")
        if not in_power_basis(p_mul(F, g, f), s):
            raise ValueError("g*f does not lie in the power basis")
    gf = p_mul(F, g, f)
    xp = p_monomial(power)
    h, r = p_divmod(F, xp, gf)
    quot_g = p_div(F, xp, g)
    checks = (
        Check("quotient by g*f lies in the power basis", "quotient", "in",
              f"X^{s} basis", in_power_basis(h, s)),
        Check("remainder lies in the power basis", "remainder", "in",
              f"X^{s} basis", in_power_basis(r, s)),
        _cmp("remainder degree drops below deg g", p_degree(r), "<", p_degree(g)),
        Check("quotient by g factors through the multiplier",
              "X^power // g", "==", "f * (X^power // (g f))",
              quot_g == p_mul(F, f, h)),
        Check("quotient extends g into the power basis", "g * (X^power // g)",
              "in", f"X^{s} basis", in_power_basis(p_mul(F, g, quot_g), s)),
    )
    return ExtensionOutcome(True, f, quot_g, r, checks)


def _find_multiplier(F: Field, g, s: int):
    """Deterministic nonzero f of degree < s with g*f in the X^s basis, via
    the nullspace of the off-lattice product coefficients."""
    from . import linalg
    rows = []
    for k in range(p_degree(g) + s):
        if k % s == 0:
            continue
        rows.append(tuple(g[k - j] if 0 <= k - j < len(g) else 0 for j in range(s)))
    if not rows:
        return (1,)
    basis = linalg.nullspace(F, rows)
    if not basis:
        return None
    return polys.p_trim(basis[0])


def build_extension_instance(F: Field, s: int, rng):
    """A seeded (g, f) pair with g*f in the X^s power basis and deg f < s.

    Samples a product of factors X^s - c (each a perfect s-th power of a
    linear polynomial), then splits off up to s-1 linear root factors as f.
    """
    k = rng.randint(1, 3)
    product = (1,)
    roots = []
    for _ in range(k):
        c = rng.randrange(F.q)
        product = p_mul(F, product, (F.neg(c),) + (0,) * (s - 1) + (1,))
        roots.extend([F.pow(c, F.q // s)] * s)
    take = rng.randint(0, s - 1)
    rng.shuffle(roots)
    f = (1,)
    for r in roots[:take]:
        f = p_mul(F, f, (F.neg(r), 1))
    g, rem = p_divmod(F, product, f)
    if rem:  # pragma: no cover
        raise SoundnessError("root factor did not divide the sampled product")
    return g, f


# -- worked examples ------------------------------------------------------------------

def nonlinear_maximal_example(q: int) -> dict:
    """A q-point set with geometric modulus 1 and many directions stays
    maximal and non-linear after embedding the plane into the quadratic
    extension.

    The base set is the first function graph (in code order) with modulus 1
    and at least (q+3)/2 directions; maximality in the big plane is checked
    by sweeping every candidate point, non-linearity over every subfield.
    """
    small = make_field(*prime_power_parts(q))
    base = None
    # reversed, the tuples are the base-q digits of 0, 1, 2, ..., lowest first
    for digits in itertools.product(range(small.q), repeat=small.q):
        lines = LineTable(AffinePointSet.of(small, enumerate(reversed(digits))))
        if not 2 * len(lines.dirs) >= q + 3:
            continue
        if lines.s == 1:
            base = lines
            break
    if base is None:
        raise SoundnessError("no modulus-1 function graph found")
    big = make_field(small.p, 2 * small.h)
    emb = next(e for e in subfields(big) if e.order == small.q).into_parent
    lifted = AffinePointSet.of(big, [(emb[a], emb[b]) for a, b in base.U.points])
    lifted_dirs = directions_of(lifted)
    linear_any = any(is_subfield_linear(big, lifted.points, s)[0]
                     for s in subfield_orders(big) if s > 1)
    return {
        "base_field": str(small),
        "big_field": str(big),
        "points": sorted(lifted.points),
        "direction_count_small": len(base.dirs),
        "direction_count_big": len(lifted_dirs),
        "maximal_in_big_plane": is_maximal(lifted),
        "linear_for_some_subfield": linear_any,
    }


def nonmaximal_linear_example() -> dict:
    """A GF(2)-linear set of AG(2, 16) with more than 4 points inside the
    canonical AG(2, 4) subgeometry determines the same directions as the
    whole subgeometry, hence is not maximal.

    Also reports the pigeonhole fact for the smallest admissible plain
    subset (5 points of the subgeometry, not itself linear)."""
    small = make_field(2, 2)
    big = make_field(2, 4)
    emb = next(e for e in subfields(big) if e.order == small.q).into_parent
    sub_points = [(emb[a], emb[b]) for a in range(small.q) for b in range(small.q)]
    subgeometry = AffinePointSet.of(big, sub_points)
    sub_dirs = directions_of(subgeometry)
    # a rank 3 GF(2)-span inside the subgeometry: more than 4 points
    small_scalars = [emb[c] for c in range(small.q)]
    gens = [(small_scalars[1], 0), (0, small_scalars[1])]
    extra = next(c for c in small_scalars if c not in (0, small_scalars[1]))
    gens.append((extra, 0))
    from .linsets import AffineLinearSpec, build_affine_linear
    span = build_affine_linear(AffineLinearSpec(big, 2, tuple(gens), (0, 0)))
    linear_set = AffinePointSet.of(big, span)
    lin_ok, _ = is_subfield_linear(big, linear_set.points, 2)
    minimal = AffinePointSet.of(big, sorted(subgeometry.points)[:small.q + 1])
    return {
        "small_field": str(small),
        "big_field": str(big),
        "linear_set_size": len(linear_set),
        "linear_set_is_subfield_linear": lin_ok,
        "subgeometry_direction_count": len(sub_dirs),
        "same_directions": directions_of(linear_set).determined == sub_dirs.determined,
        "linear_set_maximal": is_maximal(linear_set),
        "minimal_subset_size": len(minimal),
        "minimal_subset_same_directions":
            directions_of(minimal).determined == sub_dirs.determined,
    }


def section5_reports() -> dict:
    return {
        "nonlinear_maximal": {q: nonlinear_maximal_example(q) for q in (4, 5)},
        "nonmaximal_linear": nonmaximal_linear_example(),
    }
