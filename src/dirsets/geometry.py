"""Points and directions of the affine plane AG(2,q).

Points are pairs (a, b) of field codes.  A direction is an integer in
[0, q]: codes below q are slopes, and the code q stands for the vertical
direction (written "inf" in all text output).  The direction determined
by two points (a, b), (c, d) is (b - d)/(a - c), vertical when a == c.

The geometric invariant of a point set: for a direction y, the modulus
of y is the largest power of the characteristic dividing every
intersection count of slope-y lines with the set; the set-level modulus
is the minimum over determined directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .field import Field, make_field

__all__ = [
    "AffinePointSet", "DirectionSet", "GeometricInvariants", "LineCongruence",
    "LineTable", "direction_of", "directions_of", "line_profile", "profile_key",
    "profile_of_key", "direction_modulus",
    "geometric_invariants", "check_line_congruence", "apply_collineation",
    "extension_points", "is_maximal", "format_direction",
]


def format_direction(field: Field, d: int) -> str:
    return "inf" if d == field.q else str(d)


@dataclass(frozen=True)
class AffinePointSet:
    """A duplicate-free set of points of AG(2,q)."""

    field: Field
    points: frozenset

    @classmethod
    def of(cls, field: Field, pairs) -> "AffinePointSet":
        pts = set()
        for a, b in pairs:
            if not (0 <= a < field.q and 0 <= b < field.q):
                raise ValueError(f"point ({a}, {b}) outside AG(2,{field.q})")
            pts.add((a, b))
        return cls(field, frozenset(pts))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def __contains__(self, point):
        return point in self.points

    # -- text format: header "p h", then "a b" per line, '#' comments --------

    @classmethod
    def from_text(cls, text: str) -> "AffinePointSet":
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise ValueError("empty point-set input")
        try:
            p, h = (int(t) for t in lines[0].split())
        except Exception as exc:
            raise ValueError(f"bad header {lines[0]!r}: expected 'p h'") from exc
        field = make_field(p, h)
        pairs = set()
        for line in lines[1:]:
            try:
                a, b = map(int, line.split())
            except ValueError:
                raise ValueError(f"bad point line {line!r}: expected 'a b'") from None
            pair = (a, b)
            if pair in pairs:
                # a set lists each point once; a repeat means the file is
                # not the set its writer meant
                raise ValueError(f"repeated point line {line!r}")
            pairs.add(pair)
        return cls.of(field, pairs)

    @classmethod
    def from_file(cls, path) -> "AffinePointSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        out = [f"{self.field.p} {self.field.h}"]
        out.extend(f"{a} {b}" for a, b in sorted(self.points))
        return "\n".join(out) + "\n"

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


@dataclass(frozen=True)
class DirectionSet:
    """The directions determined by a point set; a subset of [0, q]."""

    field: Field
    determined: frozenset

    def __len__(self):
        return len(self.determined)

    def __contains__(self, d):
        return d in self.determined

    def __iter__(self):
        return iter(sorted(self.determined))

    @property
    def has_infinity(self) -> bool:
        return self.field.q in self.determined

    @property
    def is_all(self) -> bool:
        return len(self.determined) == self.field.q + 1

    def affine(self):
        slopes = sorted(self.determined)
        if slopes and slopes[-1] == self.field.q:
            slopes.pop()
        return tuple(slopes)

    def tokens(self):
        return tuple(format_direction(self.field, d) for d in sorted(self.determined))


@dataclass(frozen=True)
class GeometricInvariants:
    """Per-direction moduli over the determined directions and their minimum.

    Undetermined directions always have modulus 1 and are omitted from the
    map.  With nothing determined there is no aggregate, and
    geometric_invariants refuses the set.
    """

    per_direction: dict
    modulus: int


def direction_of(field: Field, P, Q) -> int:
    if P == Q:
        raise ValueError("equal points determine no direction")
    a, b = P
    c, d = Q
    if a == c:
        return field.q
    return field.div(field.sub(b, d), field.sub(a, c))


def directions_of(U: AffinePointSet) -> DirectionSet:
    F = U.field
    pts = sorted(U.points)
    seen = set()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            seen.add(direction_of(F, pts[i], pts[j]))
    return DirectionSet(F, frozenset(seen))


def line_profile(U: AffinePointSet, y: int):
    """Intersection counts of the q lines of direction y, by intercept
    code, as a tuple.

    Lines of slope y < q are Y = y*X + c; vertical lines are X = c.
    The counts always sum to |U|.
    """
    F = U.field
    counts = [0] * F.q
    if y == F.q:
        for a, _ in U.points:
            counts[a] += 1
    else:
        mul, sub = F.mul, F.sub
        for a, b in U.points:
            counts[sub(b, mul(y, a))] += 1
    return tuple(counts)


def profile_key(profile) -> int:
    """The sum of m_c (q+1)^c over a profile (m_0, ..., m_(q-1)), q its
    length: one integer per profile, since a line holds at most q points
    and so 0 <= m_c <= q."""
    base = len(profile) + 1
    key = 0
    for m in reversed(profile):
        key = key * base + m
    return key


def profile_of_key(key: int, q: int):
    """The profile whose profile_key is key: its q base-(q+1) digits,
    lowest first."""
    base = q + 1
    counts = []
    for _ in range(q):
        key, m = divmod(key, base)
        counts.append(m)
    return tuple(counts)


class kept:
    """A read-only attribute computed on first read and kept in the
    instance's __dict__, where every later read finds it first: what
    functools.cached_property does, without the lock that it takes on
    every first read before Python 3.12 (one per set and attribute in a
    sweep)."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class LineTable:
    """The line profiles of one point set, each counted on first read, and
    the per-set facts built on them, each kept: directions, geometric
    invariants and maximality.  The functions of this module accept a
    table wherever they accept a point set.  A caller that keeps profile
    keys up to date point by point (an exhaustive sweep's walk) passes
    lines = (D, keys), keys[y] the profile_key of direction y's profile:
    the table then starts with D, reads each key off keys, and decodes a
    profile from its key (profile_of_key) on first read.
    """

    def __init__(self, U: AffinePointSet, lines=None):
        self.U = U
        self.field = U.field
        self._profiles = {}
        self._keys = None
        if lines is not None:
            self.dirs, self._keys = lines

    @classmethod
    def of(cls, U):
        """U itself when it is already a table of this kind, else a new
        table of U's point set (U a point set or another table)."""
        if isinstance(U, cls):
            return U
        return cls(U.U if isinstance(U, LineTable) else U)

    def profile(self, y: int):
        counts = self._profiles.get(y)
        if counts is None:
            keys = self._keys
            counts = self._profiles[y] = (
                line_profile(self.U, y) if keys is None
                else profile_of_key(keys[y], self.field.q))
        return counts

    def key(self, y: int) -> int:
        """profile_key of direction y's profile."""
        keys = self._keys
        return profile_key(self.profile(y)) if keys is None else keys[y]

    def modulus(self, y: int) -> int:
        """s(y) = gcd(q, m_0, ..., m_(q-1)), the largest characteristic
        power dividing every count of direction y's profile."""
        return gcd(self.field.q, *self.profile(y))

    @kept
    def dirs(self) -> DirectionSet:
        return directions_of(self.U)

    @kept
    def geo(self) -> GeometricInvariants:
        return geometric_invariants(self)

    @kept
    def maximal(self) -> bool:
        return is_maximal(self)


def direction_modulus(U, y: int) -> int:
    """Largest characteristic power dividing every slope-y line count.

    Computed as gcd(q, counts); the gcd divides q, so it is a p-power.
    The empty set, whose counts are all zero, is refused.
    """
    lines = LineTable.of(U)
    if not lines.U.points:
        raise ValueError("modulus of an empty point set")
    return lines.modulus(y)


def geometric_invariants(U) -> GeometricInvariants:
    lines = LineTable.of(U)
    dirs = lines.dirs
    if not dirs.determined:
        raise ValueError("no determined direction: aggregate modulus undefined")
    per = {y: lines.modulus(y) for y in sorted(dirs.determined)}
    return GeometricInvariants(per, min(per.values()))


@dataclass(frozen=True)
class LineCongruence:
    """Outcome of the all-lines congruence check on U and its directions.

    Every projective line must meet the union of U and its direction set in
    0 or 1 mod modulus points.  Affine lines come first, ordered by (slope
    code, intercept code); the ideal line is last.
    """

    applicable: bool
    modulus: int | None
    lines_checked: int
    failures: tuple
    size_congruent: bool | None       # |U| == 0 mod modulus
    directions_congruent: bool | None  # |D| == 1 mod modulus

    @property
    def passed(self):
        if not self.applicable:
            return None
        return not self.failures and self.size_congruent and self.directions_congruent


def check_line_congruence(U, modulus: int | None = None) -> LineCongruence:
    """Check the 0/1 mod m incidence congruence over all q^2+q+1 lines.

    With modulus None the set-level geometric modulus is used and the check
    is not applicable when it is 1 (or when nothing is determined).  An
    explicit modulus (e.g. the subfield order of a linear construction)
    forces the check regardless.
    """
    lines = LineTable.of(U)
    F = lines.field
    dirs = lines.dirs
    if modulus is None:
        if not dirs.determined:
            return LineCongruence(False, None, 0, (), None, None)
        m = lines.geo.modulus
        if m == 1:
            return LineCongruence(False, 1, 0, (), None, None)
    else:
        m = modulus
        if m <= 1:
            raise ValueError("explicit modulus must exceed 1")
    failures = []
    checked = 0
    for slope in range(F.q + 1):
        profile = lines.profile(slope)
        ideal_pt = 1 if slope in dirs.determined else 0
        for intercept in range(F.q):
            total = profile[intercept] + ideal_pt
            checked += 1
            if total % m not in (0, 1):
                failures.append((slope, intercept, total))
    ideal_total = len(dirs.determined)
    checked += 1
    if ideal_total % m not in (0, 1):
        failures.append((F.q + 1, None, ideal_total))
    return LineCongruence(
        True, m, checked, tuple(failures),
        len(lines.U) % m == 0, len(dirs.determined) % m == 1)


def apply_collineation(U: AffinePointSet, matrix, shift=(0, 0)):
    """Image of U under x -> M x + v, with the induced map on directions.

    Returns (image set, direction map) where the map is a dict over all
    q + 1 direction codes.  M must be invertible.
    """
    F = U.field
    (m00, m01), (m10, m11) = matrix
    det = F.sub(F.mul(m00, m11), F.mul(m01, m10))
    if det == 0:
        raise ValueError("collineation matrix is singular")
    v0, v1 = shift
    add, mul = F.add, F.mul
    pts = [(add(add(mul(m00, a), mul(m01, b)), v0),
            add(add(mul(m10, a), mul(m11, b)), v1)) for a, b in U.points]
    dmap = {}
    for d in range(F.q + 1):
        wx, wy = (0, 1) if d == F.q else (1, d)
        nx = add(mul(m00, wx), mul(m01, wy))
        ny = add(mul(m10, wx), mul(m11, wy))
        dmap[d] = F.q if nx == 0 else F.div(ny, nx)
    return AffinePointSet.of(F, pts), dmap


def extension_points(U):
    """The points outside U whose directions to U are all determined by U,
    in code order: the points whose addition leaves the direction set as
    it is.  Only directions from a new point to U can be new, so each
    point needs one pass over U."""
    lines = LineTable.of(U)
    present = lines.U.points
    pts = sorted(present)
    det = lines.dirs.determined
    q = lines.field.q
    div, sub = lines.field.div, lines.field.sub
    for a in range(q):
        for b in range(q):
            if (a, b) in present:
                continue
            for c, d in pts:
                if (q if a == c else div(sub(b, d), sub(a, c))) not in det:
                    break
            else:
                yield (a, b)


def is_maximal(U) -> bool:
    """True iff every added point strictly grows the direction set.

    A set determining all q + 1 directions is treated as maximal (no
    extension can change its directions).
    """
    lines = LineTable.of(U)
    if len(lines.U) < 2:
        raise ValueError("maximality needs at least two points")
    return lines.dirs.is_all or next(extension_points(lines), None) is None
