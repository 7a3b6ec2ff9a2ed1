"""Points and directions of the affine plane AG(2,q).

Points are pairs (a, b) of field codes.  A direction is an integer in
[0, q]: codes below q are slopes, and the code q stands for the vertical
direction (written "inf" in all text output).  The direction determined
by two points (a, b), (c, d) is (b - d)/(a - c), vertical when a == c.

The geometric invariant of a point set: for a direction y, the modulus
of y is the largest power of the characteristic dividing every
intersection count of slope-y lines with the set; the set-level modulus
is the minimum over determined directions (LineTable.s).

Line counts have one format, the profile key: the count m_c of the line
of intercept c in its own k-bit field, k = q.bit_length(), so the key of
direction y is the sum of m_c 2^(kc) (profile_key), and y is determined
iff its key has a bit in Incidence.hi, bits 1 ... k - 1 of every field.  A set's
q + 1 keys are its whole line-count state.  One incidence table per
field (incidence) holds, each entry built on its read and kept up to
q = KEEP_MAX_Q, the key units 2^(kc) of the q + 1 lines through a point
and the points on a line as a q^2-bit mask.  A table built from a point
set sums its points' rows into its keys, and a walk (Walk), which takes
every set of an exhaustive sweep, adds and takes off rows as points come
and go from one set to the next.  D, every profile (shifts and masks of
a key), the counts of the lines through a point (LineTable.through) and
maximality are read off the keys: maximality up to KEEP_MAX_Q from the
masks of the lines that the set bits of a free direction's key name,
with no division, above it by a scan of the plane's columns that leaves
each once no point of it is left whose slopes to the set are all
determined.  No other module names the incidence table or the key's
count fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, product
from math import gcd
from operator import add, sub

from .field import Field, make_field

__all__ = [
    "AffinePointSet", "DirectionSet", "GeometricInvariants", "LineCongruence",
    "LineTable", "direction_of", "directions_of", "line_profile", "profile_key",
    "profile_of_key", "direction_modulus",
    "geometric_invariants", "check_line_congruence", "apply_collineation",
    "extension_points", "is_maximal", "format_direction", "Incidence",
    "incidence", "Walk",
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


def directions_of(U) -> DirectionSet:
    """The directions of the lines with two points of U or more, read off
    the set's profile keys (Incidence.directions)."""
    lines = LineTable.of(U)
    return incidence(lines.field).directions(lines.keys)


def line_profile(U, y: int):
    """Intersection counts of the q lines of direction y, by intercept
    code, as a tuple: decoded from the set's key of direction y.

    Lines of slope y < q are Y = y*X + c; vertical lines are X = c.
    The counts always sum to |U|.
    """
    return LineTable.of(U).profile(y)


def profile_key(profile) -> int:
    """The sum of m_c 2^(kc) over a profile (m_0, ..., m_(q-1)), q its
    length and k = q.bit_length(): each count in its own k-bit field,
    since a line holds at most q < 2^k points."""
    k = len(profile).bit_length()
    return sum(m << k * c for c, m in enumerate(profile))


def profile_of_key(key: int, q: int):
    """The profile whose profile_key is key: its q k-bit fields, lowest
    first.  Only the fields with a set bit are read, one per line that
    meets the set, so a set of n points costs O(n) shifts."""
    k = q.bit_length()
    mask = (1 << k) - 1
    counts = [0] * q
    while key:
        c = ((key & -key).bit_length() - 1) // k
        m = counts[c] = key >> k * c & mask
        key ^= m << k * c
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


class _Filled(dict):
    """A dict that builds build(k) for a missing key k on its read, and
    stores it there when keep is set."""

    __slots__ = ("build", "keep")

    def __init__(self, build, keep=True):
        super().__init__()
        self.build = build
        self.keep = keep

    def __missing__(self, k):
        value = self.build(k)
        if self.keep:
            self[k] = value
        return value


# an incidence table keeps what it builds up to this q: filled in full,
# at most 2.2 MB of masks and 4096 rows of 65 shared key units
KEEP_MAX_Q = 64

# the largest q with line tables: a table holds q + 1 keys of up to kq
# bits each, 27 MB at q = 4096 and 9.1 GB at q = 2^16
KEY_MAX_Q = 1 << 12


class Incidence:
    """Who lies on what in AG(2,q), each entry built on its read.

    A line count takes a k-bit field of a profile key, k = q.bit_length();
    units[i] = 2^(ki) is the key unit of the line of intercept i, one int
    per field shared by every row, count_mask = 2^k - 1 reads one count,
    and hi holds bits 1 ... k - 1 of every field, so a key has a bit in it
    iff some line holds two points or more.  rows[c] holds the units of
    the q + 1 lines through the point of code c = a*q + b, by index from
    units: intercept b - y*a at the slopes y < q, then a at the vertical
    direction q.  masks[y][w] is the q^2-bit int with bit c set for every
    point of code c on the line of direction y and unit w.  No row or
    mask is built with the table, so a field that no set reads costs q
    units.  Up to q = KEEP_MAX_Q (kept) the table stores each entry on its
    first read; filled in full it holds q^2 rows of q + 1 references to
    the units and q(q + 1) masks of q^2 bits (tracemalloc: 2.6 MB of rows
    and 5.1 MB with the masks at q = 64; the masks alone are already 34
    MB at q = 128).  Above, every read builds its entry afresh and nothing
    is stored.  Past KEY_MAX_Q the table is refused, since the keys of one
    set would outgrow memory.  incidence(F) keeps one table per field.
    """

    def __init__(self, F: Field):
        q = F.q
        k = q.bit_length()
        if q > KEY_MAX_Q:
            raise ValueError(
                f"line tables of AG(2,{q}) are refused above q = {KEY_MAX_Q}: "
                f"each holds q + 1 keys of {k * q} bits, "
                f"{(q + 1) * k * q // 8_000_000} MB here")
        self.field = F
        self.kept = q <= KEEP_MAX_Q
        self.k = k
        self.units = tuple(1 << k * i for i in range(q))
        self.count_mask = (1 << k) - 1
        self.hi = (self.count_mask - 1) * sum(self.units)
        self.rows = _Filled(self._row, self.kept)
        self.masks = [_Filled(functools.partial(self._mask, y), self.kept)
                      for y in range(q + 1)]

    def _row(self, c: int) -> tuple:
        F = self.field
        a, b = divmod(c, F.q)
        sub, mul, units = F.sub, F.mul, self.units
        return tuple(units[sub(b, mul(y, a))] for y in range(F.q)) + (units[a],)

    def _mask(self, y: int, w: int) -> int:
        F = self.field
        q = F.q
        i = (w.bit_length() - 1) // self.k
        if y == q:
            return ((1 << q) - 1) << (i * q)
        add, mul = F.add, F.mul
        return sum(1 << (a * q + add(i, mul(y, a))) for a in range(q))

    def directions(self, keys) -> DirectionSet:
        """D of the set whose q + 1 profile keys these are: the directions
        whose key has a bit in hi."""
        return DirectionSet(self.field, frozenset(compress(
            range(self.field.q + 1), map(self.hi.__and__, keys))))


@functools.cache
def incidence(F: Field) -> Incidence:
    """The field's incidence table, made on the first call for F."""
    return Incidence(F)


class Walk:
    """The profile keys of the set last built, updated point by point:
    every set of an exhaustive sweep, at any size, takes its keys and D
    from one, since sets in stream order share most of their points.

    keys[y] is the key of direction y's profile (profile_key), rows[c] the
    key units of the q + 1 lines through the point of code c
    (Incidence.rows), kept for the walk since the incidence table keeps
    nothing above KEEP_MAX_Q, and points[c] that point.  A new set keeps
    the prefix of codes it shares with the last one; the rest of the last
    set's points are taken out and the new set's added, a row each, and D
    is read off the keys (Incidence.directions).  The code-to-point list
    is allocated on the first set and each row on its code's first use,
    so past that a walk costs O(q) per code it touches and per point
    changed, and O(|U|) per set for its point set.
    """

    def __init__(self, F: Field):
        table = incidence(F)
        self.field = F
        self.rows = _Filled(table.rows.__getitem__)
        self.directions = table.directions
        self.keys = (0,) * (F.q + 1)
        self.points = None
        self.codes = ()

    def lines(self, codes):
        """(point set, (D, keys)) of the set with these sorted codes, keys
        the tuple of its q + 1 profile keys."""
        F = self.field
        if self.points is None:
            self.points = list(product(range(F.q), repeat=2))
        keys, rows = self.keys, self.rows
        old = self.codes
        k = 0
        for a, b in zip(old, codes):
            if a != b:
                break
            k += 1
        for c in old[k:]:
            keys = tuple(map(sub, keys, rows[c]))
        for c in codes[k:]:
            keys = tuple(map(add, keys, rows[c]))
        self.codes, self.keys = codes, keys
        U = AffinePointSet(F, frozenset(map(self.points.__getitem__, codes)))
        return U, (self.directions(keys), keys)


class LineTable:
    """The line facts of one point set, each built on first read and kept:
    its profile keys, directions, the geometric modulus s and maximality.
    The functions of this module accept a table wherever they accept a
    point set.

    keys[y] is the profile_key of direction y's profile, the set's only
    line-count state; a table built from the set alone sums its points'
    incidence rows into them, once.  A caller that keeps the keys up to
    date point by point (Walk) passes lines = (D, keys) instead, and the
    table starts with both.  A profile is decoded from its key
    (profile_of_key) on each read.
    """

    def __init__(self, U: AffinePointSet, lines=None):
        self.U = U
        self.field = U.field
        if lines is not None:
            self.dirs, self.keys = lines

    @classmethod
    def of(cls, U):
        """U itself when it is already a table of this kind, else a new
        table of U's point set (U a point set or another table)."""
        if isinstance(U, cls):
            return U
        return cls(U.U if isinstance(U, LineTable) else U)

    @kept
    def keys(self) -> tuple:
        """The q + 1 profile keys, the sums of the points' incidence rows."""
        q = self.field.q
        rows = incidence(self.field).rows
        return (tuple(map(sum, zip(*map(rows.__getitem__,
                                        [a * q + b for a, b in self.U.points]))))
                or (0,) * (q + 1))

    def profile(self, y: int):
        return profile_of_key(self.keys[y], self.field.q)

    def through(self, P) -> list:
        """m_y(P) for y = 0, ..., q: the count of set points on the line of
        direction y through the point P, read off each key at the unit of
        P's line (Incidence.rows)."""
        lines = incidence(self.field)
        row = lines.rows[P[0] * self.field.q + P[1]]
        mask = lines.count_mask
        return [key // unit & mask for key, unit in zip(self.keys, row)]

    def modulus(self, y: int) -> int:
        """s(y) = gcd(q, m_0, ..., m_(q-1)), the largest characteristic
        power dividing every count of direction y's profile."""
        return gcd(self.field.q, *self.profile(y))

    @kept
    def dirs(self) -> DirectionSet:
        return directions_of(self)

    @kept
    def s(self) -> int:
        """s, the least s(y) over D; refused when nothing is determined."""
        det = self.dirs.determined
        if not det:
            raise ValueError("no determined direction: aggregate modulus undefined")
        return min(map(self.modulus, det))

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
    """s(y) per determined direction, and s from the table (LineTable.s)."""
    lines = LineTable.of(U)
    return GeometricInvariants(
        {y: lines.modulus(y) for y in sorted(lines.dirs.determined)}, lines.s)


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
        m = lines.s
        if m == 1:
            return LineCongruence(False, 1, 0, (), None, None)
    else:
        m = modulus
        if m <= 1:
            raise ValueError("explicit modulus must exceed 1")
    failures = []
    for slope in range(F.q + 1):
        profile = lines.profile(slope)
        ideal_pt = 1 if slope in dirs.determined else 0
        for intercept in range(F.q):
            total = profile[intercept] + ideal_pt
            if total % m not in (0, 1):
                failures.append((slope, intercept, total))
    ideal_total = len(dirs.determined)
    if ideal_total % m not in (0, 1):
        failures.append((F.q + 1, None, ideal_total))
    return LineCongruence(
        True, m, F.q * (F.q + 1) + 1, tuple(failures),
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


def _covered(lines: LineTable) -> int:
    """The codes of the points on the lines through U of its free
    directions, as a q^2-bit int, from a kept incidence table's masks.
    Every count of a free direction is 0 or 1, so each set bit w of its
    key is one such line, holding one point of U; the union holds U
    whenever some direction is free."""
    det = lines.dirs.determined
    masks = incidence(lines.field).masks
    covered = 0
    for y, key in enumerate(lines.keys):
        if y not in det:
            of_y = masks[y]
            while key:
                w = key & -key
                covered |= of_y[w]
                key ^= w
    return covered


def _extension_codes(lines: LineTable):
    """The codes of U's extension points, ascending: a point P outside U
    gives a new direction exactly when it lies on the line through some
    point of U of a free direction.

    A kept incidence table reads them off the union of those lines
    (_covered) and U.  Above KEEP_MAX_Q, where the masks of a set of about
    q points would fill q^4/8 bytes, each column X = a intersects, over
    U's points (c, d) off it, the b = d + (a - c)*y that a determined
    slope y joins to (c, d), or, once fewer b are left than slopes, keeps
    those whose slope (b - d)/(a - c) to (c, d) is determined; a point of
    U on the column empties it when the vertical direction is free.  A
    column stops once the intersection is empty, so each costs at most |D|
    per point of U and builds nothing that outlives the call; U's own
    points are dropped last."""
    F = lines.field
    q = F.q
    own = {a * q + b for a, b in lines.U.points}
    if incidence(F).kept:
        taken = _covered(lines)
        for c in own:
            taken |= 1 << c
        bits = format(~taken & ((1 << q * q) - 1), "b")[::-1]
        c = bits.find("1")
        while c >= 0:
            yield c
            c = bits.find("1", c + 1)
        return
    det = lines.dirs.determined
    slopes = [y for y in range(q) if y in det]
    add, sub, mul, div = F.add, F.sub, F.mul, F.div
    for a in range(q):
        left = set(range(q))
        for c, d in lines.U.points:
            ac = sub(a, c)
            if ac and len(left) > len(slopes):
                left.intersection_update([add(d, mul(ac, y)) for y in slopes])
            elif ac:
                left = {b for b in left if div(sub(b, d), ac) in det}
            elif q not in det:
                left.clear()
            if not left:
                break
        for b in sorted(left):
            if a * q + b not in own:
                yield a * q + b


def extension_points(U):
    """The points outside U whose directions to U are all determined by U,
    in code order: the points whose addition leaves the direction set as
    it is, those off U and off the lines through U of its free
    directions."""
    lines = LineTable.of(U)
    q = lines.field.q
    for c in _extension_codes(lines):
        yield divmod(c, q)


def is_maximal(U) -> bool:
    """True iff every added point strictly grows the direction set: the
    lines through U of its free directions cover the plane.

    A set determining all q + 1 directions is treated as maximal (no
    extension can change its directions).
    """
    lines = LineTable.of(U)
    if len(lines.U) < 2:
        raise ValueError("maximality needs at least two points")
    if lines.dirs.is_all:
        return True
    q = lines.field.q
    if incidence(lines.field).kept:
        return _covered(lines) == (1 << q * q) - 1
    return next(_extension_codes(lines), None) is None
