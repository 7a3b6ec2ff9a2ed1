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

import functools
from dataclasses import dataclass
from math import gcd

from .field import Field, make_field

__all__ = [
    "AffinePointSet", "DirectionSet", "GeometricInvariants", "LineCongruence",
    "LineTable", "direction_of", "directions_of", "line_profile", "direction_modulus",
    "geometric_invariants", "check_line_congruence", "apply_collineation",
    "canonicalize_infinity", "push_infinity_out", "extension_points", "is_maximal",
    "format_direction", "parse_direction",
]


def format_direction(field: Field, d: int) -> str:
    return "inf" if d == field.q else str(d)


def parse_direction(field: Field, token: str) -> int:
    if token == "inf":
        return field.q
    d = int(token)
    if not 0 <= d < field.q:
        raise ValueError(f"direction code {d} outside [0, {field.q}]")
    return d


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

    def with_point(self, point) -> "AffinePointSet":
        return AffinePointSet.of(self.field, set(self.points) | {point})

    def without_point(self, point) -> "AffinePointSet":
        return AffinePointSet(self.field, self.points - {point})

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
        pairs = []
        for line in lines[1:]:
            toks = line.split()
            if len(toks) != 2:
                raise ValueError(f"bad point line {line!r}")
            pairs.append((int(toks[0]), int(toks[1])))
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
        return tuple(d for d in sorted(self.determined) if d < self.field.q)

    def undetermined(self):
        q = self.field.q
        return tuple(d for d in range(q + 1) if d not in self.determined)

    def tokens(self):
        return tuple(format_direction(self.field, d) for d in sorted(self.determined))


@dataclass(frozen=True)
class GeometricInvariants:
    """Per-direction moduli over the determined directions and their minimum.

    Undetermined directions always have modulus 1 and are omitted from the
    map.  The aggregate is None only when nothing is determined.
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
    """Intersection counts of the q lines of direction y, by intercept code.

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
    return counts


class LineTable:
    """The line profiles of one point set, each counted on first read, and
    the per-set facts built on them, each kept: directions, geometric
    invariants, maximality, and the images `canonical` (determining the
    vertical direction; None when nothing is determined) and `no_infinity`
    (not determining it).  An image is a table of the same kind, and an
    image equal to the set is this table.  The functions of this module
    accept a table wherever they accept a point set.
    """

    def __init__(self, U: AffinePointSet):
        self.U = U
        self.field = U.field
        self._profiles = {}

    @classmethod
    def of(cls, U):
        """U itself when it is already a table of this kind, else a new one."""
        return U if isinstance(U, cls) else cls(U)

    def profile(self, y: int):
        counts = self._profiles.get(y)
        if counts is None:
            counts = self._profiles[y] = line_profile(self.U, y)
        return counts

    @functools.cached_property
    def dirs(self) -> DirectionSet:
        return directions_of(self.U)

    @functools.cached_property
    def geo(self) -> GeometricInvariants:
        return geometric_invariants(self)

    def _image(self, W: AffinePointSet) -> "LineTable":
        return self if W is self.U else type(self)(W)

    @functools.cached_property
    def canonical(self):
        if not self.dirs.determined:
            return None
        return self._image(canonicalize_infinity(self))

    @functools.cached_property
    def no_infinity(self):
        return self._image(push_infinity_out(self))

    @functools.cached_property
    def maximal(self) -> bool:
        return is_maximal(self)


def direction_modulus(U, y: int) -> int:
    """Largest characteristic power dividing every slope-y line count.

    Computed as gcd(counts + [q]); the gcd divides q, so it is a p-power.
    Equals q when every count is zero, which needs an empty set.
    """
    lines = LineTable.of(U)
    if not lines.U.points:
        raise ValueError("modulus of an empty point set")
    g = lines.field.q
    for c in lines.profile(y):
        if c:
            g = gcd(g, c)
    return g


def geometric_invariants(U) -> GeometricInvariants:
    lines = LineTable.of(U)
    dirs = lines.dirs
    if not dirs.determined:
        raise ValueError("no determined direction: aggregate modulus undefined")
    per = {y: direction_modulus(lines, y) for y in sorted(dirs.determined)}
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


def _swap_with_infinity_matrix(F: Field, y0: int):
    # sends direction y0 to the vertical direction and the vertical one to 0
    return ((F.neg(y0), 1), (1, 0))


def canonicalize_infinity(U) -> AffinePointSet:
    """A deterministic collineation image whose direction set contains the
    vertical direction: the determined direction of least code is swapped in.
    Returns the point set unchanged when the vertical direction is already
    determined."""
    lines = LineTable.of(U)
    dirs = lines.dirs
    if not dirs.determined:
        raise ValueError("no determined direction to canonicalize")
    if dirs.has_infinity:
        return lines.U
    y0 = min(dirs.determined)
    image, _ = apply_collineation(lines.U, _swap_with_infinity_matrix(lines.field, y0))
    return image


def push_infinity_out(U) -> AffinePointSet:
    """A deterministic collineation image that does not determine the
    vertical direction: the undetermined direction of least code is swapped
    to vertical.  Fails when every direction is determined."""
    lines = LineTable.of(U)
    dirs = lines.dirs
    if not dirs.has_infinity:
        return lines.U
    if dirs.is_all:
        raise ValueError("every direction is determined; cannot free the vertical one")
    z = min(dirs.undetermined())
    image, _ = apply_collineation(lines.U, _swap_with_infinity_matrix(lines.field, z))
    return image


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
