"""Linear sets over a subfield and their direction sets.

An affine GF(s)-linear set is a translate of the GF(s)-span of vectors
of GF(q)^n.  A projective GF(s)-linear set of rank d+1 is the image of
the canonical subgeometry PG(d,s) of PG(d,q) under a projection whose
center misses the subgeometry; the image carries multiplicities.

The two constructions are tied together here: the projective closure of
an affine linear set (the set union its directions) is a projective
linear set, with multiplicities only at infinity, and conversely every
projective linear set on an ideal hyperplane is the direction set of an
affine linear set one dimension up.

Coordinates: affine points of AG(n,q) are n-tuples of codes; projective
points of PG(n,q) are (n+1)-tuples normalized so the first nonzero
coordinate is 1.  An affine point u embeds as (1,) + u; a direction
(ideal point) is (0,) + w normalized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import Field, SoundnessError, subfield_elements, subfield_orders
from .geometry import AffinePointSet
from . import linalg

__all__ = [
    "AffineLinearSpec", "ProjectiveLinearSpec", "WeightedProjectiveSet",
    "ClosureReport", "build_affine_linear", "project_subgeometry",
    "closure_witness", "realize_direction_set", "is_subfield_linear",
    "subfield_subspaces", "relative_basis", "normalize_projective",
    "directions_of_vectors", "plane_set", "direction_code_of_projective",
]

# most span points s^(d+1) a projection spec may hold: at s = 2 each two
# more columns cost `realize` about four times the time
MAX_SPAN_POINTS = 1 << 16


def normalize_projective(F: Field, vec):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for i, c in enumerate(vec):
        if c:
            inv = F.inv(c)
            return tuple(0 for _ in range(i)) + tuple(F.mul(inv, x) for x in vec[i:])
    return None


def direction_code_of_projective(F: Field, point) -> int:
    """Direction code of a PG(1,q) point (u : v): v/u, vertical when u = 0."""
    u, v = point
    return F.q if u == 0 else F.div(v, u)


def _check_codes(F: Field, what: str, codes) -> None:
    """Each entry an int in [0, q): a field code, which the arithmetic
    tables index without a check of their own."""
    for c in codes:
        if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < F.q:
            raise ValueError(f"{what} entry {c!r} is not a code of GF({F.q})")


def _check_subfield_order(F: Field, s) -> None:
    """s an int order of a subfield of F (2.0 == 2, but indexes no list)."""
    if isinstance(s, bool) or not isinstance(s, int) or s not in subfield_orders(F):
        raise ValueError(f"{s!r} is not a subfield order of GF({F})")


@dataclass(frozen=True)
class AffineLinearSpec:
    """Generators and translate of a GF(s)-linear set in AG(n,q)."""

    field: Field
    s: int
    generators: tuple   # tuple of n-tuples of codes
    translate: tuple    # n-tuple of codes

    def __post_init__(self):
        _check_subfield_order(self.field, self.s)
        n = len(self.translate)
        if n < 1:
            raise ValueError("ambient dimension must be at least 1")
        _check_codes(self.field, "translate", self.translate)
        for g in self.generators:
            if len(g) != n:
                raise ValueError("generator dimensions disagree")
            _check_codes(self.field, "generator", g)

    @property
    def dimension(self) -> int:
        return len(self.translate)


def _span_points(F: Field, scalars, generators, translate):
    pts = set()
    base = tuple(translate)
    for coeffs in itertools.product(scalars, repeat=len(generators)):
        vec = list(base)
        for c, g in zip(coeffs, generators):
            if c:
                for i, gi in enumerate(g):
                    if gi:
                        vec[i] = F.add(vec[i], F.mul(c, gi))
        pts.add(tuple(vec))
    return frozenset(pts)


def build_affine_linear(spec: AffineLinearSpec) -> frozenset:
    """All points translate + sum of scalar multiples of the generators,
    scalars from the order-s subfield.  Size s^rank iff the generators are
    independent over the subfield."""
    scalars = subfield_elements(spec.field, spec.s)
    return _span_points(spec.field, scalars, spec.generators, spec.translate)


def plane_set(F: Field, pts) -> AffinePointSet:
    """Adapter for 2-dimensional point sets."""
    pairs = []
    for p in pts:
        if len(p) != 2:
            raise ValueError("plane_set needs 2-dimensional points")
        pairs.append(p)
    return AffinePointSet.of(F, pairs)


def directions_of_vectors(F: Field, pts) -> frozenset:
    """Determined ideal points of an n-dimensional point set, as normalized
    (n+1)-tuples with leading coordinate 0."""
    pts = sorted(pts)
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = tuple(F.sub(a, b) for a, b in zip(pts[i], pts[j]))
            norm = normalize_projective(F, diff)
            if norm is not None:
                out.add((0,) + norm)
    return frozenset(out)


@dataclass(frozen=True)
class ProjectiveLinearSpec:
    """A projection of the canonical subgeometry PG(d,s) into PG(n,q).

    The matrix has n+1 rows and d+1 columns over GF(q), at least one of
    each.  Its span holds s^(d+1) points, at most MAX_SPAN_POINTS.  It
    must have full rank as a linear map (full row rank for d >= n,
    injective for a source of lower dimension), and its center must miss
    the subgeometry.  All are checked when the spec is built: every
    subgeometry point is pushed through the matrix once, a zero image
    meets the center, and the other images are kept with their weights.
    """

    field: Field
    s: int
    matrix: tuple   # (n+1) rows, each a (d+1)-tuple of codes

    def __post_init__(self):
        F = self.field
        _check_subfield_order(F, self.s)
        if not self.matrix or not self.matrix[0]:
            raise ValueError("projection matrix needs a row and a column")
        if len({len(r) for r in self.matrix}) != 1:
            raise ValueError("ragged projection matrix")
        for row in self.matrix:
            _check_codes(F, "projection matrix", row)
        span = self.s ** (self.d + 1)
        if span > MAX_SPAN_POINTS:
            raise ValueError(f"span of {self.s}^{self.d + 1} = {span} points "
                             f"exceeds bound {MAX_SPAN_POINTS}")
        if linalg.rank(F, self.matrix) != min(self.n, self.d) + 1:
            raise ValueError("projection matrix is rank-deficient")
        weights = {}
        for vec in _subgeometry_points(F, self.s, self.d):
            image = normalize_projective(F, linalg.mat_vec(F, self.matrix, vec))
            if image is None:
                raise ValueError("projection center meets the canonical subgeometry")
            weights[image] = weights.get(image, 0) + 1
        # not a dataclass field: ==, hash and repr see only field, s and matrix
        object.__setattr__(self, "_weights", weights)

    @property
    def d(self) -> int:
        return len(self.matrix[0]) - 1

    @property
    def n(self) -> int:
        return len(self.matrix) - 1


def _subgeometry_points(F: Field, s: int, d: int):
    """Canonical PG(d,s): nonzero subfield-coordinate vectors, first nonzero 1."""
    scalars = subfield_elements(F, s)
    for vec in itertools.product(scalars, repeat=d + 1):
        for c in vec:
            if c:
                if c == 1:
                    yield vec
                break


@dataclass
class WeightedProjectiveSet:
    """Projection image with multiplicities, keyed by normalized point."""

    field: Field
    weights: dict

    def support(self):
        return tuple(sorted(self.weights))

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def project_subgeometry(spec: ProjectiveLinearSpec) -> WeightedProjectiveSet:
    """Image of the canonical PG(d,s) with multiplicities, as weighed when
    the spec was built.

    Total weight is always (s^(d+1)-1)/(s-1), the subgeometry size.
    """
    weights = dict(spec._weights)
    expected = (spec.s ** (spec.d + 1) - 1) // (spec.s - 1)
    if sum(weights.values()) != expected:  # pragma: no cover
        raise SoundnessError("projected weight total broke")
    return WeightedProjectiveSet(spec.field, weights)


@dataclass(frozen=True)
class ClosureReport:
    """Witness that the closure of an affine linear set is projective linear."""

    rank: int
    ambient_dimension: int
    reduced: bool
    witness: ProjectiveLinearSpec
    image: WeightedProjectiveSet
    affine_part_matches: bool
    ideal_part_matches: bool
    affine_weights_one: bool
    direction_count_congruent: bool

    @property
    def passed(self) -> bool:
        return (self.affine_part_matches and self.ideal_part_matches
                and self.affine_weights_one and self.direction_count_congruent)


def _independent_generators(F: Field, s: int, generators):
    """Greedy subfield-independent subset spanning the same set."""
    scalars = subfield_elements(F, s)
    kept = []
    span = {tuple(0 for _ in generators[0])} if generators else set()
    for g in generators:
        if tuple(g) in span:
            continue
        kept.append(tuple(g))
        span = {tuple(F.add(x, F.mul(c, gi)) for x, gi in zip(vec, g))
                for vec in span for c in scalars}
    return kept


def closure_witness(spec: AffineLinearSpec) -> ClosureReport:
    """Build and check the projection realizing U union its directions.

    The witness matrix sends the projective frame of PG(r, s) to the
    homogenized translate and generators: column 0 is (1, translate),
    column i is (0, generator_i).  If the set does not span its ambient
    space over GF(q), coordinates are first reduced to the affine hull.
    """
    F = spec.field
    gens = _independent_generators(F, spec.s, [tuple(g) for g in spec.generators])
    if not gens:
        raise ValueError("no independent generators: closure needs rank >= 1")
    U = _span_points(F, subfield_elements(F, spec.s), gens, spec.translate)
    n = spec.dimension
    translate = tuple(spec.translate)
    reduced = False
    u0 = min(U)
    diffs = [tuple(F.sub(a, b) for a, b in zip(u, u0)) for u in sorted(U) if u != u0]
    hull_rows, hull_pivots = linalg.rref(F, diffs) if diffs else ([], [])
    hull_dim = len(hull_pivots)
    if hull_dim < n:
        if hull_dim == 0:
            raise ValueError("degenerate set: affine hull is a point")
        basis = hull_rows[:hull_dim]
        coords = lambda v: linalg.solve(
            F, [tuple(b[i] for b in basis) for i in range(n)], v)
        new_pts = []
        for u in sorted(U):
            c = coords(tuple(F.sub(a, b) for a, b in zip(u, u0)))
            if c is None:  # pragma: no cover
                raise SoundnessError("hull coordinates failed")
            new_pts.append(c)
        gens = [coords(g) for g in gens]
        if any(g is None for g in gens):
            raise ValueError("generators fall outside the affine hull; cannot reduce")
        translate = coords(tuple(F.sub(a, b) for a, b in zip(spec.translate, u0)))
        U = frozenset(new_pts)
        n = hull_dim
        reduced = True
    r = len(gens)
    cols = [(1,) + translate] + [(0,) + tuple(g) for g in gens]
    matrix = tuple(tuple(col[i] for col in cols) for i in range(n + 1))
    witness = ProjectiveLinearSpec(F, spec.s, matrix)
    image = project_subgeometry(witness)
    affine_image = {p[1:]: w for p, w in image.weights.items() if p[0] == 1}
    ideal_image = {p for p in image.weights if p[0] == 0}
    dirs = directions_of_vectors(F, U)
    return ClosureReport(
        rank=r,
        ambient_dimension=n,
        reduced=reduced,
        witness=witness,
        image=image,
        affine_part_matches=set(affine_image) == set(U),
        ideal_part_matches=ideal_image == set(dirs),
        affine_weights_one=all(w == 1 for w in affine_image.values()),
        direction_count_congruent=len(dirs) % spec.s == 1,
    )


def realize_direction_set(spec: ProjectiveLinearSpec) -> frozenset:
    """An affine linear set of AG(n+1, q) whose directions are exactly the
    support of the projected subgeometry.

    The projection extends to one more coordinate with the same center, so
    the affine part of the taller subgeometry maps one-to-one; the realized
    set is the subfield span of the matrix columns, with s^(d+1) points.
    """
    F = spec.field
    pts = _span_points(F, subfield_elements(F, spec.s), tuple(zip(*spec.matrix)),
                       (0,) * (spec.n + 1))
    if len(pts) != spec.s ** (spec.d + 1):  # pragma: no cover
        raise SoundnessError("projection center leaked into the affine part")
    return pts


def is_subfield_linear(F: Field, pts, s: int):
    """Decide whether some translate of pts is closed under subfield spans.

    Any base point works: if the set is a translate of a subspace, removing
    any member recovers that subspace.  Returns (True, (generators, base))
    with a greedy independent generator list, or (False, None).
    """
    pts = {tuple(p) for p in pts}
    if not pts:
        raise ValueError("empty set")
    scalars = subfield_elements(F, s)
    base = min(pts)
    shifted = {tuple(F.sub(a, b) for a, b in zip(p, base)) for p in pts}
    for x in shifted:
        for c in scalars:
            if tuple(F.mul(c, xi) for xi in x) not in shifted:
                return False, None
        for y in shifted:
            if tuple(F.add(a, b) for a, b in zip(x, y)) not in shifted:
                return False, None
    gens = _independent_generators(F, s, sorted(shifted - {min(shifted)})) \
        if len(shifted) > 1 else []
    return True, (tuple(gens), base)


def relative_basis(F: Field, s: int):
    """A basis of GF(q) as a vector space over its order-s subfield: the
    greedy independent subset of the nonzero codes in ascending order."""
    gens = _independent_generators(F, s, [(a,) for a in range(1, F.q)])
    return tuple(a for (a,) in gens)


def subfield_subspaces(F: Field, s: int, ranks):
    """All GF(s)-subspaces of GF(q)^2 of the given ranks, one per subspace.

    GF(q)^2 is a subfield space of dimension m = 2 log_s q; subspaces are
    enumerated through reduced-echelon generator matrices (pivot columns
    ascending, free entries in lexicographic order), so the stream is
    deterministic and duplicate-free.  Yields (rank, frozenset of points).
    """
    scalars = subfield_elements(F, s)
    beta = relative_basis(F, s)
    e = len(beta)
    m = 2 * e
    basis_vectors = [(b, 0) for b in beta] + [(0, b) for b in beta]

    def to_vector(row):
        x = y = 0
        for c, (bx, by) in zip(row, basis_vectors):
            if c:
                if bx:
                    x = F.add(x, F.mul(c, bx))
                if by:
                    y = F.add(y, F.mul(c, by))
        return (x, y)

    for k in sorted(set(ranks)):
        if not 1 <= k <= m:
            raise ValueError(f"rank {k} outside [1, {m}]")
        for pivots in itertools.combinations(range(m), k):
            free_slots = [(i, c) for i in range(k)
                          for c in range(pivots[i] + 1, m) if c not in pivots]
            for values in itertools.product(scalars, repeat=len(free_slots)):
                rows = [[0] * m for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, c), val in zip(free_slots, values):
                    rows[i][c] = val
                gens = [to_vector(r) for r in rows]
                yield k, _span_points(F, scalars, gens, (0, 0))
