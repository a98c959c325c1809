"""Exact polyhedral cone geometry for expansion supports.

Cones live in the ambient rational space (no inner product is involved in
any of the geometry here).  Simplicial cones carry independent primitive
generators in a canonical sorted order; general pointed cones are handled
through exact half-space representations.  Nothing here limits the
dimension; the command-line tool caps it (``--dim-cap``).  The members of
one family must share their ambient dimension (ValueError otherwise).

The arithmetic is integer.  Generators, rays and facet normals are
primitive integer vectors, stored as tuples of ints (see
``exact.primitive_vector``), so every incidence and sign test is an
``exact.vec_dot`` of int rows, itself an int, and every rank test runs on
integer rows.  A cone built directly with non-integral generators keeps
them as Fractions; the same tests then run on Fractions.

The refinement algorithm makes a family of cones "properly positioned"
(pairwise intersections are common faces and the union contains no line):
the defining hyperplanes of all members are collected, each member is
sliced by those that cut it into pieces lying on one closed side of every
hyperplane, and the pieces are triangulated by the canonical pulling
triangulation keyed to a single global lexicographic order on primitive
rays.  Sign-pure pieces over one hyperplane set always intersect in common
faces, and pulling triangulations restrict consistently to faces, so the
output is properly positioned by construction.

A piece keeps both representations: its extreme rays and one inequality
per facet.  Slicing and facet finding then need incidences only, which
rays are tight on which inequalities (the double description method).
One double-description cut finds every ray: a piece sliced by a
hyperplane, a piece met with more constraints (the line and face tests
start from a member's simplicial piece), and the facets of a cone given by
rays, which are the rays of its dual cone cut out one generator at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    NotASubdivision,
    NotSimplicial,
    NotStrictlyConvexUnion,
)
from .exact import (
    ONE,
    Polynomial,
    Vec,
    int_inverse,
    is_pseudo_positive,
    mat_from_columns,
    mat_rank,
    max_minor_abs_sum,
    nullspace,
    primitive_vector,
    rref,
    solve,
    vec,
    vec_dot,
    vec_is_zero,
)
from .germs import GermSum, PolarGerm, canonicalize_polar, make_germ_sum

__all__ = [
    "SimplicialCone",
    "PolyCone",
    "ConeFamily",
    "make_simplicial_cone",
    "make_poly_cone",
    "is_pseudo_positive",
    "cone_contains",
    "cones_meet_along_face",
    "union_contains_line",
    "positioning_witness",
    "is_properly_positioned",
    "common_refinement",
    "triangulate_cone",
    "is_subdivision",
    "I_simplicial",
    "I_cone",
]


@dataclass(frozen=True)
class SimplicialCone:
    """Cone spanned by linearly independent primitive generators."""

    generators: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ambient(self) -> int:
        return len(self.generators[0])

    def __repr__(self):
        gens = "; ".join(",".join(str(c) for c in g) for g in self.generators)
        return f"SimplicialCone<{gens}>"


@dataclass(frozen=True)
class PolyCone:
    """Pointed cone given by its extreme rays (primitive, sorted)."""

    rays: tuple[Vec, ...]

    @property
    def ambient(self) -> int:
        return len(self.rays[0])


@dataclass(frozen=True)
class ConeFamily:
    """A finite family of simplicial cones (an expansion support)."""

    cones: tuple[SimplicialCone, ...]

    def __len__(self):
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)


def make_simplicial_cone(generators: Iterable[Sequence]) -> SimplicialCone:
    gens = []
    for g in generators:
        v = vec(g)
        if vec_is_zero(v):
            raise NotSimplicial("zero vector cannot generate a cone")
        gens.append(primitive_vector(v))
    if not gens:
        raise NotSimplicial("a cone needs at least one generator")
    _common_length([len(g) for g in gens], "generators of a cone have lengths")
    gens = tuple(sorted(gens))
    if mat_rank(gens) != len(gens):
        raise NotSimplicial("generators must be linearly independent")
    return SimplicialCone(gens)


def make_poly_cone(rays: Iterable[Sequence]) -> PolyCone:
    """Pointed cone from (possibly redundant) generating rays."""
    raw = [primitive_vector(vec(r)) for r in rays]
    raw = list(dict.fromkeys(r for r in raw if not vec_is_zero(r)))
    if not raw:
        raise ValueError("a cone needs at least one nonzero ray")
    k = _common_length([len(r) for r in raw], "rays of a cone have lengths")
    hull = _poly_piece(raw)
    # a nontrivial lineality space means the cone contains a line
    if mat_rank(hull.eqs + hull.ineqs) < k:
        raise NotStrictlyConvexUnion("rays do not span a pointed cone")
    # the facets tight at a ray cut out the least face holding it, and an
    # extreme ray is the only ray in that face
    tight = [sum(1 << j for j, c in enumerate(hull.ineqs)
                 if vec_dot(c, r) == 0) for r in hull.rays]
    return PolyCone(tuple(
        r for i, (r, t) in enumerate(zip(hull.rays, tight))
        if not any(t & o == t for j, o in enumerate(tight) if j != i)))


def cone_contains(cone: SimplicialCone, x: Sequence) -> bool:
    """Exact membership in a simplicial cone."""
    coords = solve(mat_from_columns(list(cone.generators)), vec(x))
    return coords is not None and all(c >= 0 for c in coords)


def _neg(v):
    return tuple(-a for a in v)


def _satisfies(x: Vec, eqs: Iterable[Vec], ineqs: Iterable[Vec]) -> bool:
    return (all(vec_dot(e, x) == 0 for e in eqs)
            and all(vec_dot(c, x) >= 0 for c in ineqs))


# ---------------------------------------------------------------------------
# double description: half-space representations and extreme rays

@dataclass
class _Piece:
    """A pointed cone tracked in both representations.

    Normals are primitive int vectors.  Rays are int vectors too, except the
    non-integral generators of a directly built cone, which stay Fractions.
    The rays are exactly the extreme rays, and every facet is cut out by one
    of the inequalities; the incidence tests below rely on both.
    """

    eqs: tuple[Vec, ...]
    ineqs: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    dim: int


def _simplicial_piece(gens: Sequence[Vec]) -> _Piece:
    """The cone over independent generators, cut out exactly by the rows
    of the inverse of [generators | annihilator of their span], primitive:
    the first n are its n facet normals (and the extreme rays of the dual
    cone within the span), the others span the equalities.
    """
    n = len(gens)
    comp = nullspace(tuple(gens))  # annihilator of the span
    rows = [primitive_vector(r)
            for r, _ in int_inverse(mat_from_columns(list(gens) + comp))]
    return _Piece(tuple(rows[n:]), tuple(rows[:n]), tuple(gens), n)


def _cut(ineqs: Sequence[Vec], rays: Sequence[Vec], w: Vec
         ) -> tuple[list[Vec], list[Vec], list[Vec], list[Vec]]:
    """One step of the double description method (Fukuda & Prodon, "Double
    description method revisited", 1996): the rays with w > 0, w = 0 and
    w < 0, and the fresh rays where w = 0 crosses the edges (r+, r-).

    The rays are the extreme rays of a pointed cone, and every facet is cut
    out by one of the inequalities (others may be redundant).  Two rays
    span an edge when no third ray is tight on every inequality tight at
    both: those cut out the least face holding both, an edge exactly when
    it has no other ray.
    """
    vals = [vec_dot(w, r) for r in rays]
    plus = [i for i, v in enumerate(vals) if v > 0]
    minus = [i for i, v in enumerate(vals) if v < 0]
    fresh = []
    if plus and minus:
        tight = [sum(1 << j for j, c in enumerate(ineqs) if vec_dot(c, r) == 0)
                 for r in rays]
        for p in plus:
            for m in minus:
                common = tight[p] & tight[m]
                if any(tight[i] & common == common
                       for i in range(len(rays)) if i != p and i != m):
                    continue
                vp, vm = vals[p], vals[m]
                fresh.append(primitive_vector(
                    [vp * a - vm * b for a, b in zip(rays[m], rays[p])]))
    return ([rays[i] for i in plus], [r for r, v in zip(rays, vals) if v == 0],
            [rays[i] for i in minus], fresh)


def _meet(piece: _Piece, eqs: Iterable[Vec], ineqs: Iterable[Vec]
          ) -> list[Vec]:
    """Extreme rays of { x in piece : eqs x = 0, ineqs x >= 0 }, primitive
    and sorted; none when only 0 is left.

    One ``_cut`` per constraint.  An equality keeps the rays on it and the
    fresh ones; an inequality that cuts keeps those on its closed positive
    side and the fresh ones, and joins the inequalities.
    """
    normals, rays = piece.ineqs, piece.rays
    for w, keep_plus in [(e, False) for e in eqs] + [(c, True) for c in ineqs]:
        if not rays:
            break
        plus, zero, minus, fresh = _cut(normals, rays, w)
        if not keep_plus:
            rays = zero + fresh
        elif minus:
            rays = plus + zero + fresh
            normals += (w,)
    return sorted(primitive_vector(r) for r in rays)


def _poly_piece(rays: Sequence[Vec]) -> _Piece:
    """The cone the rays generate: its facet normals, primitive and sorted,
    and the given rays, sorted (a piece once they are its extreme rays).

    The facet normals are the extreme rays of the dual cone within the
    span.  The dual of the rays at the rref pivots is simplicial, and each
    other ray r cuts it by r.y >= 0.
    """
    rays = tuple(sorted(rays))
    _, cols = rref(mat_from_columns(rays))
    basis = _simplicial_piece([rays[j] for j in cols])
    dual = _Piece(basis.eqs, basis.rays, basis.ineqs, basis.dim)
    normals = _meet(dual, (), [r for j, r in enumerate(rays) if j not in cols])
    return _Piece(basis.eqs, tuple(normals), rays, basis.dim)


# ---------------------------------------------------------------------------
# face relations

def _pieces_meet_along_face(a: _Piece, b: _Piece) -> bool:
    """True when two simplicial pieces meet in a face of both: the support
    of every ray of the intersection lies in it.  The j-th facet normal of
    a simplicial piece is positive on a ray of the piece exactly when the
    ray's support holds the j-th generator."""
    rays = _meet(a, b.eqs, b.ineqs)
    eqs, ineqs = a.eqs + b.eqs, a.ineqs + b.ineqs
    for p in (a, b):
        inside = {g for g in p.rays if _satisfies(g, eqs, ineqs)}
        if any(vec_dot(c, r) != 0 and g not in inside
               for r in rays for g, c in zip(p.rays, p.ineqs)):
            return False
    return True


def cones_meet_along_face(c1: SimplicialCone, c2: SimplicialCone) -> bool:
    """True when the intersection is a face of both cones."""
    _common_ambient((c1, c2))
    return _pieces_meet_along_face(_simplicial_piece(c1.generators),
                                   _simplicial_piece(c2.generators))


def _common_length(lengths: Sequence[int], what: str) -> int:
    """The one length in ``lengths``, else ValueError naming two: mixed
    lengths are refused before any geometry runs (``vec_dot`` ignores them).
    """
    for n in lengths:
        if n != lengths[0]:
            raise ValueError(f"{what} {lengths[0]} and {n}")
    return lengths[0]


def _common_ambient(cones: Sequence[SimplicialCone | PolyCone]) -> int:
    """The ambient dimension the members of a nonempty family share."""
    return _common_length([c.ambient for c in cones],
                          "cones of one family live in ambient dimensions")


def _pair_contains_line(a: _Piece, b: _Piece) -> bool:
    """Some nonzero v lies in piece a while -v lies in piece b."""
    return bool(_meet(a, b.eqs, map(_neg, b.ineqs)))


def union_contains_line(cones: Sequence[SimplicialCone]) -> bool:
    """True when some nonzero v has v in one member and -v in another.

    Only pairs of distinct members are tested: a simplicial cone has
    independent generators, so it contains no line on its own.
    """
    if not cones:
        return False
    _common_ambient(cones)
    pieces = [_simplicial_piece(c.generators) for c in cones]
    return any(_pair_contains_line(a, b) for a, b in combinations(pieces, 2))


def positioning_witness(cones: Sequence[SimplicialCone]
                        ) -> tuple[int, int, str] | None:
    """First pair (i, j) of members that are not properly positioned.

    Pairs i < j whose union contains a line are searched first, then pairs
    i < j whose intersection is not a common face; the result is
    (i, j, reason), or None when the family is properly positioned.
    """
    cones = list(cones)
    if not cones:
        return None
    _common_ambient(cones)
    pieces = [_simplicial_piece(c.generators) for c in cones]
    pairs = list(combinations(range(len(pieces)), 2))
    for a, b in pairs:
        if _pair_contains_line(pieces[a], pieces[b]):
            return a, b, "union contains a line"
    for a, b in pairs:
        if not _pieces_meet_along_face(pieces[a], pieces[b]):
            return a, b, "intersection is not a common face"
    return None


def is_properly_positioned(cones: Sequence[SimplicialCone]) -> bool:
    """Pairwise intersections are common faces and the union has no line."""
    return positioning_witness(cones) is None


# ---------------------------------------------------------------------------
# slicing machinery

def _facets(piece: _Piece) -> dict[int, Vec]:
    """The facets of a piece: bitmask of its tight rays -> first inequality.

    Each inequality is tight on a face of the piece, and the facets are its
    maximal proper faces (Ziegler, *Lectures on Polytopes*, ch. 2).  Every
    facet is cut out by one of the inequalities, so the facets are exactly
    the maximal proper tight sets; faces are compared by their rays, which
    needs no rank test.  Facets come in the order of their first inequality.
    """
    rays = piece.rays
    masks = [sum(1 << i for i, r in enumerate(rays) if vec_dot(c, r) == 0)
             for c in piece.ineqs]
    full = (1 << len(rays)) - 1
    proper = {m for m in masks if m != full}
    facets: dict[int, Vec] = {}
    for c, m in zip(piece.ineqs, masks):
        if m in proper and not any(m & o == m != o for o in proper):
            facets.setdefault(m, c)
    return facets


def _split_piece(piece: _Piece, w: Vec) -> list[_Piece]:
    """Slice by the hyperplane w=0; keep both closed halves.

    One ``_cut``: the rays on a closed side stay extreme rays of that half,
    joined by the fresh rays on the hyperplane.  The inequalities of a
    piece are its facets: each half gains w or -w and keeps the first
    inequality of each of its facets, in order.  A strict cut leaves two
    halves of full dimension.
    """
    plus, zero, minus, fresh = _cut(piece.ineqs, piece.rays, w)
    if not plus or not minus:
        return [piece]
    halves = []
    for side, normal in ((plus, w), (minus, _neg(w))):
        half = _Piece(piece.eqs, piece.ineqs + (normal,),
                      tuple(sorted(side + zero + fresh)), piece.dim)
        halves.append(_Piece(half.eqs, tuple(_facets(half).values()),
                             half.rays, half.dim))
    return halves


def _piece_facets(piece: _Piece) -> list[_Piece]:
    """The facets of a piece as pieces, ordered by their sorted rays.

    Found by incidence, as in ``_facets``.  Each facet F keeps its first
    defining inequality as an equality and the other inequalities as they
    are.  Every facet of F is F meeting another facet of the piece, so the
    inequalities kept still cut out each facet of F.
    """
    facets = []
    for mask, c in _facets(piece).items():
        tight = tuple(sorted(r for i, r in enumerate(piece.rays)
                             if mask >> i & 1))
        facets.append(_Piece(piece.eqs + (c,),
                             tuple(x for x in piece.ineqs if x != c),
                             tight, piece.dim - 1))
    facets.sort(key=lambda f: f.rays)
    return facets


def _pull_triangulate(piece: _Piece,
                      reverse: bool = False) -> list[tuple[Vec, ...]]:
    """Pulling triangulation: cone the lex-least ray (lex-greatest with
    ``reverse``) over the opposite facets.

    Keyed only to the global lexicographic order on primitive rays, so the
    triangulations of two cones that share a face agree on that face.
    Piece rays are kept sorted, so the pulled ray is the first or last.
    """
    if len(piece.rays) == piece.dim:
        return [piece.rays]
    r0 = piece.rays[-1] if reverse else piece.rays[0]
    simplices = []
    for facet in _piece_facets(piece):
        if r0 in facet.rays:
            continue
        for simplex in _pull_triangulate(facet, reverse):
            simplices.append(tuple(sorted(simplex + (r0,))))
    return simplices


def triangulate_cone(cone: SimplicialCone | PolyCone,
                     reverse_order: bool = False) -> list[SimplicialCone]:
    """Canonical pulling triangulation of a pointed cone (no new rays).

    ``reverse_order`` keys the pulling to the reversed lexicographic order,
    which is useful for producing a second, independent triangulation of the
    same cone in tests of subdivision invariance.
    """
    if isinstance(cone, SimplicialCone):
        return [cone]
    return [SimplicialCone(s)
            for s in _pull_triangulate(_poly_piece(cone.rays), reverse_order)]


# ---------------------------------------------------------------------------
# common refinement

def common_refinement(
        cones: Sequence[SimplicialCone]
) -> tuple[list[SimplicialCone], list[list[int]]]:
    """Subdivide every member so the results form one properly positioned
    family.

    Returns (pieces, index_sets): pieces is the deduplicated list of
    simplicial cones; index_sets[i] lists the pieces that tile cones[i].
    Raises NotStrictlyConvexUnion when the union of the input contains a
    nonzero linear subspace (no such refinement exists then).

    The line test is skipped when every generator is pseudo-positive, as
    the pole forms ``decompose`` stores are: such vectors are closed under
    positive combination and meet their negatives only in 0, so no v and -v
    can both lie in the union.

    A family of one member is returned as it is.  Otherwise each member is
    sliced, in the global sorted order, by the hyperplanes whose normal
    takes both signs on its generators; any other hyperplane leaves the
    member, and so each of its pieces, on one closed side.  A member's
    first piece is its simplicial H-representation, whose n inequalities
    are exactly its n facets.
    """
    cones = list(cones)
    if not cones:
        return [], []
    _common_ambient(cones)
    if len(cones) == 1:
        return cones, [[0]]
    if (not all(is_pseudo_positive(g) for c in cones for g in c.generators)
            and union_contains_line(cones)):
        raise NotStrictlyConvexUnion(
            "the union of the cones contains a linear subspace")
    firsts = [_simplicial_piece(c.generators) for c in cones]
    hyperplanes = sorted({_sign_canonical(w)
                          for p in firsts for w in p.eqs + p.ineqs})
    piece_index: dict[tuple, int] = {}
    collected: list[SimplicialCone] = []
    index_sets: list[list[int]] = []
    for cone, first in zip(cones, firsts):
        pieces = [first]
        for w in hyperplanes:
            vals = [vec_dot(w, g) for g in cone.generators]
            if min(vals) < 0 < max(vals):
                pieces = [half for p in pieces for half in _split_piece(p, w)]
        mine = set()
        for p in pieces:
            for simplex in _pull_triangulate(p):
                if simplex not in piece_index:
                    piece_index[simplex] = len(collected)
                    collected.append(SimplicialCone(simplex))
                mine.add(piece_index[simplex])
        index_sets.append(sorted(mine))
    return collected, index_sets


def _sign_canonical(w: Vec) -> Vec:
    """The pseudo-positive one of the primitive normals w and -w."""
    return w if is_pseudo_positive(w) else _neg(w)


# ---------------------------------------------------------------------------
# subdivision checking

def is_subdivision(pieces: Sequence[SimplicialCone],
                   target: SimplicialCone | PolyCone) -> bool:
    """Exact check that the pieces tile the target cone.

    Same dimension, contained in the target, pairwise intersections along
    common faces, and an exact cover: the target is sliced by every facet
    hyperplane of every piece, and each resulting cell's interior point must
    lie in some piece.  No sampling, no tolerance.
    """
    pieces = list(pieces)
    if not pieces:
        return False
    k = _common_ambient([target] + pieces)
    if isinstance(target, SimplicialCone):
        cell = _simplicial_piece(target.generators)
    else:
        cell = _poly_piece(target.rays)
    if any(p.dim != cell.dim for p in pieces):
        return False
    if not all(_satisfies(g, cell.eqs, cell.ineqs)
               for p in pieces for g in p.generators):
        return False
    parts = [_simplicial_piece(p.generators) for p in pieces]
    if not all(_pieces_meet_along_face(a, b)
               for a, b in combinations(parts, 2)):
        return False
    cells = [cell]
    for w in sorted({_sign_canonical(w) for p in parts for w in p.ineqs}):
        cells = [half for c in cells for half in _split_piece(c, w)]
    for c in cells:
        interior = tuple(sum(r[i] for r in c.rays) for i in range(k))
        if not any(_satisfies(interior, p.eqs, p.ineqs) for p in parts):
            return False
    return True


# ---------------------------------------------------------------------------
# the cone-to-germ valuation

def I_simplicial(cone: SimplicialCone) -> PolarGerm:
    """The germ (-1)^n w(C) / (L_1 ... L_n) attached to a simplicial cone.

    The weight w(C) is the sum of |det| over all n-row minors of the matrix
    whose columns are the generators; it makes the assignment additive under
    subdivision of cones.
    """
    n = cone.dim
    weight = max_minor_abs_sum(list(cone.generators), n)
    sign = -ONE if n % 2 else ONE
    num = Polynomial.constant(cone.ambient, sign * weight)
    factors = tuple((g, 1) for g in cone.generators)
    # sign normalization of the forms absorbs (-1)s into the numerator
    return canonicalize_polar(None, num, factors)


def I_cone(cone: SimplicialCone | PolyCone,
           triangulation: Sequence[SimplicialCone] | None = None
           ) -> GermSum:
    """Valuation of a pointed cone, via a triangulation.

    With an explicit triangulation the subdivision property is validated
    first (NotASubdivision).  The value does not depend on the triangulation
    chosen; subdivision invariance is what the weight w buys.
    """
    if triangulation is not None:
        if not is_subdivision(triangulation, cone):
            raise NotASubdivision("given cones do not tile the target")
        simplices = list(triangulation)
    else:
        simplices = triangulate_cone(cone)
    k = cone.ambient
    return make_germ_sum([I_simplicial(s) for s in simplices],
                         Polynomial.zero(k))
