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
Extreme rays are enumerated over subsets of constraints, one rank test per
subset, only where no ray representation is at hand: for ``make_poly_cone``,
for the H-representation in ``triangulate_cone`` and in ``is_subdivision``
of a general cone, and for the line and face tests.
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
    is_pseudo_positive,
    mat_from_columns,
    mat_inverse,
    mat_rank,
    max_minor_abs_sum,
    nullspace,
    primitive_vector,
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
    gens = tuple(sorted(gens))
    if mat_rank(gens) != len(gens):
        raise NotSimplicial("generators must be linearly independent")
    return SimplicialCone(gens)


def make_poly_cone(rays: Iterable[Sequence]) -> PolyCone:
    """Pointed cone from (possibly redundant) generating rays."""
    raw = [primitive_vector(vec(r)) for r in rays]
    raw = [r for r in raw if not vec_is_zero(r)]
    if not raw:
        raise ValueError("a cone needs at least one nonzero ray")
    k = len(raw[0])
    eqs, ineqs = _hrep_from_rays(k, raw)
    # a nontrivial lineality space means the cone contains a line
    if mat_rank(tuple(eqs) + tuple(ineqs)) < k:
        raise NotStrictlyConvexUnion("rays do not span a pointed cone")
    extreme = _extreme_rays(k, eqs, ineqs)
    if not extreme:
        raise NotStrictlyConvexUnion("rays do not span a pointed cone")
    return PolyCone(tuple(extreme))


def cone_contains(cone: SimplicialCone, x: Sequence) -> bool:
    """Exact membership in a simplicial cone."""
    coords = _simplicial_coords(cone, vec(x))
    return coords is not None and all(c >= 0 for c in coords)


def _simplicial_coords(cone: SimplicialCone, v: Vec) -> Vec | None:
    """Coordinates of v in the generator basis, or None if v is off-span."""
    return solve(mat_from_columns(list(cone.generators)), v)


def _neg(v):
    return tuple(-a for a in v)


# ---------------------------------------------------------------------------
# half-space representations and extreme rays

def _simplicial_hrep(cone: SimplicialCone
                     ) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(equalities, inequalities) cutting out the cone exactly, as primitive
    integer normals."""
    k = cone.ambient
    n = cone.dim
    comp = nullspace(tuple(cone.generators))  # annihilator of the span
    m = mat_from_columns(list(cone.generators) + comp)
    rows = mat_inverse(m)
    ineqs = tuple(primitive_vector(rows[i]) for i in range(n))
    eqs = tuple(primitive_vector(rows[i]) for i in range(n, k))
    return eqs, ineqs


def _hrep_from_rays(k: int, rays: Sequence
                    ) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """H-representation of the pointed cone generated by the rays."""
    span_ann = tuple(nullspace(tuple(rays)))
    # facet normals = extreme rays of the dual cone within the span
    normals = _extreme_rays(k, span_ann, tuple(rays))
    return span_ann, tuple(normals)


def _extreme_rays(k: int, eqs: Sequence, ineqs: Sequence) -> list[Vec]:
    """Extreme rays of { x : eqs x = 0, ineqs x >= 0 }, primitive and sorted.

    Works for pointed cones; if the set contains a line, representatives of
    both directions are returned (useful for emptiness tests).  Every extreme
    ray is the kernel of a rank-(k-1) subsystem of active constraints, so
    enumerating constraint subsets finds them all.
    """
    eqs = tuple(dict.fromkeys(primitive_vector(e) for e in eqs if not vec_is_zero(e)))
    ineqs = tuple(dict.fromkeys(primitive_vector(c) for c in ineqs if not vec_is_zero(c)))
    need = k - 1 - mat_rank(eqs)
    if need < 0:
        return []
    found: set[Vec] = set()
    for subset in combinations(ineqs, need):
        stack = eqs + subset
        if mat_rank(stack) != k - 1:
            continue
        # the kernel of a rank-(k-1) system is one primitive line
        v = nullspace(stack)[0] if stack else (1,)
        for w in (v, _neg(v)):
            if all(vec_dot(c, w) >= 0 for c in ineqs):
                found.add(w)
    return sorted(found)


# ---------------------------------------------------------------------------
# face relations

def cones_meet_along_face(c1: SimplicialCone, c2: SimplicialCone) -> bool:
    """True when the intersection is a face of both cones."""
    k = c1.ambient
    e1, i1 = _simplicial_hrep(c1)
    e2, i2 = _simplicial_hrep(c2)
    rays = _extreme_rays(k, e1 + e2, i1 + i2)
    if not rays:
        return True  # they meet only at the origin, the trivial common face
    for cone in (c1, c2):
        gens = cone.generators
        inside = {g for g in gens
                  if all(vec_dot(e, g) == 0 for e in (e1 + e2))
                  and all(vec_dot(c, g) >= 0 for c in (i1 + i2))}
        for r in rays:
            coords = _simplicial_coords(cone, r)
            if coords is None:
                return False
            support = {gens[j] for j, c in enumerate(coords) if c != 0}
            if not support <= inside:
                return False
    return True


def _common_ambient(cones: Sequence[SimplicialCone]) -> int:
    """The ambient dimension the members of a nonempty family share.

    ``vec_dot`` does not check lengths, so a family mixing dimensions is
    refused here, before any geometry runs.
    """
    k = cones[0].ambient
    for c in cones:
        if c.ambient != k:
            raise ValueError(f"cones of one family live in ambient dimensions"
                             f" {k} and {c.ambient}")
    return k


def _pair_contains_line(k: int, hrep_a, hrep_b) -> bool:
    """Some nonzero v lies in cone a while -v lies in cone b."""
    ea, ia = hrep_a
    eb, ib = hrep_b
    return bool(_extreme_rays(k, ea + eb, ia + tuple(map(_neg, ib))))


def _hreps_contain_line(k: int, hreps) -> bool:
    return any(_pair_contains_line(k, ha, hb)
               for ha, hb in combinations(hreps, 2))


def union_contains_line(cones: Sequence[SimplicialCone]) -> bool:
    """True when some nonzero v has v in one member and -v in another.

    Only pairs of distinct members are tested: a simplicial cone has
    independent generators, so it contains no line on its own.
    """
    if not cones:
        return False
    return _hreps_contain_line(_common_ambient(cones),
                               [_simplicial_hrep(c) for c in cones])


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
    k = _common_ambient(cones)
    hreps = [_simplicial_hrep(c) for c in cones]
    pairs = list(combinations(range(len(cones)), 2))
    for a, b in pairs:
        if _pair_contains_line(k, hreps[a], hreps[b]):
            return a, b, "union contains a line"
    for a, b in pairs:
        if not cones_meet_along_face(cones[a], cones[b]):
            return a, b, "intersection is not a common face"
    return None


def is_properly_positioned(cones: Sequence[SimplicialCone]) -> bool:
    """Pairwise intersections are common faces and the union has no line."""
    return positioning_witness(cones) is None


# ---------------------------------------------------------------------------
# slicing machinery

@dataclass
class _Piece:
    """A pointed cone tracked in both representations during slicing.

    Normals are primitive int vectors.  Rays are int vectors too, except the
    non-integral generators of a directly built cone, which stay Fractions.
    The rays are exactly the extreme rays, and every facet is cut out by one
    of the inequalities; the incidence tests below rely on both.
    """

    eqs: tuple[Vec, ...]
    ineqs: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    dim: int


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


def _prune_ineqs(piece: _Piece) -> _Piece:
    """Keep one inequality per facet, the first that defines it, in the
    order of the inequalities (found by incidence, see ``_facets``)."""
    return _Piece(piece.eqs, tuple(_facets(piece).values()), piece.rays,
                  piece.dim)


def _split_piece(piece: _Piece, w: Vec) -> list[_Piece]:
    """Slice by the hyperplane w=0; keep both closed halves.

    One step of the double description method (Fukuda & Prodon, "Double
    description method revisited", 1996).  The inequalities of a piece are
    its facets.  Its rays on a closed side stay extreme rays of that half;
    the new rays are the crossings of the edges (r+, r-) the hyperplane
    cuts.  Two rays span an edge when no third ray is tight on every facet
    tight at both: the facets tight at both cut out the least face holding
    them, and it is an edge exactly when it has no other ray.  A strict cut
    leaves two halves of full dimension.
    """
    rays = piece.rays
    vals = [vec_dot(w, r) for r in rays]
    if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
        return [piece]
    tight = [sum(1 << j for j, c in enumerate(piece.ineqs)
                 if vec_dot(c, r) == 0) for r in rays]
    plus = [i for i, v in enumerate(vals) if v > 0]
    zero = [r for r, v in zip(rays, vals) if v == 0]
    minus = [i for i, v in enumerate(vals) if v < 0]
    fresh = []
    for p in plus:
        for m in minus:
            common = tight[p] & tight[m]
            if any(tight[i] & common == common
                   for i in range(len(rays)) if i != p and i != m):
                continue
            vp, vm = vals[p], vals[m]
            fresh.append(primitive_vector(
                [vp * a - vm * b for a, b in zip(rays[m], rays[p])]))
    return [_prune_ineqs(_Piece(piece.eqs, piece.ineqs + (normal,),
                                tuple(sorted([rays[i] for i in side]
                                             + zero + fresh)),
                                piece.dim))
            for side, normal in ((plus, w), (minus, _neg(w)))]


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
    rays = tuple(sorted(cone.rays))
    eqs, ineqs = _hrep_from_rays(cone.ambient, rays)
    piece = _prune_ineqs(_Piece(eqs, ineqs, rays, mat_rank(rays)))
    return [SimplicialCone(s) for s in _pull_triangulate(piece, reverse_order)]


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
    k = _common_ambient(cones)
    if len(cones) == 1:
        return cones, [[0]]
    hreps = [_simplicial_hrep(c) for c in cones]
    if (not all(is_pseudo_positive(g) for c in cones for g in c.generators)
            and _hreps_contain_line(k, hreps)):
        raise NotStrictlyConvexUnion(
            "the union of the cones contains a linear subspace")
    hyperplanes = sorted({_sign_canonical(w)
                          for eqs, ineqs in hreps for w in eqs + ineqs})
    piece_index: dict[tuple, int] = {}
    collected: list[SimplicialCone] = []
    index_sets: list[list[int]] = []
    for cone, (eqs, ineqs) in zip(cones, hreps):
        pieces = [_Piece(eqs, ineqs, cone.generators, cone.dim)]
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
    k = target.ambient
    if isinstance(target, SimplicialCone):
        t_eqs, t_ineqs = _simplicial_hrep(target)
        t_rays = target.generators
        t_dim = target.dim
        member = lambda x: cone_contains(target, x)
    else:
        t_eqs, t_ineqs = _hrep_from_rays(k, target.rays)
        t_rays = target.rays
        t_dim = mat_rank(target.rays)
        member = lambda x: (all(vec_dot(e, x) == 0 for e in t_eqs)
                            and all(vec_dot(c, x) >= 0 for c in t_ineqs))
    if any(p.dim != t_dim for p in pieces):
        return False
    for p in pieces:
        if not all(member(g) for g in p.generators):
            return False
    if not all(cones_meet_along_face(p, q)
               for p, q in combinations(pieces, 2)):
        return False
    hyper: set[Vec] = set()
    for p in pieces:
        _, ineqs = _simplicial_hrep(p)
        for w in ineqs:
            hyper.add(_sign_canonical(w))
    t_rays = tuple(sorted(t_rays))
    cells = [_prune_ineqs(_Piece(t_eqs, t_ineqs, t_rays, t_dim))]
    for w in sorted(hyper):
        cells = [half for c in cells for half in _split_piece(c, w)]
    for cell in cells:
        interior = tuple(sum(r[i] for r in cell.rays) for i in range(k))
        if not any(cone_contains(p, interior) for p in pieces):
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
