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
the defining hyperplanes of the maximal members (those that are no face
of another member) are collected, each member is sliced by those that cut
it into pieces lying on one closed side of every hyperplane, and the
pieces are triangulated by the canonical pulling triangulation keyed to a
single global lexicographic order on primitive rays.  Sign-pure pieces
over one hyperplane set always intersect in common faces, and pulling
triangulations restrict consistently to faces, so the output is properly
positioned by construction.  Pseudo-positive generators hold no line
(``union_contains_line``).  A supplied family is checked pair by pair once;
the facet count alone then decides each tiling (``_facets_tile``).  A point
lies in a cone when it satisfies the cone's inequalities.

A piece keeps both representations: its extreme rays and one inequality
per facet.  Slicing and facet finding then need incidences only, which
rays are tight on which inequalities (the double description method).
One double-description cut finds every ray: a piece sliced by a
hyperplane, a piece met with more constraints (the line and face tests
start from a member's simplicial piece), and the facets of a cone given by
rays, which are the rays of its dual cone cut out one generator at a time.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    NotASubdivision,
    NotSimplicial,
    NotStrictlyConvexUnion,
)
from .exact import (
    Polynomial,
    Record,
    Vec,
    _common_length,
    _reduced_rows,
    int_inverse,
    is_pseudo_positive,
    mat_from_columns,
    mat_rank,
    max_minor_abs_sum,
    nullspace,
    primitive_pseudo_positive,
    primitive_vector,
    vec,
    vec_dot,
    vec_is_zero,
)
from .germs import GermSum, PolarGerm, canonical_fraction, make_germ_sum

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
    "signed_cone_term",
    "I_simplicial",
    "I_cone",
]


class SimplicialCone(Record):
    """Cone spanned by linearly independent primitive generators."""

    generators: tuple[Vec, ...]

    rays = property(lambda self: self.generators)  # as PolyCone.rays

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ambient(self) -> int:
        return len(self.generators[0])

    def __repr__(self):
        gens = "; ".join(",".join(str(c) for c in g) for g in self.generators)
        return f"SimplicialCone<{gens}>"


class PolyCone(Record):
    """Pointed cone given by its extreme rays (primitive, sorted)."""

    rays: tuple[Vec, ...]

    @property
    def ambient(self) -> int:
        return len(self.rays[0])


class ConeFamily(Record):
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
    """Exact membership in a simplicial cone: x satisfies its inequalities.
    A point of another length is refused (ValueError)."""
    _common_length([cone.ambient, len(x)],
                   "a cone and a point live in ambient dimensions")
    piece = _simplicial_piece(cone.generators)
    return _satisfies(vec(x), piece.eqs, piece.ineqs)


def _neg(v):
    return tuple(-a for a in v)


def _satisfies(x: Vec, eqs: Iterable[Vec], ineqs: Iterable[Vec]) -> bool:
    return (all(vec_dot(e, x) == 0 for e in eqs)
            and all(vec_dot(c, x) >= 0 for c in ineqs))


# ---------------------------------------------------------------------------
# double description: half-space representations and extreme rays

class _Piece(Record):
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
    cone within the span), the others span the equalities.  Generators of
    full rank span the ambient space, which leaves no equalities.
    """
    n = len(gens)
    # annihilator of the span
    comp = nullspace(tuple(gens)) if n < len(gens[0]) else []
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
    span.  The dual of the rays at the pivot columns of their reduced
    echelon form is simplicial, and each other ray r cuts it by r.y >= 0.
    """
    rays = tuple(sorted(rays))
    _, cols = _reduced_rows(mat_from_columns(rays))
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


def _common_ambient(cones: Sequence[SimplicialCone | PolyCone]) -> int:
    """The ambient dimension the members of a family share (0 for none)."""
    return _common_length([c.ambient for c in cones],
                          "cones of one family live in ambient dimensions")


def _pair_contains_line(a: _Piece, b: _Piece) -> bool:
    """Some nonzero v lies in piece a while -v lies in piece b."""
    return bool(_meet(a, b.eqs, map(_neg, b.ineqs)))


def _line_pair(cones: Sequence[SimplicialCone], pieces: Iterable[_Piece]
               ) -> tuple[int, int] | None:
    """The first pair i < j of members with v in one and -v in the other
    for some nonzero v, read off their simplicial pieces.  None at once,
    ``pieces`` unread, when every generator is pseudo-positive, as stored
    pole forms and their refinement's rays are: such vectors are closed
    under positive combination and meet their negatives only in 0."""
    _common_ambient(cones)
    if all(is_pseudo_positive(g) for c in cones for g in c.generators):
        return None
    return next(((i, j) for (i, a), (j, b)
                 in combinations(enumerate(pieces), 2)
                 if _pair_contains_line(a, b)), None)


def union_contains_line(cones: Sequence[SimplicialCone]) -> bool:
    """True when some nonzero v has v in one member and -v in another (a
    simplicial cone has no line); ``_line_pair`` builds the pieces only
    when it reads them."""
    return _line_pair(cones, (_simplicial_piece(c.generators)
                              for c in cones)) is not None


def positioning_witness(cones: Sequence[SimplicialCone]
                        ) -> tuple[int, int, str] | None:
    """First pair (i, j) of members that are not properly positioned: the
    first pair i < j whose union contains a line (``_line_pair``, on the
    pieces the face pass uses), else the first whose intersection is not a
    common face.  The result is (i, j, reason), or None when the family is
    properly positioned."""
    cones = list(cones)
    pieces = [_simplicial_piece(c.generators) for c in cones]
    if line := _line_pair(cones, pieces):
        return *line, "union contains a line"
    for a, b in combinations(range(len(pieces)), 2):
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
    nonzero linear subspace (``union_contains_line``, at once False on the
    pseudo-positive pole forms ``decompose`` stores): no refinement exists.

    The span and facet hyperplanes of the maximal members, those whose
    generators are no proper subset of another member's, slice every
    member, in the global sorted order, wherever their normal takes both
    signs on its generators; any other hyperplane leaves the member, and so
    each of its pieces, on one closed side.  So only the maximal members
    and the members some hyperplane cuts are built as pieces: a member no
    hyperplane cuts is its own single piece.  A cut member's first piece is
    its simplicial H-representation, whose n inequalities are exactly its n
    facets.  A family with one maximal member is made of faces of it, with
    no line in their union, and comes back unchanged (repeats merged).

    A face F of a member C needs no hyperplanes of its own: F is C cut by
    facet hyperplanes of C, so it is a union of faces of C's cells, on
    which the pulled simplices agree.  F's hyperplanes would only cut what
    proper positioning does not need, as the normal line of an edge halves
    an obtuse 2D cone.
    """
    cones = list(cones)
    if not cones:
        return [], []
    _common_ambient(cones)
    gens = [set(c.generators) for c in cones]
    maximal = dict.fromkeys(c for c, g in zip(cones, gens)
                            if not any(g < h for h in gens))
    hyperplanes: list[Vec] = []
    firsts: dict[SimplicialCone, _Piece] = {}
    if len({frozenset(c.generators) for c in maximal}) > 1:
        if union_contains_line(cones):
            raise NotStrictlyConvexUnion(
                "the union of the cones contains a linear subspace")
        firsts = {c: _simplicial_piece(c.generators) for c in maximal}
        hyperplanes = sorted({primitive_pseudo_positive(w)[1]
                              for p in firsts.values()
                              for w in p.eqs + p.ineqs})
    piece_index: dict[tuple, int] = {}
    collected: list[SimplicialCone] = []
    index_sets: list[list[int]] = []
    for cone in cones:
        pieces = None
        for w in hyperplanes:
            vals = [vec_dot(w, g) for g in cone.generators]
            if min(vals) < 0 < max(vals):
                if pieces is None:
                    pieces = [firsts.get(cone)
                              or _simplicial_piece(cone.generators)]
                pieces = [half for p in pieces for half in _split_piece(p, w)]
        simplices = ([cone.generators] if pieces is None
                     else [s for p in pieces for s in _pull_triangulate(p)])
        mine = set()
        for simplex in simplices:
            if simplex not in piece_index:
                piece_index[simplex] = len(collected)
                collected.append(SimplicialCone(simplex))
            mine.add(piece_index[simplex])
        index_sets.append(sorted(mine))
    return collected, index_sets


# ---------------------------------------------------------------------------
# subdivision checking

def is_subdivision(pieces: Sequence[SimplicialCone],
                   target: SimplicialCone | PolyCone) -> bool:
    """Exact check that the pieces tile the target cone: each lies in it
    with its dimension, they pass the facet count of ``_facets_tile`` and
    they are properly positioned.  No sampling, no tolerance."""
    pieces = list(pieces)
    _common_ambient([target] + pieces)
    cell = _poly_piece(target.rays)
    return (all(_inside(p, cell) for p in pieces)
            and _facets_tile(pieces, cell)
            and is_properly_positioned(pieces))


def _inside(cone: SimplicialCone, cell: _Piece) -> bool:
    """The cone has the cell's dimension and lies in it."""
    return cone.dim == cell.dim and all(
        _satisfies(g, cell.eqs, cell.ineqs) for g in cone.generators)


def _facets_tile(pieces: Sequence[SimplicialCone], cell: _Piece) -> bool:
    """Pieces inside the cell with its dimension, meeting pairwise along
    common faces, tile it exactly when they are distinct and each facet of
    a piece (its generators but one) lies once on the cell's boundary, where
    an inequality of the cell vanishes on it, or twice off it (De Loera,
    Rambau & Santos, *Triangulations*, ch. 4).  No pieces tile nothing."""
    rays = [tuple(sorted(map(primitive_vector, p.generators))) for p in pieces]
    if not rays or len(set(rays)) < len(rays):
        return False
    facets = Counter(f for r in rays for f in combinations(r, len(r) - 1))
    return all(n == 2 - any(all(vec_dot(c, g) == 0 for g in f)
                            for c in cell.ineqs)
               for f, n in facets.items())


def _pieces_by_cone(cones: Sequence[SimplicialCone],
                    family: Sequence[SimplicialCone]
                    ) -> dict[SimplicialCone, list[SimplicialCone]]:
    """For each cone, the members of a properly positioned family that lie
    in it with its dimension.  They meet along common faces, so the facet
    count alone decides that they tile it (NotASubdivision otherwise)."""
    assignment: dict[SimplicialCone, list[SimplicialCone]] = {}
    for cone in cones:
        cell = _simplicial_piece(cone.generators)
        mine = [d for d in family if _inside(d, cell)]
        if not _facets_tile(mine, cell):
            raise NotASubdivision(
                f"family does not tile the supporting cone {cone!r}")
        assignment[cone] = mine
    return assignment


# ---------------------------------------------------------------------------
# the cone-to-germ valuation

def signed_cone_term(generators: Sequence[Vec], weight) -> PolarGerm:
    """The polar germ (-1)^d w / (<g_1, eps> ... <g_d, eps>) of d
    independent generators and a nonzero weight w.

    A constant over independent forms is polar under every inner product,
    so nothing is left to check; sign normalization of the forms absorbs
    (-1)s into the numerator.
    """
    num = Polynomial.constant(len(generators[0]),
                              -weight if len(generators) % 2 else weight)
    return PolarGerm(*canonical_fraction(num, [(g, 1) for g in generators]))


def I_simplicial(cone: SimplicialCone) -> PolarGerm:
    """The germ (-1)^n w(C) / (L_1 ... L_n) attached to a simplicial cone.

    The weight w(C) is the sum of |det| over all n-row minors of the matrix
    whose columns are the generators; it makes the assignment additive under
    subdivision of cones.
    """
    return signed_cone_term(cone.generators,
                            max_minor_abs_sum(list(cone.generators), cone.dim))


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
