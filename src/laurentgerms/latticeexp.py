"""Exponential sums and integrals on lattice cones.

A lattice cone pairs a rational cone with a lattice of its linear span.  The
generating function of the lattice points of a smooth simplicial cone
factors over its generators as a product of 1/(1 - e^x) terms; each factor
splits into an exact polar piece -1/x and a holomorphic tail whose Taylor
coefficients are Bernoulli-number data.  We keep the pole structure exact
and truncate only the transcendental tails, so the highest-order residue of
the sum — which only sees the exact polar top — reproduces the lattice
normalized cone integral with no approximation at all.  Only the product of
the polar pieces of a smooth cone reaches the top order, so that residue is
built from that one term, with no ``decompose``; it is polar under every
inner product, so the residue does not depend on the inner product, and the
rest of the sum is never formed.

Floating point appears in exactly one place: the direct lattice-summation
oracle used to sanity-check truncated germs numerically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, prod
from typing import Sequence

from .errors import (
    NoSmoothSubdivisionAvailable,
    NotASubdivision,
    NotDimensionTwo,
    NotSimplicial,
    NotSmooth,
)
from .exact import (
    ONE,
    ZERO,
    AmbientSpace,
    Polynomial,
    Record,
    Vec,
    _common_length,
    det,
    frac,
    mat_from_columns,
    mat_rank,
    mat_vec,
    nullspace,
    primitive_vector,
    solve,
    unit_vec,
    vec,
    vec_dot,
)
from .cones import (
    PolyCone,
    SimplicialCone,
    is_subdivision,
    make_simplicial_cone,
    signed_cone_term,
    triangulate_cone,
)
from .germs import (
    GermSum,
    canonical_fraction,
    evaluate,
    make_germ_sum,
    polar_split,
)

DEFAULT_TRUNCATION = 8

__all__ = [
    "DEFAULT_TRUNCATION",
    "LatticeCone",
    "TruncatedGerm",
    "make_lattice_cone",
    "is_smooth",
    "bernoulli_tail_coeffs",
    "exp_sum_smooth",
    "exp_integral",
    "smooth_subdivide_2d",
    "p_res_exp_sum",
    "evaluate_truncated",
    "lattice_sum_numeric",
]


class LatticeCone(Record):
    """A cone together with a lattice basis of its linear span.

    Generators are normalized at construction to the primitive lattice
    vector of their ray, so the stored cone depends only on (cone, lattice)
    as geometric data.
    """

    cone: SimplicialCone | PolyCone
    lattice_basis: tuple[Vec, ...]

    @property
    def ambient(self) -> int:
        return self.cone.ambient

    @property
    def rays(self) -> tuple[Vec, ...]:
        return self.cone.rays

    @property
    def dim(self) -> int:
        return len(self.lattice_basis)


def _integer_kernel(rows: Sequence[Vec], k: int) -> list[Vec]:
    """Basis of the lattice { x in Z^k : rows . x = 0 } (saturated), for
    integer rows.

    Unimodular column elimination on the columns of [rows; I]: reduce the
    rows to column echelon form; the lower block under the zeroed-out
    columns is exactly a kernel lattice basis.
    """
    n = len(rows)
    m = [list(r) for r in rows] + [[int(i == j) for j in range(k)]
                                   for i in range(k)]
    start = 0
    for top in m[:n]:
        while True:
            nz = [j for j in range(start, k) if top[j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(top[j]))
            q = top[nz[1]] // top[nz[0]]
            for row in m:
                row[nz[1]] -= q * row[nz[0]]
        if nz:
            for row in m:
                row[start], row[nz[0]] = row[nz[0]], row[start]
            start += 1
    return [tuple(row[j] for row in m[n:]) for j in range(start, k)]


@lru_cache(maxsize=8)
def _standard_basis(k: int) -> tuple[Vec, ...]:
    """The unit vectors of Z^k, built once per dimension."""
    return tuple(unit_vec(k, i) for i in range(k))


def _lattice_coords(basis: Sequence[Vec], v: Vec) -> Vec:
    """Coordinates of ``v`` in ``basis``; ValueError outside its span.

    On the standard basis of the whole space they are ``v`` itself.
    """
    if tuple(basis) == _standard_basis(len(v)):
        return v
    coords = solve(mat_from_columns(list(basis)), v)
    if coords is None:
        raise ValueError("vector lies outside the lattice span")
    return coords


def _from_coords(basis: Sequence[Vec], coords: Sequence[int]) -> Vec:
    """The lattice vector with integer ``coords`` in ``basis``: on the
    standard basis, the coordinates themselves."""
    if tuple(basis) == _standard_basis(len(coords)):
        return tuple(coords)
    return mat_vec(mat_from_columns(basis), coords)


def make_lattice_cone(generators, lattice_basis=None) -> LatticeCone:
    """Build a lattice cone; defaults to the integer points of the span.

    ``generators`` may be a SimplicialCone, a PolyCone, or raw generator
    rows.  The span's dimension is the cone's ``dim``; only a supplied basis
    is checked (by rank) to be independent integer vectors spanning it; the
    default one (unit vectors, or the integer kernel of the span's normals)
    is so by construction.
    Raw generator rows must be integer combinations of the basis; each
    generator is then rescaled to the primitive lattice vector of its ray.
    A given cone whose rays are already those vectors, as on the standard
    lattice, is kept as it is, with the hull a PolyCone keeps.
    """
    if isinstance(generators, (SimplicialCone, PolyCone)):
        cone = generators
        raw_rows = None
    else:
        raw_rows = [vec(r) for r in generators]
        cone = make_simplicial_cone(raw_rows)
    rays = cone.rays
    k = cone.ambient
    d = cone.dim
    if lattice_basis is None:
        basis = (_standard_basis(k) if d == k
                 else _integer_kernel(nullspace(rays), k))
    else:
        basis = [vec(b) for b in lattice_basis]
        if any(c.denominator != 1 for b in basis for c in b):
            raise ValueError("lattice basis vectors must be integer")
        basis = [tuple(c.numerator for c in b) for b in basis]
        _common_length([k] + [len(b) for b in basis],
                       "a cone and its lattice basis live in ambient dimensions")
        if mat_rank(tuple(basis)) != len(basis) or len(basis) != d:
            raise ValueError("lattice basis must be independent and span lin(C)")
        if mat_rank(tuple(rays) + tuple(basis)) != d:
            raise ValueError("lattice basis must span the same space as the cone")
    # raw rows must be lattice vectors; coordinates primitivize to the ray's
    normalized = []
    for r in rays if raw_rows is None else raw_rows:
        coords = _lattice_coords(basis, r)
        if raw_rows is not None and any(c.denominator != 1 for c in coords):
            raise ValueError(f"generator ({', '.join(map(str, r))}) "
                             "is not a lattice vector")
        normalized.append(_from_coords(basis, primitive_vector(coords)))
    normalized.sort()
    if tuple(normalized) != rays:
        cone = type(cone)(tuple(normalized))
    return LatticeCone(cone, tuple(basis))


def is_smooth(lc: LatticeCone) -> bool:
    """Generators form a lattice basis of the span (unimodular coordinates)."""
    if not isinstance(lc.cone, SimplicialCone):
        raise NotSimplicial("smoothness is defined for simplicial cones")
    coords = [_lattice_coords(lc.lattice_basis, g)
              for g in lc.cone.generators]
    return abs(det(tuple(coords))) == 1


def _check_truncation(n) -> None:
    """ValueError unless ``n`` is a non-negative int (a bool is refused)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"truncation order must be an int >= 0, got {n!r}")


def bernoulli_tail_coeffs(n: int) -> list[Fraction]:
    """Taylor coefficients c_0..c_n of 1/(1-e^x) + 1/x at zero.

    Obtained by exact power-series inversion of (e^x - 1)/x and a sign flip:
    1/(1-e^x) = -(1/x) * [x/(e^x-1)].  ValueError unless ``n`` is an int
    >= 0.
    """
    _check_truncation(n)
    g = [ONE / factorial(j + 1) for j in range(n + 2)]
    b = [ONE]
    for m in range(1, n + 2):
        acc = ZERO
        for i in range(1, m + 1):
            acc += g[i] * b[m - i]
        b.append(-acc)
    return [-b[j + 1] for j in range(n + 1)]


@lru_cache(maxsize=8)
def _tail_series(n: int) -> Polynomial:
    """The series sum_j c_j x^j of ``bernoulli_tail_coeffs(n)`` in one
    variable: a constant of the truncation, built once per order."""
    return Polynomial(1, {(j,): c for j, c in
                          enumerate(bernoulli_tail_coeffs(n))})


class TruncatedGerm(Record):
    """Exact polar data plus a Taylor tail known up to a stated degree."""

    polar_part: GermSum
    taylor_tail: Polynomial
    truncation_order: int

    @property
    def nvars(self) -> int:
        return self.taylor_tail.nvars

    def as_germ_sum(self) -> GermSum:
        """The whole datum as one exact object (tail read literally)."""
        return make_germ_sum(list(self.polar_part.terms),
                             self.polar_part.poly + self.taylor_tail)

    def __repr__(self):
        return (f"TruncatedGerm({len(self.polar_part.terms)} polar terms, "
                f"tail to degree {self.truncation_order})")


evaluate_truncated = evaluate  # it reads a TruncatedGerm by as_germ_sum


# ---------------------------------------------------------------------------
# exponential sums and integrals

def exp_sum_smooth(lc: LatticeCone, trunc: int = DEFAULT_TRUNCATION,
                   space: AmbientSpace | None = None) -> TruncatedGerm:
    """Generating function of the lattice points of a smooth cone.

    Factorizes as the product over generators of (-1/<v,eps> + tail); the
    expansion of the product keeps every pole exact and truncates only the
    holomorphic content at total degree ``trunc``.  The highest-order polar
    term is exactly (-1)^d / (L_1 ... L_d) independent of the truncation.
    Each tail is the cached series of ``trunc`` in <g, eps>; numerator
    times tail is ``Polynomial.mul_to_degree``, built only to degree ``trunc``.
    Raises ValueError when ``trunc`` is not an int >= 0 or ``space`` has
    another dimension than the cone's ambient space.
    """
    _check_truncation(trunc)
    if not is_smooth(lc):
        raise NotSmooth("the generators are not a lattice basis of the span")
    gens = lc.cone.generators
    k = lc.ambient
    if space is None:
        space = AmbientSpace.standard(k)
    elif space.dimension != k:
        raise ValueError(f"germ in {k} variables, space of dimension "
                         f"{space.dimension}")
    # each tail is the series sum_j c_j x^j of 1/(1-e^x) + 1/x at x = <g,eps>;
    # its terms have degree j <= trunc, so none needs truncating
    series = _tail_series(trunc)
    tails = [series.substitute([Polynomial.linear_form(g)]) for g in gens]
    # one product per set of generators kept as poles, times the tails of
    # the others; the poles are members of one basis, so one polar split
    # takes all the products and splits each face of the cone once
    products = [(Polynomial.constant(k, ONE), ())]
    for g, tail in zip(gens, tails):
        products = [p for num, poles in products
                    for p in ((num.mul_to_degree(tail, trunc), poles),
                              (-num, poles + ((g, 1),)))]
    # each numerator has constant term +-(1/2)^m, so no pole form divides
    # it; it has degree <= trunc, and the split only lowers degrees, so the
    # polynomial part needs no cut
    s = polar_split(space, [canonical_fraction(num, poles)
                            for num, poles in products])
    return TruncatedGerm(GermSum(s.terms, Polynomial.zero(k)), s.poly, trunc)


def exp_integral(lc: LatticeCone) -> GermSum:
    """Cone valuation normalized against the lattice.

    Per simplicial piece of a triangulation: (-1)^d |det| / (L_1 ... L_d)
    with the determinant of the generators taken in lattice coordinates.
    Per-generator scaling invariance makes the choice of ray representatives
    irrelevant, and the weight makes the result subdivision-invariant.
    A piece with dependent generators has weight 0 and raises NotSimplicial.
    The triangulation reads the hull a PolyCone keeps, and on the standard
    lattice the coordinates are the generators themselves.
    """
    terms = []
    for piece in triangulate_cone(lc.cone):
        coords = tuple(_lattice_coords(lc.lattice_basis, g)
                       for g in piece.generators)
        weight = abs(det(coords))
        if weight == 0:
            raise NotSimplicial("a triangulation piece has dependent rays")
        terms.append(signed_cone_term(piece.generators, weight))
    return make_germ_sum(terms, Polynomial.zero(lc.ambient))


# ---------------------------------------------------------------------------
# smooth subdivision in rank two

def smooth_subdivide_2d(lc: LatticeCone) -> list[LatticeCone]:
    """Subdivide a two-dimensional lattice cone into smooth pieces.

    After a unimodular change of lattice coordinates the cone is spanned by
    (1,0) and (p,q) with 0 <= p < q, where q = |det(u1, u2)| for the rays'
    lattice coordinates u1, u2.  The inserted rays are the Hirzebruch-Jung
    chain v0 = (1,0), v1 = (1,1), v_{i+1} = a_i v_i - v_{i-1}, whose a_i are
    the partial quotients of q/(q-p) in the continued fraction with
    subtracted remainders (Fulton, Introduction to Toric Varieties, 2.6).
    These are exactly the lattice points on the bounded edge of the convex
    hull of the nonzero lattice points of the cone, so the subdivision is
    the minimal smooth one; consecutive rays span unimodular pieces.  Each
    inserted ray costs one step of integer arithmetic.
    """
    rays = lc.rays
    if len(rays) != 2 or lc.dim != 2:
        raise NotDimensionTwo("smooth subdivision needs a rank-two cone")
    u1 = [int(c) for c in _lattice_coords(lc.lattice_basis, rays[0])]
    u2 = [int(c) for c in _lattice_coords(lc.lattice_basis, rays[1])]
    # the unimodular map with rows (s, t) and (-u1[1], u1[0]) sends u1 to
    # (1,0) and u2 to (p', +-q); a reflection and a shear fixing (1,0) then
    # bring u2 to (p, q) with p = p' mod q; every solution of s u1[0] +
    # t u1[1] = 1 (u1 is primitive) gives the same p
    s = pow(u1[0], -1, abs(u1[1])) if u1[1] else u1[0]
    t = (1 - s * u1[0]) // u1[1] if u1[1] else 0
    q = abs(u1[0] * u2[1] - u1[1] * u2[0])
    p = (s * u2[0] + t * u2[1]) % q
    chain = [(1, 0), (1, 1) if q > 1 else (0, 1)]
    n, d = q, q - p  # remainders of the expansion of q/(q-p)
    while chain[-1] != (p, q):
        a = -(-n // d)
        n, d = d, a * d - n
        (x0, y0), (x1, y1) = chain[-2:]
        chain.append((a * x1 - x0, a * y1 - y0))
    # (x, y) = ((q x - p y)/q) (1,0) + (y/q) (p,q): the same combination of
    # u1 and u2 in lattice coordinates, so a primitive lattice vector
    gens = [_from_coords(lc.lattice_basis, [
        ((q * x - p * y) * c1 + y * c2) // q for c1, c2 in zip(u1, u2)])
        for x, y in chain]
    return [LatticeCone(SimplicialCone(tuple(sorted(pair))), lc.lattice_basis)
            for pair in zip(gens, gens[1:])]


def p_res_exp_sum(lc: LatticeCone,
                  smooth_pieces: Sequence[LatticeCone] | None = None
                  ) -> GermSum:
    """Highest-order residue of the lattice-point generating function.

    Computed piecewise over a smooth subdivision (found automatically in
    rank <= 2, otherwise caller-supplied and validated); the result equals
    the lattice cone integral exactly, with no truncation involved anywhere.

    On a smooth piece with generators g_1..g_d the sum is the product of
    (-1/<g_i, eps> + tail_i).  Every product that keeps a tail has fewer
    than d poles, so only the product of the d polar parts reaches order d:
    (-1)^d / prod <g_i, eps>, a constant over independent forms.  That term
    is polar under every inner product, so the residue is built from it
    directly, with no ``decompose``, and does not depend on the inner
    product; nothing else of the piece's sum is built.
    """
    if smooth_pieces is None:
        if isinstance(lc.cone, SimplicialCone) and is_smooth(lc):
            smooth_pieces = [lc]
        elif lc.dim == 2:
            smooth_pieces = smooth_subdivide_2d(lc)
        else:
            raise NoSmoothSubdivisionAvailable(
                "no automatic smooth subdivision above rank two")
    else:
        smooth_pieces = [
            piece if isinstance(piece, LatticeCone)
            else make_lattice_cone(piece, lc.lattice_basis)
            for piece in smooth_pieces]
        for piece in smooth_pieces:
            if piece.lattice_basis != lc.lattice_basis:
                raise ValueError("pieces must share the cone's lattice")
            if not is_smooth(piece):
                raise NotSmooth(f"piece {piece.cone!r} is not smooth")
        if not is_subdivision([p.cone for p in smooth_pieces], lc.cone):
            raise NotASubdivision("pieces do not tile the lattice cone")
    return make_germ_sum(
        [signed_cone_term(piece.cone.generators, 1) for piece in smooth_pieces],
        Polynomial.zero(lc.ambient))


def lattice_sum_numeric(lc: LatticeCone, point: Sequence,
                        height: int) -> float:
    """Direct summation oracle: sum e^{<n, point>} over monoid elements with
    generator coefficients at most ``height`` (smooth cones only).  The
    monoid is free on the generators g_i, so the box sums as the product of
    the sums of e^{n <g_i, point>} over n = 0..height."""
    if not is_smooth(lc):
        raise NotSmooth("direct summation enumerates a free monoid")
    _common_length([lc.ambient, len(point)],
                   "a cone and a point live in ambient dimensions")
    pt = tuple(frac(c) for c in point)
    return prod(sum(exp(n * float(vec_dot(g, pt))) for n in range(height + 1))
                for g in lc.cone.generators)
