"""Formal Laurent expansions supported on families of simplicial cones.

A formal expansion keeps the terms of a sum of polar germs *separated by
supporting cone* instead of adding them up as rational functions.  Each term
is a decorated cone — independent primitive pseudo-positive generators with
multiplicities — paired with a numerator polynomial satisfying the usual
orthogonality invariant.  The forgetful map ``phi`` adds everything back up;
the subdivision operator rewrites an expansion onto a finer properly
positioned family without changing its ``phi``-image, which is what makes a
canonical Laurent expansion of an arbitrary germ possible: decompose into
polar parts, then re-support everything on one common refinement, sliced
only by the hyperplanes of the supporting cones that are no face of another.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from typing import Iterable, Sequence

from .errors import (
    NotASubdivision,
    NotInLaurentSubspace,
    OrthogonalityViolated,
)
from .exact import (
    ONE,
    AmbientSpace,
    Polynomial,
    Record,
    Vec,
    det,
    int_inverse,
    mat_from_columns,
    mat_vec,
)
from .cones import (
    SimplicialCone,
    _checked_family,
    _pieces_by_cone,
    common_refinement,
)
from .germs import (
    Factors,
    MeromorphicGerm,
    PolarGerm,
    as_mero,
    decompose,
    fraction_sum,
    numerator_is_orthogonal,
    sum_by_factors,
)

__all__ = [
    "DecoratedCone",
    "FormalExpansion",
    "make_expansion",
    "expansion_add",
    "expansion_neg",
    "expansion_scale",
    "phi",
    "delta_op",
    "subdivision_operator",
    "laurent_expand",
    "kernel_generators",
]


class DecoratedCone(Record):
    """A simplicial cone whose generators carry pole multiplicities.

    ``factors`` is the canonically sorted tuple of (primitive pseudo-positive
    generator, exponent >= 1); the underlying geometric cone forgets the
    exponents.
    """

    factors: Factors

    @property
    def cone(self) -> SimplicialCone:
        return SimplicialCone(tuple(v for v, _ in self.factors))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def __repr__(self):
        bits = []
        for v, s in self.factors:
            g = ",".join(str(c) for c in v)
            bits.append(f"({g})^{s}" if s != 1 else f"({g})")
        return "<" + " ".join(bits) + ">"


class FormalExpansion(Record):
    """Direct sum of decorated polar terms plus a polynomial part."""

    terms: tuple[tuple[DecoratedCone, Polynomial], ...]
    polynomial_part: Polynomial

    @property
    def nvars(self) -> int:
        return self.polynomial_part.nvars

    def is_zero(self) -> bool:
        return not self.terms and self.polynomial_part.is_zero()

    def fractions(self) -> list[tuple[Polynomial, Factors]]:
        """The summands as (numerator, factors) pairs, polynomial part first."""
        return ([(self.polynomial_part, ())]
                + [(num, dc.factors) for dc, num in self.terms])

    def support(self) -> list[SimplicialCone]:
        """Underlying geometric cones of the nonzero terms, deduplicated."""
        seen = dict.fromkeys(dc.cone for dc, _ in self.terms)
        return list(seen)

    def __repr__(self):
        bits = [f"{dc!r}: {num.to_string()}" for dc, num in self.terms]
        if not self.polynomial_part.is_zero() or not bits:
            bits.append(self.polynomial_part.to_string())
        return "FormalExpansion(" + " (+) ".join(bits) + ")"


def make_expansion(items: Iterable[tuple[Factors, Polynomial]],
                   polynomial_part: Polynomial) -> FormalExpansion:
    """Merge terms by decorated cone, drop zeros, sort canonically.

    The factors must be canonical, as ``canonicalize_polar`` leaves them:
    terms are merged by their factors as given.
    """
    merged = sum_by_factors((num, factors) for factors, num in items)
    return FormalExpansion(tuple((DecoratedCone(factors), num)
                                 for factors, num in sorted(merged.items())),
                           polynomial_part)


def expansion_add(x: FormalExpansion, y: FormalExpansion) -> FormalExpansion:
    items = [(dc.factors, num) for dc, num in x.terms]
    items += [(dc.factors, num) for dc, num in y.terms]
    return make_expansion(items, x.polynomial_part + y.polynomial_part)


def expansion_scale(c, x: FormalExpansion) -> FormalExpansion:
    return make_expansion([(dc.factors, num.scale(c)) for dc, num in x.terms],
                          x.polynomial_part.scale(c))


def expansion_neg(x: FormalExpansion) -> FormalExpansion:
    return expansion_scale(-1, x)


def phi(x: FormalExpansion) -> MeromorphicGerm:
    """Forget the cone decoration: add all terms as rational functions.

    The terms go to ``fraction_sum`` as they are stored, each one rewritten
    onto nbc denominators on its own, so the pieces that a subdivision makes
    of one polar term cancel as polynomial sums over shared denominators.
    """
    return fraction_sum(x.fractions(), x.nvars)


# ---------------------------------------------------------------------------
# subdivision operators

def delta_op(space: AmbientSpace, lstar: Vec,
             x: FormalExpansion) -> FormalExpansion:
    """Derivation raising pole orders: each denominator slot M_j of each term
    gains a copy with coefficient r_j * Q(lstar, M_j); a copy whose pairing
    is 0 has a zero numerator, which ``make_expansion`` drops.

    Numerators ride along unchanged; that is only consistent when the
    direction associated with ``lstar`` does not vary any numerator, which is
    checked exactly (OrthogonalityViolated otherwise).  The polynomial part
    has no denominator slots, so it maps to zero.  ``lstar``, the space and
    the expansion must have one dimension (ValueError otherwise).
    """
    k = space.dimension
    if len(lstar) != k or x.nvars != k:
        raise ValueError(f"lstar of length {len(lstar)}, expansion in "
                         f"{x.nvars} variables, space of dimension {k}")
    lstar = tuple(Fraction(c) for c in lstar)
    items = []
    for dc, num in x.terms:
        if not numerator_is_orthogonal(space, num, [lstar]):
            raise OrthogonalityViolated(
                "delta direction varies a numerator polynomial")
        for j, (v, s) in enumerate(dc.factors):
            bumped = tuple((u, r + 1 if i == j else r)
                           for i, (u, r) in enumerate(dc.factors))
            items.append((bumped, num.scale(s * space.pairing(lstar, v))))
    return make_expansion(items, Polynomial.zero(x.nvars))


def _subdivide_term(factors: Factors, num: Polynomial, pieces: Sequence[SimplicialCone],
                    tables: dict | None = None) -> list[tuple[Factors, Polynomial]]:
    """One decorated term onto tiling pieces: simple split, then delta powers.

    A piece generator is v = sum_j c_j L_j in the basis of the pole forms.
    The delta step along L*_j pairs Q(L*_j, v) = c_j, and the weight of a
    piece, its minor sum over that of the forms, is |det| of its generators'
    c: each n-minor of the piece is that det times the forms' matching minor.
    So every coefficient is a coordinate in the cone's basis, free of Q.
    A piece's state is an integer polynomial in the reciprocals of its
    generators, keyed by exponents: raise paths to one denominator merge.
    A dict ``tables`` keeps the coefficients by factors for later numerators.
    """
    forms = [v for v, _ in factors]
    if len(pieces) == 1 and pieces[0].generators == tuple(forms):
        # the cone tiles itself: the weight d^n and the raises
        # d^(sum(s_j - 1)) * prod((s_j - 1)!) cancel the scale exactly
        return [(factors, num)]
    if tables and factors in tables:
        return [(fac, num.scale(c)) for fac, c in tables[factors]]
    exps = [s for _, s in factors]
    # a left inverse of the forms as columns, times the lcm d of its
    # denominators, sends a vector of their span to d * c
    inverse = int_inverse(mat_from_columns(forms))
    d = lcm(*(den for _, den in inverse))
    to_basis = tuple(tuple(a * (d // den) for a in row) for row, den in inverse)
    coords = {v: mat_vec(to_basis, v)
              for piece in pieces for v in piece.generators}
    # d^n from the det and one more d for each of the sum(s_j - 1) raises
    scale = ONE / (d ** sum(exps) * prod(factorial(s - 1) for s in exps))
    table: list[tuple[Factors, Fraction]] = []
    for piece in pieces:
        gens = piece.generators
        cols = [coords[v] for v in gens]
        state = {(1,) * len(gens): abs(det(tuple(cols)))}
        for j, s in enumerate(exps):
            for _ in range(s - 1):
                nxt = {}
                for e, coef in state.items():
                    for i, c in enumerate(cols):
                        if c[j]:
                            r = e[:i] + (e[i] + 1,) + e[i + 1:]
                            nxt[r] = nxt.get(r, 0) + coef * e[i] * c[j]
                state = nxt
        for e, coef in state.items():
            table.append((tuple(sorted(zip(gens, e))), coef * scale))
    if tables is not None:
        tables[factors] = table
    return [(fac, num.scale(c)) for fac, c in table]


def _resupport(x: FormalExpansion,
               assignment: dict[SimplicialCone, Sequence[SimplicialCone]],
               tables: dict | None = None) -> FormalExpansion:
    """Every term of ``x`` onto the pieces assigned to its cone, merged
    into one expansion; the polynomial part of ``x`` is kept."""
    items: list[tuple[Factors, Polynomial]] = []
    for dc, num in x.terms:
        items += _subdivide_term(dc.factors, num, assignment[dc.cone], tables)
    return make_expansion(items, x.polynomial_part)


def subdivision_operator(x: FormalExpansion,
                         family: Sequence[SimplicialCone]) -> FormalExpansion:
    """Rewrite an expansion onto a finer properly positioned family.

    The family is checked (``_checked_family``, against the expansion's
    ambient dimension) and must tile each supporting cone of ``x`` by its
    members inside it, which the facet count then decides
    (NotASubdivision).  ``phi`` of the result equals ``phi`` of the input;
    the polynomial part passes through unchanged.  The coefficients are
    coordinates in each cone's basis, so no inner product enters.
    """
    family = _checked_family(family, x.nvars)
    return _resupport(x, _pieces_by_cone(x.support(), family))


# ---------------------------------------------------------------------------
# the Laurent expansion

def laurent_expand(space: AmbientSpace, f,
                   support: Sequence[SimplicialCone] | None = None) -> FormalExpansion:
    """Canonical Laurent expansion of a meromorphic germ.

    Pipeline: decompose into polar germs with independent pole forms and
    orthogonal numerators; the sign normalization of the stored forms makes
    every supporting cone strictly convex; the common refinement of the
    supporting cones, sliced only by the hyperplanes of those that are no
    face of another, is properly positioned, and the subdivision operator
    moves every term onto it.  Summing the result with ``phi`` gives back
    ``f`` exactly.  Only ``decompose`` uses Q: the subdivision coefficients
    are coordinates in each cone's basis.

    The canonical expansion depends only on the space and the germ, so
    ``p_order`` and ``p_res`` on one (space, germ) share it (the other maps
    of ``residues`` read ``decompose`` and expand nothing): the 8 most
    recent germs ``as_mero(f)`` keep theirs per space, a repeat call returns
    the same shared immutable object, and the work free of Q (the rewrite
    onto independent forms, the refinement) is shared across spaces.

    An explicit ``support`` (never cached) is checked first, as
    ``subdivision_operator`` checks a family.  The expansion on a properly
    positioned family is unique, so it is an expansion of ``f`` moved onto
    the members: the terms of ``decompose`` first, else, when the members
    cannot tile their pole cones, the canonical expansion (a family may
    leave out cones whose terms cancel, or cut the canonical pieces
    finer); NotInLaurentSubspace when the members tile neither.
    """
    f = as_mero(f)
    if support is None:
        return _canonical_expansion(space, f)
    family = _checked_family(support, f.nvars)
    s = decompose(space, f)
    x = make_expansion([(t.factors, t.numerator) for t in s.terms], s.poly)
    try:
        return _resupport(x, _pieces_by_cone(x.support(), family))
    except NotASubdivision:
        x = _canonical_expansion(space, f)
    try:
        return _resupport(x, _pieces_by_cone(x.support(), family))
    except NotASubdivision as exc:
        raise NotInLaurentSubspace("the support does not tile the pole "
                                   "cones of decompose(f)") from exc


_EXPANSION_CACHE_SIZE = 8


@lru_cache(maxsize=_EXPANSION_CACHE_SIZE)
def _germ_entry(f: MeromorphicGerm) -> tuple[dict, dict]:
    """A germ's canonical expansions by space and refinements by family."""
    return {}, {}


def _canonical_expansion(space: AmbientSpace, f: MeromorphicGerm
                         ) -> FormalExpansion:
    """The expansion of ``f`` on the common refinement of its pole cones.

    Only ``p_order`` and ``p_res`` share it.  The entry of ``f`` keeps it
    per space, and per family of pole cones (in order) the work free of Q:
    the refinement and the terms' subdivision tables.  Exceptions are not
    cached.  The pole cones are the ``support()`` of the terms of
    ``decompose`` as an expansion, which an uncut family keeps as it is.
    """
    expansions, refinements = _germ_entry(f)
    if space in expansions:
        return expansions[space]
    s = decompose(space, f)
    x = make_expansion([(t.factors, t.numerator) for t in s.terms], s.poly)
    cones = x.support()
    if tuple(cones) not in refinements:
        refinements[tuple(cones)] = (*common_refinement(cones), {})
    pieces, index_sets, tables = refinements[tuple(cones)]
    assignment = {c: [pieces[i] for i in idx]
                  for c, idx in zip(cones, index_sets)}
    expansions[space] = (x if pieces == cones
                         else _resupport(x, assignment, tables))
    return expansions[space]


# ---------------------------------------------------------------------------
# kernel elements of phi

def kernel_generators(sample: PolarGerm,
                      subdivision: Sequence[SimplicialCone] | None = None
                      ) -> list[FormalExpansion]:
    """Formal expansions that ``phi`` sends to zero, built from a sample.

    Two shapes generate the whole kernel:

    * sign flip: the sample plus (-1)^(s1+1) times the sample with its first
      generator negated.  Stored generators are sign-normalized, so the
      negated copy re-normalizes onto the same decorated cone and the pair
      collapses structurally to the zero expansion — the normalization bakes
      this part of the kernel into the representation itself.
    * re-supporting: the sample minus the subdivision operator applied to it
      over any subdivision of its cone (the trivial one, its ``support()``,
      when none is given); a nontrivial subdivision gives a structurally
      nonzero expansion with vanishing ``phi``-image.
    """
    x = make_expansion([(sample.factors, sample.numerator)],
                       Polynomial.zero(sample.nvars))
    resupported = subdivision_operator(
        x, x.support() if subdivision is None else list(subdivision))
    return [FormalExpansion((), Polynomial.zero(sample.nvars)),
            expansion_add(x, expansion_neg(resupported))]
