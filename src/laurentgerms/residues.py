"""Gradings, projections and residues of meromorphic germs.

Everything here groups the polar terms of a germ by the span of their pole
forms and by total pole order, and reads off projections (polynomial part,
a single graded component, the highest-order part) from the grouping.
Subdivision keeps each term's span, order and sum, so no map depends on
the Laurent support.  Each map reads its terms through one reader,
``_polar_terms``: a ready expansion's own terms, else those of
``decompose``, which builds no cones; to use a chosen support, pass
``laurent_expand(space, f, support=...)``.  Only ``p_order`` and ``p_res``
expand a germ first, into one canonical expansion per (space, germ):
``laurent_expand`` keeps them, shared and immutable, for the 8 latest germs,
with the work free of Q that a germ's expansions share.  They alone import
``expand``; the other maps tell an expansion by its ``fractions`` method.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence

from .errors import NotInRDelta
from .exact import (
    AmbientSpace,
    Polynomial,
    Record,
    Vec,
    _common_length,
    mat_rank,
    primitive_pseudo_positive,
    span_key,
    vec,
    vec_is_zero,
)
from .germs import (
    GermSum,
    PolarGerm,
    as_mero,
    decompose,
    make_germ_sum,
    make_mero,
    mero_mul,
)

__all__ = [
    "GradedComponentKey",
    "Arrangement",
    "CoproductTerm",
    "make_arrangement",
    "graded_split",
    "pi_plus",
    "pi_minus",
    "project_U_p",
    "jk_residue",
    "brion_vergne_split",
    "p_order",
    "p_res",
    "coproduct",
]


class GradedComponentKey(Record):
    """Supporting subspace (echelon basis) and total pole order."""

    support_span: tuple[Vec, ...]
    p_order: int

    @property
    def span_dim(self) -> int:
        return len(self.support_span)

    def __repr__(self):
        rows = "; ".join(",".join(str(c) for c in r) for r in self.support_span)
        return f"GradedComponentKey([{rows}], p={self.p_order})"


class Arrangement(Record):
    """A finite set of pole directions and the subspace they span."""

    delta: tuple[Vec, ...]

    @property
    def r(self) -> int:
        return mat_rank(self.delta)


def make_arrangement(forms: Sequence[Sequence]) -> Arrangement:
    rows = [vec(f) for f in forms]
    if not rows:
        raise ValueError("an arrangement needs at least one form")
    _common_length([len(v) for v in rows], "forms of length")
    if any(vec_is_zero(v) for v in rows):
        raise ValueError("the zero form cannot be a pole direction")
    normalized = [primitive_pseudo_positive(v)[1] for v in rows]
    return Arrangement(tuple(sorted(dict.fromkeys(normalized))))


class CoproductTerm(Record):
    """Numerator tensor pure pole fraction; ``right=None`` is the unit 1."""

    left: Polynomial
    right: PolarGerm | None

    def product(self):
        """Multiply the two legs back together (a meromorphic germ)."""
        if self.right is None:
            return make_mero(self.left)
        return mero_mul(make_mero(self.left), self.right.as_mero())


# ---------------------------------------------------------------------------

def _polar_terms(space: AmbientSpace, f) -> GermSum:
    """The polar terms and polynomial part of ``f``: an expansion's own,
    else those of ``decompose(space, f)``."""
    if hasattr(f, "fractions"):  # a FormalExpansion
        if f.nvars != space.dimension:
            raise ValueError(f"expansion in {f.nvars} variables, space of "
                             f"dimension {space.dimension}")
        return GermSum(tuple(PolarGerm(num, dc.factors)
                             for dc, num in f.terms), f.polynomial_part)
    return decompose(space, f)


def _expanded_terms(space: AmbientSpace, f) -> GermSum:
    """``_polar_terms`` of ``f``, a germ expanded first."""
    if not hasattr(f, "fractions"):
        from .expand import laurent_expand
        f = laurent_expand(space, as_mero(f))
    return _polar_terms(space, f)


def graded_split(space: AmbientSpace, f) -> dict[GradedComponentKey, GermSum]:
    """Group the polar terms of ``f`` by (pole span, total pole order).

    The polynomial part, when nonzero, sits at the key (zero subspace, 0).
    Summing every component recovers ``f``; the components themselves do not
    depend on the Laurent support used.  Terms over the same pole forms
    share one span.
    """
    s = _polar_terms(space, f)
    span = cache(span_key)
    buckets: dict[tuple, list[PolarGerm]] = {}
    for t in s.terms:
        key = (span(tuple(v for v, _ in t.factors)), t.p_order)
        buckets.setdefault(key, []).append(t)
    zero = Polynomial.zero(s.nvars)
    out = {GradedComponentKey(*key): make_germ_sum(terms, zero)
           for key, terms in sorted(buckets.items())}
    if not s.poly.is_zero():
        out[GradedComponentKey((), 0)] = make_germ_sum([], s.poly)
    return out


def pi_plus(space: AmbientSpace, f) -> Polynomial:
    """Projection onto the holomorphic part along the polar part."""
    return _polar_terms(space, f).poly


def pi_minus(space: AmbientSpace, f) -> GermSum:
    """Projection onto the polar part along the holomorphic part."""
    s = _polar_terms(space, f)
    return make_germ_sum(s.terms, Polynomial.zero(s.nvars))


def project_U_p(space: AmbientSpace, f, subspace: Sequence[Sequence],
                p: int) -> GermSum:
    """The graded component supported on span(subspace) with pole order p.

    Every row of ``subspace`` must have one coordinate per dimension of the
    space (ValueError otherwise).
    """
    return _component(space, graded_split(space, f), _span(space, subspace), p)


def _span(space: AmbientSpace, subspace) -> tuple[Vec, ...]:
    """The echelon basis of the caller's rows, checked against the space."""
    for row in subspace:
        if len(row) != space.dimension:
            raise ValueError(f"subspace row of length {len(row)}, space of "
                             f"dimension {space.dimension}")
    return span_key(subspace)


def _component(space: AmbientSpace, components: dict, span, p: int
               ) -> GermSum:
    """The component of ``graded_split``'s result at (span, p), with p
    compared as given: 2.0 finds order 2 and 2.5 no component."""
    zero = make_germ_sum([], Polynomial.zero(space.dimension))
    return components.get(GradedComponentKey(span, p), zero)


def jk_residue(space: AmbientSpace, f,
               subspace: Sequence[Sequence] | None = None) -> GermSum:
    """Component of maximal pole order dim(U) on the subspace U.

    U defaults to the span of all pole forms of ``f``, which is the span of
    the supports of its graded components.  Simple fractions whose forms
    span U are fixed; any germ whose poles do not fill U, or fill it with
    order above dim(U), is annihilated.
    """
    components = graded_split(space, f)
    if subspace is None:
        subspace = [v for key in components for v in key.support_span]
    span = _span(space, subspace)
    return _component(space, components, span, len(span))


def brion_vergne_split(space: AmbientSpace, f,
                       arr: Arrangement) -> tuple[GermSum, GermSum]:
    """Split f into its span-filling part and the rest, relative to Δ.

    The first summand collects the graded components whose supporting
    subspace is all of span(Δ); the second gets the lower-dimensional
    components and the polynomial part.  Every pole form of ``f`` must be
    proportional to a member of Δ.
    """
    s = _polar_terms(space, f)
    allowed = set(arr.delta)
    # the poles of f lie among its terms' forms; only when one of those is
    # outside Δ are f's own read (an expansion summed: its rays may cancel)
    if any(v not in allowed for t in s.terms for v, _ in t.factors):
        for v, _ in as_mero(f).den:
            if v not in allowed:
                raise NotInRDelta(f"pole direction ({', '.join(map(str, v))}) "
                                  "is not in the arrangement")
    r = arr.r
    # the pole forms of a term are independent: one span dimension each
    full = [t for t in s.terms if len(t.factors) == r]
    rest = [t for t in s.terms if len(t.factors) != r]
    return (make_germ_sum(full, Polynomial.zero(s.nvars)),
            make_germ_sum(rest, s.poly))


def p_order(space: AmbientSpace, f) -> int:
    """Maximal total pole order over the Laurent terms (0 if holomorphic)."""
    return max((t.p_order for t in _expanded_terms(space, f).terms),
               default=0)


def p_res(space: AmbientSpace, f) -> GermSum:
    """Highest-order residue: keep maximal-order terms, evaluate numerators
    at zero.

    Independent of the Laurent support and of the inner product; for germs
    with transcendental tails (truncated data) it only sees the exact polar
    part, so no truncation error enters.
    """
    s = _expanded_terms(space, f)
    k = s.nvars
    top = max((t.p_order for t in s.terms), default=0)
    picked = [PolarGerm(Polynomial.constant(k, t.numerator.constant_term()),
                        t.factors) for t in s.terms if t.p_order == top]
    return make_germ_sum(picked, Polynomial.zero(k))


def coproduct(space: AmbientSpace, f) -> list[CoproductTerm]:
    """Separate each polar term into numerator ⊗ pure pole fraction.

    Multiplying the two legs of every term and summing returns ``f``; the
    holomorphic part appears as (h, 1) when nonzero.
    """
    s = _polar_terms(space, f)
    unit = Polynomial.constant(s.nvars, Fraction(1))
    out = [CoproductTerm(t.numerator, PolarGerm(unit, t.factors))
           for t in s.terms]
    if not s.poly.is_zero():
        out.append(CoproductTerm(s.poly, None))
    return out
