"""Gradings, projections and residues of meromorphic germs.

Everything here is a deterministic fold over a Laurent expansion: group the
decorated terms by the span of their pole forms and by total pole order, and
read off projections (polynomial part, a single graded component, the
highest-order part) from the grouping.  Because the forgetful sum of an
expansion determines its components — expansions on a properly positioned
support are unique — all of these maps are well-defined on germs, not just
on expansions, and none of them depends on the support used to compute them.
Each map takes a germ, expanded on the common refinement of its pole cones,
or a ready expansion: to use a chosen support, pass
``laurent_expand(space, f, support=...)``.  Maps on the same (space, germ)
share one canonical expansion: ``laurent_expand`` keeps the 8 most recent
ones and returns them as shared immutable objects; expansions on a chosen
support are not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotInRDelta
from .exact import (
    AmbientSpace,
    Polynomial,
    Vec,
    mat_rank,
    primitive_pseudo_positive,
    span_key,
    vec,
    vec_is_zero,
)
from .expand import FormalExpansion, laurent_expand
from .germs import (
    GermSum,
    PolarGerm,
    as_mero,
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


@dataclass(frozen=True)
class GradedComponentKey:
    """Supporting subspace (echelon basis) and total pole order."""

    support_span: tuple[Vec, ...]
    p_order: int

    @property
    def span_dim(self) -> int:
        return len(self.support_span)

    def __repr__(self):
        rows = "; ".join(",".join(str(c) for c in r) for r in self.support_span)
        return f"GradedComponentKey([{rows}], p={self.p_order})"


@dataclass(frozen=True)
class Arrangement:
    """A finite set of pole directions and the subspace they span."""

    delta: tuple[Vec, ...]

    @property
    def r(self) -> int:
        return mat_rank(self.delta)


def make_arrangement(forms: Sequence[Sequence]) -> Arrangement:
    normalized = []
    for f in forms:
        v = vec(f)
        if vec_is_zero(v):
            raise ValueError("the zero form cannot be a pole direction")
        normalized.append(primitive_pseudo_positive(v)[1])
    if not normalized:
        raise ValueError("an arrangement needs at least one form")
    return Arrangement(tuple(sorted(dict.fromkeys(normalized))))


@dataclass(frozen=True)
class CoproductTerm:
    """Numerator tensor pure pole fraction; ``right=None`` is the unit 1."""

    left: Polynomial
    right: PolarGerm | None

    def product(self):
        """Multiply the two legs back together (a meromorphic germ)."""
        if self.right is None:
            return make_mero(self.left)
        return mero_mul(make_mero(self.left), self.right.as_mero())


# ---------------------------------------------------------------------------

def _as_expansion(space: AmbientSpace, f) -> FormalExpansion:
    if isinstance(f, FormalExpansion):
        if f.nvars != space.dimension:
            raise ValueError(f"expansion in {f.nvars} variables, space of "
                             f"dimension {space.dimension}")
        return f
    return laurent_expand(space, as_mero(f))


def graded_split(space: AmbientSpace, f) -> dict[GradedComponentKey, GermSum]:
    """Group the Laurent terms of ``f`` by (pole span, total pole order).

    The polynomial part, when nonzero, sits at the key (zero subspace, 0).
    Summing every component recovers ``f``; the components themselves do not
    depend on the Laurent support used.
    """
    x = _as_expansion(space, f)
    k = x.nvars
    buckets: dict[GradedComponentKey, list[PolarGerm]] = {}
    for dc, num in x.terms:
        key = GradedComponentKey(span_key([v for v, _ in dc.factors]),
                                 sum(s for _, s in dc.factors))
        buckets.setdefault(key, []).append(PolarGerm(num, dc.factors))
    out = {key: make_germ_sum(terms, Polynomial.zero(k))
           for key, terms in sorted(buckets.items(),
                                    key=lambda kv: (kv[0].support_span,
                                                    kv[0].p_order))}
    if not x.polynomial_part.is_zero():
        out[GradedComponentKey((), 0)] = make_germ_sum([], x.polynomial_part)
    return out


def pi_plus(space: AmbientSpace, f) -> Polynomial:
    """Projection onto the holomorphic part along the polar part."""
    return _as_expansion(space, f).polynomial_part


def pi_minus(space: AmbientSpace, f) -> GermSum:
    """Projection onto the polar part along the holomorphic part."""
    x = _as_expansion(space, f)
    return make_germ_sum([PolarGerm(num, dc.factors) for dc, num in x.terms],
                         Polynomial.zero(x.nvars))


def project_U_p(space: AmbientSpace, f, subspace: Sequence[Sequence],
                p: int) -> GermSum:
    """The graded component supported on span(subspace) with pole order p."""
    key = GradedComponentKey(span_key(subspace), int(p))
    return graded_split(space, f).get(
        key, make_germ_sum([], Polynomial.zero(space.dimension)))


def jk_residue(space: AmbientSpace, f,
               subspace: Sequence[Sequence] | None = None) -> GermSum:
    """Component of maximal pole order dim(U) on the subspace U.

    U defaults to the span of all pole forms of ``f``.  Simple fractions
    whose forms span U are fixed; any germ whose poles do not fill U, or
    fill it with order above dim(U), is annihilated.
    """
    if subspace is None:
        g = as_mero(f)
        subspace = [v for v, _ in g.den]
    span = span_key(subspace)
    return project_U_p(space, f, span, len(span))


def brion_vergne_split(space: AmbientSpace, f,
                       arr: Arrangement) -> tuple[GermSum, GermSum]:
    """Split f into its span-filling part and the rest, relative to Δ.

    The first summand collects the graded components whose supporting
    subspace is all of span(Δ); the second gets the lower-dimensional
    components and the polynomial part.  Every pole form of ``f`` must be
    proportional to a member of Δ.
    """
    g = as_mero(f)
    allowed = set(arr.delta)
    for v, _ in g.den:
        if v not in allowed:
            raise NotInRDelta(f"pole direction ({', '.join(map(str, v))}) "
                              "is not in the arrangement")
    r = arr.r
    k = g.nvars
    full: list[PolarGerm] = []
    rest: list[PolarGerm] = []
    poly = Polynomial.zero(k)
    for key, component in graded_split(space, f).items():
        target = full if key.span_dim == r else rest
        target.extend(component.terms)
        poly = poly + component.poly
    return (make_germ_sum(full, Polynomial.zero(k)),
            make_germ_sum(rest, poly))


def p_order(space: AmbientSpace, f) -> int:
    """Maximal total pole order over the Laurent terms (0 if holomorphic)."""
    x = _as_expansion(space, f)
    return max((sum(s for _, s in dc.factors) for dc, _ in x.terms),
               default=0)


def p_res(space: AmbientSpace, f) -> GermSum:
    """Highest-order residue: keep maximal-order terms, evaluate numerators
    at zero.

    Independent of the Laurent support and of the inner product; for germs
    with transcendental tails (truncated data) it only sees the exact polar
    part, so no truncation error enters.
    """
    x = _as_expansion(space, f)
    k = x.nvars
    top = p_order(space, x)
    if top == 0:
        return make_germ_sum([], Polynomial.zero(k))
    picked = []
    for dc, num in x.terms:
        if sum(s for _, s in dc.factors) != top:
            continue
        c = num.constant_term()
        if c == 0:
            continue
        picked.append(PolarGerm(Polynomial.constant(k, c), dc.factors))
    return make_germ_sum(picked, Polynomial.zero(k))


def coproduct(space: AmbientSpace, f) -> list[CoproductTerm]:
    """Separate each Laurent term into numerator ⊗ pure pole fraction.

    Multiplying the two legs of every term and summing returns ``f``; the
    holomorphic part appears as (h, 1) when nonzero.
    """
    x = _as_expansion(space, f)
    k = x.nvars
    out = []
    for dc, num in x.terms:
        unit = Polynomial.constant(k, Fraction(1))
        out.append(CoproductTerm(num, PolarGerm(unit, dc.factors)))
    if not x.polynomial_part.is_zero():
        out.append(CoproductTerm(x.polynomial_part, None))
    return out
