"""Meromorphic germs at zero with linear poles, over exact rationals.

A germ is a quotient p / prod <v_i, eps>^{s_i} with a polynomial numerator
and finitely many linear pole forms.  Denominator forms are always stored as
primitive pseudo-positive integer vectors (scalars are absorbed into the
numerator, using 1/(-L)^s = (-1)^s/L^s), sorted canonically, and reduced so
that no pole form divides the numerator.  A reduced germ is unique, so two
germs are equal iff they are structurally equal, and exact sums
(``fraction_sum``) may group their summands in any way.  One exchange
rewrite, ``_nbc_rewrite``, moves fractions onto denominators of
independent forms, for ``fraction_sum`` and for ``decompose`` alike.

A *polar* germ additionally keeps its numerator orthogonal to the pole forms:
the numerator is a polynomial in linear functions <w, eps> with Q(w, v_i) = 0
for every pole form v_i.  ``decompose`` splits any germ into a sum of polar
germs plus a polynomial, the exact analogue of the Laurent split of a
one-variable meromorphic function into principal part plus holomorphic part.
Its worklist ``polar_split`` merges the numerators that reach a denominator
before it splits them, which is exact as the split on the faces of one
simplicial cone is unique.  It works in eps throughout: the polar part of
num / L_F^s is num composed with the Q-orthogonal projector that kills the
forms F, and the rest, which vanishes where F = 0, is divided exactly by
the forms, or, when they span the space, sent monomial by monomial to its
highest-index variable, a fixed combination of the forms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import compress
from math import lcm
from typing import Iterable, Sequence, TypeVar

from .errors import NotPolar, PoleHit
from .exact import (
    ONE,
    AmbientSpace,
    IntTerms,
    Mat,
    Polynomial,
    Record,
    Vec,
    _mul_terms,
    _nonzero,
    _reduced_rows,
    mat_from_columns,
    mat_rank,
    mat_vec,
    primitive_pseudo_positive,
    primitive_vector,
    unit_vec,
    vec_dot,
)

__all__ = [
    "GermSum", "MeromorphicGerm", "PolarGerm", "as_mero",
    "canonicalize_polar", "decompose", "evaluate", "germ_equal",
    "make_germ_sum", "make_mero", "mero_add", "mero_mul", "mero_neg",
    "mero_scale", "mero_sub", "numerator_is_orthogonal",
    "reduce_to_independent",
]

Factors = tuple[tuple[Vec, int], ...]
K = TypeVar("K")
V = TypeVar("V")


def canonical_fraction(numerator: Polynomial,
                       raw: Sequence[tuple[Vec, int]]) -> tuple[Polynomial, Factors]:
    """``numerator / prod raw`` over canonical pole factors.

    Every form becomes its primitive pseudo-positive vector, equal forms are
    merged and sorted, and the scalar taken out of the forms moves into the
    numerator, so the fraction keeps its value (``primitive_pseudo_positive``
    gives both).  On forms of ints the scalars are ints, so the numerator is
    scaled once at the end, or not at all when their product is 1.  This is
    how every germ type stores its factors, so a form of another length is
    refused here.
    """
    _check_form_lengths(numerator.nvars, [v for v, _ in raw])
    merged: dict[Vec, int] = {}
    scale = 1
    for v, e in raw:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("negative pole multiplicity")
        c, w = primitive_pseudo_positive(v)
        scale *= c ** e
        merged[w] = merged.get(w, 0) + e
    if scale != 1:
        numerator = numerator.scale(ONE / scale)
    return numerator, tuple(sorted(merged.items()))


class MeromorphicGerm(Record):
    """Reduced quotient numerator / prod <form, eps>^power."""

    numerator: Polynomial
    den: Factors

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    def __repr__(self):
        num = self.numerator.to_string()
        if not self.den:
            return f"MeromorphicGerm({num})"
        den = " * ".join(
            f"({Polynomial.linear_form(v).to_string()})" + (f"^{e}" if e > 1 else "")
            for v, e in self.den)
        return f"MeromorphicGerm(({num}) / {den})"


def make_mero(numerator: Polynomial, factors: Sequence[tuple[Vec, int]] = ()) -> MeromorphicGerm:
    """Build a reduced germ; scalars from form normalization are absorbed."""
    num, den = canonical_fraction(numerator, factors)
    if num.is_zero():
        return MeromorphicGerm(num, ())
    # cancel pole forms that divide the numerator
    left = []
    for v, e in den:
        num, m = num.strip_form(v, e)
        if m < e:
            left.append((v, e - m))
    return MeromorphicGerm(num, tuple(left))


def den_poly(nvars: int, den: Factors) -> Polynomial:
    """The product of the pole factors as a polynomial."""
    p = Polynomial.constant(nvars, 1)
    for v, e in den:
        p = p * Polynomial.linear_form(v) ** e
    return p


def mero_add(*germs: MeromorphicGerm) -> MeromorphicGerm:
    """The sum of one or more germs: their numerators are brought over the
    least common denominator, added, and the sum is reduced once.  Each
    power L_v^d a cofactor needs is built once per call and shared by every
    summand that needs it."""
    lcm: dict[Vec, int] = {}
    for g in germs:
        for v, e in g.den:
            lcm[v] = max(lcm.get(v, 0), e)
    powers: dict[tuple[Vec, int], Polynomial] = {}
    num = Polynomial.zero(germs[0].nvars)
    for g in germs:
        own = dict(g.den)
        term = g.numerator
        for v, e in lcm.items():
            d = e - own.get(v, 0)
            if d:
                if (v, d) not in powers:
                    powers[v, d] = Polynomial.linear_form(v) ** d
                term = term * powers[v, d]
        num = num + term
    return make_mero(num, tuple(lcm.items()))


def sum_by_factors(fractions: Iterable[tuple[Polynomial, Factors]]
                   ) -> dict[Factors, Polynomial]:
    """The numerators of equal factors added up and the zero sums dropped,
    keyed by the factors in the order they first appear."""
    merged: dict[Factors, Polynomial] = {}
    for num, den in fractions:
        merged[den] = merged[den] + num if den in merged else num
    return {den: num for den, num in merged.items() if not num.is_zero()}


def fraction_sum(fractions: Iterable[tuple[Polynomial, Factors]],
                 nvars: int) -> MeromorphicGerm:
    """Exact sum of ``numerator / prod form^power`` pairs, as a reduced germ.

    Each fraction is first rewritten on its own onto denominators whose pole
    sets contain no broken circuit (nbc) of the arrangement of all forms
    present.  Those span every fraction over the arrangement (Brion &
    Vergne, Ann. Sci. ENS 32, 1999; Terao, J. Algebra 250, 2002), so the
    many pieces of a subdivision collapse onto a few shared denominators,
    where they cancel as plain polynomial sums.  Each exchange moves a power
    onto an earlier form, so the survivors gather on the first forms of the
    arrangement.  Those should be the germ's own poles, not the rays a
    refinement added: a refinement ray is a positive combination of pole
    forms, so it tends to be taller.  So the arrangement is ordered by the
    l1 norm of the form, then by use, the forms held by most fractions
    first, then by the form, which keeps the least common denominator of
    the survivors small.  That is a heuristic: any order gives the same
    sum, and only the speed differs.  The survivors are then added by one
    ``mero_add`` over their least common denominator, which reduces the sum
    once.  When the forms present are independent every pole set is
    already nbc and the rewrite is skipped.  When it would not leave fewer
    fractions than it was given (a few unrelated fractions over many
    dependent forms), it stops as soon as that is certain and the fractions
    are summed as given.  The factors must be canonical
    (primitive pseudo-positive forms, each once, sorted, positive
    exponents), as every germ type stores them; ``exprio.deserialize``
    canonicalizes the factors it reads.  A reduced germ is unique, so the
    result does not depend on the order of the summands.
    """
    merged = sum_by_factors(fractions)
    uses = Counter(v for den in merged for v, _ in den)
    arrangement = sorted(uses, key=lambda v: (sum(map(abs, v)), -uses[v], v))
    if len(merged) > 1 and mat_rank(tuple(arrangement)) < len(arrangement):
        rewritten = _nbc_rewrite(merged, arrangement, len(merged))
        if rewritten is not None:
            merged = rewritten
    if not merged:
        return make_mero(Polynomial.zero(nvars))
    return mero_add(*(MeromorphicGerm(num, den) for den, num in merged.items()))


def _nbc_rewrite(fractions: dict[Factors, Polynomial], arrangement: list[Vec],
                 limit: int | None = None) -> dict[Factors, Polynomial] | None:
    """The same sum with every pole set nbc under the arrangement's order,
    which may be any order of its forms, or None as soon as it is certain
    to have ``limit`` fractions or more.  The factors come back canonical.
    ``fraction_sum`` orders its forms by height, then use;
    ``reduce_to_independent`` orders one germ's own forms canonically
    descending.

    A pole set S holds a broken circuit iff some form L0 of the arrangement
    lies in the span of the members of S later than L0.  For the earliest
    such L0, write L0 = sum_i c_i L_i over a basis of those members; then
    1/prod = sum_i c_i/(L0 * prod/L_i) moves one power from each L_i to the
    earlier L0, so the sum of exponent times reversed position grows
    strictly and the exchange worklist terminates.  The basis is the pivot
    members among the later ones, latest first, all read off one
    elimination per pole set.  Other bases of dependent members pass
    through other pole sets to the same output: the constant expansion onto
    nbc denominators is unique (Terao), numerators are only scaled, and
    final keys leave the worklist in (potential, key) order.  Denominators
    are keyed by the positions of their forms, sorted, while rewritten.
    """
    n = len(arrangement)
    index = {v: i for i, v in enumerate(arrangement)}

    @cache
    def nbc_step(forms: tuple[int, ...]):
        # reduce [members, latest first | I]: right of the bar, the rows
        # whose pivot is not among the t latest members are normals of
        # their span, and the other rows give the coordinates in it
        if not forms or not forms[-1]:
            return None
        members, k = forms[::-1], len(arrangement[0])
        rows, pivots = _reduced_rows(mat_from_columns(
            [arrangement[i] for i in members]
            + [unit_vec(k, i) for i in range(k)]))
        t = len(members)
        for l0 in range(forms[-1]):
            while members[t - 1] <= l0:
                t -= 1
            x = (0,) * len(members) + arrangement[l0]
            if any(vec_dot(row, x) for row, p in zip(rows, pivots) if p >= t):
                continue
            return l0, [(members[p], Fraction(c, row[p]))
                        for row, p in zip(rows, pivots)
                        if p < t and (c := vec_dot(row, x))]
        return None

    def expand(key, num: Polynomial):
        if num.is_zero():
            return []
        step = nbc_step(tuple(i for i, _ in key))
        if step is None:
            return None
        l0, coords = step
        return [(_exchanged(key, i, l0), num.scale(c)) for i, c in coords]

    start = {tuple(sorted((index[v], e) for v, e in den)): num
             for den, num in fractions.items()}
    out = _exchange_worklist(
        start, lambda key: sum((n - i) * e for i, e in key), expand, limit)
    if out is None:
        return None
    return {tuple(sorted((arrangement[i], e) for i, e in key)): num
            for key, num in out.items()}


def _exchanged(key: tuple[tuple[K, int], ...], src: K,
               dst: K) -> tuple[tuple[K, int], ...]:
    """The denominator ``key`` with one power moved from ``src`` to ``dst``."""
    child = dict(key)
    child[src] -= 1
    if not child[src]:
        del child[src]
    child[dst] = child.get(dst, 0) + 1
    return tuple(sorted(child.items()))


def _exchange_worklist(start: dict[K, V], potential, expand,
                       limit: int | None = None) -> dict[K, V] | None:
    """Expand denominators until none can be, merging equal ones first.

    ``expand(key, value)`` returns None when ``key`` is final, else the
    children ``(child_key, child_value)`` of ``value / key`` (none when the
    value is zero).  Every child must have a strictly larger ``potential``
    than its parent.  Taking the denominators lowest potential first then
    expands each one once, after all of its contributions have arrived, so
    a final denominator is final in value too: nothing reaches it later to
    cancel it.  The result therefore has ``limit`` entries or more as soon
    as that many are final, and the worklist then stops and returns None.
    """
    pending = dict(start)
    queue = [(potential(key), key) for key in pending]
    heapify(queue)
    out: dict[K, V] = {}
    while queue:
        _, key = heappop(queue)
        value = pending.pop(key)
        children = expand(key, value)
        if children is None:
            out[key] = value
            if len(out) == limit:
                return None
            continue
        for child, v in children:
            if child in pending:
                pending[child] = pending[child] + v
            else:
                pending[child] = v
                heappush(queue, (potential(child), child))
    return out


def mero_neg(f: MeromorphicGerm) -> MeromorphicGerm:
    return MeromorphicGerm(-f.numerator, f.den)


def mero_sub(f: MeromorphicGerm, g: MeromorphicGerm) -> MeromorphicGerm:
    return mero_add(f, mero_neg(g))


def mero_mul(f: MeromorphicGerm, g: MeromorphicGerm) -> MeromorphicGerm:
    den = list(f.den) + list(g.den)
    return make_mero(f.numerator * g.numerator, den)


def mero_scale(c, f: MeromorphicGerm) -> MeromorphicGerm:
    return make_mero(f.numerator.scale(c), f.den)


class PolarGerm(Record):
    """Canonical polar germ: orthogonal numerator over independent poles.

    ``factors`` doubles as the decorated cone of the germ: the geometric
    supporting cone is spanned by the pole forms, decorated by their powers.
    """

    numerator: Polynomial
    factors: Factors

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    @property
    def p_order(self) -> int:
        """Total pole multiplicity of the germ."""
        return sum(e for _, e in self.factors)

    def as_mero(self) -> MeromorphicGerm:
        return make_mero(self.numerator, self.factors)

    def __repr__(self):
        return f"PolarGerm({self.as_mero()!r})"


class GermSum(Record):
    """A finite formal sum of polar germs plus a polynomial part.

    Terms with the same decorated denominator are merged at construction and
    zero numerators dropped, so structural equality of GermSums compares
    meaningfully.
    """

    terms: tuple[PolarGerm, ...]
    poly: Polynomial

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def is_zero(self) -> bool:
        return not self.terms and self.poly.is_zero()

    def __repr__(self):
        return f"GermSum({len(self.terms)} polar terms, poly={self.poly.to_string()})"


def make_germ_sum(terms: Sequence[PolarGerm], poly: Polynomial) -> GermSum:
    merged = sum_by_factors((t.numerator, t.factors) for t in terms)
    return GermSum(tuple(PolarGerm(num, fac)
                         for fac, num in sorted(merged.items())), poly)


def _fractions(x) -> list[tuple[Polynomial, Factors]]:
    """The summands of a germ-like object as (numerator, factors) pairs."""
    if isinstance(x, MeromorphicGerm):
        return [(x.numerator, x.den)]
    if isinstance(x, Polynomial):
        return [(x, ())]
    if isinstance(x, PolarGerm):
        return [(x.numerator, x.factors)]
    if isinstance(x, GermSum):
        return [(x.poly, ())] + [(t.numerator, t.factors) for t in x.terms]
    # formal expansions provide .fractions(), truncated germs .as_germ_sum()
    if hasattr(x, "fractions"):
        return x.fractions()
    if hasattr(x, "as_germ_sum"):
        return _fractions(x.as_germ_sum())
    raise TypeError(f"cannot interpret {type(x).__name__} as a germ")


def as_mero(x) -> MeromorphicGerm:
    """Coerce a Polynomial, PolarGerm, GermSum, FormalExpansion, truncated
    germ or germ to MeromorphicGerm."""
    if isinstance(x, MeromorphicGerm):
        return x
    pairs = _fractions(x)
    return fraction_sum(pairs, pairs[0][0].nvars)


def germ_equal(f, g) -> bool:
    """Exact equality of germs, no evaluation.

    Every constructor reduces a ``MeromorphicGerm`` to lowest terms over
    canonical forms, so two of them are equal iff they are structurally
    equal.  Any other two inputs that are structurally equal (of one type,
    field by field) are equal at once.  Otherwise f - g is summed exactly
    and tested for zero.
    """
    if isinstance(f, MeromorphicGerm) and isinstance(g, MeromorphicGerm):
        return f == g
    pairs = _fractions(f) + [(-num, den) for num, den in _fractions(g)]
    return f == g or fraction_sum(pairs, pairs[0][0].nvars).is_zero()


def evaluate(x, point: Sequence) -> Fraction:
    """Exact value at a rational point, summed fraction by fraction.  On a
    pole of one fraction the reduced germ ``as_mero(x)`` is evaluated
    instead, so PoleHit means that the point lies on a pole of the sum."""
    point = tuple(Fraction(p) for p in point)
    total, dot = 0, cache(lambda v: vec_dot(v, point))
    for num, den in _fractions(x):
        value = num.evaluate(point)
        for v, e in den:
            val = dot(v)
            if val == 0:
                if isinstance(x, MeromorphicGerm):
                    raise PoleHit(f"point lies on the pole <{Polynomial.linear_form(v).to_string()}>")
                return evaluate(as_mero(x), point)
            value /= val ** e
        total += value
    return total


# ---------------------------------------------------------------------------
# orthogonality (the Q-structure on numerators)

def _check_form_lengths(k: int, forms: Iterable[Vec]) -> None:
    for v in forms:
        if len(v) != k:
            raise ValueError(f"numerator in {k} variables, pole form of "
                             f"length {len(v)}")


def numerator_is_orthogonal(space: AmbientSpace | None, numerator: Polynomial,
                            forms: Sequence[Vec]) -> bool:
    """Whether every derivative of the numerator along Q v, v a form, is
    zero: a polynomial in linear forms Q-orthogonal to the poles alone.
    ValueError naming both numbers when the space or a form has another
    dimension than the numerator, or with no space for a nonconstant one."""
    k = numerator.nvars
    if space is not None and space.dimension != k:
        raise ValueError(f"numerator in {k} variables, space of dimension "
                         f"{space.dimension}")
    _check_form_lengths(k, forms)
    if numerator.is_constant():
        return True
    if space is None:
        raise ValueError("ambient space required to check orthogonality")
    return all(
        numerator.directional_derivative(mat_vec(space.gram, v)).is_zero()
        for v in forms)


def canonicalize_polar(space: AmbientSpace | None, numerator: Polynomial,
                       factors: Sequence[tuple[Vec, int]]) -> PolarGerm:
    """Validate and canonicalize a polar germ.

    Raises NotPolar for a zero numerator, dependent pole forms, or a
    numerator not orthogonal to the poles, and ValueError when the space or
    a pole form has another dimension than the numerator.  ``space`` may be
    None only when the numerator is constant (orthogonality is then vacuous).
    """
    num, fac = canonical_fraction(numerator, factors)
    if num.is_zero():
        raise NotPolar("polar germ needs a nonzero numerator")
    forms = [v for v, _ in fac]
    if mat_rank(tuple(forms)) != len(forms):
        raise NotPolar("pole forms of a polar germ must be independent")
    if space is None and not num.is_constant():
        raise NotPolar("ambient space required to check orthogonality")
    if not numerator_is_orthogonal(space, num, forms):
        raise NotPolar("numerator is not orthogonal to the pole forms")
    return PolarGerm(num, fac)


# ---------------------------------------------------------------------------
# partial fractions onto independent denominators

def reduce_to_independent(
        f) -> list[tuple[Fraction, Polynomial, Factors]]:
    """Rewrite f as sum_i c_i * numerator / prod(independent forms)^s.

    Independent forms (or none) give ``[(1, numerator, den)]`` after one
    elimination; otherwise the c_i are the constant numerators of the
    ``_nbc_rewrite`` of 1/den under the descending canonical order of the
    germ's own forms.

    That is the output of the greedy exchange loop, which in canonical
    order a_1 < ... < a_n moves a power from each greedy pivot onto the
    first dependent form.  Each pole set S it reaches keeps every missing
    form a_j outside span{a_i in S : i < j}: at the start S holds every
    form, and an exchange adds none and removes only a pivot a_p, outside
    span(S_{<p}) as pivots are chosen from below, which only shrinks the
    spans the other missing forms are tested against.  So an independent S
    holds no broken circuit of the descending order, and the expansion onto
    nbc sets is unique, their reciprocal monomials being linearly
    independent (Terao, J. Algebra 250, 2002).
    """
    f = as_mero(f)
    if f.is_zero():
        return []
    forms = [v for v, _ in f.den]
    if len(_reduced_rows(mat_from_columns(forms))[1]) == len(forms):
        return [(ONE, f.numerator, f.den)]
    out = _nbc_rewrite({f.den: Polynomial.constant(f.nvars, 1)}, forms[::-1])
    return [(num.constant_term(), f.numerator, den)
            for den, num in sorted(out.items())]


# ---------------------------------------------------------------------------
# holomorphic/polar decomposition

def decompose(space: AmbientSpace, f) -> GermSum:
    """Split a germ into polar germs plus a polynomial (exact, canonical):
    ``reduce_to_independent`` rewrites it over independent denominators by
    the nbc rewrite of its own forms, and the shared worklist
    ``polar_split`` splits all of those at once.  Raises
    ValueError when the germ and the space differ in their numbers of
    variables.  Only the split uses Q; the 8 latest germs keep the rewrite.
    """
    f = as_mero(f)
    k = space.dimension
    if f.nvars != k:
        raise ValueError(f"germ in {f.nvars} variables, space of dimension {k}")
    return polar_split(space, [(num.scale(coef), den)
                               for coef, num, den in _rewrite(f)])


@lru_cache(maxsize=8)
def _rewrite(f: MeromorphicGerm) -> tuple:
    """``reduce_to_independent(f)``, kept as a tuple for the latest germs."""
    return tuple(reduce_to_independent(f))


def polar_split(space: AmbientSpace,
                fractions: Iterable[tuple[Polynomial, Factors]]) -> GermSum:
    """Split a sum of ``(numerator, canonical factors)`` fractions, the
    forms of each independent, into polar germs plus a polynomial.

    Each denominator L_F^s is split once, in eps, with the sum of the
    numerators that reached it, highest total order first.  Its polar part
    is num o P, for P the Q-orthogonal projector onto the complement of the
    forms F.  When F has k - 1 forms, P = beta ell / d has rank one, and
    num o P is a polynomial in the one linear form ell, summed on ints from
    one coefficient per degree of num (``_rank_one_image``); fewer forms
    compose num with the k images of P.  The rest vanishes where F = 0, so
    exact division by a reverse echelon basis of F writes it as
    sum_j q_j L_j, and each q_j moves to the denominator with one power of
    L_j less.  Spanning forms F keep the constant term (P = 0) and divide
    nothing: each monomial goes in one pass to its highest-index
    x_p = sum_j A_pj L_j / d_p.  Merging first is exact, as the polar split
    on the faces of one simplicial cone is unique.
    """
    k = space.dimension
    scale = lcm(*(a.denominator for row in space.gram for a in row))
    gram = tuple(tuple(int(a * scale) for a in row) for row in space.gram)
    faces: dict[tuple[Vec, ...], tuple] = {}
    polar: dict[Factors, Polynomial] = {}

    def expand(den: Factors, num: Polynomial):
        if not den:
            return None
        if num.is_constant():
            # a constant has no part along a pole direction
            polar[den] = num
            return []
        forms = tuple(v for v, _ in den)
        if forms not in faces:
            faces[forms] = _face_split(gram, forms)
        projector, basis = faces[forms]
        if projector is None:
            d, lifts = basis
            parts: list[dict] = [{} for _ in forms]
            for e, c in num.coeffs.items():
                if any(e):
                    p = max(compress(range(k), e))
                    e = e[:p] + (e[p] - 1,) + e[p + 1:]
                    for j, a in lifts[p]:
                        parts[j][e] = parts[j].get(e, 0) + a * c
            polar[den] = Polynomial.constant(k, num.constant_term())
            quotients = [Polynomial.from_ints(k, _nonzero(q), num.den * d)
                         for q in parts]
        else:
            part = polar[den] = projector(num)
            rest, quotients = num - part, [Polynomial.zero(k)] * len(forms)
            for row, coords in basis:
                q, rest = rest.divmod_linear(row)
                for j, c in enumerate(coords):
                    if c:
                        quotients[j] += q if c == 1 else q.scale(c)
        return [(tuple((u, e - (u == v)) for u, e in den if e - (u == v)), q)
                for v, q in zip(forms, quotients) if not q.is_zero()]

    poly = _exchange_worklist(sum_by_factors(fractions),
                              lambda den: -sum(e for _, e in den), expand)
    return make_germ_sum([PolarGerm(num, den) for den, num in polar.items()],
                         poly.get((), Polynomial.zero(k)))


def _face_split(gram: Mat, forms: tuple[Vec, ...]):
    """The polar projection num -> num o P, for P = I - Q F^T (F Q F^T)^-1 F
    and independent forms F, and pairs (R_i, A_i), R_i = sum_j A_ij L_j,
    whose R_i each hold a highest-index variable that no other R_j holds.
    ``gram`` is Q times a positive scalar, which cancels in P.  One form
    needs no elimination: F Q F^T is a scalar, and L is its own R.  With
    k - 1 forms P has rank one, and every row of d P is beta_i ell for one
    primitive row ell, so the projection is ``_rank_one_image`` of (beta,
    ell, d); with fewer, num is composed with the images of P by
    ``Polynomial.substitute``.  Spanning forms have P = None and R = d_p x_p:
    the pairs become (d = lcm(d_p), lifts), lifts[p] the (j, A_pj d / d_p)
    with A_pj != 0."""
    k, m = len(gram), len(forms)
    projector = None
    if m < k:
        qf = [mat_vec(gram, v) for v in forms]
        if m == 1:
            x, dens = forms, [vec_dot(forms[0], qf[0])]
        else:
            # row i of the reduced [F Q F^T | F] is (F Q F^T)^-1 F over its
            # pivot
            rows, _ = _reduced_rows(tuple(
                tuple(vec_dot(u, q) for q in qf) + u for u in forms))
            x, dens = [r[m:] for r in rows], [r[i] for i, r in enumerate(rows)]
        d = lcm(*dens)
        dp = [[d * (i == j) for j in range(k)] for i in range(k)]
        for q, r, di in zip(qf, x, dens):
            for i, qi in enumerate(q):
                if qi:
                    dp[i] = [a - qi * (d // di) * b for a, b in zip(dp[i], r)]
        if m == k - 1:
            # every row of d P is beta_i ell for one primitive row ell
            ell = primitive_vector(next(filter(any, dp)))
            p = next(j for j, a in enumerate(ell) if a)
            beta = [row[p] // ell[p] for row in dp]
            projector = partial(_rank_one_image, beta, {
                unit_vec(k, j): a for j, a in enumerate(ell) if a}, d)
        else:
            images = [Polynomial.linear_form(row, d) for row in dp]
            projector = lambda num: num.substitute(images)
        if m == 1:
            return projector, [(forms[0], (1,))]
    # the pivots of the reduced [F reversed | I] are the highest-index
    # variables, and the identity block records A
    rows, _ = _reduced_rows(tuple(
        v[::-1] + unit_vec(m, i) for i, v in enumerate(forms)))
    if projector is None:
        d = lcm(*(r[i] for i, r in enumerate(rows)))
        return None, (d, [tuple((j, a * (d // r[k - 1 - p]))
                                for j, a in enumerate(r[k:]) if a)
                          for p, r in enumerate(reversed(rows))])
    return projector, [(tuple(r[k - 1::-1]), r[k:]) for r in rows]


def _rank_one_image(beta: Sequence[int], ell: IntTerms, d: int,
                    num: Polynomial) -> Polynomial:
    """num o P for the rank-one P with x_i o P = beta_i ell / d, ``ell`` a
    linear form as int terms.  A monomial c x^e goes to c beta^e ell^|e| /
    d^|e|, so with g_j the sum of c beta^e over |e| = j, num o P is
    sum_j g_j ell^j / d^j: one int per degree, then one Horner pass in ell
    over the shared denominator den d^top."""
    g: dict[int, int] = {}
    for e, c in num.coeffs.items():
        for b, p in zip(beta, e):
            if p:
                c *= b ** p
        j = sum(e)
        g[j] = g.get(j, 0) + c
    top, zero = max(g, default=0), (0,) * num.nvars
    h: IntTerms = {}
    dj = 1
    for j in range(top, -1, -1):
        h = _mul_terms(h, ell)
        if g.get(j):
            h[zero] = h.get(zero, 0) + g[j] * dj
        dj *= d
    return Polynomial.from_ints(num.nvars, _nonzero(h), num.den * d ** top)
