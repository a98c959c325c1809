"""Meromorphic germs at zero with linear poles, over exact rationals.

A germ is a quotient p / prod <v_i, eps>^{s_i} with a polynomial numerator
and finitely many linear pole forms.  Denominator forms are always stored as
primitive pseudo-positive integer vectors (scalars are absorbed into the
numerator, using 1/(-L)^s = (-1)^s/L^s), sorted canonically, and reduced so
that no pole form divides the numerator.  A reduced germ is unique, so two
germs are equal iff they are structurally equal, and exact sums
(``fraction_sum``) may group their summands in any way.

A *polar* germ additionally keeps its numerator orthogonal to the pole forms:
the numerator is a polynomial in linear functions <w, eps> with Q(w, v_i) = 0
for every pole form v_i.  ``decompose`` splits any germ into a sum of polar
germs plus a polynomial, the exact analogue of the Laurent split of a
one-variable meromorphic function into principal part plus holomorphic part.
It merges the numerators that reach a denominator before it splits them,
which is exact as the split on the faces of one simplicial cone is unique.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence, TypeVar

from .errors import NotPolar, PoleHit
from .exact import (
    ONE,
    AmbientSpace,
    Polynomial,
    Vec,
    int_inverse,
    mat_from_columns,
    mat_rank,
    nullspace,
    primitive_pseudo_positive,
    q_orthogonal_complement,
    rref,
    solve,
    vec_dot,
)

Factors = tuple[tuple[Vec, int], ...]
K = TypeVar("K")
V = TypeVar("V")


def canonical_fraction(numerator: Polynomial,
                       raw: Sequence[tuple[Vec, int]]) -> tuple[Polynomial, Factors]:
    """``numerator / prod raw`` over canonical pole factors.

    Every form becomes its primitive pseudo-positive vector, equal forms are
    merged and sorted, and the scalar taken out of the forms moves into the
    numerator, so the fraction keeps its value.  This is how every germ type
    stores its factors.
    """
    merged: dict[Vec, int] = {}
    scale = ONE
    for v, e in raw:
        if e == 0:
            continue
        if e < 0:
            raise ValueError("negative pole multiplicity")
        c, w = primitive_pseudo_positive(tuple(v))
        scale *= c ** e
        merged[w] = merged.get(w, 0) + e
    return numerator.scale(ONE / scale), tuple(sorted(merged.items()))


@dataclass(frozen=True)
class MeromorphicGerm:
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
    den_d = dict(den)
    for v in list(den_d):
        while den_d.get(v, 0) > 0:
            if _nonzero_on_hyperplane(num, v):
                break
            q = num.divided_by_form(v)
            if q is None:
                break
            num = q
            den_d[v] -= 1
        if den_d.get(v) == 0:
            del den_d[v]
    return MeromorphicGerm(num, tuple(sorted(den_d.items())))


def _nonzero_on_hyperplane(num: Polynomial, v: Vec) -> bool:
    """True when ``num`` is nonzero at one integer point of {<v, eps> = 0},
    which proves that the form does not divide it.

    ``v`` is a canonical form with leading entry a = v_j; the point has
    x_i = a (i + 2) for i != j and x_j = -sum_(i != j) v_i (i + 2).
    """
    j = max(i for i, c in enumerate(v) if c)
    a = v[j]
    point = [a * (i + 2) for i in range(len(v))]
    point[j] = -sum(c * (i + 2) for i, c in enumerate(v) if i != j)
    return num.numerator_at(point) != 0


def den_poly(nvars: int, den: Factors) -> Polynomial:
    """The product of the pole factors as a polynomial."""
    p = Polynomial.constant(nvars, 1)
    for v, e in den:
        p = p * Polynomial.linear_form(v) ** e
    return p


def mero_add(*germs: MeromorphicGerm) -> MeromorphicGerm:
    """The sum of one or more germs: their numerators are brought over the
    least common denominator, added, and the sum is reduced once."""
    lcm: dict[Vec, int] = {}
    for g in germs:
        for v, e in g.den:
            lcm[v] = max(lcm.get(v, 0), e)
    num = Polynomial.zero(germs[0].nvars)
    for g in germs:
        own = dict(g.den)
        cofactor = tuple((v, e - own.get(v, 0)) for v, e in lcm.items()
                         if e > own.get(v, 0))
        num = num + g.numerator * den_poly(g.nvars, cofactor)
    return make_mero(num, tuple(lcm.items()))


def mero_sum(germs: Iterable[MeromorphicGerm], nvars: int) -> MeromorphicGerm:
    """Exact sum of germs in ``nvars`` variables (see ``fraction_sum``)."""
    return fraction_sum([(g.numerator, g.den) for g in germs], nvars)


def fraction_sum(fractions: Iterable[tuple[Polynomial, Factors]],
                 nvars: int) -> MeromorphicGerm:
    """Exact sum of ``numerator / prod form^power`` pairs, as a reduced germ.

    Each fraction is first rewritten on its own onto denominators whose pole
    sets contain no broken circuit (nbc) of the arrangement of all forms
    present.  Those span every fraction over the arrangement (Brion &
    Vergne, Ann. Sci. ENS 32, 1999; Terao, J. Algebra 250, 2002), so the
    many pieces of a subdivision collapse onto a few shared denominators,
    where they cancel as plain polynomial sums.  The survivors are then
    added by one ``mero_add`` over their least common denominator, which
    reduces the sum once.  When the forms present are independent every
    pole set is already nbc and the rewrite is skipped.  When it would not
    leave fewer fractions than it was given (a few unrelated fractions over
    many dependent forms), it stops as soon as that is certain and the
    fractions are summed as given.  The factors must be canonical
    (primitive pseudo-positive forms, each once, sorted, positive
    exponents), as every germ type stores them; ``exprio.deserialize``
    canonicalizes the factors it reads.  A reduced germ is unique, so the
    result does not depend on the order of the summands.
    """
    merged: dict[Factors, Polynomial] = {}
    for num, den in fractions:
        merged[den] = merged[den] + num if den in merged else num
    merged = {den: num for den, num in merged.items() if not num.is_zero()}
    arrangement = sorted({v for den in merged for v, _ in den})
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
    or None as soon as it is certain to have ``limit`` fractions or more.

    A pole set S holds a broken circuit iff some form L0 of the arrangement
    lies in the span of the members of S greater than L0.  For the least
    such L0, write L0 = sum_i c_i L_i over a basis of those members; then
    1/prod = sum_i c_i/(L0 * prod/L_i) moves one power from each L_i to the
    smaller L0, so the sum of exponent times reversed sort position grows
    strictly and the exchange worklist terminates.  Denominators are keyed
    by the sort positions of their forms while they are rewritten.
    """
    n = len(arrangement)
    index = {v: i for i, v in enumerate(arrangement)}
    steps: dict[tuple[int, ...], tuple[int, list[tuple[int, Fraction]]] | None] = {}

    def nbc_step(forms: tuple[int, ...]):
        # the forms below position i and from the previous member on have
        # forms[j:] as their greater members; search them in order
        lo = 0
        for j, i in enumerate(forms):
            members = forms[j:]
            candidates = range(lo, i)
            lo = i
            if not candidates:
                continue
            vectors = [arrangement[m] for m in members]
            normals = nullspace(tuple(vectors))
            for l0 in candidates:
                x = arrangement[l0]
                if all(vec_dot(x, w) == 0 for w in normals):
                    coords = solve(mat_from_columns(vectors), x)
                    return l0, [(m, c) for m, c in zip(members, coords) if c]
        return None

    def expand(key, num: Polynomial):
        if num.is_zero():
            return []
        forms = tuple(i for i, _ in key)
        if forms not in steps:
            steps[forms] = nbc_step(forms)
        step = steps[forms]
        if step is None:
            return None
        l0, coords = step
        return [(_exchanged(key, i, l0), num.scale(c)) for i, c in coords]

    start = {tuple((index[v], e) for v, e in den): num
             for den, num in fractions.items()}
    out = _exchange_worklist(
        start, lambda key: sum((n - i) * e for i, e in key), expand, limit)
    if out is None:
        return None
    return {tuple((arrangement[i], e) for i, e in key): num
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


@dataclass(frozen=True)
class PolarGerm:
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


@dataclass(frozen=True)
class GermSum:
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
    merged: dict[Factors, Polynomial] = {}
    for t in terms:
        if t.factors in merged:
            merged[t.factors] = merged[t.factors] + t.numerator
        else:
            merged[t.factors] = t.numerator
    out = [PolarGerm(num, fac) for fac, num in sorted(merged.items())
           if not num.is_zero()]
    return GermSum(tuple(out), poly)


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
    equal.  Otherwise f - g is summed exactly and tested for zero.
    """
    if isinstance(f, MeromorphicGerm) and isinstance(g, MeromorphicGerm):
        return f == g
    pairs = _fractions(f) + [(-num, den) for num, den in _fractions(g)]
    return fraction_sum(pairs, pairs[0][0].nvars).is_zero()


def evaluate(x, point: Sequence) -> Fraction:
    """Exact value at a rational point; raises PoleHit on a pole hyperplane."""
    f = as_mero(x)
    num = f.numerator.evaluate(point)
    den = ONE
    for v, e in f.den:
        val = vec_dot(v, tuple(Fraction(p) for p in point))
        if val == 0:
            raise PoleHit(f"point lies on the pole <{Polynomial.linear_form(v).to_string()}>")
        den *= val ** e
    return num / den


# ---------------------------------------------------------------------------
# orthogonality (the Q-structure on numerators)

def orthogonal_projection_images(space: AmbientSpace, forms: Sequence[Vec]) -> list[Polynomial]:
    """Substitution images realizing p -> p restricted to the Q-orthogonal
    complement of span(forms): those of ``_pole_coordinates`` with the pole
    coordinates set to zero (eps = P u + R w goes to R w).  A polynomial is
    a function of Q-orthogonal linear forms alone iff it is fixed by them.
    """
    m = len(forms)
    to_u, to_eps = _pole_coordinates(space, tuple(forms))
    zeros = [Polynomial.zero(space.dimension)] * m
    return [image.substitute(zeros + to_eps[m:]) for image in to_u]


def numerator_is_orthogonal(space: AmbientSpace | None, numerator: Polynomial,
                            forms: Sequence[Vec]) -> bool:
    """Whether the numerator is fixed by the projection along the forms;
    ValueError naming both numbers when the space or a form has another
    dimension than the numerator.  ``space`` may be None for a constant."""
    k = numerator.nvars
    if space is not None and space.dimension != k:
        raise ValueError(f"numerator in {k} variables, space of dimension "
                         f"{space.dimension}")
    for v in forms:
        if len(v) != k:
            raise ValueError(f"numerator in {k} variables, pole form of "
                             f"length {len(v)}")
    if numerator.is_constant():
        return True
    images = orthogonal_projection_images(space, forms)
    return numerator.substitute(images) == numerator


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

    The numerator polynomial is shared by all output fractions; only the
    denominators change, by repeated use of the exchange identity
    1/(L_1...L_r) = sum_i a_i/(L_1...L_i-hat...L_r L_0) for a dependent form
    L_0 = sum_i a_i L_i among the poles.

    Equal denominators reached along different exchange paths are merged,
    their coefficients summed, before they are expanded further.  Every
    step moves one power from a form to a later form in the sorted order,
    so the sum of exponent times sort position grows strictly, as
    ``_exchange_worklist`` needs.
    """
    f = as_mero(f)
    if f.is_zero():
        return []
    position = {v: i for i, v in enumerate(sorted(v for v, _ in f.den))}

    def expand(key: Factors, coef: Fraction):
        if coef == 0:
            return []
        forms = [v for v, _ in key]
        # one rref of the forms as columns: the pivot columns are the greedy
        # independent subset in canonical order, the first other column is
        # the first dependent form, and its rref column holds its
        # coordinates over the pivot forms (all of them earlier forms)
        red, pivots = rref(mat_from_columns(forms))
        dep = next((j for j in range(len(forms)) if j not in pivots), None)
        if dep is None:
            return None
        return [(_exchanged(key, forms[p], forms[dep]), coef * red[i][dep])
                for i, p in enumerate(pivots) if red[i][dep]]

    start = tuple(sorted((v, e) for v, e in f.den if e))
    out = _exchange_worklist(
        {start: ONE}, lambda key: sum(position[v] * e for v, e in key), expand)
    return [(c, f.numerator, den) for den, c in sorted(out.items())]


# ---------------------------------------------------------------------------
# holomorphic/polar decomposition

def decompose(space: AmbientSpace, f) -> GermSum:
    """Split a germ into polar germs plus a polynomial (exact, canonical).

    A worklist takes the independent denominators of
    ``reduce_to_independent`` most pole forms first, each with the sum of
    the numerators that reached it.  In the coordinates u = the pole forms,
    w = a Q-orthogonal basis, each monomial cancels what it can: one that
    keeps every form is free of u, a polar term summed in (u, w) until the
    end; any other has lost a form and moves to a denominator with fewer
    forms, taken later.  Merging first is exact, as the polar split on the
    faces of one simplicial cone is unique.  Raises ValueError when the germ
    and the space differ in their numbers of variables.
    """
    f = as_mero(f)
    k = space.dimension
    if f.nvars != k:
        raise ValueError(f"germ in {f.nvars} variables, space of dimension {k}")
    zero = Polynomial.zero(k)
    pending = [defaultdict(lambda: zero) for _ in range(k + 1)]
    for coef, num, den in reduce_to_independent(f):
        pending[len(den)][den] += num.scale(coef)
    polar: dict[Factors, Polynomial] = defaultdict(lambda: zero)
    maps: dict[tuple[Vec, ...], tuple[list[Polynomial], list[Polynomial]]] = {}
    for m in range(k, 0, -1):
        for den, num in pending[m].items():
            if num.is_constant():
                # a constant has no part along a pole direction
                polar[den] += num
                continue
            forms = tuple(v for v, _ in den)
            if forms not in maps:
                maps[forms] = _pole_coordinates(space, forms)
            to_u, to_eps = maps[forms]
            parts = num.substitute(to_u).split_over([e for _, e in den])
            for left, part in parts.items():
                child = tuple((v, e) for (v, _), e in zip(den, left) if e)
                if len(child) == m:
                    polar[child] += part
                else:
                    pending[len(child)][child] += part.substitute(to_eps)
    terms = []
    for den, num in sorted(polar.items()):
        if not num.is_constant():
            num = num.substitute(maps[tuple(v for v, _ in den)][1])
        if not num.is_zero():
            terms.append(PolarGerm(num, den))
    return GermSum(tuple(terms), pending[0][()])


def _pole_coordinates(space: AmbientSpace, forms: tuple[Vec, ...]
                      ) -> tuple[list[Polynomial], list[Polynomial]]:
    """Images for eps -> (u, w) and back, u = the forms and w = a
    Q-orthogonal basis of them: eps is the int inverse of the basis."""
    basis = tuple(forms) + tuple(q_orthogonal_complement(space, forms))
    to_u = [Polynomial.linear_form(row, d) for row, d in int_inverse(basis)]
    return to_u, [Polynomial.linear_form(b) for b in basis]
