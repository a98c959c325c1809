"""Exact rational linear algebra and sparse multivariate polynomials.

Everything is exact over the rationals, so equality tests are decisive and
nothing is ever rounded.  Vectors are tuples and matrices are tuples of row
tuples.  An integral vector (a pole form, a cone generator or ray, a facet
normal, a kernel or lattice basis vector) is a tuple of Python ints, made by
:func:`primitive_vector` or built from ints; rational input stays
:class:`fractions.Fraction`.  Ints and equal Fractions compare, hash and
print the same, and every routine here accepts either.  There is one dot
product, :func:`vec_dot`, and it is an int on int rows, so pairings of
integral vectors (and ``mat_vec`` and ``AmbientSpace.pairing`` built on
it) never touch Fraction arithmetic.
Elimination (``rref``, ``mat_rank``, ``det``, ``int_inverse``) runs on
Python ints: rows are scaled to integers and reduced fraction-free (Bareiss
1968); only results become Fractions, not even determinants of int rows
or inverses.  There is one coordinate solve, :func:`solve`, and it returns
None exactly when the right-hand side is outside the column span.
Every elimination starts in ``_echelon``, which refuses rows of unequal
length (``_common_length``), as ``mat_from_columns`` and ``pairing`` refuse
ragged input; ``vec_dot``, an expansion's innermost loop, is not checked.

A :class:`Polynomial` is stored the same way: int numerators keyed by
exponent tuples over one positive int denominator, reduced so that the form
is unique.  Sums, products, substitution and derivatives run on ints
(sparse term-by-term products, Johnson 1974), and division by a linear form
is a pseudo-division by its primitive integer form.  The Fraction
coefficients are a read-only view (``Polynomial.terms``) built on each
read; the canonical term order for printing is graded lexicographic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, gcd, isqrt, lcm, prod
from operator import add, attrgetter, mul
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import DependentInput, RankDeficient

Vec = tuple[int | Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(coords: Iterable) -> Vec:
    return tuple(frac(c) for c in coords)


def unit_vec(k: int, i: int) -> tuple[int, ...]:
    return (0,) * i + (1,) + (0,) * (k - i - 1)


def vec_dot(u: Vec, v: Vec) -> int | Fraction:
    """Plain coordinate dot product (duality pairing, no inner product).

    An int on int rows and a Fraction once an entry is one.  The vectors
    must have equal length; it is not checked here (``_common_length`` is).
    """
    return sum(map(mul, u, v))


def _common_length(lengths: Sequence[int], what: str) -> int:
    """The one value of ``lengths`` (0 if none); else ValueError naming two."""
    for n in lengths:
        if n != lengths[0]:
            raise ValueError(f"{what} {lengths[0]} and {n}")
    return lengths[0] if lengths else 0


def vec_is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v: Vec) -> tuple[int, ...]:
    """Scale ``v`` by a *positive* rational so entries are coprime integers.

    The result is a tuple of Python ints, the one form in which the library
    stores an integral vector.  The ray direction is preserved; the zero
    vector becomes a tuple of int zeros.
    """
    ints, _ = _scaled_row(v)
    g = gcd(*ints)
    return tuple(n // g for n in ints) if g > 1 else tuple(ints)


def _scaled_row(row) -> tuple[list[int], int]:
    """The row times the lcm ``d`` of its denominators, and ``d``.

    A positive row scaling: it changes neither the row space nor the sign of
    any entry, so the RREF, the rank and the solution sets stay the same.
    """
    d = lcm(*map(_denominator, row))
    if d == 1:
        return list(map(_numerator, row)), 1
    return [a.numerator * (d // a.denominator) for a in row], d


def is_pseudo_positive(v: Vec) -> bool:
    """True when the nonzero coordinate of highest index is positive.

    The zero vector counts as pseudo-positive.  The set of pseudo-positive
    vectors is a strictly convex half-space-like cone: it is closed under
    positive combinations and meets its negative only in 0.
    """
    for a in reversed(v):
        if a != 0:
            return a > 0
    return True


def primitive_pseudo_positive(v: Vec) -> tuple[Fraction, Vec]:
    """Write ``v = c * w`` with ``w`` primitive pseudo-positive, ``c != 0``.

    Raises ValueError on the zero vector (it has no direction).
    """
    w = primitive_vector(v)
    i = len(w) - 1
    while i >= 0 and not w[i]:
        i -= 1
    if i < 0:
        raise ValueError("zero vector has no primitive representative")
    if w[i] < 0:
        w = tuple(-a for a in w)
    return Fraction(v[i], w[i]), w


# ---------------------------------------------------------------------------
# matrices

def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def mat_transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_from_columns(cols: Sequence[Vec]) -> Mat:
    _common_length([len(c) for c in cols], "columns have lengths")
    return mat_transpose(tuple(cols))


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vec_dot(row, v) for row in m)


def _echelon(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free forward elimination of integer rows, in place.

    Bareiss (Math. Comp. 22, 1968): every update is divided exactly by the
    previous pivot, so each entry of row r is an (r+1)-minor of the input
    and no entry grows beyond the minors.  Columns without a pivot are
    skipped.  Returns the pivot columns and the sign of the row
    permutation; the last pivot of a nonsingular square matrix is its
    determinant.  Raises ValueError on rows of unequal length.
    """
    nrows = len(rows)
    ncols = _common_length([len(r) for r in rows], "rows have lengths")
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            rows[i] = [(a * piv - f * b) // prev
                       for a, b in zip(rows[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
    return pivots, sign


def _reduced_rows(m: Mat) -> tuple[list[list[int]], list[int]]:
    """The pivot rows of the RREF of ``m`` as gcd-reduced integer rows (each
    a nonzero multiple of its reduced row) and the pivot columns.

    Each row is scaled by the lcm of its denominators, :func:`_echelon`
    eliminates below the pivots and back substitution clears above them,
    reducing every updated row by the gcd of its entries.
    """
    rows = [_scaled_row(r)[0] for r in m]
    pivots, _ = _echelon(rows)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        g = gcd(*rows[r])
        top = rows[r] = [a // g for a in rows[r]]
        piv = top[c]
        for i in range(r):
            f = rows[i][c]
            if f:
                row = [a * piv - f * b for a, b in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [a // g for a in row]
    return rows[:len(pivots)], pivots


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    The arithmetic is integer (:func:`_reduced_rows`) and only the final
    entries become Fractions.  The RREF is unique, so this is the same
    matrix exact rational Gauss-Jordan elimination gives.
    """
    rows, pivots = _reduced_rows(m)
    ncols = len(m[0]) if m else 0
    red = [tuple(Fraction(a, row[c]) if a else ZERO for a in row)
           for row, c in zip(rows, pivots)]
    red += [(ZERO,) * ncols] * (len(m) - len(pivots))
    return tuple(red), tuple(pivots)


def mat_rank(m: Mat) -> int:
    """Rank by integer forward elimination (no reduced form is built)."""
    return len(_echelon([_scaled_row(r)[0] for r in m])[0])


def span_key(vectors: Sequence[Sequence]) -> tuple[Vec, ...]:
    """Canonical key for a rational subspace: its reduced echelon basis."""
    red, pivots = rref(tuple(vec(v) for v in vectors))
    return red[:len(pivots)]


def nullspace(m: Mat) -> list[tuple[int, ...]]:
    """Canonical basis of { x : m x = 0 }, primitivized echelon vectors.

    For a free column f the vector has x_f = L, the lcm of the pivots of
    the integer reduced rows, and x_p = -row[f] * L / row[p] at each pivot
    p; dividing by the gcd gives the primitive vector of the same ray.
    """
    if not m:
        return []
    rows, pivots = _reduced_rows(m)
    ncols = len(m[0])
    big = lcm(*(row[c] for row, c in zip(rows, pivots)))
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = big
        for row, c in zip(rows, pivots):
            x[c] = -row[free] * (big // row[c])
        g = gcd(*x)
        basis.append(tuple(a // g for a in x))
    return basis


def solve(m: Mat, b: Vec) -> Vec | None:
    """One solution of ``m x = b``, or None exactly when b lies outside the
    column span of ``m``.

    That is when the augmented column of the reduced form holds a pivot;
    otherwise every row without a pivot is zero, so the pivot rows alone
    give an exact solution.  Free variables are set to zero; with
    independent columns the solution is the unique one.  A matrix with no
    columns (the empty tuple) spans only the zero vector.
    """
    if not m:
        return None if any(b) else ()
    ncols = _common_length([len(r) for r in m], "rows have lengths")
    aug = tuple(row + (bi,) for row, bi in zip(m, b, strict=True))
    rows, pivots = _reduced_rows(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, p in zip(rows, pivots):
        x[p] = Fraction(row[ncols], row[p])
    return tuple(x)


def det(m: Mat) -> int | Fraction:
    """Determinant by Bareiss elimination over the integers.

    The rows are scaled to integers first; the determinant of the scaled
    matrix is the last Bareiss pivot, divided here by the product of the
    row scales.  An int on int rows (1 for the empty matrix) and a Fraction
    once an entry is one, as :func:`vec_dot`.  Raises ValueError when the
    matrix is not square.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    scaled = [_scaled_row(r) for r in m]
    rows = [r for r, _ in scaled]
    pivots, sign = _echelon(rows)
    value = sign * rows[-1][-1] if len(pivots) == n else 0
    if all(isinstance(a, int) for row in m for a in row):
        return value
    return Fraction(value, prod(d for _, d in scaled))


def int_inverse(m: Mat) -> list[tuple[list[int], int]]:
    """A left inverse of ``m`` (the inverse when square) as pairs
    ``(r_i, d_i)``: row i is the int row r_i over the int d_i > 0, in lowest
    terms.  One :func:`_reduced_rows` pass over ``[m | I]``, whose first n
    rows are ``[d_i e_i | r_i]`` when the n columns of ``m`` are
    independent; DependentInput when they are not (``m`` singular)."""
    n = _common_length([len(r) for r in m], "rows have lengths")
    aug = tuple(tuple(row) + unit_vec(len(m), i) for i, row in enumerate(m))
    rows, pivots = _reduced_rows(aug)
    if pivots[:n] != list(range(n)):
        raise DependentInput("matrix is singular")
    return [(r[n:], r[i]) if r[i] > 0 else ([-a for a in r[n:]], -r[i])
            for i, r in enumerate(rows[:n])]


# ---------------------------------------------------------------------------
# immutable value records

class Record:
    """Base of the immutable value types, in place of frozen data classes.

    The fields are the subclass's own annotations, in order (names only),
    and every one is required: there are no defaults.  One ``exec`` per
    subclass compiles ``__init__`` (fields by position or keyword, then
    ``__post_init__`` if defined), ``__eq__`` on the field tuples of
    same-class objects, ``__hash__`` of the field tuple and
    ``Name(field=value, ...)`` as ``__repr__``; a method of the class body
    wins.  Fields cannot be assigned or deleted.  Hashes, and so set and
    dict order, are the data class's.  Importing the standard data class
    module (it brings ``inspect`` and ``ast``) and building the 20 classes
    cost each cold start about 23 ms.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(names)
        # object.__setattr__ keeps the values inline; a write through
        # self.__dict__ is faster but makes every later attribute read slower
        stores = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        post = ("    self.__post_init__()\n"
                if hasattr(cls, "__post_init__") else "")
        mine = "".join(f"self.{n}," for n in names)
        theirs = "".join(f"other.{n}," for n in names)
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        src = (f"def __init__(self, {params}):\n{stores}{post}"
               "def __eq__(self, other):\n"
               "    if other.__class__ is self.__class__:\n"
               f"        return ({mine}) == ({theirs})\n"
               "    return NotImplemented\n"
               "def __hash__(self):\n"
               f"    return hash(({mine}))\n"
               "def __repr__(self):\n"
               f"    return f'{{self.__class__.__qualname__}}({shown})'\n")
        ns = {"_set": object.__setattr__}
        exec(src, ns)
        for name in ("__init__", "__eq__", "__hash__", "__repr__"):
            if name not in cls.__dict__:
                setattr(cls, name, ns[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# ambient space

class AmbientSpace(Record):
    """Fixed ambient dimension with a symmetric positive-definite pairing.

    ``gram`` holds Q in the standard basis; ``pairing(u, v) = u^T Q v`` is the
    inner product used for orthogonality of numerator directions against pole
    forms.  Positive-definiteness is checked eagerly via leading principal
    minors so misuse fails at construction, not deep inside an expansion.
    An integral ``gram`` is stored as ints, so pairings stay on ints.
    """

    dimension: int
    gram: Mat

    def __post_init__(self):
        k = self.dimension
        g = self.gram
        if len(g) != k or any(len(row) != k for row in g):
            raise ValueError(f"gram matrix must be {k}x{k}")
        if g != mat_transpose(g):
            raise ValueError("gram matrix must be symmetric")
        for j in range(1, k + 1):
            minor = tuple(row[:j] for row in g[:j])
            if det(minor) <= 0:
                raise ValueError("gram matrix must be positive definite")
        if all(a.denominator == 1 for row in g for a in row):
            object.__setattr__(self, "gram",
                               tuple(tuple(int(a) for a in row) for row in g))

    @classmethod
    def standard(cls, k: int) -> "AmbientSpace":
        return cls(k, tuple(unit_vec(k, i) for i in range(k)))

    def pairing(self, u: Vec, v: Vec) -> int | Fraction:
        _common_length([self.dimension, len(u), len(v)],
                       "a space and its vectors live in dimensions")
        return vec_dot(u, mat_vec(self.gram, v))


def q_orthogonal_complement(space: AmbientSpace, vs: Sequence[Vec]) -> list[Vec]:
    """Basis of { w : Q(w, v) = 0 for all given v }, primitive and canonical."""
    _common_length([space.dimension] + [len(v) for v in vs],
                   "a space and its vectors live in dimensions")
    if not vs:
        return [unit_vec(space.dimension, i) for i in range(space.dimension)]
    return nullspace(tuple(mat_vec(space.gram, v) for v in vs))


def max_minor_abs_sum(columns: Sequence[Vec], n: int) -> Fraction:
    """Sum of |det| over all n-row selections of the matrix with the given
    columns.  Raises RankDeficient when the columns do not have rank n."""
    if len(columns) != n:
        raise ValueError("expected exactly n columns")
    m = mat_from_columns(columns)
    if mat_rank(m) != n:
        raise RankDeficient("columns do not have full rank")
    k = len(m)
    total = ZERO
    for rows in combinations(range(k), n):
        total += abs(det(tuple(m[i] for i in rows)))
    return total


# ---------------------------------------------------------------------------
# polynomials

Exponent = tuple[int, ...]
IntTerms = dict[Exponent, int]


def _grlex_key(e: Exponent):
    return (sum(e), e)


def _mul_terms(a: IntTerms, b: IntTerms) -> IntTerms:
    """Product of two int term dicts (cancelled terms stay as zeros)."""
    out: IntTerms = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


def _nonzero(terms: IntTerms) -> IntTerms:
    return {e: c for e, c in terms.items() if c}


class Polynomial:
    """Sparse exact polynomial in k variables over the rationals.

    Immutable by convention.  The value is ``coeffs / den``: ``coeffs``
    maps exponent tuples to nonzero Python ints and ``den`` is a positive
    int with gcd(den, coeffs) = 1 (the zero polynomial has ``den`` 1).  That
    form is unique, so equality compares ints, and every arithmetic method
    works on ints and reduces its result once.  ``terms`` is a read-only
    view of the same coefficients as Fractions, built anew on each read and
    not stored.  The canonical term order is graded lexicographic.
    """

    __slots__ = ("nvars", "coeffs", "den")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            c = frac(c)
            if c != 0:
                clean[tuple(e)] = c
        # reduced Fractions over the lcm of their denominators: the gcd of
        # the lcm and the numerators is already 1
        den = lcm(*(c.denominator for c in clean.values()))
        coeffs = {e: c.numerator * (den // c.denominator)
                  for e, c in clean.items()}
        _init(self, nvars, coeffs, den)

    def __setattr__(self, *_):  # pragma: no cover - defensive
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_ints(cls, nvars: int, coeffs: IntTerms, den: int = 1) -> "Polynomial":
        """The polynomial ``coeffs / den``, reduced to canonical form.

        ``coeffs`` must not hold zeros; ``den`` may be any nonzero int.
        """
        if den != 1:
            g = gcd(den, *coeffs.values())
            if den < 0:
                g = -g
            if g != 1:
                coeffs = {e: c // g for e, c in coeffs.items()}
                den //= g
        p = object.__new__(cls)
        _init(p, nvars, coeffs, den)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls.from_ints(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return cls.zero(nvars)
        return cls.from_ints(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls.from_ints(nvars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, v: Vec, den: int = 1) -> "Polynomial":
        """The linear function eps -> <v, eps> / den as a polynomial."""
        ints, d = _scaled_row(v)
        k = len(v)
        return cls.from_ints(k, {unit_vec(k, i): c
                                 for i, c in enumerate(ints) if c}, d * den)

    # -- structure ---------------------------------------------------------
    @property
    def terms(self) -> MappingProxyType:
        """Read-only map of exponent tuples to nonzero Fraction coefficients."""
        den = self.den
        return MappingProxyType(
            {e: Fraction(c, den) for e, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not any(any(e) for e in self.coeffs)

    def constant_term(self) -> Fraction:
        c = self.coeffs.get((0,) * self.nvars)
        return Fraction(c, self.den) if c else ZERO

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((sum(e) for e in self.coeffs), default=-1)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed/zero."""
        degrees = {sum(e) for e in self.coeffs}
        return degrees.pop() if len(degrees) == 1 else None

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def truncated(self, n: int) -> "Polynomial":
        """The terms of total degree at most ``n``."""
        return Polynomial.from_ints(self.nvars, {
            e: c for e, c in self.coeffs.items() if sum(e) <= n}, self.den)

    # -- arithmetic --------------------------------------------------------
    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        out = dict(self.coeffs) if ma == 1 else {
            e: c * ma for e, c in self.coeffs.items()}
        get = out.get
        for e, c in other.coeffs.items():
            out[e] = get(e, 0) + c * mb
        return Polynomial.from_ints(self.nvars, _nonzero(out), den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if other.nvars != self.nvars:
            raise _mixed_nvars(self, other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return self._combine(other, 1)

    def __neg__(self) -> "Polynomial":
        p = object.__new__(Polynomial)
        _init(p, self.nvars, {e: -c for e, c in self.coeffs.items()}, self.den)
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if other.nvars != self.nvars:
            raise _mixed_nvars(self, other)
        if not other.coeffs:
            return self
        return self._combine(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if other.nvars != self.nvars:
            raise _mixed_nvars(self, other)
        out = _mul_terms(self.coeffs, other.coeffs)
        return Polynomial.from_ints(self.nvars, _nonzero(out),
                                    self.den * other.den)

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return Polynomial.zero(self.nvars)
        n = c.numerator
        coeffs = self.coeffs if n == 1 else {
            e: v * n for e, v in self.coeffs.items()}
        return Polynomial.from_ints(self.nvars, coeffs, self.den * c.denominator)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.den == other.den and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.coeffs.items())))

    # -- evaluation and substitution --------------------------------------
    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at a point with one coordinate per variable."""
        if len(point) != self.nvars:
            raise ValueError(f"expected a point with {self.nvars} "
                             f"coordinates, got {len(point)}")
        # Fraction(), not /: numerator_at of a constant is an int
        return Fraction(self.numerator_at(vec(point)), self.den)

    def numerator_at(self, point: Sequence) -> int | Fraction:
        """The value at a point times ``den``, on ints alone at an int point."""
        total = 0
        for e, c in self.coeffs.items():
            for x, p in zip(point, e):
                if p:
                    c *= x ** p
            total += c
        return total

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: replace variable i by images[i] (exact expansion).

        With images M_i / d_i and t_i the degree of ``self`` in variable i,
        the term c * prod x_i^p_i becomes c * prod d_i^(t_i - p_i) M_i^p_i
        over the shared denominator den * prod d_i^t_i, so the whole sum
        runs on ints.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        nvars_out = images[0].nvars if images else self.nvars
        if not self.coeffs:
            return Polynomial.zero(nvars_out)
        tops = list(map(max, zip(*self.coeffs)))
        dens = [im.den for im in images]
        # powers[i][p] holds the numerators of images[i] ** p, p >= 1
        powers = [[{}, im.coeffs] for im in images]
        out: IntTerms = {}
        get = out.get
        for e, c in self.coeffs.items():
            term = None
            for i, p in enumerate(e):
                if dens[i] != 1 and p != tops[i]:
                    c *= dens[i] ** (tops[i] - p)
                if p:
                    cache = powers[i]
                    while len(cache) <= p:
                        cache.append(_mul_terms(cache[-1], cache[1]))
                    term = cache[p] if term is None else _mul_terms(term, cache[p])
            if term is None:
                e0 = (0,) * nvars_out
                out[e0] = get(e0, 0) + c
                continue
            for e2, c2 in term.items():
                out[e2] = get(e2, 0) + c * c2
        den = self.den
        for d, t in zip(dens, tops):
            if d != 1:
                den *= d ** t
        return Polynomial.from_ints(nvars_out, _nonzero(out), den)

    def derivative(self, i: int) -> "Polynomial":
        """Partial derivative in variable ``i``."""
        out: IntTerms = {}
        for e, c in self.coeffs.items():
            p = e[i]
            if p:
                out[e[:i] + (p - 1,) + e[i + 1:]] = c * p
        return Polynomial.from_ints(self.nvars, out, self.den)

    def directional_derivative(self, w: Vec) -> "Polynomial":
        """Derivative along the coordinate vector ``w``."""
        out = Polynomial.zero(self.nvars)
        for i, c in enumerate(w):
            if c != 0:
                out = out + self.derivative(i).scale(c)
        return out

    # -- division by a linear form ----------------------------------------
    def divmod_linear(self, form: Vec) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder dividing by <form, eps>; the remainder has
        no occurrence of the form's leading (highest-index) variable.

        Pseudo-division by the primitive integer form a*x_j + m, layer by
        layer in x_j: with N_k the numerators of the x_j^k layer and t the
        top degree, T_t = N_t and T_k = a^(t-k) N_k - m T_(k+1); the
        quotient's x_j^(k-1) layer is T_k / (den a^(t-k+1)) and the
        remainder is T_0 / (den a^t).
        """
        if vec_is_zero(form):
            raise ZeroDivisionError("division by the zero form")
        ell = primitive_vector(form)
        j = max(i for i, c in enumerate(ell) if c)
        a = ell[j]
        fj = frac(form[j])
        low = [(i, c) for i, c in enumerate(ell) if c and i != j]
        layers: dict[int, IntTerms] = {}
        for e, c in self.coeffs.items():
            layers.setdefault(e[j], {})[e[:j] + (0,) + e[j + 1:]] = c
        top = max(layers, default=0)
        if top == 0:
            return Polynomial.zero(self.nvars), self
        quotient: IntTerms = {}
        t: IntTerms = {}
        apow = 1
        for k in range(top, -1, -1):
            nxt = {e: apow * c for e, c in layers.get(k, {}).items()}
            get = nxt.get
            for e, c in t.items():
                for i, li in low:
                    e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
                    nxt[e2] = get(e2, 0) - li * c
            t = _nonzero(nxt)
            if k == 0:
                break
            # layer k-1 of the quotient by ell over den * a^top; the form is
            # (form_j / a) * ell, so its quotient is a / form_j times that
            lift = a ** (k - 1) * fj.denominator
            for e, c in t.items():
                quotient[e[:j] + (k - 1,) + e[j + 1:]] = c * lift
            apow *= a
        q = Polynomial.from_ints(self.nvars, quotient,
                                 self.den * a ** (top - 1) * fj.numerator)
        return q, Polynomial.from_ints(self.nvars, t, self.den * apow)

    def strip_form(self, form: Vec, limit: int | None = None
                   ) -> tuple["Polynomial", int]:
        """``(self / <form, eps>^m, m)`` for the greatest m, at most
        ``limit``, whose quotient is exact; the zero polynomial gives m = 0.

        A coordinate form c*x_i is one exponent shift by the least power of
        x_i in any term.  Any other form is divided out one power at a time
        with ``divmod_linear``, each division preceded by the value at one
        integer point of the hyperplane <form, eps> = 0: a nonzero value
        proves that the form does not divide.  With a = ell_j the leading
        entry of the primitive form ell, that point has x_i = a (i + 2) for
        i != j and x_j = -sum_(i != j) ell_i (i + 2).
        """
        if vec_is_zero(form):
            raise ZeroDivisionError("division by the zero form")
        if not self.coeffs:
            return self, 0
        support = [i for i, c in enumerate(form) if c]
        j = support[-1]
        cap = float("inf") if limit is None else limit
        if len(support) == 1:
            m = min(min(e[j] for e in self.coeffs), cap)
            if m <= 0:
                return self, 0
            q = Polynomial.from_ints(self.nvars, {
                e[:j] + (e[j] - m,) + e[j + 1:]: c
                for e, c in self.coeffs.items()}, self.den)
            return (q if form[j] == 1 else q.scale(ONE / frac(form[j]) ** m)), m
        ell = primitive_vector(form)
        point = [ell[j] * (i + 2) for i in range(len(ell))]
        point[j] = -sum(c * (i + 2) for i, c in enumerate(ell) if i != j)
        p, m = self, 0
        while m < cap and not p.numerator_at(point):
            q, r = p.divmod_linear(form)
            if not r.is_zero():
                break
            p, m = q, m + 1
        return p, m

    # -- printing ----------------------------------------------------------
    def to_string(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"eps{i + 1}^{p}" if p > 1 else f"eps{i + 1}"
                       for i, p in enumerate(e) if p > 0]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


def _mixed_nvars(a: Polynomial, b: Polynomial) -> ValueError:
    return ValueError(f"polynomials in {a.nvars} and {b.nvars} variables")


def _init(p: Polynomial, nvars: int, coeffs: IntTerms, den: int) -> None:
    setattr_ = object.__setattr__
    setattr_(p, "nvars", nvars)
    setattr_(p, "coeffs", coeffs)
    setattr_(p, "den", den)


# ---------------------------------------------------------------------------
# factoring a polynomial into linear forms (for denominators)
#
# Pole forms are read off one line through the moment curve, by the
# evaluation approach of von zur Gathen & Gerhard, Modern Computer Algebra,
# ch. 16 (see ``linear_factorization``).  The rational roots on the line come
# from p-adic (Hensel) lifting of the roots modulo a small prime (ibid.,
# ch. 15), in time polynomial in the number of digits of the coefficients.

def _poly_divmod(a: list[Fraction], b: list[Fraction]
                 ) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of univariate polynomials, coefficient lists
    from the constant term up; ``b`` has a nonzero leading coefficient."""
    rem = list(a)
    quo = [ZERO] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] / lead
        quo[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    rem = rem[:len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _squarefree_part(f: list[Fraction]) -> list[int]:
    """``f / gcd(f, f')`` (Euclid over the rationals) as primitive ints."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    s = _poly_divmod(f, a)[0]
    return list(primitive_vector(s))


def _horner(s: Sequence[int], x: int, mod: int) -> int:
    v = 0
    for c in reversed(s):
        v = (v * x + c) % mod
    return v


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of sum(coeffs[i] x^i), sorted, each once.

    The root 0 is split off; the others are the roots of the squarefree part
    s with primitive integer coefficients.  A root a/b in lowest terms has b
    dividing lc = lc(s) and a dividing s(0), so lc*a/b is an integer of
    absolute value at most |lc*s(0)|.  The prime p is the first odd prime
    not dividing lc modulo which every root of s is simple; every prime
    that divides neither lc nor the discriminant of s qualifies, so the
    search ends.  Newton lifting takes each root mod p to a modulus
    M = p^(2^j) > 2|lc*s(0)|, where the symmetric residue of lc*r is that
    integer (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).
    Each candidate is kept only if s vanishes there exactly.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    zeros = 0
    while zeros < len(coeffs) and coeffs[zeros] == 0:
        zeros += 1
    roots = [ZERO] if zeros else []
    f = coeffs[zeros:]
    if len(f) <= 1:
        return roots
    s = _squarefree_part(f)
    if len(s) == 2:
        return sorted(roots + [Fraction(-s[0], s[1])])
    ds = [i * c for i, c in enumerate(s)][1:]
    lc = s[-1]
    for p in _odd_primes():
        if lc % p == 0:
            continue
        modp = [r for r in range(p) if _horner(s, r, p) == 0]
        if all(_horner(ds, r, p) for r in modp):
            break
    d = len(s) - 1
    bound = 2 * abs(lc * s[0])
    for r in modp:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(s, r, m) * pow(_horner(ds, r, m), -1, m)) % m
        y = lc * r % m
        if 2 * y > m:
            y -= m
        if not sum(c * y ** i * lc ** (d - i) for i, c in enumerate(s)):
            roots.append(Fraction(y, lc))
    return sorted(roots)


def linear_factorization(
        p: Polynomial) -> tuple[Fraction, list[tuple[Vec, int]]] | None:
    """Write ``p = const * prod <form_i, eps>^{m_i}`` with primitive
    pseudo-positive forms, or return None when no such factorization over the
    rationals exists.

    Only products of *homogeneous* linear forms qualify (poles at zero), so a
    non-homogeneous or irreducible-over-Q input yields None.

    After the factors x_i^m, the rest, ``work`` of degree d, is cut by lines
    w + t*u through points (1, j, ..., j^(k-1)) of the moment curve: u is
    the first point with work(u) != 0 (a product of d forms vanishes at no
    more than d(k-1) of them) and w runs over the later ones.  Each form L
    dividing work e times gives f(t) = work(w + t*u) e roots at
    rho = -L(w)/L(u), so f must split over Q.  If no other form has that
    root, then with work = L^e * R the (e-1)-th derivative of work along u
    has at q = w + rho*u the gradient e! L(u)^(e-1) R(q) grad L: the form L
    itself.  So a simple root whose gradient divides nothing proves work is
    no product.  Forms L1, L2 share a root only when
    L1(w) L2(u) = L2(w) L1(u), a hyperplane meeting the curve at u and at
    most k - 2 other points, so one of the first C(d, 2)(k - 2) + 1 choices
    of w splits a product completely.
    """
    if p.is_zero():
        return None
    if p.is_constant():
        return p.constant_term(), []
    if p.homogeneous_degree() is None:
        return None
    k = p.nvars
    factors: dict[Vec, int] = {}
    work = p

    def extract(form: Vec) -> int:
        # divide by the primitive pseudo-positive representative so the
        # recorded factor is exactly what was divided out
        nonlocal work
        key = primitive_pseudo_positive(form)[1]
        work, m = work.strip_form(key)
        if m:
            factors[key] = factors.get(key, 0) + m
        return m

    # single-variable (monomial) factors first, each power in one step
    for i in range(k):
        extract(unit_vec(k, i))

    d = work.total_degree()
    curve = (tuple(j ** i for i in range(k)) for j in count(1))
    u = next((pt for pt in islice(curve, d * (k - 1) + 1)
              if work.numerator_at(pt)), None)
    if u is None:
        return None
    # ``curve`` is consumed up to u, so w runs over the points after it
    for w in islice(curve, comb(d, 2) * (k - 2) + 1):
        line = work.substitute(
            [Polynomial(1, {(0,): a, (1,): b}) for a, b in zip(w, u)])
        f = [Fraction(line.coeffs.get((i,), 0))
             for i in range(work.total_degree() + 1)]
        for rho in _rational_roots(f):
            e = 0
            while not (qr := _poly_divmod(f, [-rho, ONE]))[1]:
                f, e = qr[0], e + 1
            # rho.denominator * q and the numerator of work are integral,
            # and scaling either scales the gradient by a positive int
            q = tuple(rho.denominator * a + rho.numerator * b
                      for a, b in zip(w, u))
            g = Polynomial.from_ints(k, work.coeffs)
            for _ in range(e - 1):
                g = g.directional_derivative(u)
            grad = tuple(g.derivative(i).numerator_at(q) for i in range(k))
            m = extract(grad) if any(grad) else 0
            if not m and e == 1:
                return None
        if len(f) > 1:
            return None  # f does not split over Q
        if work.is_constant():
            return work.constant_term(), sorted(factors.items())
    return None
