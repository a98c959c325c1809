"""Shared random generators for the property tests.

Everything is driven by explicitly seeded random.Random instances so
failures reproduce bit-for-bit.
"""

import functools
import random
from fractions import Fraction

from laurentgerms import (
    AmbientSpace,
    MeromorphicGerm,
    Polynomial,
    make_mero,
    make_simplicial_cone,
    mero_mul,
)
from laurentgerms.errors import NotSimplicial
from laurentgerms.exact import (
    int_inverse,
    mat,
    mat_transpose,
    primitive_pseudo_positive,
    vec_dot,
)


def random_fraction(rng: random.Random, lo: int = -3, hi: int = 3,
                    den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_vector(rng: random.Random, k: int, lo: int = -3, hi: int = 3):
    """A nonzero integer vector."""
    while True:
        v = tuple(Fraction(rng.randint(lo, hi)) for _ in range(k))
        if any(c != 0 for c in v):
            return v


def random_polynomial(rng: random.Random, k: int, degree: int = 3,
                      terms: int = 4) -> Polynomial:
    out = Polynomial.zero(k)
    for _ in range(rng.randint(1, terms)):
        e = [0] * k
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(k)] += 1
        mono = Polynomial(k, {tuple(e): random_fraction(rng)})
        out = out + mono
    return out


def random_pseudo_positive_cone(rng: random.Random, k: int, n: int):
    """A simplicial cone on n sign-normalized generators, as ``decompose``
    stores pole forms (entries in [-3, 3] before normalizing)."""
    while True:
        gens = [primitive_pseudo_positive(random_vector(rng, k))[1]
                for _ in range(n)]
        try:
            return make_simplicial_cone(gens)
        except NotSimplicial:
            pass


def random_germ(rng: random.Random, k: int, max_forms: int = 4,
                degree: int = 3) -> MeromorphicGerm:
    """A random germ with at most max_forms linear pole factors.

    The numerator is a random polynomial of total degree <= degree; both
    repeated and dependent pole forms are allowed so reduction paths get
    exercised.
    """
    num = random_polynomial(rng, k, degree=degree)
    g = make_mero(num)
    for _ in range(rng.randint(0, max_forms)):
        form = random_vector(rng, k, -2, 2)
        g = mero_mul(g, make_mero(Polynomial.constant(k, 1),
                                  ((form, 1),)))
    return g


@functools.lru_cache(maxsize=1)
def round_trip_corpus():
    """The acceptance-04 corpus: 200 random germs in 1 to 3 variables."""
    rng = random.Random(4)
    out = []
    for _ in range(200):
        k = rng.randint(1, 3)
        out.append((k, random_germ(rng, k, max_forms=4, degree=3)))
    return out


def random_space(rng: random.Random, k: int) -> AmbientSpace:
    """A random symmetric positive-definite pairing (diagonally dominant)."""
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-1, 1))
    for i in range(k):
        rows[i][i] = Fraction(k + rng.randint(1, 3))
    return AmbientSpace(k, tuple(tuple(r) for r in rows))


def skew_space(k: int) -> AmbientSpace:
    """The skew pairing of acceptance 9: [[2, 1], [1, 1]] padded by the
    identity ([[2]] when k = 1)."""
    rows = [[2, 1], [1, 1]]
    padded = [[rows[i][j] if i < 2 and j < 2 else (1 if i == j else 0)
               for j in range(k)] for i in range(k)]
    if k == 1:
        padded = [[2]]
    return AmbientSpace(k, mat(padded))


def mat_mul(a, b):
    bt = mat_transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_inverse(m):
    """The inverse of a nonsingular square matrix, as Fractions."""
    return tuple(tuple(Fraction(a, d) for a in row) for row, d in int_inverse(m))


def q_dual_family(space: AmbientSpace, forms):
    """Vectors L*_j in span(forms) with Q(L_i, L*_j) = delta_ij, for
    independent forms: the reference the subdivision coefficients are
    checked against."""
    # G = F Q F^T holds Q(L_i, L_j), and L*_j = sum_l (G^-1)_lj L_l is row
    # j of (G^-1)^T F, for F the forms as rows
    g = mat_mul(mat_mul(forms, space.gram), mat_transpose(forms))
    return list(mat_mul(mat_transpose(mat_inverse(g)), forms))
