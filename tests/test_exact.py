"""Exact linear algebra and polynomial arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    _rational_roots,
    det,
    frac,
    int_inverse,
    linear_factorization,
    mat,
    mat_from_columns,
    mat_rank,
    max_minor_abs_sum,
    nullspace,
    primitive_pseudo_positive,
    primitive_vector,
    q_orthogonal_complement,
    rref,
    solve,
    span_key,
    unit_vec,
    vec,
    vec_dot,
    vec_is_zero,
)
from laurentgerms.errors import DependentInput, RankDeficient

from conftest import (
    mat_mul,
    q_dual_family,
    random_fraction,
    random_polynomial,
    random_space,
    random_vector,
)

F = Fraction


def random_matrix(rng, n, m, lo=-4, hi=4):
    return tuple(tuple(F(rng.randint(lo, hi)) for _ in range(m))
                 for _ in range(n))


# ---------------------------------------------------------------------------
# vectors and matrices

def test_frac_accepts_strings_ints_fractions():
    assert frac("3/4") == F(3, 4)
    assert frac(2) == F(2)
    assert frac(F(-1, 3)) == F(-1, 3)


def test_primitive_vector_clears_denominators_and_content():
    cases = [(vec(["1/2", "3/2"]), (1, 3)), (vec([4, -6]), (2, -3)),
             ((4, -6), (2, -3)), (vec([0, 0]), (0, 0))]
    for v, expected in cases:
        w = primitive_vector(v)
        assert w == expected
        assert all(type(c) is int for c in w)
    # the zero vector has a primitive vector but no pseudo-positive one
    with pytest.raises(ValueError, match="zero vector"):
        primitive_pseudo_positive(vec([0, 0]))


def test_vec_dot_matches_sum():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 4)
        u = random_vector(rng, k)
        v = random_vector(rng, k)
        assert vec_dot(u, v) == sum(a * b for a, b in zip(u, v))


def test_rank_of_random_products_is_bounded():
    rng = random.Random(2)
    for _ in range(40):
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, n, m)
        b = random_matrix(rng, m, p)
        r = mat_rank(mat_mul(a, b))
        assert r <= min(mat_rank(a), mat_rank(b))


def test_rref_is_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        red, pivots = rref(a)
        again, pivots2 = rref(red)
        assert again == red and pivots2 == pivots


def test_solve_recovers_solutions_of_consistent_systems():
    rng = random.Random(4)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, n, m)
        x = tuple(random_fraction(rng) for _ in range(m))
        b = tuple(vec_dot(row, x) for row in a)
        got = solve(a, b)
        assert got is not None
        assert tuple(vec_dot(row, got) for row in a) == b


def test_solve_detects_inconsistency():
    a = mat([[1, 0], [1, 0]])
    assert solve(a, vec([1, 2])) is None
    # None exactly when b is outside the column span, and any other answer
    # solves the system exactly
    rng = random.Random(41)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        a = random_matrix(rng, n, m)
        b = tuple(random_fraction(rng) for _ in range(n))
        got = solve(a, b)
        on_span = (mat_rank(tuple(r + (c,) for r, c in zip(a, b)))
                   == mat_rank(a))
        assert (got is not None) == on_span
        if got is not None:
            assert tuple(vec_dot(row, got) for row in a) == b


def test_solve_handles_empty_system():
    assert solve((), ()) == ()
    # no columns: only the zero vector is in the span
    assert solve((), (0, 0)) == ()
    assert solve((), (1, 0)) is None


def test_nullspace_vectors_are_annihilated():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        a = random_matrix(rng, n, m)
        basis = nullspace(a)
        assert len(basis) == m - mat_rank(a)
        for v in basis:
            assert all(vec_dot(row, v) == 0 for row in a)


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_of_triangular_is_diagonal_product():
    a = mat([[2, 5, -1], [0, "1/2", 7], [0, 0, -3]])
    assert det(a) == F(-3)


def test_det_is_an_int_on_int_rows():
    assert det(()) == 1 and type(det(())) is int
    for rows, value in ((((2, 1), (1, 1)), 1), (((1, 2), (2, 4)), 0),
                        (((0, 3, 1), (1, 0, 0), (0, 0, 2)), -6)):
        assert det(rows) == value and type(det(rows)) is int
        fractions = tuple(tuple(F(a) for a in row) for row in rows)
        assert det(fractions) == value and type(det(fractions)) is F
    assert det(((F(1, 2), 1), (0, 3))) == F(3, 2)


def test_det_rejects_a_matrix_that_is_not_square():
    for m in (((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 1)), ((1,), ())):
        with pytest.raises(ValueError):
            det(m)


def test_inverse_of_random_invertible_matrices():
    rng = random.Random(7)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if det(a) == 0:
            continue
        inv = tuple(tuple(F(x, d) for x in r) for r, d in int_inverse(a))
        identity = tuple(tuple(F(1) if i == j else F(0) for j in range(n))
                         for i in range(n))
        assert mat_mul(a, inv) == identity
        assert mat_mul(inv, a) == identity
        done += 1


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(DependentInput):
        int_inverse(mat([[1, 2], [2, 4]]))


def _gauss_jordan_inverse(m):
    """Reference: the rows of the Fraction RREF of [m | I] at the columns of
    m, right half; None when m has dependent columns."""
    n = len(m[0])
    aug = tuple(tuple(F(a) for a in row) + tuple(F(int(i == j)) for j in range(len(m)))
                for i, row in enumerate(m))
    red, pivots = _fraction_rref(aug)
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red[:n])


def test_int_inverse_matches_fraction_gauss_jordan():
    rng = random.Random(15)
    singular = 0
    for trial in range(800):
        n = rng.randint(1, 5)
        rows = n if trial % 4 else n + rng.randint(1, 2)  # every 4th is tall
        if rng.random() < 0.5:
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rows)]
        else:
            m = [[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(rows)]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            for row in m:
                row[i] = 2 * row[j]
        m = tuple(tuple(row) for row in m)
        expected = _gauss_jordan_inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(DependentInput):
                int_inverse(m)
            continue
        inverse = int_inverse(m)
        for r, d in inverse:
            assert all(type(a) is int for a in r) and type(d) is int
            assert d > 0 and math.gcd(d, *r) == 1
        assert tuple(tuple(F(a, d) for a in r) for r, d in inverse) == expected
    assert singular > 50


def test_linear_form_of_ints_and_fractions_is_the_fraction_built_form():
    rng = random.Random(16)
    for _ in range(300):
        k = rng.randint(1, 5)
        ints = tuple(rng.randint(-9, 9) for _ in range(k))
        fracs = tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k))
        for v in (ints, fracs, vec(ints)):
            den = rng.randint(1, 5)
            old = Polynomial(k, {unit_vec(k, i): F(c) / den
                                 for i, c in enumerate(v) if c})
            assert Polynomial.linear_form(v, den) == old
            assert Polynomial.linear_form(v) == old.scale(den)


def test_max_minor_abs_sum_known_values():
    assert max_minor_abs_sum([vec([1, 0])], 1) == 1
    assert max_minor_abs_sum([vec([1, 1])], 1) == 2
    assert max_minor_abs_sum([vec([1, 0]), vec([1, 1])], 2) == 1
    assert max_minor_abs_sum([vec([1, 0, 1]), vec([0, 1, 1])], 2) == 3
    with pytest.raises(ValueError, match="exactly n columns"):
        max_minor_abs_sum([vec([1, 0])], 2)
    with pytest.raises(RankDeficient):
        max_minor_abs_sum([vec([1, 2]), vec([2, 4])], 2)


# ---------------------------------------------------------------------------
# the integer kernel against Fraction elimination and an independent oracle

def _fraction_rref(m):
    """Reference: Gauss-Jordan elimination over Fractions."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _fraction_det(m):
    """Reference: Gaussian elimination over Fractions."""
    n = len(m)
    rows = [list(r) for r in m]
    result = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def _reference_nullspace(m):
    ncols = len(m[0])
    red, pivots = _fraction_rref(m)
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        x = [F(0)] * ncols
        x[free] = F(1)
        for r, p in enumerate(pivots):
            x[p] = -red[r][free]
        basis.append(primitive_vector(tuple(x)))
    return basis


def _reference_solve(m, b):
    ncols = len(m[0])
    red, pivots = _fraction_rref(tuple(row + (bi,) for row, bi in zip(m, b)))
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def _kernel_matrix(rng, n, m):
    """Integral or rational, entries up to 10^12, often rank-deficient and
    with zero rows."""
    big = rng.random() < 0.3
    top = 10 ** 12 if big else 4
    den = (10 ** 6 if big else 6) if rng.random() < 0.4 else 1
    rows = [[F(rng.randint(-top, top), rng.randint(1, den))
             if rng.random() < 0.75 else F(0) for _ in range(m)]
            for _ in range(n)]
    if n > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(n), 2)
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        rows[i] = [c * a + b for a, b in zip(rows[j], rows[i])]
        if n > 2 and rng.random() < 0.5:
            rows[rng.randrange(n)] = [3 * a for a in rows[j]]
    if rng.random() < 0.15:
        rows[rng.randrange(n)] = [F(0)] * m
    return tuple(tuple(r) for r in rows)


def test_integer_kernel_matches_fraction_elimination():
    rng = random.Random(41)
    for _ in range(3000):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        a = _kernel_matrix(rng, n, m)
        red, pivots = _fraction_rref(a)
        assert rref(a) == (red, pivots)
        assert mat_rank(a) == len(pivots)
        assert nullspace(a) == _reference_nullspace(a)
        b = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        assert solve(a, b) == _reference_solve(a, b)
        square = tuple(row[:n] for row in a) if m >= n else None
        if square:
            d = _fraction_det(square)
            assert det(square) == d
            if d == 0:
                with pytest.raises(DependentInput):
                    int_inverse(square)
            else:
                aug = tuple(row + tuple(F(int(i == j)) for j in range(n))
                            for i, row in enumerate(square))
                assert tuple(tuple(F(a, e) for a in r)
                             for r, e in int_inverse(square)) == tuple(
                    row[n:] for row in _fraction_rref(aug)[0])


def test_integer_kernel_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)

    def to_fraction(x):
        return F(int(x.p), int(x.q))

    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = _kernel_matrix(rng, n, m)
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                            for x in row] for row in a])
        sred, spivots = sm.rref()
        red, pivots = rref(a)
        assert pivots == tuple(spivots)
        assert red == tuple(tuple(to_fraction(sred[i, j]) for j in range(m))
                            for i in range(n))
        assert mat_rank(a) == sm.rank()
        if m >= n:
            square = tuple(row[:n] for row in a)
            assert det(square) == to_fraction(sm[:, :n].det())


# ---------------------------------------------------------------------------
# the inner product

def test_standard_space_pairing_is_dot_product():
    sp = AmbientSpace.standard(3)
    rng = random.Random(8)
    for _ in range(20):
        u, v = random_vector(rng, 3), random_vector(rng, 3)
        assert sp.pairing(u, v) == vec_dot(u, v)


def test_space_rejects_bad_gram_matrices():
    with pytest.raises(ValueError):
        AmbientSpace(2, mat([[1, 2], [3, 1]]))  # not symmetric
    with pytest.raises(ValueError):
        AmbientSpace(2, mat([[1, 2], [2, 1]]))  # not positive definite
    with pytest.raises(ValueError):
        AmbientSpace(2, mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # wrong size


def test_pairing_is_bilinear_and_symmetric():
    rng = random.Random(9)
    for _ in range(20):
        k = rng.randint(1, 3)
        sp = random_space(rng, k)
        u, v, w = (random_vector(rng, k) for _ in range(3))
        c = random_fraction(rng)
        add = tuple(a + c * b for a, b in zip(v, w))
        assert sp.pairing(u, add) == sp.pairing(u, v) + c * sp.pairing(u, w)
        assert sp.pairing(u, v) == sp.pairing(v, u)


def test_orthogonal_complement_dimensions_and_pairings():
    rng = random.Random(10)
    for _ in range(30):
        k = rng.randint(1, 4)
        sp = random_space(rng, k)
        n = rng.randint(1, k)
        fam = []
        while len(fam) < n:
            v = random_vector(rng, k)
            if mat_rank(mat(fam + [v])) == len(fam) + 1:
                fam.append(v)
        comp = q_orthogonal_complement(sp, fam)
        assert len(comp) == k - n
        for c in comp:
            assert all(sp.pairing(c, v) == 0 for v in fam)
        assert mat_rank(mat(list(fam) + list(comp))) == k
    # no vectors to be orthogonal to: the whole space
    assert q_orthogonal_complement(AmbientSpace.standard(3), []) == [
        unit_vec(3, i) for i in range(3)]


def test_span_key_refuses_a_shorter_row():
    with pytest.raises(ValueError, match="lengths 3 and 2"):
        span_key([vec([1, 0, 0]), vec([0, 1])])


def test_span_key_refuses_a_longer_row():
    with pytest.raises(ValueError, match="lengths 2 and 3"):
        span_key([vec([1, 0]), vec([0, 1, 5])])


# a ragged row or column, truncated, gives a wrong answer rather than an
# error; every elimination refuses one where it starts (``_echelon``)
RAGGED = ((1, 0), (0, 1, 5))


def test_solve_refuses_ragged_rows():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        solve(RAGGED, (1, 2))


def test_int_inverse_refuses_ragged_rows():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        int_inverse(RAGGED)


def test_nullspace_refuses_a_longer_row():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        nullspace(RAGGED)


def test_nullspace_refuses_a_shorter_row():
    with pytest.raises(ValueError, match="lengths 3 and 2$"):
        nullspace(((1, 0, 0), (0, 1)))


def test_mat_rank_refuses_ragged_rows():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        mat_rank(RAGGED)


def test_rref_refuses_ragged_rows():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        rref(RAGGED)


def test_mat_from_columns_refuses_ragged_columns():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        mat_from_columns([(1, 0), (0, 1, 5)])


def test_pairing_refuses_vectors_off_the_dimension():
    with pytest.raises(ValueError, match="dimensions 2 and 3$"):
        AmbientSpace.standard(2).pairing((1, 0, 7), (1, 0, 9))


def test_orthogonal_complement_refuses_a_shorter_vector():
    with pytest.raises(ValueError, match="dimensions 2 and 1"):
        q_orthogonal_complement(AmbientSpace.standard(2), [vec([1])])


def test_orthogonal_complement_refuses_a_longer_vector():
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        q_orthogonal_complement(AmbientSpace.standard(2), [vec([1, 0, 5])])


def test_dual_family_pairs_like_kronecker_delta():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(1, 4)
        sp = random_space(rng, k)
        n = rng.randint(1, k)
        fam = []
        while len(fam) < n:
            v = random_vector(rng, k)
            if mat_rank(mat(fam + [v])) == len(fam) + 1:
                fam.append(v)
        duals = q_dual_family(sp, fam)
        for i, d in enumerate(duals):
            for j, v in enumerate(fam):
                assert sp.pairing(d, v) == (1 if i == j else 0)


# ---------------------------------------------------------------------------
# polynomials

def test_polynomial_ring_laws():
    rng = random.Random(12)
    for _ in range(40):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k)
        q = random_polynomial(rng, k)
        r = random_polynomial(rng, k)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero(k) == p
        assert p * Polynomial.constant(k, 1) == p
    with pytest.raises(ValueError, match="negative power"):
        Polynomial.variable(2, 0) ** -1


def test_polynomial_evaluation_is_a_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k)
        q = random_polynomial(rng, k)
        pt = [random_fraction(rng) for _ in range(k)]
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_polynomial_evaluation_needs_one_coordinate_per_variable():
    # x2^2 + 3 in two variables
    p = Polynomial(2, {(0, 2): 1, (0, 0): 3})
    assert p.evaluate((5, 2)) == 7
    for point in ((5,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="2 coordinates"):
            p.evaluate(point)


def test_polynomial_evaluation_is_a_fraction_for_constants_too():
    for p in (Polynomial.zero(2), Polynomial.constant(2, 3),
              Polynomial.constant(2, F(-1, 3))):
        for point in ((0, 0), (F(1, 2), 5)):
            value = p.evaluate(point)
            assert type(value) is Fraction and value == p.constant_term()
    # x1/2 + x2 at a rational point: numerator_at runs on Fractions
    p = Polynomial(2, {(1, 0): F(1, 2), (0, 1): 1})
    assert p.numerator_at((F(1, 3), 1)) == F(7, 3)
    assert p.evaluate((F(1, 3), 1)) == F(7, 6)


def test_substitute_agrees_with_evaluation():
    rng = random.Random(14)
    for _ in range(30):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k, degree=2)
        images = [random_polynomial(rng, k, degree=1, terms=2)
                  for _ in range(k)]
        pt = [random_fraction(rng) for _ in range(k)]
        direct = p.substitute(images).evaluate(pt)
        via_values = p.evaluate([im.evaluate(pt) for im in images])
        assert direct == via_values
    with pytest.raises(ValueError, match="one image per variable"):
        Polynomial.variable(2, 0).substitute([Polynomial.variable(2, 0)])


def test_derivative_satisfies_leibniz():
    rng = random.Random(15)
    for _ in range(30):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k)
        q = random_polynomial(rng, k)
        i = rng.randrange(k)
        lhs = (p * q).derivative(i)
        rhs = p.derivative(i) * q + p * q.derivative(i)
        assert lhs == rhs


def test_directional_derivative_is_linear_in_direction():
    rng = random.Random(16)
    for _ in range(20):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k)
        u = random_vector(rng, k)
        v = random_vector(rng, k)
        s = tuple(a + b for a, b in zip(u, v))
        assert (p.directional_derivative(s)
                == p.directional_derivative(u) + p.directional_derivative(v))


def test_divmod_linear_reconstructs():
    rng = random.Random(17)
    for _ in range(30):
        k = rng.randint(2, 3)
        p = random_polynomial(rng, k)
        form = random_vector(rng, k)
        ell = Polynomial.linear_form(form)
        q, r = p.divmod_linear(form)
        assert q * ell + r == p
    with pytest.raises(ZeroDivisionError, match="zero form"):
        Polynomial.variable(2, 0).divmod_linear(vec([0, 0]))


# ---------------------------------------------------------------------------
# the int polynomial kernel against Fraction-dict arithmetic

def _ref_add(p, q):
    terms = dict(p)
    for e, c in q.items():
        terms[e] = terms.get(e, F(0)) + c
    return {e: c for e, c in terms.items() if c}


def _ref_mul(p, q):
    terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, F(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def _ref_substitute(p, images, nvars_out):
    """Reference: Fraction-dict composition, one term at a time."""
    result = {}
    for e, c in p.items():
        term = {(0,) * nvars_out: c}
        for i, power in enumerate(e):
            for _ in range(power):
                term = _ref_mul(term, images[i])
        result = _ref_add(result, term)
    return result


def _ref_divmod_linear(p, form):
    """Reference: Fraction-dict division, one leading layer at a time."""
    k = len(form)
    j = max(i for i, c in enumerate(form) if c != 0)
    divisor = {tuple(int(i == m) for m in range(k)): c
               for i, c in enumerate(form) if c != 0}
    quotient, r = {}, dict(p)
    while True:
        d = max((e[j] for e in r), default=0)
        if d == 0:
            return quotient, r
        t = {e[:j] + (d - 1,) + e[j + 1:]: c / form[j]
             for e, c in r.items() if e[j] == d}
        quotient = _ref_add(quotient, t)
        r = _ref_add(r, {e: -c for e, c in _ref_mul(t, divisor).items()})


def _random_form(rng, k):
    """A nonzero form, often with rational entries and a negative leading
    (highest-index) coefficient."""
    while True:
        v = tuple(F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
                  for _ in range(k))
        if any(v):
            return v


def _same(p, ref):
    expected = Polynomial(p.nvars, ref)
    assert p == expected
    assert p.sorted_terms() == expected.sorted_terms()
    assert dict(p.terms) == ref


def test_int_kernel_matches_fraction_arithmetic():
    rng = random.Random(51)
    for _ in range(300):
        k = rng.randint(1, 4)
        p = random_polynomial(rng, k, degree=4, terms=6)
        q = random_polynomial(rng, k, degree=3, terms=5)
        pt, qt = dict(p.terms), dict(q.terms)
        _same(p + q, _ref_add(pt, qt))
        _same(p - q, _ref_add(pt, {e: -c for e, c in qt.items()}))
        _same(p * q, _ref_mul(pt, qt))
        c = random_fraction(rng)
        _same(p.scale(c), {e: c * v for e, v in pt.items() if c})
        k_out = rng.randint(1, 4)
        images = [Polynomial.linear_form(_random_form(rng, k_out))
                  if rng.random() < 0.8
                  else random_polynomial(rng, k_out, degree=2, terms=3)
                  for _ in range(k)]
        _same(p.substitute(images),
              _ref_substitute(pt, [dict(im.terms) for im in images], k_out))
        form = _random_form(rng, k)
        quot, rem = p.divmod_linear(form)
        ref_q, ref_r = _ref_divmod_linear(pt, form)
        _same(quot, ref_q)
        _same(rem, ref_r)
        if not (rng.random() < 0.5):
            continue
        # an exact multiple divides back to its cofactor
        multiple = p * Polynomial.linear_form(form)
        assert multiple.strip_form(form, 1) == (p, int(not p.is_zero()))
        assert multiple.divmod_linear(form)[1].is_zero()


def test_division_by_a_variable_power_is_the_cofactor():
    rng = random.Random(53)
    for _ in range(40):
        k = rng.randint(1, 3)
        p = random_polynomial(rng, k)
        i = rng.randrange(k)
        m = rng.randint(0, 4)
        x_i = unit_vec(k, i)
        multiple = p * Polynomial.variable(k, i) ** m
        assert multiple.strip_form(x_i, m) == (p, 0 if p.is_zero() else m)
        assert multiple.strip_form(x_i, 0) == (multiple, 0)
        # the same quotient as m divisions by the form x_i
        terms = dict(multiple.terms)
        for _ in range(m):
            terms, rem = _ref_divmod_linear(terms, x_i)
            assert not rem
        assert Polynomial(k, terms) == p


def _ref_strip_form(p, form, limit=None):
    """Reference: the Fraction-dict division repeated while it is exact."""
    terms, m = dict(p.terms), 0
    while terms and m != limit:
        quotient, rem = _ref_divmod_linear(terms, form)
        if rem:
            break
        terms, m = quotient, m + 1
    return Polynomial(p.nvars, terms), m


def _strip_form_cases(seed, n):
    """n random (form, nonzero multiple of a power of it, limit): general
    forms with rational or negative leading entries, and scaled coordinate
    forms; the limit is None, the power, or below the power."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        k = rng.randint(1, 4)
        if rng.random() < 0.3:
            form = [F(0)] * k
            form[rng.randrange(k)] = F(rng.choice((-3, -1, 1, 2)),
                                       rng.choice((1, 2)))
            form = tuple(form)
        else:
            form = _random_form(rng, k)
        e = rng.randint(0, 4)
        p = Polynomial.zero(k)
        while p.is_zero():
            p = random_polynomial(rng, k, degree=3, terms=4)
        multiple = p * Polynomial.linear_form(form) ** e
        limit = rng.choice((None, e, rng.randint(0, max(e - 1, 0))))
        cases.append((form, multiple, limit))
    return cases


def test_strip_form_matches_repeated_fraction_division():
    below = 0
    for form, multiple, limit in _strip_form_cases(54, 300):
        got = multiple.strip_form(form, limit)
        assert got == _ref_strip_form(multiple, form, limit)
        quotient, m = got
        assert quotient * Polynomial.linear_form(form) ** m == multiple
        below += limit is not None and m == limit and m > 0
    assert below > 20
    zero = Polynomial.zero(2)
    assert zero.strip_form((1, 1)) == (zero, 0)
    with pytest.raises(ZeroDivisionError):
        Polynomial.constant(2, 1).strip_form((0, 0))


def test_strip_form_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p, xs):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod([x ** a for x, a in zip(xs, e)])
                    for e, c in p.terms.items()), sympy.Integer(0))

    for form, multiple, limit in _strip_form_cases(55, 80):
        xs = sympy.symbols(f"x1:{len(form) + 1}")
        ell = sum(sympy.Rational(c.numerator, c.denominator) * x
                  for c, x in zip(map(F, form), xs))
        quotient, m = multiple.strip_form(form, limit)
        q = to_sympy(quotient, xs)
        assert sympy.expand(q * ell ** m - to_sympy(multiple, xs)) == 0
        if limit is None or m < limit:
            # one polynomial is a Groebner basis of the ideal it spans, so
            # the remainder is zero exactly when the form divides
            assert sympy.div(q, ell, *xs)[1] != 0


def test_int_kernel_products_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(52)

    def to_sympy(p, xs):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.prod([x ** a for x, a in zip(xs, e)])
                    for e, c in p.terms.items()), sympy.Integer(0))

    def from_sympy(expr, xs):
        poly = sympy.Poly(expr, *xs, domain="QQ")
        return Polynomial(len(xs), {
            e: F(int(c.p), int(c.q)) for e, c in zip(poly.monoms(), poly.coeffs())})

    for _ in range(60):
        k = rng.randint(1, 4)
        xs = sympy.symbols(f"x0:{k}")
        p = random_polynomial(rng, k, degree=4, terms=6)
        q = random_polynomial(rng, k, degree=3, terms=5)
        assert p * q == from_sympy(sympy.expand(to_sympy(p, xs) * to_sympy(q, xs)), xs)
        form = _random_form(rng, k)
        j = max(i for i, c in enumerate(form) if c != 0)
        ell = to_sympy(Polynomial.linear_form(form), xs)
        # lex order with x_j first: the remainder is free of x_j
        gens = (xs[j],) + xs[:j] + xs[j + 1:]
        sq, sr = sympy.div(to_sympy(p, xs), ell, *gens, domain="QQ")
        quot, rem = p.divmod_linear(form)
        assert quot == from_sympy(sq.as_expr(), xs)
        assert rem == from_sympy(sr.as_expr(), xs)
        assert all(e[j] == 0 for e in rem.coeffs)


def test_polynomial_form_is_canonical():
    rng = random.Random(53)
    for _ in range(40):
        k = rng.randint(1, 4)
        e = tuple(rng.randint(0, 3) for _ in range(k))
        direct = Polynomial(k, {e: F(2, 4)})
        mono = Polynomial(k, {e: F(3)})
        # the same value reached through arithmetic, via other denominators
        reached = (mono.scale(F(5, 6)) - mono.scale(F(2, 3))
                   + mono.scale(F(1, 9)) * Polynomial.constant(k, F(9, 2))
                   - mono.scale(F(1, 2)))
        assert reached == direct and hash(reached) == hash(direct)
        assert (direct.coeffs, direct.den) == ({e: 1}, 2)
        p = random_polynomial(rng, k)
        zero = p - p
        assert zero == Polynomial.zero(k) and zero.den == 1
        assert hash(zero) == hash(Polynomial.zero(k))
        assert (p * zero).den == 1 and p.scale(0).den == 1
        # numerators and denominator share no factor, denominator positive
        q = p.scale(random_fraction(rng) or 1)
        assert q.den > 0
        assert math.gcd(q.den, *q.coeffs.values()) == 1


def test_linear_factorization_of_form_products():
    rng = random.Random(18)
    for _ in range(30):
        k = rng.randint(1, 3)
        c = random_fraction(rng)
        if c == 0:
            c = F(1)
        p = Polynomial.constant(k, c)
        for _ in range(rng.randint(1, 3)):
            p = p * Polynomial.linear_form(random_vector(rng, k, -2, 2))
        result = linear_factorization(p)
        assert result is not None
        const, factors = result
        rebuilt = Polynomial.constant(k, const)
        for form, e in factors:
            rebuilt = rebuilt * Polynomial.linear_form(form) ** e
        assert rebuilt == p


def test_linear_factorization_of_high_monomial_powers():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x ** 20000 * y ** 3 * (x + y) ** 2).scale(3)
    assert linear_factorization(p) == (
        3, [(vec([0, 1]), 3), (vec([1, 0]), 20000), (vec([1, 1]), 2)])


def test_linear_factorization_rejects_irreducible():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert linear_factorization(x * x + y * y) is None
    assert linear_factorization(x * y + Polynomial.constant(2, 1)) is None
    # x1*x3 - x2^2 vanishes at every point (1, j, j^2) of the moment curve
    x1, x2, x3 = (Polynomial.variable(3, i) for i in range(3))
    assert linear_factorization(x1 * x3 - x2 * x2) is None
    assert linear_factorization(Polynomial.zero(2)) is None


# ---------------------------------------------------------------------------
# rational roots by p-adic lifting, against trial division and sympy

def _trial_division_roots(coeffs):
    """Reference: every p/q with p | a0 and q | an, divisors by trial
    division, on the cleared integer coefficients."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return []
    d = math.lcm(*(F(c).denominator for c in coeffs))
    ints = [int(F(c) * d) for c in coeffs]
    if ints[0] == 0:
        return sorted({F(0)} | set(_trial_division_roots(ints[1:])))

    def divisors(n):
        n = abs(n)
        return {x for q in range(1, math.isqrt(n) + 1) if n % q == 0
                for x in (q, n // q)}

    n = len(ints) - 1
    return sorted({F(a, b) for a0 in divisors(ints[0]) for a in (a0, -a0)
                   for b in divisors(ints[-1])
                   if sum(x * a ** i * b ** (n - i)
                          for i, x in enumerate(ints)) == 0})


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_root_polynomial(rng):
    """Coefficients, constant term first: a rational scale times up to four
    factors, each linear b*x + a (non-unit b, a = 0 included) or an
    irreducible quadratic, some squared, sometimes with a zero leading
    coefficient appended."""
    p = [F(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))]
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.7:
            f = [F(rng.randint(-6, 6)), F(rng.choice([1, 2, 3, -4, 6]))]
        else:
            f = [F(c) for c in rng.choice(
                [(1, 0, 1), (2, 0, -1), (1, 1, 1), (3, 1, 2)])]
        p = _poly_mul(p, f)
        if rng.random() < 0.25:
            p = _poly_mul(p, f)
    if rng.random() < 0.1:
        p = p + [F(0)]
    return p


def test_rational_roots_match_trial_division():
    rng = random.Random(61)
    nonunit = 0
    for _ in range(1200):
        p = _random_root_polynomial(rng)
        roots = _rational_roots(list(p))
        assert roots == _trial_division_roots(p)
        nonunit += any(r.denominator > 1 for r in roots)
    assert nonunit > 100


def test_rational_roots_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(62)
    for _ in range(200):
        p = _random_root_polynomial(rng)
        while p and p[-1] == 0:
            p.pop()
        if len(p) <= 1:
            continue
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(p))
        expected = sorted(F(int(r.p), int(r.q))
                          for r in sympy.Poly(expr, x).ground_roots())
        assert _rational_roots(p) == expected


def test_rational_roots_of_huge_coefficients():
    # (10^40 x + 7)(3x - 10^20)^2 (x^2 + 1): trial division would need
    # about 10^20 steps for the constant term
    p = _poly_mul(_poly_mul([F(7), F(10 ** 40)], [F(-10 ** 20), F(3)]),
                  _poly_mul([F(-10 ** 20), F(3)], [F(1), F(0), F(1)]))
    assert _rational_roots(p) == [F(-7, 10 ** 40), F(10 ** 20, 3)]


def test_linear_factorization_of_forms_with_huge_coefficients():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y.scale(10 ** 40 + 7)) * (x.scale(3) - y.scale(10 ** 20)) * y
    assert linear_factorization(p) == (
        -1, [((-3, 10 ** 20), 1), ((0, 1), 1), ((1, 10 ** 40 + 7), 1)])


# ---------------------------------------------------------------------------
# linear factorization against the slice-root search and sympy

def _support_variables(p):
    return [i for i in range(p.nvars) if any(e[i] for e in p.coeffs)]


def _set_variable_zero(p, m):
    return Polynomial.from_ints(
        p.nvars, {e: c for e, c in p.coeffs.items() if not e[m]}, p.den)


def _reference_linear_factorization(p):
    """The candidate-product search: every combination of the rational roots
    of the two-variable slices (x_i, x_m) is tried as a form, after a
    recursion on the x_m-free layer."""
    if p.is_zero():
        return None
    if p.is_constant():
        return p.constant_term(), []
    if p.homogeneous_degree() is None:
        return None
    k = p.nvars
    factors = {}
    work = p

    def extract(form):
        nonlocal work
        key = primitive_pseudo_positive(form)[1]
        while True:
            q, rem = _ref_divmod_linear(dict(work.terms), key)
            if rem:
                return
            work = Polynomial(k, q)
            factors[key] = factors.get(key, 0) + 1

    for i in range(k):
        m = min(e[i] for e in work.coeffs)
        if m:
            work = Polynomial.from_ints(
                k, {e[:i] + (e[i] - m,) + e[i + 1:]: c
                    for e, c in work.coeffs.items()}, work.den)
            factors[unit_vec(k, i)] = m

    def slice_roots(i, m):
        coeffs = {}
        for e, c in work.coeffs.items():
            if all(p_ == 0 for j, p_ in enumerate(e) if j not in (i, m)):
                coeffs[e[m]] = coeffs.get(e[m], 0) + c
        top = max(coeffs, default=-1)
        return _rational_roots([F(coeffs.get(d, 0)) for d in range(top + 1)])

    while work.total_degree() > 0:
        before = work
        m = max(_support_variables(work))
        layer0 = _set_variable_zero(work, m)
        if not layer0.is_zero() and not layer0.is_constant():
            sub = _reference_linear_factorization(layer0)
            if sub is None:
                return None
            for form, _ in sub[1]:
                extract(form)
        lower = [i for i in _support_variables(work) if i != m]
        candidate_sets = [sorted(set([F(0)] + [-r for r in slice_roots(i, m)]))
                          for i in lower]

        def assemble(idx, coords):
            if idx == len(lower):
                v = [F(0)] * k
                v[m] = F(1)
                for i, a in coords.items():
                    v[i] = a
                extract(tuple(v))
                return
            for a in candidate_sets[idx]:
                coords[lower[idx]] = a
                assemble(idx + 1, coords)
            del coords[lower[idx]]

        assemble(0, {})
        if work == before:
            return None
    return work.constant_term(), sorted(factors.items())


def _irreducible_quadratic(rng, k):
    """a*A^2 + b*A*B + c*B^2 for independent forms A, B and a binary form
    with a non-square discriminant, so irreducible over the rationals."""
    while True:
        a_form = random_vector(rng, k)
        b_form = random_vector(rng, k)
        if mat_rank((a_form, b_form)) < 2:
            continue
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        disc = b * b - 4 * a * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            break
    x, y = Polynomial.linear_form(a_form), Polynomial.linear_form(b_form)
    return (x * x).scale(a) + (x * y).scale(b) + (y * y).scale(c)


def _random_form_products(seed, n):
    """n random (k, p): a rational scale times up to four forms in k <= 4
    variables, entries in [-3, 3], each to a power <= 3, and about one in
    five times an irreducible quadratic."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k = rng.randint(1, 4)
        p = Polynomial.constant(k, random_fraction(rng) or 1)
        for _ in range(rng.randint(0, 4)):
            form = Polynomial.linear_form(random_vector(rng, k))
            p = p * form ** rng.randint(1, 3)
        if k > 1 and rng.random() < 0.2:
            p = p * _irreducible_quadratic(rng, k)
        out.append((k, p))
    return out


def test_linear_factorization_matches_the_slice_root_search():
    cases = _random_form_products(71, 400)
    results = [linear_factorization(p) for _, p in cases]
    assert results == [_reference_linear_factorization(p) for _, p in cases]
    rejected = sum(r is None for r in results)
    assert 40 < rejected < 120
    for (k, p), result in zip(cases, results):
        if result is not None:
            const, factors = result
            rebuilt = Polynomial.constant(k, const)
            for form, e in factors:
                rebuilt = rebuilt * Polynomial.linear_form(form) ** e
            assert rebuilt == p


def test_linear_factorization_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for k, p in _random_form_products(72, 120):
        if p.is_constant():
            continue
        gens = sympy.symbols(f"x0:{k}")
        expr = sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}, *gens)
        _, sym_factors = expr.factor_list()
        result = linear_factorization(p)
        if any(f.total_degree() > 1 for f, _ in sym_factors):
            assert result is None
            continue
        expected = sorted(
            (primitive_pseudo_positive(tuple(
                int(f.coeff_monomial(x)) for x in gens))[1], e)
            for f, e in sym_factors)
        assert result is not None and result[1] == expected


def test_linear_factorization_retries_when_forms_share_a_root():
    # u = (1, 1, 1) and w = (1, 2, 4) are the first moment points; both
    # forms vanish at w - 3/2 u, since 3 * 6 = 9 * 2, so the first line
    # gives a double root whose gradient divides nothing
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    l1, l2, l3 = (1, 1, 0), (5, 0, 1), (0, 1, -2)
    u, w = (1, 1, 1), (1, 2, 4)
    assert vec_dot(l1, w) * vec_dot(l2, u) == vec_dot(l2, w) * vec_dot(l1, u)
    p = ((x + y) * (x.scale(5) + z) ** 2 * (y - z.scale(2))).scale(F(-2, 7))
    assert linear_factorization(p) == (
        F(2, 7), [((0, -1, 2), 1), ((1, 1, 0), 1), ((5, 0, 1), 2)])


def test_linear_factorization_rejects_a_quadric_that_splits_on_the_line():
    # x*y + z*(2x - 3y + z) has a Gram matrix of determinant -7/4, so rank
    # 3 and irreducible; 2x - 3y + z vanishes on the span of u = (1, 1, 1)
    # and w = (1, 2, 4), so on the first line it is (1 + t)(2 + t)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    p = x * y + z * (x.scale(2) - y.scale(3) + z)
    t = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    on_line = p.substitute([one + t, one.scale(2) + t, one.scale(4) + t])
    assert on_line == (one + t) * (one.scale(2) + t)
    assert linear_factorization(p) is None


def test_linear_factorization_rejects_a_quadric_square_on_every_line():
    # x^2 + 16z(2x - 3y + z) has a Gram matrix of determinant -576, so it is
    # irreducible; on the lines through u = (1, 1, 1) and w = (1, 2, 4) or
    # (1, 3, 9) it is (1 + t)^2 or (17 + t)^2, so both lines allowed for
    # degree 2 in 3 variables give a double root and no factor
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    p = x * x + z * (x.scale(2) - y.scale(3) + z).scale(16)
    t = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    for j, root in ((2, 1), (3, 17)):
        on_line = p.substitute([one + t, one.scale(j) + t,
                                one.scale(j * j) + t])
        assert on_line == (one.scale(root) + t) ** 2
    assert linear_factorization(p) is None


def test_linear_factorization_of_eight_moment_forms_in_six_variables():
    k = 6
    forms = [tuple(j ** i for i in range(k)) for j in range(1, 9)]
    p = Polynomial.constant(k, 3)
    for form in forms:
        p = p * Polynomial.linear_form(form)
    const, factors = linear_factorization(p)
    assert sorted(form for form, _ in factors) == sorted(forms)
    rebuilt = Polynomial.constant(k, const)
    for form, e in factors:
        rebuilt = rebuilt * Polynomial.linear_form(form) ** e
    assert rebuilt == p


def test_to_string_known_forms():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert Polynomial.zero(2).to_string() == "0"
    assert (x * x - y).to_string() in ("eps1^2 - eps2", "-eps2 + eps1^2")
    p = x.scale(F(3, 2))
    assert p.to_string() == "3/2*eps1"


def test_arithmetic_refuses_polynomials_in_other_variables():
    two = Polynomial.variable(2, 0)
    three = Polynomial.variable(3, 0)
    for a, b in ((two, three), (two, Polynomial.zero(3)),
                 (Polynomial.zero(2), three),
                 (Polynomial.zero(2), Polynomial.zero(3))):
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(ValueError,
                               match=f"in {a.nvars} and {b.nvars} variables"):
                op(b)


def test_vec_is_zero():
    assert vec_is_zero(vec([0, 0]))
    assert not vec_is_zero(vec([0, "1/5"]))
