"""Germ arithmetic, canonical forms, and polar decomposition."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    is_pseudo_positive,
    mat,
    mat_from_columns,
    mat_rank,
    mat_transpose,
    primitive_pseudo_positive,
    primitive_vector,
    q_orthogonal_complement,
    vec,
    vec_dot,
)
from laurentgerms.errors import DependentInput, NotPolar, PoleHit
from laurentgerms.expand import laurent_expand, phi
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import (
    GermSum,
    PolarGerm,
    _nbc_rewrite,
    as_mero,
    canonicalize_polar,
    decompose,
    evaluate,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_mul,
    mero_neg,
    mero_scale,
    mero_sub,
    mero_sum,
    numerator_is_orthogonal,
    reduce_to_independent,
)
from laurentgerms.residues import (
    coproduct,
    graded_split,
    jk_residue,
    p_order,
    p_res,
    pi_minus,
    pi_plus,
)

from conftest import (
    mat_inverse,
    random_fraction,
    round_trip_corpus,
    random_germ,
    random_polynomial,
    random_space,
    random_vector,
    skew_space,
)

F = Fraction


def lin(*coords) -> Polynomial:
    return Polynomial.linear_form(vec(coords))


def const(k, c) -> Polynomial:
    return Polynomial.constant(k, c)


# ---------------------------------------------------------------------------
# canonical representation

def test_make_mero_cancels_common_form():
    g = make_mero(lin(1, 1) * lin(1, 0), ((vec([1, 1]), 1),))
    assert g.den == ()
    assert g.numerator == lin(1, 0)


def test_make_mero_normalizes_signs_and_scales():
    # 1/(x1 - x2): the form (1,-1) has negative last coordinate, so it is
    # stored as (-1,1) with the sign pushed into the numerator
    g = make_mero(const(2, 1), ((vec([1, -1]), 1),))
    assert g.den == (((F(-1), F(1)), 1),)
    assert g.numerator == const(2, -1)
    # scaling a form rescales the numerator, not the stored factor
    h = make_mero(const(2, 1), ((vec([2, 2]), 1),))
    assert h.den == (((F(1), F(1)), 1),)
    assert h.numerator == const(2, F(1, 2))


def test_make_mero_merges_repeated_forms():
    g = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([2, 0]), 2)))
    assert g.den == (((F(1), F(0)), 3),)
    assert g.numerator == const(2, F(1, 4))


def test_denominators_are_primitive_pseudo_positive():
    rng = random.Random(20)
    for _ in range(80):
        k = rng.randint(1, 3)
        g = random_germ(rng, k)
        for v, e in g.den:
            assert e >= 1
            assert is_pseudo_positive(v)
            assert primitive_vector(v) == v


def test_int_forms_beyond_float_precision_stay_exact():
    # coefficients beyond 2^53: a float division anywhere in the
    # normalization would round the scale pushed into the numerator
    n = 10 ** 20 + 1
    scale, form = primitive_pseudo_positive((n, 2 * n))
    assert form == (1, 2)
    assert type(scale) is Fraction and scale == n
    assert (make_mero(const(2, 1), [((n, 2 * n), 1)])
            == make_mero(const(2, F(1, n)), [((1, 2), 1)]))
    scale, form = primitive_pseudo_positive((-n, 1 - n))
    assert form == (n, n - 1) and scale == -1


def test_zero_numerator_collapses():
    g = make_mero(Polynomial.zero(2), ((vec([1, 0]), 2),))
    assert g.is_zero() and g.den == ()


# ---------------------------------------------------------------------------
# field laws

def test_mero_ring_laws():
    rng = random.Random(21)
    for _ in range(30):
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=2, degree=2)
        g = random_germ(rng, k, max_forms=2, degree=2)
        h = random_germ(rng, k, max_forms=2, degree=2)
        assert mero_add(f, g) == mero_add(g, f)
        assert mero_mul(f, g) == mero_mul(g, f)
        assert mero_add(mero_add(f, g), h) == mero_add(f, mero_add(g, h))
        assert mero_add(f, g, h) == mero_add(mero_add(f, g), h)
        assert mero_add(f) == f
        assert mero_mul(mero_mul(f, g), h) == mero_mul(f, mero_mul(g, h))
        assert (mero_mul(f, mero_add(g, h))
                == mero_add(mero_mul(f, g), mero_mul(f, h)))
        assert mero_add(f, mero_neg(f)).is_zero()
        assert mero_sub(f, g) == mero_add(f, mero_neg(g))
        assert mero_scale(F(1, 2), f) == mero_mul(make_mero(const(k, F(1, 2))), f)


def test_evaluate_matches_rational_arithmetic():
    rng = random.Random(22)
    for _ in range(40):
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=3, degree=2)
        g = random_germ(rng, k, max_forms=3, degree=2)
        # pick a point off every pole hyperplane
        for _ in range(50):
            pt = [F(rng.randint(1, 30)) / 7 for _ in range(k)]
            forms = [v for v, _ in f.den] + [v for v, _ in g.den]
            if all(vec_dot(v, tuple(pt)) != 0 for v in forms):
                break
        else:
            continue
        assert (evaluate(mero_add(f, g), pt)
                == evaluate(f, pt) + evaluate(g, pt))
        assert (evaluate(mero_mul(f, g), pt)
                == evaluate(f, pt) * evaluate(g, pt))


def test_evaluate_raises_on_pole():
    g = make_mero(const(2, 1), ((vec([1, -1]), 1),))
    with pytest.raises(PoleHit):
        evaluate(g, [1, 1])


def test_evaluate_needs_one_coordinate_per_variable():
    g = make_mero(Polynomial(2, {(0, 2): 1, (0, 0): 3}),
                  ((vec([1, 1]), 1),))
    assert evaluate(g, [1, 2]) == F(7, 3)
    for point in ([5], [1, 2, 3]):
        with pytest.raises(ValueError, match="2 coordinates"):
            evaluate(g, point)


def test_germ_equal_sees_through_representation():
    # 1/x1 + 1/x2 == (x1+x2)/(x1 x2)
    a = mero_add(make_mero(const(2, 1), ((vec([1, 0]), 1),)),
                 make_mero(const(2, 1), ((vec([0, 1]), 1),)))
    b = make_mero(lin(1, 1), ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    assert germ_equal(a, b)
    assert not germ_equal(a, make_mero(const(2, 1)))


def test_germ_equal_of_meromorphic_germs_is_structural_equality():
    # (x1+2x2)/(x1 x2 (x1+x2)) = 1/(x1 x2) + 1/(x1 (x1+x2)), built six ways
    f = parse_germ("(x1+2*x2)/(x1*x2*(x1+x2))", 2)
    a = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([0, 1]), 1)))
    b = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 1)))
    e = make_mero(lin(1, 1), ((vec([1, 0]), 1),))
    builds = [
        parse_germ("(x1+2*x2)/(x1^2*x2 + x1*x2^2)", 2),
        parse_germ("1/(x1*x2) + 1/(x1*(x1+x2))", 2),
        mero_add(b, a),
        mero_sub(mero_add(mero_add(b, e), a), e),
        mero_scale(-1, mero_scale(-1, f)),
        phi(laurent_expand(AmbientSpace.standard(2), f)),
    ]
    for x in builds:
        assert x == f
        assert germ_equal(x, f) and germ_equal(f, x)
    # unequal germs, some sharing a numerator or a denominator
    others = [a, b, e, mero_add(f, b), make_mero(const(2, 1), ((vec([0, 1]), 1),)),
              make_mero(const(2, 1), ((vec([1, 0]), 1),)), make_mero(lin(1, 2))]
    for x in others + [f]:
        for y in others + [f]:
            assert germ_equal(x, y) is (x == y) is mero_sub(x, y).is_zero()
    rng = random.Random(48)
    for k, h in round_trip_corpus()[:60]:
        e = random_germ(rng, k, max_forms=2, degree=2)
        for x in (mero_scale(-1, mero_scale(-1, h)),
                  mero_sub(mero_add(h, e), e),
                  phi(laurent_expand(AmbientSpace.standard(k), h))):
            assert x == h and germ_equal(x, h)


# ---------------------------------------------------------------------------
# polar canonicalization and orthogonality

def test_canonicalize_polar_accepts_orthogonal_numerators():
    from laurentgerms.exact import mat, mat_rank
    from laurentgerms.germs import orthogonal_projection_images

    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(2, 3)
        sp = random_space(rng, k)
        n = rng.randint(1, k - 1)
        forms = []
        while len(forms) < n:
            v = random_vector(rng, k, -2, 2)
            if mat_rank(mat(forms + [v])) == len(forms) + 1:
                forms.append(v)
        # project a random numerator onto the orthogonal directions first
        images = orthogonal_projection_images(sp, forms)
        num = random_polynomial(rng, k, degree=2).substitute(images)
        if num.is_zero():
            continue
        factors = tuple((v, rng.randint(1, 2)) for v in forms)
        p = canonicalize_polar(sp, num, factors)
        assert numerator_is_orthogonal(sp, p.numerator,
                                       [v for v, _ in p.factors])
        assert germ_equal(p.as_mero(), make_mero(num, factors))


def test_canonicalize_polar_rejects_unorthogonal_numerator():
    sp = AmbientSpace.standard(2)
    with pytest.raises(NotPolar):
        canonicalize_polar(sp, lin(1, 0), ((vec([1, 0]), 2),))


def test_canonicalize_polar_rejects_dependent_factors():
    sp = AmbientSpace.standard(2)
    with pytest.raises((NotPolar, DependentInput)):
        canonicalize_polar(sp, const(2, 1),
                           ((vec([1, 0]), 1), (vec([0, 1]), 1),
                            (vec([1, 1]), 1)))


def test_projection_substitution_is_idempotent():
    # substituting the projection twice changes nothing: the image really
    # lands in the subalgebra generated by orthogonal directions
    rng = random.Random(24)
    sp = AmbientSpace.standard(3)
    from laurentgerms.germs import orthogonal_projection_images
    for _ in range(10):
        forms = [random_vector(rng, 3, -2, 2)]
        images = orthogonal_projection_images(sp, forms)
        p = random_polynomial(rng, 3, degree=2)
        once = p.substitute(images)
        assert once.substitute(images) == once
        assert numerator_is_orthogonal(sp, once, forms)


# ---------------------------------------------------------------------------
# reduction to independent denominators

def _reassemble(k, parts):
    total = make_mero(Polynomial.zero(k))
    for coef, num, factors in parts:
        total = mero_add(total, make_mero(num.scale(coef), factors))
    return total


def test_reduce_simple_dependent_fraction():
    # 1/(x1 x2 (x1+x2)) = 1/(x2 (x1+x2)^2) + 1/(x1 (x1+x2)^2)
    from laurentgerms.exact import mat, mat_rank

    g = make_mero(const(2, 1),
                  ((vec([1, 0]), 1), (vec([0, 1]), 1), (vec([1, 1]), 1)))
    parts = reduce_to_independent(g)
    total = _reassemble(2, parts)
    assert total == g
    expected = mero_add(
        make_mero(const(2, 1), ((vec([0, 1]), 1), (vec([1, 1]), 2))),
        make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 2))))
    assert total == expected
    for _, _, factors in parts:
        forms = [v for v, _ in factors]
        assert mat_rank(mat(forms)) == len(forms)


def test_reduce_preserves_value_on_random_dependent_germs():
    from laurentgerms.exact import mat, mat_rank

    rng = random.Random(25)
    for _ in range(15):
        g = random_germ(rng, 2, max_forms=4, degree=2)
        parts = reduce_to_independent(g)
        assert _reassemble(2, parts) == g
        for _, _, factors in parts:
            forms = [v for v, _ in factors]
            assert mat_rank(mat(forms)) == len(forms)


def _reduce_by_greedy_rank_loop(f):
    """Reference for reduce_to_independent: the greedy independent subset
    by one rank test per form, and the dependent form's coordinates by a
    linear solve."""
    from laurentgerms.exact import mat_from_columns, mat_rank, solve

    out = {}

    def outer(coef, den):
        forms = sorted(v for v, e in den.items() if e)
        if mat_rank(tuple(forms)) == len(forms):
            key = tuple(sorted((v, e) for v, e in den.items() if e))
            out[key] = out.get(key, F(0)) + coef
            return
        basis, dep = [], None
        for v in forms:
            if mat_rank(tuple(basis + [v])) == len(basis) + 1:
                basis.append(v)
            elif dep is None:
                dep = v
        coords = solve(mat_from_columns(basis), dep)
        inner(coef, den, dep, [(b, c) for b, c in zip(basis, coords) if c])

    def inner(coef, den, dep, rel):
        for b, c in rel:
            child = dict(den)
            child[b] -= 1
            child[dep] = child.get(dep, 0) + 1
            if child[b] == 0:
                del child[b]
                outer(coef * c, child)
            else:
                inner(coef * c, child, dep, rel)

    if f.is_zero():
        return []
    outer(F(1), dict(f.den))
    return [(c, f.numerator, den) for den, c in sorted(out.items()) if c]


def test_reduce_is_structurally_the_greedy_rank_loop():
    germs = [g for _, g in round_trip_corpus()]
    rng = random.Random(26)
    germs += [random_germ(rng, rng.randint(1, 4), max_forms=5, degree=2)
              for _ in range(100)]
    for g in germs:
        assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)


def _forms_product(k, forms):
    return make_mero(Polynomial.constant(k, 1), tuple(forms))


def test_reduce_merges_equal_denominators():
    # the path recursion of the reference grows about 8x per form in 2D
    for n in range(3, 8):
        g = _forms_product(2, [(vec([1, i]), 1) for i in range(1, n + 1)])
        assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)
    g = _forms_product(3, [(vec(v), e) for v, e in [
        ([1, 0, 0], 2), ([0, 1, 0], 1), ([1, 1, 1], 2), ([1, 2, 1], 1),
        ([0, 1, 3], 1), ([2, -1, 1], 1)]])
    assert reduce_to_independent(g) == _reduce_by_greedy_rank_loop(g)
    g = _forms_product(2, [(vec([1, i]), 1) for i in range(1, 13)])
    start = time.perf_counter()
    parts = reduce_to_independent(g)
    assert time.perf_counter() - start < 1.0
    assert _reassemble(2, parts) == g


# ---------------------------------------------------------------------------
# decomposition into polar + holomorphic

def test_decompose_separates_polynomial_part():
    sp = AmbientSpace.standard(2)
    # (x1 + x2^2)/x1 = 1 + x2^2/x1
    g = make_mero(lin(1, 0) + lin(0, 1) * lin(0, 1), ((vec([1, 0]), 1),))
    s = decompose(sp, g)
    assert s.poly == const(2, 1)
    assert len(s.terms) == 1
    t = s.terms[0]
    assert t.factors == (((F(1), F(0)), 1),)
    assert t.numerator == lin(0, 1) * lin(0, 1)


def test_decompose_of_holomorphic_is_pure_polynomial():
    rng = random.Random(26)
    sp = AmbientSpace.standard(2)
    for _ in range(10):
        p = random_polynomial(rng, 2)
        s = decompose(sp, make_mero(p))
        assert s.terms == () and s.poly == p


def test_decompose_is_faithful():
    rng = random.Random(27)
    for _ in range(25):
        k = rng.randint(1, 3)
        sp = AmbientSpace.standard(k)
        g = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(sp, g)
        assert germ_equal(s, g)
        for t in s.terms:
            assert numerator_is_orthogonal(sp, t.numerator, [v for v, _ in t.factors])


def test_decompose_faithful_under_random_inner_products():
    rng = random.Random(28)
    for _ in range(15):
        k = rng.randint(2, 3)
        sp = random_space(rng, k)
        g = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(sp, g)
        assert germ_equal(s, g)
        for t in s.terms:
            assert numerator_is_orthogonal(sp, t.numerator, [v for v, _ in t.factors])


def _reference_decompose(space, f):
    """The recursive decomposition: each fraction goes into the coordinates
    (pole forms | Q-orthogonal basis), every term free of the pole
    directions is polar, and every other term is routed through its first
    pole-direction variable, which it loses, and recursed on."""
    f = as_mero(f)
    k = space.dimension
    polar = []
    poly = Polynomial.zero(k)
    caches = {}

    def coordinate_maps(forms):
        if forms not in caches:
            ortho = q_orthogonal_complement(space, list(forms))
            bt = mat_transpose(mat_from_columns(list(forms) + ortho))
            bt_inv = mat_inverse(bt)
            caches[forms] = ([Polynomial.linear_form(bt_inv[i]) for i in range(k)],
                             [Polynomial.linear_form(bt[i]) for i in range(k)])
        return caches[forms]

    def peel(p, m):
        h, parts = {}, [{} for _ in range(m)]
        for e, c in p.coeffs.items():
            i = next((j for j in range(m) if e[j]), None)
            if i is None:
                h[e] = c
            else:
                parts[i][e[:i] + (e[i] - 1,) + e[i + 1:]] = c
        return (Polynomial.from_ints(p.nvars, h, p.den),
                [Polynomial.from_ints(p.nvars, q, p.den) for q in parts])

    def rec(num, den):
        nonlocal poly
        if num.is_zero():
            return
        if not den:
            poly = poly + num
            return
        if num.is_constant():
            polar.append(PolarGerm(num, den))
            return
        forms = tuple(v for v, _ in den)
        to_u, to_eps = coordinate_maps(forms)
        h0, parts = peel(num.substitute(to_u), len(forms))
        if not h0.is_zero():
            polar.append(PolarGerm(h0.substitute(to_eps), den))
        for i, part in enumerate(parts):
            if part.is_zero():
                continue
            child = tuple((v, e - 1 if j == i else e)
                          for j, (v, e) in enumerate(den) if e - (j == i) > 0)
            rec(part.substitute(to_eps), child)

    for coef, num, den in reduce_to_independent(f):
        rec(num.scale(coef), den)
    return make_germ_sum(polar, poly)


def _digest_space(k):
    """The Gram matrix of ``test_digest.py``, padded by the identity."""
    gram = ((3, 1, 0), (1, 2, -1), (0, -1, 4))
    return AmbientSpace(k, mat([[gram[i][j] if i < 3 and j < 3 else int(i == j)
                                 for j in range(k)] for i in range(k)]))


def _pooled_germ(rng, k):
    """A germ over factors drawn with repetition from a few forms, so that
    repeated and dependent forms are common; numerator degree <= 3."""
    pool = [random_vector(rng, k, -2, 2) for _ in range(rng.randint(1, 4))]
    factors = [(rng.choice(pool), 1) for _ in range(rng.randint(0, 4))]
    return make_mero(random_polynomial(rng, k, degree=3), factors)


def test_decompose_is_structurally_the_recursive_split():
    rng = random.Random(15)
    germs = list(round_trip_corpus())
    germs += [(k, _pooled_germ(rng, k))
              for k in (rng.randint(1, 4) for _ in range(300))]
    for k, f in germs:
        for space in (AmbientSpace.standard(k), skew_space(k), _digest_space(k)):
            assert decompose(space, f) == _reference_decompose(space, f)


def test_decompose_and_residues_refuse_a_germ_in_other_variables():
    cases = [(2, "1/(x1*(x1+x2+x3))", 3), (3, "x2/(x1*(x1+x2))", 2),
             (2, "(x1+x3)/(x1*(x1+x2+x3))", 3), (4, "1/(x1*(x1+x2+x3))", 3)]
    for k, text, nvars in cases:
        space = AmbientSpace.standard(k)
        f = parse_germ(text, nvars)
        for run in (decompose, laurent_expand, graded_split, pi_plus, pi_minus,
                    jk_residue, p_order, p_res, coproduct):
            with pytest.raises(ValueError, match=f"{nvars} variables.*{k}"):
                run(space, f)
        x = laurent_expand(AmbientSpace.standard(nvars), f)
        for run in (graded_split, pi_plus, pi_minus, p_order, p_res, coproduct):
            with pytest.raises(ValueError, match=f"{nvars} variables.*{k}"):
                run(space, x)


def test_germ_sum_merges_and_drops_zeros():
    fac = ((vec([1, 0]), 1),)
    a = PolarGerm(const(2, 1), fac)
    b = PolarGerm(const(2, -1), fac)
    s = make_germ_sum([a, b], Polynomial.zero(2))
    assert s.is_zero()


def test_as_mero_on_germ_sum_adds_everything():
    fac1 = ((vec([1, 0]), 1),)
    fac2 = ((vec([0, 1]), 1),)
    s = make_germ_sum([PolarGerm(const(2, 1), fac1),
                       PolarGerm(const(2, 1), fac2)], const(2, 3))
    expected = mero_add(
        mero_add(make_mero(const(2, 1), fac1), make_mero(const(2, 1), fac2)),
        make_mero(const(2, 3)))
    assert as_mero(s) == expected


def test_formal_expansions_are_read_as_germs():
    sp = AmbientSpace.standard(2)
    f = make_mero(const(2, 1), ((vec([1, 0]), 1), (vec([1, 1]), 1)))
    x = laurent_expand(sp, f)
    assert as_mero(x) == f == phi(x)
    assert germ_equal(x, f) and germ_equal(f, x)
    assert not germ_equal(x, mero_scale(2, f))
    assert evaluate(x, [1, 2]) == F(1, 3)
    with pytest.raises(PoleHit):
        evaluate(x, [0, 1])
    rng = random.Random(54)
    for k, g in round_trip_corpus()[:25]:
        sp = random_space(rng, k)
        y = laurent_expand(sp, g)
        assert as_mero(y) == g and germ_equal(y, g)
        pt = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k)]
        if all(vec_dot(v, vec(pt)) != 0 for v, _ in g.den):
            assert evaluate(y, pt) == evaluate(g, pt)


# ---------------------------------------------------------------------------
# exact sums: the nbc rewrite against independent references

def left_fold(x, k):
    """Reference sum: the summands of x added one by one with mero_add."""
    if isinstance(x, GermSum):
        summands = [make_mero(x.poly)] + [t.as_mero() for t in x.terms]
    else:
        summands = [x]
    total = make_mero(Polynomial.zero(k))
    for g in summands:
        total = mero_add(total, g)
    return total


def cross_multiplied_equal(f, g, k) -> bool:
    """Reference equality: one cross-multiplication of the folded sides."""
    return mero_sub(left_fold(f, k), left_fold(g, k)).is_zero()


def perturbed(rng, s: GermSum, k: int) -> GermSum:
    """s plus a nonzero germ, so never equal to s."""
    choice = rng.randrange(3) if s.terms else 2
    if choice == 0:
        i = rng.randrange(len(s.terms))
        t = s.terms[i]
        c = rng.choice([F(-1), F(2), F(1, 3)])
        terms = list(s.terms)
        terms[i] = PolarGerm(t.numerator.scale(c), t.factors)
        return make_germ_sum(terms, s.poly)
    if choice == 1:
        extra = canonicalize_polar(None, const(k, random_fraction(rng, 1, 3)),
                                   ((random_vector(rng, k, -2, 2), rng.randint(1, 2)),))
        return make_germ_sum(list(s.terms) + [extra], s.poly)
    return make_germ_sum(list(s.terms), s.poly + const(k, 1))


def test_germ_equal_agrees_with_cross_multiplication():
    rng = random.Random(49)
    pairs = equal = 0
    while pairs < 2000:
        k = rng.randint(1, 3)
        f = random_germ(rng, k, max_forms=3, degree=2)
        s = decompose(AmbientSpace.standard(k), f)
        t = decompose(random_space(rng, k), f)
        cases = [(s, t, True), (t, f, True), (f, s, True),
                 (perturbed(rng, t, k), s, False),
                 (f, perturbed(rng, s, k), False),
                 (f, mero_add(f, make_mero(const(k, 1), ((random_vector(rng, k), 1),))),
                  False)]
        for x, y, expected in cases:
            assert germ_equal(x, y) is expected
            assert cross_multiplied_equal(x, y, k) is expected
            pairs += 1
            equal += expected
    assert equal == pairs // 2


def pooled_fractions(rng, k):
    """Fractions over a few shared, dependent forms, as subdivisions make."""
    pool = [random_vector(rng, k, -2, 2) for _ in range(k + 2)]
    out = []
    for _ in range(rng.randint(3, 10)):
        forms = rng.sample(pool, rng.randint(1, k))
        out.append(make_mero(random_polynomial(rng, k, degree=1, terms=2),
                             tuple((v, rng.randint(1, 2)) for v in forms)))
    return out


def is_nbc(forms, arrangement) -> bool:
    """No broken circuit (a circuit minus its least form) inside ``forms``."""
    for size in range(2, len(arrangement) + 1):
        for circuit in itertools.combinations(arrangement, size):
            if (mat_rank(circuit) == size - 1
                    and all(mat_rank(circuit[:i] + circuit[i + 1:]) == size - 1
                            for i in range(size))
                    and set(circuit[1:]) <= set(forms)):
                return False
    return True


def test_nbc_rewrite_keeps_the_sum_and_leaves_only_nbc_pole_sets():
    rng = random.Random(50)
    rewrites = 0
    for _ in range(80):
        k = rng.randint(2, 3)
        summands = pooled_fractions(rng, k)
        merged = {}
        for g in summands:
            merged[g.den] = merged.get(g.den, Polynomial.zero(k)) + g.numerator
        arrangement = sorted({v for den in merged for v, _ in den})
        out = _nbc_rewrite(merged, arrangement)
        for den in out:
            assert is_nbc([v for v, _ in den], arrangement)
        # the same rational function: exact values at points off the poles
        for _ in range(3):
            point = [random_fraction(rng, -9, 9, 7) for _ in range(k)]
            if any(vec_dot(v, point) == 0 for v in arrangement):
                continue
            assert (sum(evaluate(make_mero(num, den), point)
                        for den, num in out.items())
                    == sum(evaluate(g, point) for g in summands))
        rewrites += out != merged
    assert rewrites > 60


def test_nbc_rewrite_stops_once_it_cannot_shrink_the_sum():
    # a final denominator is never reached again, so once ``limit`` of them
    # are out the rewrite cannot end with fewer fractions; expansions
    # shrink, sums of unrelated germs do not
    rng = random.Random(53)
    sums = [laurent_expand(AmbientSpace.standard(k), g).fractions()[1:]
            for k, g in round_trip_corpus()]
    for _ in range(60):
        k = rng.randint(2, 3)
        sums.append([(g.numerator, g.den) for g in (
            random_germ(rng, k, max_forms=4, degree=1)
            for _ in range(rng.randint(2, 6)))])
    stopped = shrunk = 0
    for pairs in sums:
        merged = {}
        for num, den in pairs:
            merged[den] = merged[den] + num if den in merged else num
        merged = {d: n for d, n in merged.items() if not n.is_zero()}
        arrangement = sorted({v for den in merged for v, _ in den})
        if len(merged) < 2 or mat_rank(arrangement) == len(arrangement):
            continue
        full = _nbc_rewrite(merged, arrangement)
        got = _nbc_rewrite(merged, arrangement, len(merged))
        if len(full) < len(merged):
            assert got == full
            shrunk += 1
        else:
            assert got is None
            stopped += 1
    assert stopped > 15 and shrunk > 15


def test_mero_sum_is_structurally_the_left_fold_on_random_dependent_sums():
    rng = random.Random(52)
    for _ in range(50):
        k = rng.randint(2, 3)
        summands = pooled_fractions(rng, k) + [
            random_germ(rng, k, max_forms=3, degree=1)]
        # a sum that cancels to zero must come out structurally zero
        cancel = summands + [mero_neg(g) for g in summands]
        rng.shuffle(cancel)
        assert mero_sum(cancel, k) == make_mero(Polynomial.zero(k))
        expected = make_mero(Polynomial.zero(k))
        for g in summands:
            expected = mero_add(expected, g)
        rng.shuffle(summands)
        assert mero_sum(summands, k) == expected


def test_sums_agree_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(51)

    def to_sympy(g, xs):
        g = as_mero(g)
        num = sum(sympy.Rational(c.numerator, c.denominator)
                  * sympy.Mul(*(x ** p for x, p in zip(xs, e)))
                  for e, c in g.numerator.terms.items())
        den = sympy.Mul(*(sum(int(a) * x for a, x in zip(v, xs)) ** p
                          for v, p in g.den))
        return num / den

    checked = 0
    for k in (1, 2, 3, 4):
        xs = sympy.symbols(f"x1:{k + 1}")
        for _ in range(12 if k < 4 else 6):
            num = random_polynomial(rng, k, degree=2)
            forms = [random_vector(rng, k, -2, 2)
                     for _ in range(rng.randint(0, 4 if k < 4 else 3))]
            source = to_sympy(num, xs) / sympy.Mul(
                *(sum(a * x for a, x in zip(v, xs)) for v in forms))
            reduced = sympy.cancel(source)
            f = make_mero(num, tuple((v, 1) for v in forms))
            # our reduced germ has the reduced denominator's degree
            den = sympy.fraction(reduced)[1]
            assert sum(p for _, p in f.den) == sympy.Poly(den, *xs).total_degree()
            s = decompose(random_space(rng, k), f)
            # the decomposition, summed by sympy, and its sum by as_mero
            pieces = [to_sympy(s.poly, xs)] + [to_sympy(t, xs) for t in s.terms]
            n1, d1 = sympy.fraction(sympy.together(sympy.Add(*pieces)))
            n2, d2 = sympy.fraction(source)
            assert sympy.expand(n1 * d2 - n2 * d1) == 0
            assert sympy.cancel(to_sympy(as_mero(s), xs) - source) == 0
            x = laurent_expand(AmbientSpace.standard(k), f)
            assert sympy.cancel(to_sympy(phi(x), xs) - source) == 0
            bad = perturbed(rng, s, k)
            for g in (s, bad):
                oracle = sympy.cancel(to_sympy(g, xs) - source) == 0
                assert germ_equal(f, g) is oracle is (g is s)
            checked += 1
    assert checked == 42
