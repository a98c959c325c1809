"""Lattice cones, exponential sums/integrals, and truncated germs."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import laurentgerms.expand as expand_module
import laurentgerms.latticeexp as latticeexp_module
from laurentgerms.cones import (
    PolyCone,
    SimplicialCone,
    common_refinement,
    is_properly_positioned,
    is_subdivision,
    make_poly_cone,
    make_simplicial_cone,
    triangulate_cone,
)
from laurentgerms.errors import (
    NoSmoothSubdivisionAvailable,
    NotASubdivision,
    NotDimensionTwo,
    NotSimplicial,
    NotSmooth,
)
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    det,
    mat_rank,
    primitive_vector,
    vec,
    vec_dot,
)
from laurentgerms.expand import make_expansion
from laurentgerms.germs import (
    PolarGerm,
    as_mero,
    canonicalize_polar,
    decompose,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
)
from laurentgerms.latticeexp import (
    LatticeCone,
    TruncatedGerm,
    _from_coords,
    _lattice_coords,
    bernoulli_tail_coeffs,
    evaluate_truncated,
    exp_integral,
    exp_sum_smooth,
    is_smooth,
    lattice_sum_numeric,
    make_lattice_cone,
    p_res_exp_sum,
    smooth_subdivide_2d,
)
from laurentgerms.residues import p_res

from conftest import (
    exp_sum_smooth_reference,
    half_space,
    random_pseudo_positive_cone,
    skew_space,
)

F = Fraction
SP = AmbientSpace.standard(2)
SPACES = pytest.mark.parametrize(
    "space_of", [AmbientSpace.standard, skew_space, half_space],
    ids=["identity", "skew", "half"])


def mero(num, *factors, k=2):
    num_poly = (num if isinstance(num, Polynomial)
                else Polynomial.constant(k, num))
    return make_mero(num_poly, tuple((vec(v), e) for v, e in factors))


def ray_sets(pieces):
    return {lc.rays for lc in pieces}


# ---------------------------------------------------------------------------
# lattice cone construction and smoothness

def test_make_lattice_cone_primitivizes_generators():
    lc = make_lattice_cone([(2, 0), (0, 3)])
    assert lc.rays == (vec([0, 1]), vec([1, 0]))
    assert lc.lattice_basis == (vec([1, 0]), vec([0, 1]))
    assert lc.dim == 2


def test_make_lattice_cone_saturates_lower_dimensional_spans():
    lc = make_lattice_cone([(2, 4)])
    # the integer points of the span form Z.(1,2), not Z.(2,4)
    assert lc.rays == (vec([1, 2]),)
    assert lc.lattice_basis == (vec([1, 2]),)
    assert lc.dim == 1


def test_make_lattice_cone_validates_basis():
    with pytest.raises(ValueError):
        make_lattice_cone([(1, 0), (0, 1)],
                          lattice_basis=[(F(1, 2), F(0)), (0, 1)])
    with pytest.raises(ValueError):
        make_lattice_cone([(1, 0), (0, 1)],
                          lattice_basis=[(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        make_lattice_cone([(1, 0)], lattice_basis=[(0, 1)])
    # generators must be lattice points
    with pytest.raises(ValueError):
        make_lattice_cone([(1, 0), (0, 1)],
                          lattice_basis=[(2, 0), (0, 1)])


def test_a_lattice_basis_of_another_length_is_refused_by_name():
    pattern = "^a cone and its lattice basis live in ambient dimensions 3 and 2$"
    with pytest.raises(ValueError, match=pattern):
        make_lattice_cone([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1]])
    # explicit pieces are built on the cone's lattice, so the same check
    # refuses pieces of another ambient dimension
    with pytest.raises(ValueError, match=pattern):
        p_res_exp_sum(make_lattice_cone([(1, 0), (1, 2)]),
                      [[(1, 0, 0), (0, 1, 0)]])


def random_pointed_rays(rng, k, rank):
    """Rays of a pointed cone of the given rank in Z^k: integer
    combinations of ``rank`` independent vectors whose first coefficient
    is positive, so all of them lie in one open half-space of the span."""
    while True:
        base = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rank)]
        if mat_rank(tuple(map(vec, base))) == rank:
            break
    while True:
        rays = []
        for _ in range(rank + rng.randint(0, 2)):
            coefs = [rng.randint(1, 2)] + [rng.randint(-2, 2)
                                           for _ in range(rank - 1)]
            rays.append([sum(c * b[j] for c, b in zip(coefs, base))
                         for j in range(k)])
        if mat_rank(tuple(map(vec, rays))) == rank:
            return rays


def test_make_lattice_cone_default_basis_is_a_lattice_basis_of_the_span():
    """The basis ``make_lattice_cone`` builds by default passes the checks
    it runs on a supplied one, and holds every ray."""
    rng = random.Random(71)
    cones = []
    for rank in (1, 2, 3):
        for _ in range(6):
            cones.append(random_pseudo_positive_cone(rng, 3, rank))
            cones.append(make_poly_cone(random_pointed_rays(rng, 3, rank)))
    assert any(len(c.rays) > mat_rank(c.rays) for c in cones)
    for cone in cones:
        lc = make_lattice_cone(cone)
        basis = lc.lattice_basis
        d = mat_rank(cone.rays)
        assert all(isinstance(c, int) for b in basis for c in b)
        assert len(basis) == d == mat_rank(basis)
        assert mat_rank(tuple(cone.rays) + basis) == d
        for ray in cone.rays + lc.rays:
            assert all(c.denominator == 1
                       for c in _lattice_coords(basis, ray))
        assert make_lattice_cone(cone, basis) == lc


def test_lattice_coords_on_the_standard_lattice_are_the_vector():
    std = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    v = (3, F(1, 2), -4)
    assert _lattice_coords(std, v) is v
    assert _lattice_coords([(1, 1), (1, -1)], (3, 1)) == (2, 1)
    assert _lattice_coords([(0, 1), (1, 0)], (3, 1)) == (1, 3)
    with pytest.raises(ValueError):
        _lattice_coords([(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    # off the span of a basis that is not a part of the standard one
    assert _lattice_coords([(1, 1, 0), (0, 1, 1)], (1, 3, 2)) == (1, 2)
    with pytest.raises(ValueError):
        _lattice_coords([(1, 1, 0), (0, 1, 1)], (1, 0, 0))
    # the empty basis spans only the origin
    assert _lattice_coords([], (0, 0)) == ()
    with pytest.raises(ValueError):
        _lattice_coords([], (1, 0))
    # a raw generator off the standard lattice is still refused
    with pytest.raises(ValueError, match="not a lattice vector"):
        make_lattice_cone([(F(1, 2), 0), (0, 1)])


def test_a_cone_of_lattice_primitive_rays_is_kept_as_it_is():
    # on the standard lattice, and on the saturated lattice of a span, the
    # rays are their own primitive lattice vectors, so the cone itself,
    # with the hull a PolyCone keeps, is kept;
    # on (2, 0), (0, 1) the ray (1, 1) becomes the lattice vector (2, 2)
    for cone in (make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
                 make_poly_cone([(1, 2, 0), (0, 1, 1)]),
                 make_simplicial_cone([(1, 0), (1, 2)])):
        assert make_lattice_cone(cone).cone is cone
    diagonal = make_poly_cone([(1, 0), (1, 1)])
    lc = make_lattice_cone(diagonal, [(2, 0), (0, 1)])
    assert type(lc.cone) is PolyCone and lc.rays == ((2, 0), (2, 2))
    assert make_lattice_cone([(4, 0), (2, 2)], [(2, 0), (0, 1)]).rays == (
        (2, 0), (2, 2))
    assert _from_coords([(2, 0), (0, 1)], [1, 2]) == (2, 2)
    assert _from_coords([(1, 0), (0, 1)], [1, 2]) == (1, 2)


def test_the_span_dimension_is_read_from_the_cone(monkeypatch):
    # make_lattice_cone takes the dimension of the span from the cone (a
    # simplicial cone's generators, a PolyCone's kept hull) and runs
    # mat_rank only to validate a supplied basis
    calls = []
    monkeypatch.setattr(latticeexp_module, "mat_rank", lambda m: (
        calls.append(m), mat_rank(m))[1])
    rng = random.Random(5302)
    cones = [make_simplicial_cone([(1, 0, 0), (1, 2, 0), (0, 1, 3)]),
             make_simplicial_cone([(1, 1, 0), (0, 1, 1)]),
             make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
             make_poly_cone([(1, 2, 0), (0, 1, 1), (1, 3, 1)])]
    for rank in (1, 2, 3):
        cones.append(random_pseudo_positive_cone(rng, 3, rank))
        cones.append(make_poly_cone(random_pointed_rays(rng, 3, rank)))
    for cone in cones:
        lc = make_lattice_cone(cone)
        assert lc.cone is cone and lc.dim == cone.dim == mat_rank(cone.rays)
    assert calls == []
    basis = [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert make_lattice_cone(cones[0], basis).lattice_basis == tuple(basis)
    assert len(calls) == 2


def test_is_smooth_depends_on_the_lattice():
    assert is_smooth(make_lattice_cone([(1, 0), (0, 1)]))
    assert not is_smooth(make_lattice_cone([(1, 0), (1, 2)]))
    skew = [(1, 1), (1, -1)]
    assert not is_smooth(make_lattice_cone(skew))
    assert is_smooth(make_lattice_cone(skew, lattice_basis=skew))


# ---------------------------------------------------------------------------
# tail coefficients

def test_bernoulli_tail_coefficients_are_frozen():
    assert bernoulli_tail_coeffs(6) == [
        F(1, 2), F(-1, 12), F(0), F(1, 720), F(0), F(-1, 30240), F(0)]


def test_tail_coefficients_invert_the_exponential_series():
    # 1/(1-e^x) = -1/x + t(x) means (1-e^x)(-1 + x t(x)) = x + O(x^{n+2})
    n = 8
    coeffs = bernoulli_tail_coeffs(n)
    one_minus_exp = Polynomial(1, {
        (j,): -F(1, math.factorial(j)) for j in range(1, n + 2)})
    x_t = Polynomial(1, {(j + 1,): c for j, c in enumerate(coeffs)})
    prod = one_minus_exp * (x_t - Polynomial.constant(1, 1))
    low = Polynomial(1, {e: c for e, c in prod.terms.items()
                         if e[0] <= n + 1})
    assert low == Polynomial(1, {(1,): F(1)})


def test_a_truncation_order_is_an_int_checked_before_any_cache():
    # the tail series is cached by truncation order; True, 2.0 and F(2)
    # hash like the cached 1 and 2, so each is refused before the cache is
    # read, as a miss refuses it
    lc = make_lattice_cone([(1, 0), (0, 1)])
    exp_sum_smooth(lc, 1)
    exp_sum_smooth(lc, 2)
    for bad in (True, False, 2.0, F(2), -1, "2", None):
        with pytest.raises(ValueError, match="truncation order"):
            exp_sum_smooth(lc, bad)
        with pytest.raises(ValueError, match="truncation order"):
            bernoulli_tail_coeffs(bad)


def test_the_tail_series_is_built_once_per_truncation(monkeypatch):
    built = []
    monkeypatch.setattr(latticeexp_module, "bernoulli_tail_coeffs", lambda n: (
        built.append(n), bernoulli_tail_coeffs(n))[1])
    latticeexp_module._tail_series.cache_clear()
    lc = make_lattice_cone([(1, 0, -1), (0, 1, -1), (0, 0, 1)])
    sums = [exp_sum_smooth(lc, trunc) for trunc in (3, 5, 3, 5, 3)]
    assert built == [3, 5]
    assert sums[0] == sums[2] == sums[4] and sums[1] == sums[3]
    # the coefficients themselves still come as a fresh list on each call
    coeffs = bernoulli_tail_coeffs(4)
    coeffs.clear()
    assert len(bernoulli_tail_coeffs(4)) == 5


# ---------------------------------------------------------------------------
# truncated germs

def test_evaluate_truncated_reads_the_tail_literally():
    # 1/x1 + 1 + x1^5 at x1 = 1/3: the tail term above the order counts too
    x1 = Polynomial.linear_form(vec([1, 0]))
    tg = TruncatedGerm(make_germ_sum([PolarGerm(Polynomial.constant(2, 1),
                                                ((vec([1, 0]), 1),))],
                                     Polynomial.zero(2)),
                       Polynomial.constant(2, 1) + x1 ** 5, 4)
    pt = (F(1, 3), F(2))
    assert evaluate_truncated(tg, pt) == 3 + 1 + F(1, 3 ** 5)


# ---------------------------------------------------------------------------
# exponential sums on smooth cones

def test_exp_sum_on_the_half_line():
    lc = make_lattice_cone([(1,)])
    tg = exp_sum_smooth(lc, trunc=4)
    assert germ_equal(tg.polar_part, mero(-1, ([1], 1), k=1))
    assert tg.taylor_tail == Polynomial(1, {
        (0,): F(1, 2), (1,): F(-1, 12), (3,): F(1, 720)})


def test_exp_sum_top_polar_term_is_truncation_free():
    lc = make_lattice_cone([(1, 0), (1, 1)])
    for trunc in (2, 5):
        tg = exp_sum_smooth(lc, trunc=trunc)
        assert germ_equal(p_res(SP, tg), mero(1, ([1, 0], 1), ([1, 1], 1)))


def test_truncation_order_must_be_non_negative():
    orthant = make_lattice_cone([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        exp_sum_smooth(orthant, trunc=-1)
    # order 0 is the least one, and it keeps the -1/2 * 1/x_i terms
    tg = exp_sum_smooth(orthant, trunc=0)
    assert tg.nvars == exp_sum_smooth(orthant, 2).nvars == 2
    assert germ_equal(tg.polar_part, mero_add(
        mero(1, ([1, 0], 1), ([0, 1], 1)),
        mero(F(-1, 2), ([1, 0], 1)), mero(F(-1, 2), ([0, 1], 1))))
    assert tg.taylor_tail == Polynomial.constant(2, F(1, 4))


def smooth_sum_cases(rng):
    """Smooth lattice cones: ``rank`` rows of a random unimodular matrix
    generate a smooth cone in the integer points of their span, for every
    rank up to the ambient dimension; and a rank-two cone in Z^3, on its
    default lattice and on a basis of its own generators."""
    cases = []
    for k in (1, 2, 3):
        for rank in range(1, k + 1):
            for _ in range(2):
                rows = (unimodular_rows(rng, k) if k > 1
                        else [[rng.choice((-1, 1))]])
                cases.append(make_lattice_cone(rng.sample(rows, rank)))
    cases.append(make_lattice_cone([(1, 0, 1), (0, 1, 2)]))
    skew = [(1, 1, 0), (1, -1, 0)]
    # smooth on the basis of its own generators only
    assert not is_smooth(make_lattice_cone(skew))
    cases.append(make_lattice_cone(skew, lattice_basis=skew))
    return cases


@SPACES
@pytest.mark.parametrize("trunc", [0, 1, 3, 8])
def test_exp_sum_matches_one_decompose_per_product(space_of, trunc):
    """One polar split of all the products gives exactly what splitting
    each product on its own and summing the pieces gives."""
    for lc in smooth_sum_cases(random.Random(72 + trunc)):
        space = space_of(lc.ambient)
        assert is_smooth(lc)
        got = exp_sum_smooth(lc, trunc, space)
        assert got == exp_sum_smooth_reference(lc, trunc, space), lc


@SPACES
def test_exp_sum_forms_no_product_above_the_truncation(monkeypatch, space_of):
    # each of the 2^d - 1 products of a numerator and a tail is cut as it is
    # formed; none is a full product cut afterwards
    counts = Counter()

    def counted(name):
        fn = getattr(Polynomial, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("__mul__", "mul_to_degree"):
        monkeypatch.setattr(Polynomial, name, counted(name))
    rng = random.Random(5401)
    for k in (2, 3):
        for trunc in (0, 1, 4, 8):
            lc = make_lattice_cone(unimodular_rows(rng, k))
            counts.clear()
            exp_sum_smooth(lc, trunc, space_of(k))
            assert counts == {"mul_to_degree": 2 ** k - 1}, (lc, trunc)


def test_exp_sum_refuses_a_space_of_another_dimension():
    lc = make_lattice_cone([(1, 0), (1, 1)])
    for k in (1, 3):
        message = f"germ in 2 variables, space of dimension {k}"
        with pytest.raises(ValueError, match=message):
            exp_sum_smooth(lc, 4, AmbientSpace.standard(k))
        with pytest.raises(ValueError, match=message):
            decompose(AmbientSpace.standard(k), mero(1, ([1, 0], 1)))


def test_exp_sum_requires_smoothness():
    with pytest.raises(NotSmooth):
        exp_sum_smooth(make_lattice_cone([(1, 0), (1, 2)]))


def test_smooth_cone_maps_refuse_a_non_simplicial_cone():
    lc = make_lattice_cone(make_poly_cone(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]))
    assert not isinstance(lc.cone, SimplicialCone)
    assert lc.rays == lc.cone.rays
    for call in (lambda: is_smooth(lc), lambda: exp_sum_smooth(lc),
                 lambda: lattice_sum_numeric(lc, (-1, -1, -1), 1)):
        with pytest.raises(NotSimplicial):
            call()


def test_exp_sum_matches_direct_summation_numerically():
    lc = make_lattice_cone([(1, 0), (0, 1)])
    tg = exp_sum_smooth(lc, trunc=8)
    point = (F(-1), F(-1, 2))
    approx = float(evaluate_truncated(tg, point))
    direct = lattice_sum_numeric(lc, point, 40)
    assert abs(approx - direct) < 1e-6


def laurent_on_a_line(tg, p):
    """The truncated sum on eps = t p, as {power of t: coefficient}."""
    got = Counter()
    for num, factors in [(tg.taylor_tail, ())] + [
            (term.numerator, term.factors) for term in tg.polar_part.terms]:
        scale = math.prod(vec_dot(v, p) ** e for v, e in factors)
        shift = sum(e for _, e in factors)
        for e, c in num.terms.items():
            got[sum(e) - shift] += (
                c * math.prod(x ** a for x, a in zip(p, e)) / scale)
    return got


@SPACES
def test_exp_sum_agrees_with_the_sympy_series(space_of):
    """On eps = t p, the truncated sum matches sympy's power series of
    prod 1/(1 - e^(t <g_i, p>)) in every power of t the truncation keeps.

    The sum is one product per set S of generators kept as poles, with the
    tails of the others cut at total degree ``trunc``.  A set with a tail
    has |S| <= d - 1 poles, so the monomials it drops, of degree > trunc
    over |S| forms, give t^(trunc + 2 - d) and up.  The set of all d poles
    has no tail, and the polynomial part is cut above t^trunc.  So the
    powers t^-d .. t^(trunc + 1 - d) are exact.
    """
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import rs_exp, rs_mul, rs_series_inversion
    from sympy.polys.rings import ring

    series_ring, t = ring("t", QQ)
    rng = random.Random(67)
    cones = [unimodular_rows(rng, 2) for _ in range(3)]
    cones += [unimodular_rows(rng, 3) for _ in range(2)]
    for rows in cones:
        lc = make_lattice_cone(rows)
        d = lc.dim
        gens = lc.cone.generators
        p = (F(0),) * d
        while not all(vec_dot(g, p) for g in gens):
            p = tuple(F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(d))
        for trunc in (d, d + 2):
            n = trunc + 2
            # t / (1 - e^(c t)) = -1 / q with q = (e^(c t) - 1) / t
            want = series_ring((-1) ** d)
            for g in gens:
                c = vec_dot(g, p)
                q = (rs_exp(QQ(c.numerator, c.denominator) * t, t, n + 1)
                     - 1).exquo(t)
                want = rs_mul(want, rs_series_inversion(q, t, n), t, n)
            got = laurent_on_a_line(exp_sum_smooth(lc, trunc, space_of(d)),
                                    p)
            assert all(m >= -d for m, v in got.items() if v)
            for j in range(n):
                c = want.coeff(t ** j)
                assert got[j - d] == F(int(c.numerator), int(c.denominator)), (
                    rows, trunc, j)


def test_lattice_sum_numeric_enumerates_the_monoid():
    line = make_lattice_cone([(1,)])
    got = lattice_sum_numeric(line, (-1,), 40)
    want = sum(math.exp(-n) for n in range(41))
    assert abs(got - want) < 1e-12
    quad = make_lattice_cone([(1, 0), (0, 1)])
    got2 = lattice_sum_numeric(quad, (-1, F(-1, 2)), 8)
    want2 = (sum(math.exp(-a) for a in range(9))
             * sum(math.exp(-b / 2) for b in range(9)))
    assert abs(got2 - want2) < 1e-12
    with pytest.raises(NotSmooth):
        lattice_sum_numeric(make_lattice_cone([(1, 0), (1, 2)]), (-1, -1), 5)


def test_lattice_sum_numeric_refuses_a_point_of_another_length():
    lc = make_lattice_cone([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="^a cone and a point live in "
                                         "ambient dimensions 2 and 3$"):
        lattice_sum_numeric(lc, (-1, -2, -3), 5)


def test_lattice_sum_numeric_of_a_six_dimensional_smooth_cone():
    # a unimodular cone: the box of 41^6 monoid points sums as a product of
    # geometric sums, prod (1 - e^((H+1) x_i)) / (1 - e^(x_i)) at the
    # pairings x_i of the point with the generators
    gens = [tuple(1 if j == i else (1 if j == i + 1 else 0) for j in range(6))
            for i in range(6)]
    lc = make_lattice_cone(gens)
    assert is_smooth(lc)
    point = (F(-1), F(-1, 2), F(-3, 4), F(-1, 3), F(-2), F(-1, 5))
    height = 40
    want = 1.0
    for g in lc.cone.generators:
        x = float(sum(a * b for a, b in zip(g, point)))
        want *= (1 - math.exp((height + 1) * x)) / (1 - math.exp(x))
    got = lattice_sum_numeric(lc, point, height)
    assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# cone integrals

def test_exp_integral_known_values():
    assert germ_equal(exp_integral(make_lattice_cone([(1, 0), (0, 1)])),
                      mero(1, ([1, 0], 1), ([0, 1], 1)))
    assert germ_equal(exp_integral(make_lattice_cone([(1, 0), (1, 1)])),
                      mero(1, ([1, 0], 1), ([1, 1], 1)))
    assert germ_equal(exp_integral(make_lattice_cone([(1, 0), (1, 2)])),
                      mero(2, ([1, 0], 1), ([1, 2], 1)))
    assert germ_equal(exp_integral(make_lattice_cone([(1,)])),
                      mero(-1, ([1], 1), k=1))


def test_exp_integral_scales_with_the_lattice_covolume():
    coarse = make_lattice_cone([(2, 0), (0, 1)], lattice_basis=[(2, 0), (0, 1)])
    assert coarse.rays == (vec([0, 1]), vec([2, 0]))
    assert germ_equal(exp_integral(coarse),
                      mero(F(1, 2), ([1, 0], 1), ([0, 1], 1)))


def test_exp_integral_is_additive_over_subdivisions():
    whole = exp_integral(make_lattice_cone([(1, 0), (0, 1)]))
    parts = mero_add(
        as_mero(exp_integral(make_lattice_cone([(1, 0), (1, 1)]))),
        as_mero(exp_integral(make_lattice_cone([(0, 1), (1, 1)]))))
    assert germ_equal(whole, parts)


def test_exp_integral_triangulates_non_simplicial_cones():
    square = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    whole = exp_integral(make_lattice_cone(square))
    halves = [make_lattice_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1)]),
              make_lattice_cone([(1, 0, 1), (0, -1, 1), (-1, 0, 1)])]
    parts = mero_add(as_mero(exp_integral(halves[0])),
                     as_mero(exp_integral(halves[1])))
    assert germ_equal(whole, parts)


def test_exp_integral_refuses_a_piece_with_dependent_generators(monkeypatch):
    lc = make_lattice_cone(make_poly_cone(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]))
    flat = SimplicialCone((vec([0, 1, 1]), vec([1, 0, 1]), vec([1, 1, 2])))
    monkeypatch.setattr(latticeexp_module, "triangulate_cone",
                        lambda cone: [flat])
    with pytest.raises(NotSimplicial):
        exp_integral(lc)


def test_exp_integral_matches_validated_polar_terms():
    rng = random.Random(68)
    checked = 0
    while checked < 12:
        rays = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(4, 6))]
        lc = make_lattice_cone(make_poly_cone(rays))
        if lc.dim != 3:
            continue
        reference = make_germ_sum([canonicalize_polar(
            None, Polynomial.constant(3, -abs(det(piece.generators))),
            tuple((g, 1) for g in piece.generators))
            for piece in triangulate_cone(lc.cone)], Polynomial.zero(3))
        assert exp_integral(lc) == reference
        checked += 1


# ---------------------------------------------------------------------------
# rank-two smooth subdivision

def test_smooth_subdivide_known_cones():
    got = smooth_subdivide_2d(make_lattice_cone([(1, 0), (1, 2)]))
    assert ray_sets(got) == {(vec([1, 0]), vec([1, 1])),
                             (vec([1, 1]), vec([1, 2]))}
    got2 = smooth_subdivide_2d(make_lattice_cone([(0, 1), (3, -1)]))
    assert ray_sets(got2) == {(vec([0, 1]), vec([1, 0])),
                              (vec([1, 0]), vec([3, -1]))}
    got3 = smooth_subdivide_2d(make_lattice_cone([(1, 1), (1, -1)]))
    assert ray_sets(got3) == {(vec([1, 0]), vec([1, 1])),
                              (vec([1, -1]), vec([1, 0]))}


def test_smooth_subdivide_fixes_smooth_cones():
    lc = make_lattice_cone([(1, 0), (1, 1)])
    assert smooth_subdivide_2d(lc) == [lc]


def test_smooth_subdivide_requires_rank_two():
    with pytest.raises(NotDimensionTwo):
        smooth_subdivide_2d(make_lattice_cone([(1, 2)]))
    with pytest.raises(NotDimensionTwo):
        smooth_subdivide_2d(make_lattice_cone([(1, 0, 0), (0, 1, 0),
                                               (0, 0, 1)]))


def test_smooth_subdivide_random_cones_tile_and_are_smooth():
    rng = random.Random(62)
    count = 0
    while count < 20:
        a = (rng.randint(-7, 7), rng.randint(-7, 7))
        b = (rng.randint(-7, 7), rng.randint(-7, 7))
        if a[0] * b[1] - a[1] * b[0] == 0 or a == (0, 0) or b == (0, 0):
            continue
        count += 1
        lc = make_lattice_cone([a, b])
        pieces = smooth_subdivide_2d(lc)
        assert all(is_smooth(p) for p in pieces)
        assert all(p.lattice_basis == lc.lattice_basis for p in pieces)
        assert is_subdivision([p.cone for p in pieces], lc.cone)


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def hull_walk_chain(p, q):
    """Rays from (1,0) to (p,q) on the bounded edge of the convex hull of the
    nonzero lattice points of that cone (0 <= p < q, gcd(p, q) = 1).

    The hull walk that ``smooth_subdivide_2d`` used before the
    Hirzebruch-Jung chain, kept as the reference: list the primitive lattice
    points of the fundamental parallelogram, sort them by angle and walk the
    lower convex chain, keeping collinear points.
    """
    points = [(x, y) for y in range(q + 1)
              for x in range(-(-p * y // q), p * y // q + 2)
              if (x, y) != (0, 0) and q * x - p * y <= q
              and math.gcd(x, y) == 1]
    points.sort(key=functools.cmp_to_key(lambda a, b: -_cross(a, b)))
    chain = []
    for pt in points:
        while len(chain) >= 2 and _cross(
                (chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]),
                (pt[0] - chain[-1][0], pt[1] - chain[-1][1])) > 0:
            chain.pop()
        chain.append(pt)
    assert chain[0] == (1, 0) and chain[-1] == (p, q)
    return chain


def embedded_cone(p, q, m, basis):
    """The cone (1,0), (p,q) carried by the unimodular m and then into the
    lattice with the given basis rows; returns the lattice cone and the map
    from the (p, q) coordinates to ambient vectors."""
    def embed(v):
        w = (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])
        return vec(w[0] * b0 + w[1] * b1 for b0, b1 in zip(*basis))
    lc = make_lattice_cone([embed((1, 0)), embed((p, q))], basis)
    return lc, embed


def lattice_primitive(basis, v):
    """The primitive vector of the lattice spanned by ``basis`` on the ray
    of ``v``: on a lattice that is not saturated it need not be the
    ambient primitive vector."""
    c = primitive_vector(_lattice_coords(basis, v))
    return tuple(sum(a * b[i] for a, b in zip(c, basis))
                 for i in range(len(v)))


def hull_walk_subdivide(p, q, m, basis):
    lc, embed = embedded_cone(p, q, m, basis)
    if q == 1:
        return lc, [lc]
    rays = [lattice_primitive(lc.lattice_basis, embed(v))
            for v in hull_walk_chain(p, q)]
    if rays[0] != lc.rays[0]:
        rays.reverse()
    return lc, [LatticeCone(SimplicialCone(tuple(sorted(pair))),
                            lc.lattice_basis)
                for pair in zip(rays, rays[1:])]


def random_unimodular(rng):
    m = ((1, 0), (0, 1))
    for _ in range(4):
        s = rng.randint(-2, 2)
        e = rng.choice([((1, s), (0, 1)), ((1, 0), (s, 1)),
                        ((0, 1), (1, 0)), ((-1, 0), (0, 1))])
        m = tuple(tuple(sum(e[i][l] * m[l][j] for l in range(2))
                        for j in range(2)) for i in range(2))
    return m


def test_smooth_subdivide_matches_the_hull_walk():
    rng = random.Random(2)
    standard = [(1, 0), (0, 1)]
    for q in range(1, 41):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            for _ in range(2):
                lc, expected = hull_walk_subdivide(
                    p, q, random_unimodular(rng), standard)
                assert smooth_subdivide_2d(lc) == expected, (p, q)
    for p, q in [(5, 17), (12, 29)]:
        lc, expected = hull_walk_subdivide(
            p, q, random_unimodular(rng), [(2, 0), (1, 3)])
        assert smooth_subdivide_2d(lc) == expected, (p, q)


@pytest.mark.parametrize("basis", [[(2, 0), (0, 1)], [(2, 0), (1, 3)],
                                   [(3, 1), (1, 2)]])
def test_smooth_pieces_on_a_lattice_that_is_not_saturated(basis):
    # pieces carry primitive lattice vectors, not ambient primitive ones,
    # so each is smooth and the filtered residue is the cone's integral
    rng = random.Random(5)
    for _ in range(10):
        q = rng.randint(2, 9)
        lc, _ = embedded_cone(rng.randrange(q), q, random_unimodular(rng),
                              basis)
        assert all(is_smooth(p) for p in smooth_subdivide_2d(lc))
        assert germ_equal(p_res_exp_sum(lc), exp_integral(lc))


def test_smooth_pieces_keep_lattice_vectors_off_the_ambient_primitive():
    # (2, 2) is the primitive lattice vector on the diagonal; the ambient
    # primitive (1, 1) is not in the lattice
    lc = make_lattice_cone([(2, 0), (2, 3)], [(2, 0), (0, 1)])
    assert ray_sets(smooth_subdivide_2d(lc)) == {
        ((2, 0), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (2, 3))}
    assert germ_equal(p_res_exp_sum(lc), exp_integral(lc))


def test_a_refinement_with_smooth_pieces_lists_each_cone_once():
    # the smooth pieces keep the lattice vectors (2, 0) and (2, 2); the
    # refinement's pieces carry primitive ambient generators, so the three
    # smooth pieces and the cone they overlap give four cones, each once
    lc = make_lattice_cone([(2, 0), (2, 3)], [(2, 0), (0, 1)])
    family = [p.cone for p in smooth_subdivide_2d(lc)]
    family.append(make_simplicial_cone([(1, 0), (1, 2)]))
    pieces, index_sets = common_refinement(family)
    assert [p.generators for p in pieces] == [
        ((1, 0), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (2, 3)),
        ((1, 2), (2, 3))]
    assert index_sets == [[0], [1], [2], [0, 1, 2, 3]]
    assert is_properly_positioned(pieces)
    assert all(is_subdivision([pieces[i] for i in mine], member)
               for member, mine in zip(family, index_sets))


def test_smooth_subdivide_of_a_huge_determinant_cone():
    n = 10 ** 12
    lc = make_lattice_cone([(1, 0), (n - 1, n)])
    assert ray_sets(smooth_subdivide_2d(lc)) == {
        (vec([1, 0]), vec([1, 1])), (vec([1, 1]), vec([n - 1, n]))}
    assert germ_equal(p_res_exp_sum(lc), exp_integral(lc))


# ---------------------------------------------------------------------------
# highest-order residues of exponential sums

def test_p_res_exp_sum_equals_the_integral():
    cases = [[(1, 0), (0, 1)], [(1, 0), (1, 2)], [(2, 3), (1, -1)]]
    for rows in cases:
        lc = make_lattice_cone(rows)
        assert germ_equal(p_res_exp_sum(lc), exp_integral(lc))


def test_p_res_exp_sum_on_rays():
    lc = make_lattice_cone([(1, 0)])
    assert germ_equal(p_res_exp_sum(lc), mero(-1, ([1, 0], 1)))
    assert germ_equal(p_res_exp_sum(lc), exp_integral(lc))


def test_p_res_exp_sum_accepts_explicit_pieces():
    lc = make_lattice_cone([(1, 0), (1, 2)])
    got = p_res_exp_sum(lc, smooth_pieces=[[(1, 0), (1, 1)],
                                           [(1, 1), (1, 2)]])
    assert germ_equal(got, mero(2, ([1, 0], 1), ([1, 2], 1)))


def test_p_res_exp_sum_validates_supplied_pieces():
    lc = make_lattice_cone([(1, 0), (1, 2)])
    with pytest.raises(NotSmooth):
        p_res_exp_sum(lc, smooth_pieces=[lc])
    with pytest.raises(NotASubdivision):
        p_res_exp_sum(lc, smooth_pieces=[[(1, 0), (1, 1)]])
    other = make_lattice_cone([(2, 0), (0, 2)], lattice_basis=[(2, 0), (0, 2)])
    with pytest.raises(ValueError):
        p_res_exp_sum(make_lattice_cone([(1, 0), (0, 1)]),
                      smooth_pieces=[other])


def test_p_res_exp_sum_rejects_a_repeated_piece():
    # [lc, lc] covers lc twice; summed, the residue would double
    lc = make_lattice_cone([(1, 0), (0, 1)])
    with pytest.raises(NotASubdivision):
        p_res_exp_sum(lc, smooth_pieces=[lc, lc])
    assert germ_equal(p_res_exp_sum(lc, smooth_pieces=[lc]), exp_integral(lc))


def test_p_res_exp_sum_needs_a_subdivision_in_higher_rank():
    lc = make_lattice_cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    with pytest.raises(NoSmoothSubdivisionAvailable):
        p_res_exp_sum(lc)


# ---------------------------------------------------------------------------
# residues built from each smooth piece's top term

def own_expansion(ts):
    """The expansion that ``exp_sum_smooth`` already gives: its polar terms
    and its tail, with nothing summed or expanded again."""
    return make_expansion([(t.factors, t.numerator)
                           for t in ts.polar_part.terms], ts.taylor_tail)


def re_expanded_residue(space, pieces):
    """The residue of each piece's truncated sum, summed to one fraction and
    expanded again: the reference the direct reading is checked against."""
    terms = []
    for piece in pieces:
        ts = exp_sum_smooth(piece, trunc=2, space=space)
        terms.extend(p_res(space, as_mero(ts)).terms)
    return make_germ_sum(terms, Polynomial.zero(pieces[0].ambient))


def top_terms(pieces):
    """(-1)^d over the generators of every piece."""
    k = pieces[0].ambient
    return make_germ_sum([canonicalize_polar(
        None, Polynomial.constant(k, (-1) ** piece.dim),
        tuple((g, 1) for g in piece.cone.generators)) for piece in pieces],
        Polynomial.zero(k))


def unimodular_rows(rng, k):
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def residue_cases(rng, count_2d=10, count_3d=3):
    """``(lattice cone, smooth pieces, pieces to pass or None)``.

    Random 2D cones of determinant up to 300, subdivided automatically, and
    smooth 3D cones split by the stellar ray g1 + g2 into two smooth pieces
    passed explicitly.
    """
    cases = []
    while len(cases) < count_2d:
        a = (rng.randint(-20, 20), rng.randint(-20, 20))
        b = (rng.randint(-20, 20), rng.randint(-20, 20))
        if not 0 < abs(a[0] * b[1] - a[1] * b[0]) <= 300:
            continue
        lc = make_lattice_cone([a, b])
        cases.append((lc, smooth_subdivide_2d(lc), None))
    for _ in range(count_3d):
        g1, g2, g3 = unimodular_rows(rng, 3)
        mid = [x + y for x, y in zip(g1, g2)]
        rows = [[g1, mid, g3], [mid, g2, g3]]
        lc = make_lattice_cone([g1, g2, g3])
        cases.append((lc, [make_lattice_cone(r) for r in rows], rows))
    return cases


@SPACES
def test_p_res_exp_sum_is_one_top_term_per_smooth_piece(space_of):
    rng = random.Random(63)
    for lc, pieces, explicit in residue_cases(rng):
        space = space_of(lc.ambient)
        got = p_res_exp_sum(lc, explicit)
        assert got == top_terms(pieces)
        assert len(got.terms) == len(pieces)
        # the faces of a piece add no hyperplanes, so re-expanding the
        # residue splits no piece, obtuse ones included
        assert re_expanded_residue(space, pieces) == got
        assert germ_equal(got, exp_integral(lc))


def test_p_res_exp_sum_of_an_obtuse_smooth_cone():
    lc = make_lattice_cone([(1, 0), (3, -1)])
    got = p_res_exp_sum(lc)
    assert got == make_germ_sum([canonicalize_polar(
        None, Polynomial.constant(2, -1), ((vec([-3, 1]), 1),
                                           (vec([1, 0]), 1)))],
        Polynomial.zero(2))
    assert re_expanded_residue(SP, [lc]) == got
    assert germ_equal(got, exp_integral(lc))


def test_p_res_exp_sum_expands_nothing_again(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(expand_module, "laurent_expand",
                        counted("laurent_expand",
                                expand_module.laurent_expand))
    monkeypatch.setattr(latticeexp_module, "exp_sum_smooth",
                        counted("exp_sum_smooth",
                                latticeexp_module.exp_sum_smooth))
    monkeypatch.setattr(latticeexp_module, "polar_split",
                        counted("polar_split",
                                latticeexp_module.polar_split))
    monkeypatch.setattr(expand_module, "decompose",
                        counted("decompose", expand_module.decompose))
    for lc, pieces, explicit in residue_cases(random.Random(64), 4, 2):
        calls.clear()
        p_res_exp_sum(lc, explicit)
        # only the top term of each piece's sum is built, already polar
        assert calls["laurent_expand"] == 0
        assert calls["exp_sum_smooth"] == 0
        assert calls["polar_split"] == 0
        assert calls["decompose"] == 0


@SPACES
def test_p_res_of_a_pieces_own_expansion_ignores_the_truncation(space_of):
    rng = random.Random(65)
    cones = [unimodular_rows(rng, 2) for _ in range(3)]
    cones += [unimodular_rows(rng, 3) for _ in range(2)]
    cones.append([(1, 0), (3, -1)])
    for rows in cones:
        lc = make_lattice_cone(rows)
        space = space_of(lc.ambient)
        got = [p_res(space, own_expansion(exp_sum_smooth(lc, trunc, space)))
               for trunc in range(4)]
        assert all(g == got[0] for g in got)
        assert got[0] == top_terms([lc])
