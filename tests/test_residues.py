"""Graded components, projections, iterated residues, and the coproduct."""

import math
import random
from fractions import Fraction

import pytest

import laurentgerms.expand as expand
import laurentgerms.germs as germs
import laurentgerms.residues as residues
from laurentgerms.cones import make_simplicial_cone
from laurentgerms.errors import NotInRDelta
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    mat,
    span_key,
    unit_vec,
    vec,
)
from laurentgerms.expand import laurent_expand
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import (
    PolarGerm,
    as_mero,
    decompose,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_mul,
)
from laurentgerms.residues import (
    GradedComponentKey,
    brion_vergne_split,
    coproduct,
    graded_split,
    jk_residue,
    make_arrangement,
    p_order,
    p_res,
    pi_minus,
    pi_plus,
    project_U_p,
)

from conftest import (
    assert_coproducts_agree,
    half_space,
    random_germ,
    residue_maps_reference,
    round_trip_corpus,
    skew_space,
)

F = Fraction
SP = AmbientSpace.standard(2)


def mero(num, *factors, k=2):
    num_poly = (num if isinstance(num, Polynomial)
                else Polynomial.constant(k, num))
    return make_mero(num_poly, tuple((vec(v), e) for v, e in factors))


# ---------------------------------------------------------------------------
# span keys and the graded split

def test_span_key_is_basis_independent():
    a = span_key([vec([1, 0, 1]), vec([0, 1, 1])])
    b = span_key([vec([1, 1, 2]), vec([2, 1, 3]), vec([1, 0, 1])])
    assert a == b
    assert span_key([vec([0, 0, 0])]) == ()


def test_graded_split_groups_by_span_and_order():
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 1)))
    split = graded_split(SP, f)
    full = span_key([vec([1, 0]), vec([0, 1])])
    axis = span_key([vec([1, 0])])
    assert set(split) == {GradedComponentKey(full, 2),
                          GradedComponentKey(axis, 1)}
    assert germ_equal(split[GradedComponentKey(axis, 1)],
                      mero(1, ([1, 0], 1)))


def test_graded_split_reads_one_span_per_pole_form_tuple(monkeypatch):
    # the k = 4 growth germ's canonical expansion: 2,797 terms over 560
    # distinct tuples of pole forms; the split is the one that reads a span
    # per term
    k = 4
    space = AmbientSpace.standard(k)
    x = laurent_expand(space, parse_germ(
        "1/(x1*x2*x3*x4*(x1+x2+x3+x4)*(x1+2*x2+3*x3+4*x4))", k))
    buckets = {}
    for dc, num in x.terms:
        key = (span_key([v for v, _ in dc.factors]),
               sum(e for _, e in dc.factors))
        buckets.setdefault(key, []).append(PolarGerm(num, dc.factors))
    expected = {GradedComponentKey(*key): make_germ_sum(terms,
                                                        Polynomial.zero(k))
                for key, terms in sorted(buckets.items())}
    calls = []

    def counting(vectors):
        calls.append(vectors)
        return span_key(vectors)

    monkeypatch.setattr(residues, "span_key", counting)
    assert graded_split(space, x) == expected
    assert (len(x.terms), len(calls)) == (2797, 560)
    assert len(calls) == len({dc.cone for dc, _ in x.terms})


def test_graded_split_puts_polynomial_at_trivial_key():
    f = mero(Polynomial.constant(2, 3))
    split = graded_split(SP, f)
    assert set(split) == {GradedComponentKey((), 0)}
    assert germ_equal(split[GradedComponentKey((), 0)], f)


def test_graded_split_components_sum_to_input():
    rng = random.Random(50)
    for _ in range(20):
        k = rng.randint(1, 3)
        sp = AmbientSpace.standard(k)
        f = random_germ(rng, k, max_forms=3, degree=2)
        split = graded_split(sp, f)
        total = make_mero(Polynomial.zero(k))
        for part in split.values():
            total = mero_add(total, as_mero(part))
        assert germ_equal(total, f)


def test_graded_split_is_support_independent():
    # an expansion over a strictly finer support yields the same components
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(3))
    fine = [make_simplicial_cone([(1, 0), (1, 1)]),
            make_simplicial_cone([(0, 1), (1, 1)])]
    x = laurent_expand(SP, f, support=fine)
    assert x != laurent_expand(SP, f)
    default = graded_split(SP, f)
    refined = graded_split(SP, x)
    assert set(default) == set(refined)
    for key in default:
        assert germ_equal(default[key], refined[key])
    assert pi_plus(SP, x) == pi_plus(SP, f)
    assert germ_equal(pi_minus(SP, x), pi_minus(SP, f))


# ---------------------------------------------------------------------------
# holomorphic / polar projections

def test_pi_plus_and_pi_minus_split_the_germ():
    f = mero(Polynomial.linear_form(vec([1, 0]))
             + Polynomial.constant(2, 1), ([1, 0], 1))  # (x1+1)/x1
    assert pi_plus(SP, f) == Polynomial.constant(2, 1)
    assert germ_equal(pi_minus(SP, f), mero(1, ([1, 0], 1)))
    total = mero_add(make_mero(pi_plus(SP, f)), as_mero(pi_minus(SP, f)))
    assert germ_equal(total, f)


def test_pi_plus_multiplicative_for_orthogonally_variate_pair():
    f = mero(Polynomial.linear_form(vec([1, 0])) + Polynomial.constant(2, 1),
             ([1, 0], 1))
    g = mero(Polynomial.linear_form(vec([0, 1])) + Polynomial.constant(2, 2),
             ([0, 1], 1))
    prod = mero_mul(f, g)
    lhs = pi_plus(SP, prod)
    rhs = pi_plus(SP, f) * pi_plus(SP, g)
    assert lhs == rhs == Polynomial.constant(2, 1)


def test_pi_plus_fails_without_orthogonal_variateness():
    # (x1/x2)*(x2/x1) = 1, but both factors are purely polar
    f = mero(Polynomial.linear_form(vec([1, 0])), ([0, 1], 1))
    g = mero(Polynomial.linear_form(vec([0, 1])), ([1, 0], 1))
    prod = mero_mul(f, g)
    assert pi_plus(SP, prod) == Polynomial.constant(2, 1)
    assert pi_plus(SP, f) * pi_plus(SP, g) == Polynomial.zero(2)


# ---------------------------------------------------------------------------
# subspace projections and iterated residues

def test_project_U_p_extracts_named_component():
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 2)))
    axis = [vec([1, 0])]
    got = project_U_p(SP, f, axis, 2)
    assert germ_equal(got, mero(1, ([1, 0], 2)))
    assert project_U_p(SP, f, axis, 1).is_zero()
    # the order is compared as given, not truncated to an int
    for p in (2.0, Fraction(2)):
        assert project_U_p(SP, f, axis, p) == got
    assert project_U_p(SP, f, axis, 2.5).is_zero()


def test_project_U_p_and_jk_residue_refuse_rows_of_another_length():
    f = mero(1, ([1, 0], 1), ([0, 1], 1))
    message = "subspace row of length 3, space of dimension 2"
    with pytest.raises(ValueError, match=message):
        project_U_p(SP, f, [vec([1, 0, 0])], 1)
    with pytest.raises(ValueError, match=message):
        jk_residue(SP, f, [vec([1, 0, 0]), vec([0, 1, 0])])
    with pytest.raises(ValueError, match="length 1, space of dimension 2"):
        jk_residue(SP, f, [vec([1])])
    # the caller's rows are checked, not their echelon basis: a ragged pair
    # would reduce to the identity, or fail inside the elimination
    for rows in ([[1, 0], [0, 1, 5]], [[0, 1], [1]]):
        u = [vec(r) for r in rows]
        with pytest.raises(ValueError, match="subspace row of length"):
            project_U_p(SP, f, u, 2)
        with pytest.raises(ValueError, match="subspace row of length"):
            jk_residue(SP, f, u)


def test_project_U_p_and_jk_residue_decompose_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(residues, "decompose", counting)
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 2)))
    project_U_p(SP, f, [vec([1, 0])], 2)
    assert len(calls) == 1
    jk_residue(SP, f)
    assert len(calls) == 2
    assert project_U_p(SP, f, [vec([1, 1])], 1) == make_germ_sum(
        [], Polynomial.zero(2))


def test_the_maps_on_a_germ_build_no_cones(monkeypatch):
    # only p_order and p_res expand; the other seven group the terms of
    # one decompose call
    def refuse(*args, **kwargs):
        raise AssertionError("built cones")

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(expand, "laurent_expand", refuse)
    monkeypatch.setattr(expand, "common_refinement", refuse)
    monkeypatch.setattr(residues, "decompose", counting)
    f = mero_add(mero(1, ([1, 0], 1), ([1, 1], 1)),
                 mero(1, ([0, 1], 1), ([1, -1], 2)),
                 mero(Polynomial.variable(2, 0), ([1, 2], 1)), mero(5))
    cones = {tuple(v for v, _ in t.factors)
             for t in decompose(SP, f).terms}
    assert len(cones) >= 3
    arr = make_arrangement([[1, 0], [1, 1], [0, 1], [1, -1], [1, 2]])
    maps = [graded_split, pi_plus, pi_minus, jk_residue, coproduct,
            lambda sp, g: project_U_p(sp, g, [vec([1, 0]), vec([0, 1])], 2),
            lambda sp, g: brion_vergne_split(sp, g, arr)]
    for n, m in enumerate(maps, 1):
        m(SP, f)
        assert len(calls) == n


def test_p_order_and_p_res_expand_a_germ_once_each(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return laurent_expand(*args, **kwargs)

    monkeypatch.setattr(expand, "laurent_expand", counting)
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 2)))
    assert p_order(SP, f) == 2
    assert len(calls) == 1
    p_res(SP, f)
    assert len(calls) == 2


def test_p_res_finds_its_top_order_without_p_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called p_order")

    monkeypatch.setattr(residues, "p_order", refuse)
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 1], 1)))
    for g in (f, laurent_expand(SP, f)):
        assert germ_equal(p_res(SP, g), mero(1, ([1, 0], 1), ([0, 1], 1)))


def test_brion_vergne_split_sums_a_germ_sum_once(monkeypatch):
    calls = []
    fraction_sum = germs.fraction_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return fraction_sum(*args, **kwargs)

    f = mero_add(mero(1, ([1, 0], 1), ([1, 1], 1)),
                 mero(1, ([0, 1], 1), ([1, -1], 2)), mero(5))
    s = decompose(SP, f)
    arr = make_arrangement([[1, 0], [1, 1], [0, 1], [1, -1]])
    monkeypatch.setattr(germs, "fraction_sum", counting)
    full, rest = brion_vergne_split(SP, s, arr)
    assert len(calls) == 1
    assert germ_equal(mero_add(as_mero(full), as_mero(rest)), f)


def test_the_maps_match_the_reference_on_germs_and_expansions():
    # structurally, on the acceptance-04 corpus under three inner products;
    # project_U_p at every key of the split
    for k, f in round_trip_corpus():
        forms = [v for v, _ in f.den] + [unit_vec(k, i) for i in range(k)]
        arr = make_arrangement(forms)
        for sp in (AmbientSpace.standard(k), skew_space(k), half_space(k)):
            for g in (f, laurent_expand(sp, f)):
                expected = residue_maps_reference(sp, g, arr)
                got = {m.__name__: m(sp, g)
                       for m in (graded_split, pi_plus, pi_minus, jk_residue,
                                 p_order, p_res, coproduct)}
                got["brion_vergne_split"] = brion_vergne_split(sp, g, arr)
                assert got == expected
                for key, component in expected["graded_split"].items():
                    assert project_U_p(sp, g, key.support_span,
                                       key.p_order) == component


def test_the_maps_on_a_germ_agree_with_those_on_its_expansion():
    # a germ's terms come from decompose, the expansion's from subdividing
    # them; subdivision keeps each term's span, order and sum
    split_differs = coproduct_differs = 0
    for k, f in round_trip_corpus():
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            x = laurent_expand(sp, f)
            assert pi_plus(sp, f) == pi_plus(sp, x)
            assert germ_equal(pi_minus(sp, f), pi_minus(sp, x))
            assert germ_equal(jk_residue(sp, f), jk_residue(sp, x))
            gf, gx = graded_split(sp, f), graded_split(sp, x)
            assert gf.keys() == gx.keys()
            assert all(germ_equal(gf[key], gx[key]) for key in gf)
            assert_coproducts_agree(sp, f, x)
            split_differs += gf != gx
            coproduct_differs += coproduct(sp, f) != coproduct(sp, x)
    assert split_differs > 30 and coproduct_differs > 30


def test_jk_residue_defaults_to_full_pole_span():
    f = mero(1, ([1, 0], 1), ([0, 1], 1))
    assert germ_equal(jk_residue(SP, f), f)


def test_jk_residue_reads_its_default_span_off_the_graded_split(monkeypatch):
    # the supports of the graded components span what the reduced germ's
    # forms span: the expansion's terms keep the spans of the decompose
    # terms, and those use every form of the reduced germ
    cases = []
    for k, f in round_trip_corpus():
        for sp in (AmbientSpace.standard(k), skew_space(k)):
            for g in (f, laurent_expand(sp, f)):
                forms = [v for v, _ in as_mero(g).den]
                cases.append((sp, g, jk_residue(sp, g, forms)))

    def refuse(*args, **kwargs):
        raise AssertionError("reduced the germ")

    monkeypatch.setattr(residues, "as_mero", refuse)
    assert all(jk_residue(sp, g) == expected for sp, g, expected in cases)


def test_jk_residue_fixes_spanning_simple_fractions():
    f = mero(1, ([1, 0], 1), ([1, 1], 1))
    u = [vec([1, 0]), vec([0, 1])]
    assert germ_equal(jk_residue(SP, f, u), f)


def test_jk_residue_annihilates_low_dimensional_and_high_order_parts():
    u = [vec([1, 0]), vec([0, 1])]
    assert jk_residue(SP, mero(1, ([1, 0], 2)), u).is_zero()
    assert jk_residue(SP, mero(1, ([1, 0], 1)), u).is_zero()
    # order 3 > dim 2 on the full span
    assert jk_residue(SP, mero(1, ([1, 0], 2), ([0, 1], 1)), u).is_zero()
    axis = [vec([1, 0])]
    assert jk_residue(SP, mero(1, ([1, 0], 2)), axis).is_zero()
    assert germ_equal(jk_residue(SP, mero(1, ([1, 0], 1)), axis),
                      mero(1, ([1, 0], 1)))


def test_jk_residue_is_linear():
    rng = random.Random(51)
    u = [vec([1, 0]), vec([0, 1])]
    for _ in range(10):
        f = random_germ(rng, 2, max_forms=3, degree=2)
        g = random_germ(rng, 2, max_forms=3, degree=2)
        lhs = jk_residue(SP, mero_add(f, g), u)
        rhs = mero_add(as_mero(jk_residue(SP, f, u)),
                       as_mero(jk_residue(SP, g, u)))
        assert germ_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# splitting relative to an arrangement

def arrangement():
    return make_arrangement([vec([1, 0]), vec([0, 1]), vec([1, 1])])


def test_brion_vergne_split_sums_an_expansion_only_for_a_form_outside_delta(
        monkeypatch):
    # the k = 3 growth germ: its refinement adds rays that are not poles
    sp = AmbientSpace.standard(3)
    f = parse_germ("1/(x1*x2*x3*(x1+x2+x3)*(x1+2*x2+3*x3))", 3)
    x = laurent_expand(sp, f)
    terms = sorted({v for dc, _ in x.terms for v, _ in dc.factors})
    poles = [v for v, _ in f.den]
    assert not set(terms) <= set(poles)
    calls = []
    fraction_sum = germs.fraction_sum

    def counting(*args, **kwargs):
        calls.append(args)
        return fraction_sum(*args, **kwargs)

    monkeypatch.setattr(germs, "fraction_sum", counting)
    arr = make_arrangement(terms)
    got = brion_vergne_split(sp, x, arr)
    assert calls == []
    assert got == residue_maps_reference(sp, x, arr)["brion_vergne_split"]
    # the rays outside Δ cancel in the sum: one sum, and no error
    assert brion_vergne_split(sp, x, make_arrangement(poles)) == got
    assert len(calls) == 1
    with pytest.raises(NotInRDelta):
        brion_vergne_split(sp, x, make_arrangement(poles[:-1]))
    assert len(calls) == 2

def test_brion_vergne_split_classifies_by_span():
    arr = arrangement()
    f = mero(1, ([1, 0], 1), ([0, 1], 1))
    gen, rest = brion_vergne_split(SP, f, arr)
    assert germ_equal(gen, f) and rest.is_zero()

    g = mero(1, ([1, 0], 2))
    gen2, rest2 = brion_vergne_split(SP, g, arr)
    assert gen2.is_zero() and germ_equal(rest2, g)

    total = mero_add(f, g)
    gen3, rest3 = brion_vergne_split(SP, total, arr)
    assert germ_equal(gen3, f) and germ_equal(rest3, g)
    assert germ_equal(mero_add(as_mero(gen3), as_mero(rest3)), total)


def test_brion_vergne_rejects_poles_outside_the_arrangement():
    arr = arrangement()
    f = mero(1, ([1, -1], 1))
    with pytest.raises(NotInRDelta):
        brion_vergne_split(SP, f, arr)


def test_make_arrangement_normalizes_and_deduplicates():
    arr = make_arrangement([vec([2, 0]), vec([-1, 0]), vec([0, 1])])
    assert arr.delta == ((F(0), F(1)), (F(1), F(0)))


def test_make_arrangement_refuses_zero_missing_or_mixed_forms():
    with pytest.raises(ValueError, match="zero form"):
        make_arrangement([vec([1, 0]), vec([0, 0])])
    with pytest.raises(ValueError, match="at least one form"):
        make_arrangement([])
    with pytest.raises(ValueError, match="forms of length 2 and 3"):
        make_arrangement([vec([1, 0]), vec([1, 1, 1])])


# ---------------------------------------------------------------------------
# p-order and p-residue

def test_p_order_known_values():
    assert p_order(SP, mero(1, ([1, 0], 1), ([0, 1], 1))) == 2
    assert p_order(SP, mero(1, ([1, 0], 2))) == 2
    assert p_order(SP, make_mero(Polynomial.constant(2, 5))) == 0
    # dependent poles reduce before counting
    f = mero(1, ([1, 0], 1), ([0, 1], 1), ([1, 1], 1))
    assert p_order(SP, f) == 3


def test_p_res_keeps_only_top_order_terms():
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 1)))
    r = p_res(SP, f)
    assert germ_equal(r, mero(1, ([1, 0], 1), ([0, 1], 1)))


def test_p_res_evaluates_numerators_at_zero():
    # (1 + x2)/x1^2: top term numerator 1 + eps2 evaluates to 1 at zero
    num = Polynomial.constant(2, 1) + Polynomial.linear_form(vec([0, 1]))
    f = make_mero(num, ((vec([1, 0]), 2),))
    r = p_res(SP, f)
    assert germ_equal(r, mero(1, ([1, 0], 2)))


def test_p_res_of_dependent_product():
    # 1/(x1 x2 (x1+x2)): order 3, residue is the full reduced sum
    f = mero(1, ([1, 0], 1), ([0, 1], 1), ([1, 1], 1))
    r = p_res(SP, f)
    assert germ_equal(r, f)


def test_p_order_and_p_res_do_not_depend_on_inner_product():
    rng = random.Random(52)
    other = AmbientSpace(2, mat([[2, 1], [1, 1]]))
    for _ in range(15):
        f = random_germ(rng, 2, max_forms=3, degree=2)
        assert p_order(SP, f) == p_order(other, f)
        assert germ_equal(p_res(SP, f), p_res(other, f))


def _growth_germ(k):
    """G_k = 1/(x1...xk (x1+...+xk) (x1+2x2+...+kxk))."""
    poles = "*".join(f"x{i}" for i in range(1, k + 1))
    plain = "+".join(f"x{i}" for i in range(1, k + 1))
    graded = "+".join(f"{i}*x{i}" for i in range(1, k + 1))
    return parse_germ(f"1/({poles}*({plain})*({graded}))", k)


def _braid_germ(k):
    """A_k = 1/prod_{1<=i<=j<=k}(x_i + ... + x_j)."""
    forms = [tuple(int(i <= t <= j) for t in range(k))
             for i in range(k) for j in range(i, k)]
    return make_mero(Polynomial.constant(k, 1), [(v, 1) for v in forms])


def test_p_order_and_p_res_read_the_top_order_terms_of_decompose():
    # the order and residue of a germ are those of its polar terms: the
    # largest order among the terms of decompose (0 when there is none),
    # and the terms of that order with their numerators at zero; whatever
    # support the maps read the terms from
    cases = [(sp, f) for k, f in round_trip_corpus()
             for sp in (AmbientSpace.standard(k), skew_space(k), half_space(k))]
    named = ([_braid_germ(k) for k in (2, 3, 4)]
             + [_growth_germ(k) for k in (3, 4)])
    cases += [(sp, f) for f in named
              for sp in (AmbientSpace.standard(f.nvars), skew_space(f.nvars))]
    for sp, f in cases:
        k = sp.dimension
        terms = decompose(sp, f).terms
        top = max((t.p_order for t in terms), default=0)
        assert p_order(sp, f) == top
        assert germ_equal(p_res(sp, f), make_germ_sum(
            [PolarGerm(Polynomial.constant(k, t.numerator.constant_term()),
                       t.factors) for t in terms if t.p_order == top],
            Polynomial.zero(k)))


def _order_and_residue_on_lines(rng, space, f, lines):
    """Check ``p_order`` and ``p_res`` of f against sympy's ring series of
    f(t w) on random lines t w, w integral and off the poles.

    With P = p_order(f) > 0, a polar term h / L^s gives t^(m - |s|) from
    the degree-m part of h, so f(t w) has order >= -P and its coefficient
    of t^-P is p_res(f) at w; with P = 0, p_res is 0.  The series sees
    only f's numerator and pole factors, never the expansion or Q.
    Returns how many lines had a nonzero residue."""
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import rs_mul, rs_series_inversion
    from sympy.polys.rings import ring

    series_ring, t = ring("t", QQ)
    f = as_mero(f)
    top = p_order(space, f)
    res = p_res(space, f)
    if top == 0:
        assert res == make_germ_sum([], Polynomial.zero(f.nvars))
        return 0
    # w avoids the poles of f and those of the residue's terms, which the
    # refinement's rays bring in; both sides are homogeneous in w, so an
    # integral w loses nothing
    forms = {v for v, _ in f.den} | {
        v for term in res.terms for v, _ in term.factors}
    nonzero = 0
    for _ in range(lines):
        while True:
            w = tuple(rng.randint(-9, 9) for _ in range(f.nvars))
            dots = {v: sum(a * b for a, b in zip(v, w)) for v in forms}
            if all(dots.values()):
                break
        num = series_ring(0)
        for e, c in f.numerator.terms.items():
            c *= math.prod(x ** a for x, a in zip(w, e))
            num += QQ(c.numerator, c.denominator) * t ** sum(e)
        den = series_ring(1)
        for v, power in f.den:
            den *= (dots[v] * t) ** power
        low = min(e for (e,) in den)
        # f(t w) = num / den = t^-low * num * (den / t^low)^-1
        n = low - top + 1
        if n <= 0:
            coeffs = [0]
        else:
            inverse = rs_series_inversion(den.exquo(t ** low), t, n)
            series = rs_mul(num, inverse, t, n)
            coeffs = [series.coeff(t ** j) for j in range(n)]
        assert not any(coeffs[:-1]), (f, w)
        want = Fraction(int(coeffs[-1].numerator), int(coeffs[-1].denominator))
        got = sum(term.numerator.evaluate(w)
                  / math.prod(dots[v] ** p for v, p in term.factors)
                  for term in res.terms)
        assert got == want, (f, w)
        nonzero += want != 0
    return nonzero


def test_p_order_and_p_res_agree_with_sympy_on_lines():
    """On the acceptance-04 corpus under two inner products, and on heavy
    germs where ``germ_equal`` would be slow, the top coefficient of every
    line restriction is the residue at the line's direction."""
    pytest.importorskip("sympy")
    rng = random.Random(3602)
    nonzero = 0
    for k, f in round_trip_corpus():
        for space in (AmbientSpace.standard(k), skew_space(k)):
            nonzero += _order_and_residue_on_lines(rng, space, f, 1)
    # most corpus germs have a residue that is nonzero off a null set, so
    # p_order is pinned exactly on them, not only bounded
    assert nonzero > 150
    for text, k in [
            ("1/(x1*x2*x3*(x1+x2+x3)*(x1+2*x2+3*x3))", 3),
            ("1/(x1*x2*x3*x4*(x1+x2+x3+x4)*(x1+2*x2+3*x3+4*x4))", 4),
            ("1/(x1^6*x2^6*(x1+x2)^6*(x1+2*x2)^6)", 2)]:
        f = parse_germ(text, k)
        for space in (AmbientSpace.standard(k), skew_space(k)):
            assert _order_and_residue_on_lines(rng, space, f, 5) == 5


# ---------------------------------------------------------------------------
# the coproduct

def test_coproduct_terms_multiply_back_to_the_germ():
    rng = random.Random(53)
    for _ in range(20):
        k = rng.randint(1, 3)
        sp = AmbientSpace.standard(k)
        f = random_germ(rng, k, max_forms=3, degree=2)
        terms = coproduct(sp, f)
        total = make_mero(Polynomial.zero(k))
        for t in terms:
            total = mero_add(total, t.product())
        assert germ_equal(total, f)


def test_coproduct_separates_numerator_and_pole_parts():
    num = Polynomial.constant(2, 1) + Polynomial.linear_form(vec([0, 1]))
    f = make_mero(num, ((vec([1, 0]), 1),))  # (1+x2)/x1
    terms = coproduct(SP, f)
    polar_terms = [t for t in terms if t.right is not None]
    poly_terms = [t for t in terms if t.right is None]
    assert len(polar_terms) == 1 and len(poly_terms) == 0
    left, right = polar_terms[0].left, polar_terms[0].right
    assert right.numerator == Polynomial.constant(2, 1)
    assert left == num


def test_coproduct_of_polynomial_has_unit_right_leg():
    p = Polynomial.constant(2, 4)
    terms = coproduct(SP, make_mero(p))
    assert len(terms) == 1
    assert terms[0].right is None and terms[0].left == p
