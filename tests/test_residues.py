"""Graded components, projections, iterated residues, and the coproduct."""

import random
from fractions import Fraction

import pytest

import laurentgerms.residues as residues
from laurentgerms.cones import make_simplicial_cone
from laurentgerms.errors import NotInRDelta
from laurentgerms.exact import AmbientSpace, Polynomial, mat, span_key, vec
from laurentgerms.expand import laurent_expand
from laurentgerms.germs import (
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

from conftest import random_germ

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


def test_project_U_p_and_jk_residue_expand_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return laurent_expand(*args, **kwargs)

    monkeypatch.setattr(residues, "laurent_expand", counting)
    f = mero_add(mero(1, ([1, 0], 1), ([0, 1], 1)), mero(1, ([1, 0], 2)))
    project_U_p(SP, f, [vec([1, 0])], 2)
    assert len(calls) == 1
    jk_residue(SP, f)
    assert len(calls) == 2
    assert project_U_p(SP, f, [vec([1, 1])], 1) == make_germ_sum(
        [], Polynomial.zero(2))


def test_jk_residue_defaults_to_full_pole_span():
    f = mero(1, ([1, 0], 1), ([0, 1], 1))
    assert germ_equal(jk_residue(SP, f), f)


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
