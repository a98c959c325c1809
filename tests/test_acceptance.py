"""Acceptance gate: one test per shipped guarantee, exact unless stated.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (visible
with ``pytest -s`` or ``-rA``); a failure reads as the matching FAILED line
in the pytest report.
"""

import json
import random
import time
from fractions import Fraction

from laurentgerms.cli import main
from laurentgerms.cones import (
    I_cone,
    make_poly_cone,
    make_simplicial_cone,
    triangulate_cone,
)
from laurentgerms.exact import AmbientSpace, Polynomial, primitive_vector, vec
from laurentgerms.expand import (
    kernel_generators,
    laurent_expand,
    phi,
)
from laurentgerms.germs import (
    PolarGerm,
    as_mero,
    germ_equal,
    make_mero,
    mero_add,
    mero_mul,
)
from laurentgerms.exprio import parse_germ
from laurentgerms.latticeexp import (
    evaluate_truncated,
    exp_integral,
    exp_sum_smooth,
    is_smooth,
    lattice_sum_numeric,
    make_lattice_cone,
    p_res_exp_sum,
    smooth_subdivide_2d,
)
from laurentgerms.residues import (
    brion_vergne_split,
    make_arrangement,
    p_order,
    p_res,
    pi_plus,
)

from conftest import (
    expansion_from_raw,
    random_fraction,
    round_trip_corpus,
    skew_space,
)

F = Fraction
SP = AmbientSpace.standard(2)


def simple_polar(c, *forms, k=2):
    return make_mero(Polynomial.constant(k, c),
                     tuple((vec(v), 1) for v in forms))


def test_criterion_01_partial_fraction_identity(capsys):
    code = main(["verify", "1/(x1*x2)",
                 "1/(x1*(x1+x2)) + 1/(x2*(x1+x2))"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["equal"] is True
    g1 = parse_germ("1/(x1*x2)", 2)
    g2 = parse_germ("1/(x1*(x1+x2)) + 1/(x2*(x1+x2))", 2)
    assert germ_equal(g1, g2)
    print("ACCEPTANCE 1: PASS — 1/(x1*x2) splits across the diagonal, "
          "bit-exact")


def test_criterion_02_expansion_coefficients():
    support = [make_simplicial_cone([(1, 0), (1, 1)]),
               make_simplicial_cone([(0, 1), (1, 1)])]
    f = parse_germ("(x1+2*x2)/(x1*(x1+x2)*x2)", 2)
    x = laurent_expand(SP, f, support=support)
    got = {tuple(dc.factors): num for dc, num in x.terms}
    assert got == {
        ((vec([1, 0]), 1), (vec([1, 1]), 1)): Polynomial.constant(2, 2),
        ((vec([0, 1]), 1), (vec([1, 1]), 1)): Polynomial.constant(2, 1),
    }
    assert x.polynomial_part == Polynomial.zero(2)
    print("ACCEPTANCE 2: PASS — coefficients 2 and 1 on the two supporting "
          "cones, zero polynomial part")


def test_criterion_03_exponential_sum_example():
    lc = make_lattice_cone([(1, 0), (1, 1)])
    expected = simple_polar(1, (1, 0), (1, 1))
    pres = p_res_exp_sum(lc)
    integral = exp_integral(lc)
    assert p_order(SP, exp_sum_smooth(lc, trunc=8)) == 2
    assert germ_equal(pres, expected)
    assert germ_equal(integral, expected)
    print("ACCEPTANCE 3: PASS — p-order 2 and p-res = integral = "
          "1/(eps1*(eps1+eps2)), exact")


def test_criterion_04_expansion_round_trip():
    start = time.monotonic()
    for k, f in round_trip_corpus():
        sp = AmbientSpace.standard(k)
        assert germ_equal(phi(laurent_expand(sp, f)), f)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"ACCEPTANCE 4: PASS — 200 random germs round-trip exactly "
          f"in {elapsed:.1f}s")


def test_criterion_05_kernel_elements_vanish():
    rng = random.Random(5)
    for _ in range(50):
        v1 = (rng.randint(1, 3), rng.randint(-3, 3))
        v2 = (rng.randint(-3, 3), rng.randint(1, 3))
        if v1[0] * v2[1] - v1[1] * v2[0] == 0:
            v2 = (v2[0] + 1, v2[1])
        c = make_simplicial_cone([v1, v2])
        g1, g2 = c.generators
        sample = PolarGerm(
            Polynomial.constant(2, random_fraction(rng)),
            ((g1, rng.randint(1, 2)), (g2, rng.randint(1, 2))))
        mid = primitive_vector(tuple(a + b for a, b in zip(g1, g2)))
        subdivision = [make_simplicial_cone([g1, mid]),
                       make_simplicial_cone([mid, g2])]
        type_one, type_two = kernel_generators(sample, subdivision)
        assert phi(type_one).is_zero()
        assert phi(type_two).is_zero()
    print("ACCEPTANCE 5: PASS — 50 sign-flip and 50 re-supporting kernel "
          "elements all map to zero")


def test_criterion_06_conical_sums_are_never_polynomial():
    rng = random.Random(6)
    for trial in range(50):
        # rays in the open half-plane x > 0, sorted by slope: consecutive
        # sectors form a properly positioned family with no line in the union
        rays = set()
        while len(rays) < 3:
            rays.add(primitive_vector(vec([rng.randint(1, 3),
                                           rng.randint(-3, 3)])))
        ordered = sorted(rays, key=lambda v: v[1] / v[0])
        if trial % 2:
            items = [((v, 1),) for v in ordered]  # family of rays
        else:
            items = [((a, 1), (b, 1)) for a, b in zip(ordered, ordered[1:])]
        terms = []
        for factors in items:
            c = F(0)
            while c == 0:
                c = random_fraction(rng)
            terms.append((factors, Polynomial.constant(2, c)))
        x = expansion_from_raw(SP, terms, Polynomial.zero(2))
        assert not phi(x).is_polynomial()
    print("ACCEPTANCE 6: PASS — 50 properly positioned conical sums with "
          "nonzero coefficients are never polynomial")


def test_criterion_07_expansion_is_structurally_deterministic():
    rng = random.Random(7)
    pieces = [parse_germ(s, 2) for s in (
        "1/(x1*x2)", "1/(x1*(x1+x2))", "x2/(x1*(2*x1+x2)^2)",
        "(x1-x2)/((x1+x2)*x2)", "3+x1^2")]
    # three sectors plus their boundary rays, so single-pole terms of the
    # decomposition have somewhere to live
    support = [make_simplicial_cone(g) for g in
               ([(1, 0), (2, 1)], [(2, 1), (1, 1)], [(1, 1), (0, 1)],
                [(1, 0)], [(2, 1)], [(1, 1)], [(0, 1)])]
    baseline = None
    for _ in range(5):
        shuffled = list(pieces)
        rng.shuffle(shuffled)
        total = make_mero(Polynomial.zero(2))
        for p in shuffled:
            total = mero_add(total, p)
        fam = list(support)
        rng.shuffle(fam)
        x = laurent_expand(SP, total, support=fam)
        if baseline is None:
            baseline = x
        assert x == baseline
    print("ACCEPTANCE 7: PASS — five shuffled re-expansions are "
          "structurally identical")


def test_criterion_08_holomorphic_projection_multiplicativity():
    f = parse_germ("(1+x1)/x1", 2)
    g = parse_germ("(2+x2)/x2", 2)
    one = Polynomial.constant(2, 1)
    assert pi_plus(SP, mero_mul(f, g)) == one
    assert pi_plus(SP, f) * pi_plus(SP, g) == one

    rng = random.Random(8)
    for _ in range(50):
        a = make_mero(
            Polynomial(2, {(j, 0): random_fraction(rng) for j in range(3)}),
            ((vec([1, 0]), rng.randint(1, 2)),))
        b = make_mero(
            Polynomial(2, {(0, j): random_fraction(rng) for j in range(3)}),
            ((vec([0, 1]), rng.randint(1, 2)),))
        lhs = pi_plus(SP, mero_mul(a, b))
        rhs = pi_plus(SP, a) * pi_plus(SP, b)
        assert lhs == rhs

    swap1 = parse_germ("x1/x2", 2)
    swap2 = parse_germ("x2/x1", 2)
    assert pi_plus(SP, swap1) == Polynomial.zero(2)
    assert pi_plus(SP, swap2) == Polynomial.zero(2)
    assert pi_plus(SP, mero_mul(swap1, swap2)) == one
    print("ACCEPTANCE 8: PASS — multiplicative on the witness and 50 "
          "orthogonally variate pairs; fails as predicted without "
          "orthogonal variateness")


def test_criterion_09_residues_ignore_the_inner_product():
    for k, f in round_trip_corpus():
        identity = AmbientSpace.standard(k)
        skew = skew_space(k)
        assert p_order(identity, f) == p_order(skew, f)
        assert germ_equal(p_res(identity, f), p_res(skew, f))
    print("ACCEPTANCE 9: PASS — p-order and p-res agree under the identity "
          "and a skew inner product on all 200 corpus germs")


def test_criterion_10_residue_matches_integral_on_random_cones():
    rng = random.Random(10)
    done = 0
    while done < 20:
        a = (rng.randint(-7, 7), rng.randint(-7, 7))
        b = (rng.randint(-7, 7), rng.randint(-7, 7))
        if a[0] * b[1] - a[1] * b[0] == 0 or a == (0, 0) or b == (0, 0):
            continue
        done += 1
        lc = make_lattice_cone([a, b])
        direct = p_res_exp_sum(lc)
        assert germ_equal(direct, exp_integral(lc))
        g1, g2 = lc.rays
        mid = primitive_vector(tuple(x + y for x, y in zip(g1, g2)))
        halves = (smooth_subdivide_2d(make_lattice_cone([g1, mid]))
                  + smooth_subdivide_2d(make_lattice_cone([mid, g2])))
        via_split = p_res_exp_sum(lc, smooth_pieces=halves)
        assert germ_equal(direct, via_split)
    print("ACCEPTANCE 10: PASS — 20 random lattice cones: residue equals "
          "integral, subdivision-independent")


def test_criterion_11_truncated_sums_match_direct_summation():
    cones = [[(1, 0), (0, 1)], [(0, 1), (1, -1)], [(1, 0), (1, -1)],
             [(1, -1), (2, -3)], [(1, -1), (3, -4)]]
    points = [(F(-1), F(-1, 2)), (F(-11, 10), F(-11, 20)),
              (F(-6, 5), F(-3, 5))]
    worst = 0.0
    for rows in cones:
        lc = make_lattice_cone(rows)
        assert is_smooth(lc)
        tg = exp_sum_smooth(lc, trunc=8)
        for pt in points:
            assert all(sum(x * e for x, e in zip(g, pt)) < 0
                       for g in lc.rays)
            residual = abs(float(evaluate_truncated(tg, pt))
                           - lattice_sum_numeric(lc, pt, 40))
            worst = max(worst, residual)
            assert residual < 1e-6
    print(f"ACCEPTANCE 11: PASS — 5 smooth cones at 3 negative-pairing "
          f"points, worst residual {worst:.2e} < 1e-6")


def test_criterion_12_arrangement_split_classification():
    arr = make_arrangement([vec([1, 0]), vec([0, 1]), vec([1, 1])])
    f = simple_polar(1, (1, 0), (0, 1))
    g = make_mero(Polynomial.constant(2, 1), ((vec([1, 0]), 2),))
    for germ, in_gen in ((f, True), (g, False), (mero_add(f, g), None)):
        gen, rest = brion_vergne_split(SP, germ, arr)
        assert germ_equal(mero_add(as_mero(gen), as_mero(rest)), germ)
        if in_gen is True:
            assert germ_equal(gen, germ) and rest.is_zero()
        elif in_gen is False:
            assert gen.is_zero() and germ_equal(rest, germ)
        else:
            assert germ_equal(gen, f) and germ_equal(rest, g)
    print("ACCEPTANCE 12: PASS — generating/non-generating split matches "
          "the span classification and reassembles")


def test_criterion_13_cone_valuation_is_triangulation_independent():
    rng = random.Random(13)
    done = 0
    while done < 10:
        rays = {(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(4, 6))}
        try:
            cone = make_poly_cone(sorted(rays))
        except Exception:
            continue
        if len(cone.rays) < 4:
            continue
        done += 1
        t1 = triangulate_cone(cone)
        t2 = triangulate_cone(cone, reverse_order=True)
        assert germ_equal(I_cone(cone, t1), I_cone(cone, t2))
    print("ACCEPTANCE 13: PASS — 10 random 3D cones: valuation agrees "
          "across two pulling triangulations")
