"""Integral vectors are stored as tuples of Python ints.

Pole forms, cone generators and rays, facet normals, kernel bases and
lattice bases all come out of ``primitive_vector`` or are built from ints.
Mixing in Fractions would give equal values but slower arithmetic: every
``int * Fraction`` goes through ``Fraction.__rmul__``.
"""

from fractions import Fraction

from laurentgerms.cones import (
    common_refinement,
    make_poly_cone,
    make_simplicial_cone,
    triangulate_cone,
)
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    linear_factorization,
    mat_vec,
    nullspace,
    vec_dot,
)
from laurentgerms.expand import laurent_expand
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import decompose, make_mero
from laurentgerms.latticeexp import make_lattice_cone, smooth_subdivide_2d

F = Fraction


def assert_int_vectors(vectors):
    vectors = list(vectors)
    assert vectors
    for v in vectors:
        assert all(type(c) is int for c in v), v


def test_pole_forms_are_int_tuples():
    space = AmbientSpace.standard(3)
    one = Polynomial.constant(3, 1)
    g = make_mero(one, [((F(1, 2), F(1, 2), F(0)), 1),
                        ((F(0), F(2), F(-4)), 2),
                        ((F(1), F(1), F(3)), 1)])
    assert_int_vectors(v for v, _ in g.den)
    parts = decompose(space, g)
    assert_int_vectors(v for t in parts.terms for v, _ in t.factors)
    expansion = laurent_expand(space, g)
    assert_int_vectors(v for dc, _ in expansion.terms for v, _ in dc.factors)
    germ = parse_germ("1/(x1*x2*(x1+x2))", 2)
    assert_int_vectors(v for v, _ in germ.den)
    _, factors = linear_factorization(germ.numerator * Polynomial.linear_form(
        (F(1, 3), F(2, 3))))
    assert_int_vectors(v for v, _ in factors)


def test_cone_geometry_returns_int_tuples():
    a = make_simplicial_cone([(F(1), F(0), F(0)), (F(0), F(1), F(0)),
                              (F(1, 2), F(1, 2), F(1))])
    b = make_simplicial_cone([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    pieces, _ = common_refinement([a, b])
    assert_int_vectors(g for p in pieces for g in p.generators)
    poly = make_poly_cone([(F(1), F(0), F(1)), (F(0), F(1), F(1)),
                           (F(-1), F(0), F(1)), (F(0), F(-1), F(1)),
                           (F(1, 2), F(1, 2), F(1))])
    assert_int_vectors(poly.rays)
    assert_int_vectors(g for s in triangulate_cone(poly) for g in s.generators)
    assert_int_vectors(nullspace(((F(1), F(2), F(3)), (F(1, 2), F(0), F(1)))))


def test_lattice_rays_and_bases_are_int_tuples():
    cases = [
        make_lattice_cone([(F(1), F(0)), (F(2), F(5))]),
        make_lattice_cone([(2, 0), (0, 1)], [(F(2), F(0)), (F(0), F(1))]),
        # rank-deficient: the lattice basis comes from the integer kernel
        make_lattice_cone([(F(1), F(1), F(0)), (F(1), F(3), F(2))]),
    ]
    for lc in cases:
        assert_int_vectors(lc.rays)
        assert_int_vectors(lc.lattice_basis)
    for lc in (cases[0], cases[2]):
        pieces = smooth_subdivide_2d(lc)
        assert len(pieces) > 1
        for piece in pieces:
            assert_int_vectors(piece.rays)
            assert_int_vectors(piece.lattice_basis)


def test_pairings_of_int_vectors_are_ints():
    u, v = (1, -2, 3), (4, 0, -1)
    assert type(vec_dot(u, v)) is int and vec_dot(u, v) == 1
    assert type(vec_dot((), ())) is int
    m = ((1, 2, 0), (0, -1, 5))
    assert_int_vectors([mat_vec(m, v)])
    assert mat_vec(m, v) == (4, -5)
    space = AmbientSpace.standard(3)
    assert type(space.pairing(u, v)) is int and space.pairing(u, v) == 1
    # one Fraction entry makes the pairing a Fraction of the same value
    half = vec_dot((F(1, 2), 1), (2, 3))
    assert type(half) is F and half == 4
