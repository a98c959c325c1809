"""The value types compare, hash, print and freeze by their fields.

Hashes are pinned to the hash of the field tuple, as they always were, so
set and dict order stay the same.
"""

import pytest

from laurentgerms.cones import (
    ConeFamily,
    PolyCone,
    SimplicialCone,
    make_simplicial_cone,
)
from laurentgerms.exact import AmbientSpace, Polynomial, Record
from laurentgerms.expand import DecoratedCone, laurent_expand
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import (
    GermSum,
    MeromorphicGerm,
    PolarGerm,
    decompose,
    make_germ_sum,
    make_mero,
)
from laurentgerms.latticeexp import exp_sum_smooth, make_lattice_cone
from laurentgerms.residues import graded_split

NUM = Polynomial.variable(2, 0)
FACTORS = (((0, 1), 2), ((1, 1), 1))
GRAM = ((2, 1), (1, 1))


@pytest.mark.parametrize("value, fields", [
    (MeromorphicGerm(NUM, FACTORS), (NUM, FACTORS)),
    (PolarGerm(NUM, FACTORS), (NUM, FACTORS)),
    (SimplicialCone(((1, 0), (1, 1))), (((1, 0), (1, 1)),)),
    (AmbientSpace(2, GRAM), (2, GRAM)),
])
def test_hash_is_the_hash_of_the_field_tuple(value, fields):
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)


def test_equal_fields_of_different_classes_are_unequal():
    polar, mero = PolarGerm(NUM, FACTORS), MeromorphicGerm(NUM, FACTORS)
    assert polar != mero and mero != polar
    assert len({polar, mero}) == 2


def test_fields_cannot_be_assigned_or_deleted():
    g = PolarGerm(NUM, FACTORS)
    with pytest.raises(AttributeError):
        g.numerator = Polynomial.constant(2, 1)
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        del g.factors
    assert g == PolarGerm(NUM, FACTORS)


def test_every_field_is_required():
    class Pair(Record):
        first: int
        second: int = 2

    assert Pair(1, 3) == Pair(first=1, second=3)
    with pytest.raises(TypeError):
        Pair(1)


def test_repr_lists_the_fields_unless_the_class_defines_one():
    assert repr(PolyCone(((1, 0), (0, 1)))) == "PolyCone(rays=((1, 0), (0, 1)))"
    total = make_germ_sum([PolarGerm(NUM, FACTORS)], Polynomial.constant(2, 3))
    assert isinstance(total, GermSum)
    assert repr(total) == "GermSum(1 polar terms, poly=3)"
    space = AmbientSpace.standard(2)
    germ = parse_germ("(x1+2*x2)/(x1*(x1+x2)*x2)", 2)
    assert repr(germ) == ("MeromorphicGerm((2*eps2 + eps1) / (eps2) * (eps1) "
                          "* (eps2 + eps1))")
    assert repr(decompose(space, germ).terms[0]) == (
        "PolarGerm(MeromorphicGerm((1) / (eps2) * (eps2 + eps1)))")
    assert repr(laurent_expand(space, germ)) == (
        "FormalExpansion(<(0,1) (1,1)>: 1 (+) <(1,0) (1,1)>: 2)")
    squared = laurent_expand(space, parse_germ("(1+x2)/(x1^2*(x1+x2))", 2))
    assert [repr(cone) for cone, _ in squared.terms] == [
        "<(1,0) (1,1)>", "<(1,0)^2>", "<(1,0)^2 (1,1)>"]
    assert repr(laurent_expand(space, parse_germ("1+x1", 2))) == (
        "FormalExpansion(1 + eps1)")
    assert [repr(key) for key in graded_split(space, germ)] == [
        "GradedComponentKey([1,0; 0,1], p=2)"]
    cone = make_lattice_cone(make_simplicial_cone([(1, 0), (1, 1)]))
    assert repr(exp_sum_smooth(cone, trunc=2)) == (
        "TruncatedGerm(3 polar terms, tail to degree 2)")
    assert repr(NUM) == "Polynomial(eps1)"
    assert repr(make_mero(NUM)) == "MeromorphicGerm(eps1)"
    decorated = DecoratedCone((((0, 1), 1), ((1, 0), 2)))
    assert repr(decorated) == "<(0,1) (1,0)^2>" and decorated.dim == 2
    family = ConeFamily((cone.cone,))
    assert repr(family) == "ConeFamily(cones=(SimplicialCone<1,0; 1,1>,))"
    assert list(family) == [cone.cone]

