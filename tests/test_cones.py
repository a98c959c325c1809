"""Cone geometry: containment, faces, refinement, subdivisions, the I map."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import pytest

import laurentgerms.cones as cones_module
from laurentgerms.cones import (
    _hull,
    _meet,
    _neg,
    _pair_contains_line,
    _pieces_by_cone,
    _poly_piece,
    _pull_triangulate,
    _simplicial_piece,
    ConeFamily,
    I_cone,
    I_simplicial,
    PolyCone,
    SimplicialCone,
    common_refinement,
    cone_contains,
    cones_meet_along_face,
    is_properly_positioned,
    is_subdivision,
    make_poly_cone,
    make_simplicial_cone,
    positioning_witness,
    signed_cone_term,
    triangulate_cone,
    union_contains_line,
)
from laurentgerms.errors import (
    NotASubdivision,
    NotSimplicial,
    NotStrictlyConvexUnion,
)
from laurentgerms.exact import (
    AmbientSpace,
    Polynomial,
    Vec,
    det,
    mat_rank,
    max_minor_abs_sum,
    nullspace,
    primitive_vector,
    vec,
    vec_dot,
    vec_is_zero,
)
from laurentgerms.expand import laurent_expand, phi
from laurentgerms.exprio import parse_germ
from laurentgerms.germs import (
    canonicalize_polar,
    decompose,
    germ_equal,
    make_germ_sum,
    make_mero,
    mero_add,
)
from laurentgerms.latticeexp import (
    _lattice_coords,
    exp_integral,
    make_lattice_cone,
)

from conftest import (
    common_face_certificate,
    common_refinement_eager,
    common_refinement_reference,
    extreme_ray_certificate,
    facet_certificate,
    is_subdivision_reference,
    pieces_meet_along_face_reference,
    positioning_witness_reference,
    random_pseudo_positive_cone,
    random_vector,
    round_trip_corpus,
    tiling_certificate,
)
from test_digest import _spaces
from test_latticeexp import unimodular_rows

F = Fraction


def cone(*gens) -> SimplicialCone:
    return make_simplicial_cone(gens)


def random_point_in(rng, c: SimplicialCone):
    coeffs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in c.generators]
    pt = [F(0)] * len(c.generators[0])
    for a, g in zip(coeffs, c.generators):
        for i, x in enumerate(g):
            pt[i] += a * x
    return tuple(pt)


# ---------------------------------------------------------------------------
# construction and membership

def test_generators_are_primitivized_and_sorted():
    c = cone((2, 2), (1, 0))
    assert c.generators == ((F(1), F(0)), (F(1), F(1)))


def test_dependent_generators_rejected():
    with pytest.raises(NotSimplicial):
        cone((1, 0), (2, 0))
    with pytest.raises(NotSimplicial):
        cone((1, 0), (0, 1), (1, 1))
    with pytest.raises(NotSimplicial):
        cone((0, 0))


def test_cone_without_generators_rejected():
    with pytest.raises(NotSimplicial):
        make_simplicial_cone([])


def test_containment_of_combinations_and_outside_points():
    rng = random.Random(30)
    c = cone((1, 0), (1, 2))
    for _ in range(40):
        assert cone_contains(c, random_point_in(rng, c))
    assert not cone_contains(c, (-1, 0))
    assert not cone_contains(c, (0, 1))   # above the steep ray
    assert not cone_contains(c, (1, 3))
    assert cone_contains(c, (1, 1))
    assert cone_contains(c, (0, 0))


def test_containment_in_lower_dimensional_cone():
    c = cone((1, 1, 0))
    assert cone_contains(c, (3, 3, 0))
    assert not cone_contains(c, (1, 1, 1))
    assert not cone_contains(c, (-1, -1, 0))


def test_containment_refuses_a_point_of_another_length():
    with pytest.raises(ValueError, match="dimensions 2 and 3$"):
        cone_contains(cone((1, 0), (1, 2)), (1, 1, 0))
    with pytest.raises(ValueError, match="dimensions 3 and 2$"):
        cone_contains(cone((1, 1, 0)), (1, 1))


def test_poly_cone_extreme_rays_drop_interior_generators():
    pc = make_poly_cone([(1, 0), (1, 1), (0, 1)])
    assert pc.rays == ((F(0), F(1)), (F(1), F(0)))
    # zero rays are dropped, so zero rays alone leave no cone
    with pytest.raises(ValueError, match="at least one nonzero ray"):
        make_poly_cone([(0, 0), (0, 0)])


def test_poly_cone_rejects_halfplane():
    with pytest.raises(NotStrictlyConvexUnion):
        make_poly_cone([(1, 0), (-1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# the hull a pointed cone keeps

def _hull_cases(seed):
    """Ray sets of pointed cones: random ones in 2D to 4D, of full and of
    lower dimension, some with rays that are not extreme, and the parabola
    cones of the benchmark with 4, 5 and 6 rays."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 30:
        rays = _random_ray_set(rng)
        if _poly_cone_or_line(rays) is not None:
            cases.append(rays)
    extreme = [make_poly_cone(r).rays for r in cases]
    assert any(mat_rank(e) < len(e[0]) for e in extreme)
    assert any(len(e) < len({primitive_vector(vec(x)) for x in r if any(x)})
               for e, r in zip(extreme, cases))
    return cases + [_parabola_cone(rng, n) for n in (4, 5, 6, 4, 5, 6)]


def test_the_kept_hull_passes_the_facet_certificate():
    # sympy decides the facets independently of the package; the hull
    # make_poly_cone keeps and the one a directly built cone finds are
    # _poly_piece of the extreme rays: the same normals, in the same
    # order, and equalities that span the same space
    pytest.importorskip("sympy")
    for rays in _hull_cases(5201):
        made = make_poly_cone(rays)
        direct = PolyCone(made.rays)
        fresh = _poly_piece(made.rays)
        for hull in (_hull(made), _hull(direct)):
            assert facet_certificate(made.rays, hull.eqs, hull.ineqs)
            assert (hull.ineqs, hull.rays, hull.dim) == (
                fresh.ineqs, fresh.rays, fresh.dim)
            assert mat_rank(hull.eqs) == mat_rank(fresh.eqs) == mat_rank(
                hull.eqs + fresh.eqs)
        normals = _hull(made).ineqs
        assert not facet_certificate(made.rays, (), normals[1:])
        assert not facet_certificate(
            made.rays, (), normals + (tuple(map(sum, zip(*normals))),))


def test_a_cone_reads_its_dimension_from_its_hull():
    # PolyCone.dim is the rank of its rays, which sympy decides apart from
    # the package, on cones of full and of lower dimension; a cone built
    # directly finds its hull for it, once, and keeps it
    sympy = pytest.importorskip("sympy")
    dims = Counter()
    for rays in _hull_cases(5303)[:30]:
        made = make_poly_cone(rays)
        rank = sympy.Matrix(made.rays).rank()
        assert made.dim == rank
        direct = PolyCone(made.rays)
        assert direct._piece is None
        assert direct.dim == rank
        kept = direct._piece
        assert kept is not None and _hull(direct) is kept
        dims[rank == len(made.rays[0])] += 1
    assert dims[True] and dims[False]


def test_a_simplicial_cone_is_its_own_hull(monkeypatch):
    # is_subdivision reads a simplicial target's hull off its generators:
    # _poly_piece's equalities, rays and dimension, and its facet normals
    # in another order, with no pivot elimination and no dual cut
    cones = [make_simplicial_cone(g) for g in (
        [(1, 0, 0), (1, 2, 0), (0, 1, 3)], [(1, 1, 0), (0, 1, 1)], [(2, -1)])]
    fresh = [_poly_piece(c.rays) for c in cones]
    monkeypatch.setattr(cones_module, "_poly_piece",
                        lambda rays: pytest.fail("a simplicial hull ran _poly_piece"))
    for c, f in zip(cones, fresh):
        hull = _hull(c)
        assert hull == _simplicial_piece(c.generators)
        assert (hull.eqs, hull.rays, hull.dim) == (f.eqs, f.rays, f.dim)
        assert sorted(hull.ineqs) == list(f.ineqs)
        w = tuple(map(sum, zip(*c.generators)))
        star = [make_simplicial_cone([w if h == g else h for h in c.generators])
                for g in c.generators]
        assert is_subdivision(star, c) and is_subdivision([c], c)
        assert not is_subdivision(star[1:], c)


def test_a_pointed_cone_derives_its_hull_once(monkeypatch):
    # one _poly_piece, and the one _meet it makes, from make_poly_cone to
    # I_cone: each consumer below derived a hull of its own (eight in all)
    # before the cone kept the one it was built from
    poly_piece, meet = cones_module._poly_piece, cones_module._meet
    depth, counts = [0], Counter()

    def counted_poly_piece(rays):
        counts["hulls"] += 1
        depth[0] += 1
        try:
            return poly_piece(rays)
        finally:
            depth[0] -= 1

    def counted_meet(*args):
        counts["meets"] += depth[0] > 0
        return meet(*args)

    monkeypatch.setattr(cones_module, "_poly_piece", counted_poly_piece)
    monkeypatch.setattr(cones_module, "_meet", counted_meet)
    pc = make_poly_cone(_parabola_cone(random.Random(5202), 5))
    lc = make_lattice_cone(pc)
    assert lc.cone is pc
    exp_integral(lc)
    first, second = triangulate_cone(pc), triangulate_cone(pc, True)
    assert is_subdivision(first, pc) and is_subdivision(second, pc)
    assert germ_equal(I_cone(pc), I_cone(pc, second))
    assert counts == Counter(hulls=1, meets=1)
    # a cone built directly finds its hull on first use, once
    direct = PolyCone(pc.rays)
    assert triangulate_cone(direct) == first
    assert triangulate_cone(direct, True) == second
    assert counts == Counter(hulls=2, meets=2)


def test_three_ways_to_build_a_cone_give_the_same_outputs():
    # make_poly_cone, a directly built PolyCone and the path that derives
    # the hull afresh (_pull_triangulate of _poly_piece) give structurally
    # equal triangulations, integrals, valuations and subdivision checks;
    # the kept hull is no field, so == and hash ignore it
    for rays in _hull_cases(5203):
        made = make_poly_cone(rays)
        direct = PolyCone(made.rays)
        assert made == direct and hash(made) == hash(direct)
        assert repr(made) == repr(direct) == f"PolyCone(rays={made.rays!r})"
        fresh = _poly_piece(made.rays)
        basis = make_lattice_cone(direct).lattice_basis
        zero = Polynomial.zero(len(made.rays[0]))
        tri = [SimplicialCone(s) for s in _pull_triangulate(fresh)]
        integral = make_germ_sum([signed_cone_term(s.generators, abs(det(
            [_lattice_coords(basis, g) for g in s.generators]))) for s in tri],
            zero)
        for pc in (made, direct):
            assert exp_integral(make_lattice_cone(pc)) == integral
            assert I_cone(pc) == make_germ_sum([I_simplicial(s) for s in tri], zero)
        for reverse in (False, True):
            tri = [SimplicialCone(s) for s in _pull_triangulate(fresh, reverse)]
            valuation = make_germ_sum([I_simplicial(s) for s in tri], zero)
            assert [is_subdivision_reference(t, PolyCone(made.rays))
                    for t in (tri, tri[1:])] == [True, False]
            for pc in (made, direct):
                assert triangulate_cone(pc, reverse) == tri
                assert I_cone(pc, tri) == valuation
                assert is_subdivision(tri, pc)
                assert not is_subdivision(tri[1:], pc)
        # both now hold a hull, and a fresh cone holds none
        assert len({made, direct, PolyCone(made.rays)}) == 1


# ---------------------------------------------------------------------------
# pairwise position

def test_cones_meeting_along_shared_edge():
    a = cone((1, 0), (1, 1))
    b = cone((0, 1), (1, 1))
    assert cones_meet_along_face(a, b)


def test_overlapping_cones_do_not_meet_along_face():
    a = cone((1, 0), (0, 1))
    b = cone((1, 1), (1, -1))
    assert not cones_meet_along_face(a, b)


def test_cone_meets_its_own_face():
    a = cone((1, 0), (0, 1))
    b = cone((1, 0))
    assert cones_meet_along_face(a, b)


def test_union_contains_line_detection():
    assert union_contains_line([]) is False
    assert union_contains_line([cone((1, 0)), cone((-1, 0))])
    assert union_contains_line([cone((1, 0), (0, 1)), cone((-1, -1))])
    assert not union_contains_line([cone((1, 0), (0, 1)),
                                    cone((0, 1), (-1, 1))])
    # pseudo-positive generators never make a line: the pairwise test
    # agrees with the answer union_contains_line gives such families at once
    rng = random.Random(12)
    for _ in range(40):
        k = rng.randint(1, 3)
        family = [random_pseudo_positive_cone(rng, k, rng.randint(1, k))
                  for _ in range(rng.randint(2, 4))]
        assert union_contains_line(family) is False
        pieces = [_simplicial_piece(c.generators) for c in family]
        assert not any(_pair_contains_line(a, b)
                       for a, b in combinations(pieces, 2))


def test_proper_positioning():
    assert is_properly_positioned([cone((1, 0), (1, 1)), cone((0, 1), (1, 1))])
    assert not is_properly_positioned([cone((1, 0), (0, 1)),
                                       cone((1, 1), (1, -1))])
    assert not is_properly_positioned([cone((1, 0)), cone((-1, 0))])


def test_positioning_witness_names_the_first_offending_pair():
    good = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1))]
    assert positioning_witness(good) is None
    assert positioning_witness([]) is None
    overlap = [cone((1, 0), (0, 1)), cone((1, 0), (1, 1)),
               cone((0, 1), (-1, 1))]
    assert positioning_witness(overlap) == (
        0, 1, "intersection is not a common face")
    # a line anywhere is reported before any bad intersection
    line = overlap + [cone((-1, -1))]
    assert positioning_witness(line) == (0, 3, "union contains a line")
    assert not is_properly_positioned(line)


# ---------------------------------------------------------------------------
# triangulation and refinement

def test_triangulate_cone_over_square():
    pc = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    pieces = triangulate_cone(pc)
    assert len(pieces) == 2
    assert is_subdivision(pieces, pc)


def test_triangulate_cone_pulls_the_least_or_the_greatest_ray():
    pc = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1),
                         (1, -1, 1)])
    assert triangulate_cone(pc) == [
        cone((-1, -1, 1), (-1, 1, 1), (0, 1, 1)),
        cone((-1, -1, 1), (0, 1, 1), (1, 0, 1)),
        cone((-1, -1, 1), (1, -1, 1), (1, 0, 1))]
    assert triangulate_cone(pc, reverse_order=True) == [
        cone((-1, -1, 1), (-1, 1, 1), (1, 0, 1)),
        cone((-1, -1, 1), (1, -1, 1), (1, 0, 1)),
        cone((-1, 1, 1), (0, 1, 1), (1, 0, 1))]


def test_triangulate_simplicial_cone_is_identity():
    c = cone((1, 0), (1, 2))
    assert triangulate_cone(c) == [c]


def test_common_refinement_quadrant_and_halfquadrant():
    quadrant = cone((1, 0), (0, 1))
    lower = cone((1, 0), (1, 1))
    pieces, index_sets = common_refinement([quadrant, lower])
    assert [p.generators for p in pieces] == [
        (((F(0), F(1)), (F(1), F(1)))),
        (((F(1), F(0)), (F(1), F(1)))),
    ]
    # index_sets[i] lists the pieces whose union is input cone i
    assert [sorted(s) for s in index_sets] == [[0, 1], [1]]


def test_common_refinement_pieces_subdivide_each_input():
    rng = random.Random(31)
    for _ in range(10):
        cones = []
        while len(cones) < 2:
            try:
                c = cone(tuple(rng.randint(0, 3) for _ in range(2)),
                         tuple(rng.randint(0, 3) for _ in range(2)))
            except NotSimplicial:
                continue
            cones.append(c)
        try:
            pieces, index_sets = common_refinement(cones)
        except NotStrictlyConvexUnion:
            continue
        for i, c in enumerate(cones):
            mine = [pieces[j] for j in index_sets[i]]
            assert is_subdivision(mine, c)


def _random_family(rng):
    k = rng.choice((2, 3))
    family = []
    for _ in range(rng.randint(1, 4)):
        gens = [[rng.randint(-3, 3) for _ in range(k)]
                for _ in range(rng.randint(1, k))]
        try:
            family.append(make_simplicial_cone(gens))
        except NotSimplicial:
            pass
    return family


def _refinement_record(family):
    try:
        pieces, index_sets = common_refinement(family)
    except NotStrictlyConvexUnion:
        return "line"
    return ([tuple(tuple(str(x) for x in g) for g in p.generators)
             for p in pieces], index_sets, positioning_witness(family))


def test_refinement_and_witness_are_pinned_on_random_families():
    # digest of the records of 148 families, re-taken when faces of other
    # members stopped adding hyperplanes (1 record moved, 3 pieces to 2);
    # the first was taken from the Fraction implementation of the slicing
    rng = random.Random(43)
    digest = hashlib.sha256()
    count = 0
    for _ in range(150):
        family = _random_family(rng)
        if family:
            digest.update(repr(_refinement_record(family)).encode())
            count += 1
    assert count == 148
    assert digest.hexdigest() == (
        "ed35fd2c2e314b8a826e32044297c950f4c0abefaf8143dd0e434fda7b3247da")


def _random_family_4d(rng):
    # member dimensions 1..4; a third of the families draw entries from
    # [-2, 3], so some generators are not pseudo-positive and the line test
    # runs
    lo = rng.choice((0, 0, -2))
    family = []
    for _ in range(rng.randint(1, 4)):
        gens = [[rng.randint(lo, 3) for _ in range(4)]
                for _ in range(rng.randint(1, 4))]
        try:
            family.append(make_simplicial_cone(gens))
        except NotSimplicial:
            pass
    return family


def test_refinement_and_witness_are_pinned_on_random_4d_families():
    # digest of the records of 147 families in four dimensions (10 of them
    # hold a line), re-taken when faces of other members stopped adding
    # hyperplanes (1 record moved, 85 pieces to 32); the first was taken
    # from the slicing that tested every candidate ray and every
    # inequality by rank
    rng = random.Random(44)
    digest = hashlib.sha256()
    count = lines = 0
    for _ in range(150):
        family = _random_family_4d(rng)
        if family:
            record = _refinement_record(family)
            digest.update(repr(record).encode())
            count += 1
            lines += record == "line"
    assert (count, lines) == (147, 10)
    assert digest.hexdigest() == (
        "969f5b8711b183819cd6919c9dcda21fc3a3d0bc6882a873ef63af4b8b621686")


def _growth_cones(k):
    """The supporting cones of 1/(x1...xk (x1+...+xk) (x1+2x2+...+kxk))."""
    poles = "*".join(f"x{i}" for i in range(1, k + 1))
    plain = "+".join(f"x{i}" for i in range(1, k + 1))
    graded = "+".join(f"{i}*x{i}" for i in range(1, k + 1))
    f = parse_germ(f"1/({poles}*({plain})*({graded}))", k)
    return _pole_cones(AmbientSpace.standard(k), f)


def test_growth_germ_refinement_is_pinned_in_four_dimensions():
    cones = _growth_cones(4)
    assert len(cones) == 10
    pieces, index_sets = common_refinement(cones)
    assert len(pieces) == 560
    record = ([tuple(tuple(str(x) for x in g) for g in p.generators)
               for p in pieces], index_sets)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == (
        "ef5f6db0212c6a7d7e867dec3540459e46fed7f609087d5beb983a688b75bdca")


def _random_family_with_faces(rng):
    """One or two members in 2D to 4D, then faces of them (each a proper
    subset of a member's generators); a third of the families draw entries
    from [-2, 3], so some generators are not pseudo-positive."""
    k = rng.randint(2, 4)
    lo = rng.choice((0, 0, -2))
    members = []
    for _ in range(rng.randint(1, 2)):
        while True:
            gens = [[rng.randint(lo, 3) for _ in range(k)]
                    for _ in range(rng.randint(2, k))]
            try:
                members.append(make_simplicial_cone(gens))
                break
            except NotSimplicial:
                pass
    family = list(members)
    for _ in range(rng.randint(1, 3)):
        gens = rng.choice(members).generators
        face = rng.sample(gens, rng.randint(1, len(gens) - 1))
        family.insert(rng.randint(0, len(family)), make_simplicial_cone(face))
    return family


def test_refinement_of_families_with_faces_is_proper_and_no_finer():
    # faces add no hyperplanes: the pieces stay properly positioned, still
    # tile every member, and are never more than slicing by every member
    # gives
    rng = random.Random(45)
    checked = coarser = 0
    for _ in range(60):
        family = _random_family_with_faces(rng)
        try:
            pieces, index_sets = common_refinement(family)
        except NotStrictlyConvexUnion:
            continue
        checked += 1
        assert positioning_witness(pieces) is None
        for member, mine in zip(family, index_sets):
            assert is_subdivision([pieces[j] for j in mine], member)
        reference = common_refinement_reference(family)[0]
        assert len(pieces) <= len(reference)
        coarser += len(pieces) < len(reference)
    assert checked > 40 and coarser > 20


def test_refinement_returns_the_faces_of_one_cone_unchanged():
    # an obtuse cone and all its faces: the faces cut nothing, although the
    # normal hyperplanes of its rays slice the cone itself
    top = cone((1, 0, 0), (-1, 2, 0), (1, 1, 3))
    faces = [make_simplicial_cone(gens)
             for n in (2, 1) for gens in combinations(top.generators, n)]
    family = [top] + faces
    assert common_refinement(family) == (family, [[i] for i in range(7)])
    assert len(common_refinement_reference(family)[0]) > 7
    # no member at all: no maximal member and no piece
    assert common_refinement([]) == ([], [])


def test_refinement_returns_primitive_int_generators():
    # generators get the normal form of make_simplicial_cone (primitive
    # ints, sorted) where they enter a piece or leave uncut, so a directly
    # built cone with scaled or Fraction generators is listed in that form,
    # and each cone once: the halves of the cone of (0,3) and (2,0) are
    # (0,1), (1,1) and (1,0), (1,1), and the first is also a piece of the
    # other member
    scaled = SimplicialCone(((F(0), F(3)), (F(2), F(0))))
    pieces, index_sets, witness = _refinement_record(
        [scaled, cone([1, 1], [-1, 2])])
    assert pieces == [(("0", "1"), ("1", "1")), (("1", "0"), ("1", "1")),
                      (("-1", "2"), ("0", "1"))]
    assert index_sets == [[0, 1], [0, 2]]
    assert witness == (0, 1, "intersection is not a common face")
    rational = SimplicialCone(((F(2), F(0), F(0)), (F(0), F(2), F(2)),
                               (F(0), F(0), F(3, 2))))
    pieces, index_sets, witness = _refinement_record(
        [rational, cone([1, 1, 0], [0, 1, 0], [1, 0, 1])])
    assert pieces == [
        (("0", "0", "1"), ("0", "1", "1"), ("1", "1", "1")),
        (("0", "0", "1"), ("1", "0", "1"), ("1", "1", "1")),
        (("1", "0", "1"), ("1", "1", "1"), ("2", "1", "1")),
        (("1", "0", "0"), ("1", "0", "1"), ("2", "1", "1")),
        (("0", "1", "0"), ("1", "1", "0"), ("2", "1", "1")),
        (("0", "1", "0"), ("1", "1", "1"), ("2", "1", "1"))]
    assert index_sets == [[0, 1, 2, 3], [2, 4, 5]]
    assert witness == (0, 1, "intersection is not a common face")
    # an uncut member too, and a repeat of it scaled differently
    refined, index_sets = common_refinement(
        [rational, SimplicialCone(((0, 0, 1), (0, 1, 1), (1, 0, 0)))])
    assert refined == [cone((1, 0, 0), (0, 1, 1), (0, 0, 1))]
    assert index_sets == [[0], [0]]
    assert all(type(x) is int for p in refined for g in p.generators for x in g)
    # maximal members are found by rays too: the obtuse cone built with
    # doubled generators has (1,0,0), (1,1,3) as a face, so that face's
    # hyperplanes, one through (1,10,0), do not cut it
    doubled = SimplicialCone(((2, 0, 0), (-2, 4, 0), (2, 2, 6)))
    face = cone((1, 0, 0), (1, 1, 3))
    refined, index_sets = common_refinement([doubled, face])
    assert refined == [cone((1, 0, 0), (-1, 2, 0), (1, 1, 3)), face]
    assert index_sets == [[0], [1]]
    assert common_refinement([cone(*doubled.generators), face]) == (
        refined, index_sets)


def test_the_face_test_normalizes_no_ray_of_its_own(monkeypatch):
    # rays get their normal form once, where they enter a piece: the
    # witness of the 25-piece k = 3 growth support makes 150 primitive_vector
    # calls (2,020 when every pair re-normalized both members' rays)
    pieces, _ = common_refinement(_growth_cones(3))
    calls = []

    def counting(v):
        calls.append(v)
        return primitive_vector(v)

    monkeypatch.setattr(cones_module, "primitive_vector", counting)
    assert len(pieces) == 25 and positioning_witness(pieces) is None
    assert len(calls) <= 200


def _pole_cones(space, f):
    """The distinct supporting cones of the terms of ``decompose``."""
    return list(dict.fromkeys(SimplicialCone(tuple(v for v, _ in t.factors))
                              for t in decompose(space, f).terms))


def _refined(refine, family):
    try:
        return refine(family)
    except NotStrictlyConvexUnion:
        return "line"


def test_refinement_is_the_eager_slicing_on_corpus_and_growth_families():
    # every corpus germ under the identity and under the digest's Gram
    # matrix, and the growth germ for k = 2 to 4: most families are left
    # uncut, and those are returned as they are
    families = [_pole_cones(space, f)
                for k, f in round_trip_corpus() for space in _spaces(k)]
    families += [_growth_cones(k) for k in (2, 3, 4)]
    uncut = 0
    for family in families:
        pieces, index_sets = common_refinement(family)
        assert (pieces, index_sets) == common_refinement_eager(family)
        uncut += pieces == family
    assert len(families) == 403 and uncut > 300 and len(families) - uncut > 40


def test_refinement_is_the_eager_slicing_on_edge_families():
    quadrant = cone((1, 0), (0, 1))
    inner = cone((1, 0), (1, 1))
    swapped = SimplicialCone(((0, 1), (1, 0)))
    unsorted = SimplicialCone(((1, 1), (0, 1)))
    top = cone((1, 0, 0), (-1, 2, 0), (1, 1, 3))
    families = [
        [quadrant, inner], [inner, quadrant],           # one inside another
        [quadrant, inner, quadrant], [inner, inner],    # repeated members
        [swapped, quadrant], [unsorted, inner], [quadrant, unsorted],
        [top, cone((1, 0, 0), (1, 1, 3)), cone((1, 1, 0))],  # lower dims
        [cone((1, 1, 3)), top, cone((-1, 2, 0), (1, 0, 0))],
        [cone((1, 0, 0), (0, 1, 0)), cone((1, 1, 1)), cone((0, 0, 1))],
    ]
    # random families with faces, each with a repeated member and a copy
    # of a member whose generators are reversed
    rng = random.Random(48)
    for _ in range(40):
        family = _random_family_with_faces(rng)
        member = rng.choice(family)
        family.insert(rng.randint(0, len(family)), rng.choice(family))
        family.insert(rng.randint(0, len(family)),
                      SimplicialCone(member.generators[::-1]))
        families.append(family)
    for family in families:
        assert _refined(common_refinement, family) == _refined(
            common_refinement_eager, family)


def test_a_family_with_one_maximal_member_builds_no_piece(monkeypatch):
    # an obtuse cone, its faces and a repeat: the union is the cone, so
    # neither the line test nor the slicing has anything to do
    def refuse(*args):
        raise AssertionError("_Piece built")

    top = cone((1, 0, 0), (-1, 2, 0), (1, 1, 3))
    faces = [make_simplicial_cone(gens)
             for n in (2, 1) for gens in combinations(top.generators, n)]
    family = faces[:3] + [top] + faces[3:] + [top]
    expected = common_refinement_eager(family)
    monkeypatch.setattr(cones_module, "_Piece", refuse)
    assert common_refinement(family) == expected
    assert expected == (family[:-1], [[i] for i in range(7)] + [[3]])


def test_full_rank_generators_need_no_nullspace(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return nullspace(m)

    monkeypatch.setattr(cones_module, "nullspace", counting)
    piece = _simplicial_piece(cone((1, 0, 0), (-1, 2, 0), (1, 1, 3)).generators)
    assert piece.eqs == () and len(piece.ineqs) == 3 and not calls
    flat = _simplicial_piece(cone((1, 0, 0), (-1, 2, 0)).generators)
    assert flat.eqs == ((0, 0, 1),) and len(calls) == 1


def test_a_separating_facet_does_not_make_the_meet_a_common_face():
    # the facet z = 0 of a separates the two cones, yet their intersection,
    # the cone on (1,2,0) and (2,1,0), is a face of b and not of a: a test
    # that skips pairs some facet separates would pass this family
    a = cone((1, 0, 0), (0, 1, 0), (0, 0, 1))
    b = cone((1, 2, 0), (2, 1, 0), (1, 1, -1))
    normal = (0, 0, 1)
    assert all(vec_dot(normal, g) >= 0 for g in a.generators)
    assert all(vec_dot(normal, g) <= 0 for g in b.generators)
    assert positioning_witness([a, b]) == (
        0, 1, "intersection is not a common face")
    assert not cones_meet_along_face(a, b)
    assert not union_contains_line([a, b])


def test_the_common_face_certificate_agrees_with_the_face_test():
    # an exact linear program of sympy decides each pair independently of
    # the package: every pair of the 25 k = 3 growth pieces meets in a
    # common face, and the overlapping pair, the pair a facet separates and
    # the doubled obtuse cone beside its face are decided as the package does
    pytest.importorskip("sympy")
    pairs = list(combinations(common_refinement(_growth_cones(3))[0], 2))
    assert len(pairs) == 300
    assert all(common_face_certificate(a, b) for a, b in pairs)
    assert all(cones_meet_along_face(a, b) for a, b in pairs)
    doubled = SimplicialCone(((2, 0, 0), (-2, 4, 0), (2, 2, 6)))
    cases = [
        (cone((1, 0), (0, 1)), cone((1, 1), (-1, 2)), False),
        (cone((1, 0, 0), (0, 1, 0), (0, 0, 1)),
         cone((1, 2, 0), (2, 1, 0), (1, 1, -1)), False),
        (doubled, cone((1, 0, 0), (1, 1, 3)), True),
        (doubled, cone((1, 0, 0), (1, 10, 0)), False),
    ]
    for a, b, common in cases:
        assert common_face_certificate(a, b) is common
        assert cones_meet_along_face(a, b) is common
    pieces, _ = common_refinement([doubled, cone((1, 0, 0), (1, 1, 3))])
    assert all(common_face_certificate(a, b) and cones_meet_along_face(a, b)
               for a, b in combinations(pieces, 2))


def _random_ray_set(rng):
    """Rays of a cone in 2D to 4D: base rays in the cone of k or k - 1
    random vectors (some in the positive orthant), so some cones have
    lower dimension, then a base ray doubled, positive sums of base rays
    and, in about a third of the sets, the negative of such a sum, which
    makes a line; shuffled."""
    k = rng.randint(2, 4)
    lo = rng.choice((-3, -1, 0))
    span = [[rng.randint(lo, 3) for _ in range(k)]
            for _ in range(rng.choice((k, k, k - 1)))]
    n, base = rng.randint(1, k + 2), []
    while len(base) < n or not any(map(any, base)):
        base.append([sum(rng.randint(0, 2) * v[i] for v in span)
                     for i in range(k)])
    rays = base + [[2 * x for x in rng.choice(base)]]
    for sign in [1] * rng.randint(0, 2) + [-1] * (rng.random() < 0.3):
        chosen = rng.sample(base, rng.randint(1, len(base)))
        rays.append([sign * sum(rng.randint(1, 3) * r[i] for r in chosen)
                     for i in range(k)])
    rng.shuffle(rays)
    return rays


def _parabola_cone(rng, n):
    """The rays (t, t^2, 1) for n distinct t in [-4, 4] under a unimodular
    map, all extreme, as the benchmark's non-simplicial cones."""
    u = unimodular_rows(rng, 3)
    return [[sum(a * b for a, b in zip(row, (t, t * t, 1))) for row in u]
            for t in sorted(rng.sample(range(-4, 5), n))]


def _poly_cone_or_line(rays):
    try:
        return list(make_poly_cone(rays).rays)
    except NotStrictlyConvexUnion:
        return None


def test_the_extreme_ray_certificate_agrees_with_make_poly_cone():
    # sympy's linear program decides each ray set independently of the
    # package: a line exactly when some -r lies in the cone of the rays,
    # and otherwise the rays outside the cone of the others are extreme;
    # make_poly_cone refuses exactly the sets with a line
    pytest.importorskip("sympy")
    rng = random.Random(4701)
    sets = [_random_ray_set(rng) for _ in range(60)]
    lines = [
        [(1, 0), (-1, 0), (0, 1)],
        [(1, 0), (0, 1), (-1, -1)],
        [(1, 2, 0), (-2, -4, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)],
        # no two rays are opposite, yet their sum is 0
        [(1, 1, 1), (1, -1, 0), (-2, 0, -1)],
        [(0, 3, 0), (0, -1, 0)],
    ]
    parabolas = [_parabola_cone(rng, n) for n in (3, 4, 5, 6, 7, 9)]
    everything = sets + lines + parabolas
    certified = [extreme_ray_certificate(rays) for rays in everything]
    assert [_poly_cone_or_line(rays) for rays in everything] == certified
    assert certified[len(sets):len(sets) + len(lines)] == [None] * len(lines)
    assert [len(c) for c in certified[-len(parabolas):]] == [3, 4, 5, 6, 7, 9]
    # random sets with a line, pointed ones of lower dimension, and pointed
    # ones with rays that are not extreme are all covered
    found = Counter()
    for rays, extreme in zip(sets, certified):
        found["line"] += extreme is None
        if extreme is not None:
            found["flat"] += mat_rank(extreme) < len(rays[0])
            found["redundant"] += len(extreme) < len(
                {primitive_vector(vec(r)) for r in rays if any(r)})
    assert min(found.values()) >= 10, found


def test_the_tiling_certificate_agrees_with_the_facet_count():
    # sympy decides each tiling independently of the package: the 25
    # pieces of the k = 3 growth germ's 6 pole cones tile each cone, as do
    # the pieces of one k = 4 member and the pulling triangulations of the
    # benchmark's non-simplicial cones; dropping a piece or adding an
    # overlapping one is refused, as is_subdivision and _pieces_by_cone
    # refuse it.  Volumes see no overlap, so each tiling's pairs meet in
    # common faces by the other certificate: here for k = 4 and the
    # cones, and for all 300 pairs of the k = 3 pieces in the test above
    pytest.importorskip("sympy")
    rng = random.Random(4702)
    cases, paired = [], []
    for k in (3, 4):
        members = _growth_cones(k)
        pieces, index_sets = common_refinement(members)
        assignment = _pieces_by_cone(members, pieces)
        chosen = list(zip(members, index_sets))
        if k == 4:  # the member of fewest pieces: 25, so 300 pairs
            chosen = [min(chosen, key=lambda c: len(c[1]))]
        for member, idx in chosen:
            mine = [pieces[j] for j in idx]
            assert assignment[member] == mine
            cases.append((mine, member, True))
            if k == 4:
                paired.append(mine)
            j = rng.randrange(len(mine))
            without = [p for p in pieces if p != mine[j]]
            with pytest.raises(NotASubdivision):
                _pieces_by_cone([member], without)
            cases.append((mine[:j] + mine[j + 1:], member, False))
            cases.append((mine + [member], member, False))
    for n in (4, 5, 7):
        hull = make_poly_cone(_parabola_cone(rng, n))
        first = triangulate_cone(hull)
        cases.append((first, hull, True))
        paired.append(first)
        cases.append((first[1:], hull, False))
        cases.append((first + triangulate_cone(hull, True)[:1], hull, False))
    for pieces, member, tiles in cases:
        assert tiling_certificate(pieces, member) is tiles
        assert is_subdivision(pieces, member) is tiles
    assert [len(c[0]) for c in cases if c[2]] == [5, 7, 3, 13, 5, 3, 25,
                                                  2, 3, 5]
    assert all(common_face_certificate(a, b)
               for pieces in paired for a, b in combinations(pieces, 2))
    # two overlapping pieces whose volumes add up to the quadrant's: only
    # the common-face certificate refuses them
    quadrant = cone((1, 0), (0, 1))
    a, b = cone((1, 0), (1, 1)), cone((3, 1), (1, 3))
    assert tiling_certificate([a, b], quadrant)
    assert not common_face_certificate(a, b)
    assert not is_subdivision([a, b], quadrant)


def test_the_common_face_certificate_agrees_on_random_and_k4_families():
    # the pairs of members of seeded random pseudo-positive 2D and 3D
    # families, which often overlap, and of their refinement pieces, which
    # never do; then 100 of the 156,520 pairs of the 560 k = 4 growth
    # pieces, half of them sharing rays and half from different members
    pytest.importorskip("sympy")
    rng = random.Random(4703)
    pairs = []
    for _ in range(8):
        k = rng.randint(2, 3)
        family = [random_pseudo_positive_cone(rng, k, k) for _ in range(3)]
        pieces, _ = common_refinement(family)
        pairs += combinations(family, 2)
        pairs += rng.sample(list(combinations(pieces, 2)),
                            min(10, len(pieces) * (len(pieces) - 1) // 2))
    members = _growth_cones(4)
    pieces, index_sets = common_refinement(members)
    assert len(pieces) == 560
    owners = [set() for _ in pieces]
    for m, idx in enumerate(index_sets):
        for j in idx:
            owners[j].add(m)
    sharing, apart = [], []
    while len(sharing) < 50 or len(apart) < 50:
        i, j = rng.sample(range(len(pieces)), 2)
        pair = pieces[i], pieces[j]
        if set(pair[0].generators) & set(pair[1].generators):
            if len(sharing) < 50:
                sharing.append(pair)
        elif not owners[i] & owners[j] and len(apart) < 50:
            apart.append(pair)
    pairs += sharing + apart
    verdicts = Counter()
    for a, b in pairs:
        common = common_face_certificate(a, b)
        assert cones_meet_along_face(a, b) is common
        verdicts[common] += 1
    assert verdicts[True] > 100 and verdicts[False] >= 5, verdicts


def _random_face_pair(rng):
    """Two simplicial cones in 2 to 4 dimensions on 1 to k generators, the
    second often sharing generators with the first.  Some are built
    directly, with their generators scaled by positive Fractions and
    unsorted, as a caller may build them."""
    k = rng.randint(2, 4)

    def members(n, shared=()):
        while True:
            gens = list(shared) + [random_vector(rng, k, -2, 2)
                                   for _ in range(n - len(shared))]
            if mat_rank(tuple(gens)) == n:
                return gens

    def build(gens):
        if rng.random() < 0.3:
            rng.shuffle(gens)
            scales = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in gens]
            return SimplicialCone(tuple(tuple(s * c for c in g)
                                        for s, g in zip(scales, gens)))
        return make_simplicial_cone(gens)

    a = members(rng.randint(1, k))
    shared = (rng.sample(a, rng.randint(1, len(a))) if rng.random() < 0.6
              else [])
    b = members(rng.randint(max(1, len(shared)), k), shared)
    return build(a), build(b), bool(shared)


def test_the_shared_ray_rule_is_the_incidence_face_test_on_random_pairs():
    # two simplicial cones meet in a common face exactly when the extreme
    # rays of their meet are the rays they share; the reference tests every
    # generator of both against both cones' inequalities
    rng = random.Random(57)
    seen = Counter()
    for _ in range(5000):
        a, b, shared = _random_face_pair(rng)
        pa, pb = (_simplicial_piece(c.generators) for c in (a, b))
        for x, y in ((pa, pb), (pb, pa)):
            verdict = cones_module._pieces_meet_along_face(x, y)
            assert verdict == pieces_meet_along_face_reference(x, y)
            seen[verdict] += 1
        assert cones_meet_along_face(a, b) == verdict
        seen["shared"] += shared
        seen["direct"] += any(c.generators != cone(*c.generators).generators
                              for c in (a, b))
        seen["flat"] += min(a.dim, b.dim) < a.ambient
    assert min(seen.values()) >= 1000, seen


def _random_positioning_family(rng):
    """A family with faces (some generators not pseudo-positive), a
    refinement of one, maybe with a member repeated, or pseudo-positive
    cones; then a member repeated, the negated ray of a generator added, or
    the whole family replaced by the pair pinned above."""
    family = _random_family_with_faces(rng)
    if rng.random() < 0.4:
        try:
            pieces = common_refinement(family)[0]
        except NotStrictlyConvexUnion:
            pieces = family
        family = pieces + [rng.choice(family)] * rng.randint(0, 1)
        rng.shuffle(family)
    elif rng.random() < 0.3:
        k = rng.randint(2, 3)
        family = [random_pseudo_positive_cone(rng, k, rng.randint(1, k))
                  for _ in range(rng.randint(2, 4))]
    if rng.random() < 1 / 3:
        family.insert(rng.randint(0, len(family)), rng.choice(family))
    if rng.random() < 0.15:
        ray = _neg(rng.choice(rng.choice(family).generators))
        family.insert(rng.randint(0, len(family)), cone(ray))
    if rng.random() < 0.1:
        family = [cone((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  cone((1, 2, 0), (2, 1, 0), (1, 1, -1))]
    return family


def test_positioning_witness_matches_the_pairwise_reference():
    rng = random.Random(48)
    reasons = Counter()
    for _ in range(150):
        family = _random_positioning_family(rng)
        found = positioning_witness(family)
        assert found == positioning_witness_reference(family)
        assert is_properly_positioned(family) == (found is None)
        reasons[found and found[2]] += 1
    assert min(reasons[None], reasons["union contains a line"],
               reasons["intersection is not a common face"]) >= 10


def test_a_pseudo_positive_family_runs_no_line_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("_pair_contains_line called")

    rng = random.Random(49)
    families = [common_refinement([random_pseudo_positive_cone(rng, 3, 3)
                                   for _ in range(3)])[0]
                for _ in range(5)]
    overlap = [cone((1, 0), (0, 1)), cone((1, 0), (1, 1))]
    expected = [positioning_witness_reference(f) for f in families + [overlap]]
    monkeypatch.setattr(cones_module, "_pair_contains_line", refuse)
    assert [positioning_witness(f) for f in families + [overlap]] == expected
    assert expected[-1] == (0, 1, "intersection is not a common face")
    assert expected[:-1] == [None] * len(families)
    for family in families:
        assert not union_contains_line(family)
        common_refinement(family)


def test_the_witness_builds_each_piece_once_and_stops_at_the_first_line(
        monkeypatch):
    # pair (0, 1) holds no line and pair (0, 2) does: the line pass tests
    # those two and stops, on the one piece per member the face pass uses
    calls = Counter()
    for name in ("_pair_contains_line", "_simplicial_piece"):
        def counting(*args, _f=getattr(cones_module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cones_module, name, counting)
    family = [cone((1, 0), (1, 1)), cone((0, 1), (1, 1)),
              cone((-1, 0), (-1, -1))]
    assert positioning_witness(family) == (0, 2, "union contains a line")
    assert calls == {"_pair_contains_line": 2, "_simplicial_piece": 3}
    calls.clear()
    assert union_contains_line(family)
    assert calls == {"_pair_contains_line": 2, "_simplicial_piece": 3}


def test_common_refinement_rejects_union_with_line():
    # each family holds a generator that is not pseudo-positive, so the
    # line test runs
    for family in (
        [cone((1, 0)), cone((-1, 0))],
        [cone((1, 0), (0, 1)), cone((-1, -1))],
        [cone((1, 0, 0), (0, 1, 1)), cone((0, 0, 1)),
         cone((-1, -1, -1), (0, 1, 0))],
    ):
        with pytest.raises(NotStrictlyConvexUnion):
            common_refinement(family)


def test_is_subdivision_rejects_gaps_and_overlaps():
    quadrant = cone((1, 0), (0, 1))
    a = cone((1, 0), (1, 1))
    b = cone((0, 1), (1, 1))
    assert is_subdivision([a, b], quadrant)
    assert not is_subdivision([a], quadrant)              # gap
    assert not is_subdivision([a, quadrant], quadrant)    # overlap
    assert not is_subdivision([a, b, cone((1, -1), (1, 0))], quadrant)
    assert not is_subdivision([cone((1, 1))], quadrant)   # lower dimension
    # every facet is counted as in a tiling, yet the first two pieces
    # overlap: only the pairwise face test rejects it
    c = cone((2, 1), (1, 1))
    assert not is_subdivision([a, c, cone((2, 1), (0, 1))], quadrant)


def test_is_subdivision_rejects_repeated_pieces():
    quadrant = cone((1, 0), (0, 1))
    a = cone((1, 0), (1, 1))
    b = cone((0, 1), (1, 1))
    assert not is_subdivision([quadrant, quadrant], quadrant)
    assert not is_subdivision([a, a, b], quadrant)
    with pytest.raises(NotASubdivision):
        I_cone(quadrant, [a, a, b])
    assert germ_equal(I_cone(quadrant, [a, b]), I_cone(quadrant))


def test_is_subdivision_counts_facets_without_slicing(monkeypatch):
    def refuse(*args):
        raise AssertionError("_split_piece called")

    pc = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1),
                         (1, -1, 1)])
    pieces = triangulate_cone(pc)
    monkeypatch.setattr("laurentgerms.cones._split_piece", refuse)
    assert is_subdivision(pieces, pc)
    assert is_subdivision([cone((1, 0), (1, 1)), cone((0, 1), (1, 1))],
                          cone((1, 0), (0, 1)))


def _verdict(pieces, target) -> bool:
    """The facet count's verdict; the slicing reference must give the same
    one when no piece repeats and there are at most 40 pieces.  Repeated
    pieces never tile."""
    verdict = is_subdivision(pieces, target)
    if len(set(pieces)) < len(pieces):
        assert not verdict
    elif len(pieces) <= 40:
        assert verdict == is_subdivision_reference(pieces, target)
    return verdict


def test_is_subdivision_agrees_with_slicing_on_random_families():
    # each member against its refinement pieces, with one dropped, with the
    # member itself added and with a piece of another member added
    rng = random.Random(46)
    tilings = rejected = 0
    for _ in range(60):
        family = _random_family_with_faces(rng)
        try:
            pieces, index_sets = common_refinement(family)
        except NotStrictlyConvexUnion:
            continue
        for member, idx in zip(family, index_sets):
            mine = [pieces[j] for j in idx]
            assert _verdict(mine, member)
            tilings += 1
            others = [p for p in pieces
                      if p not in mine and p.dim == member.dim]
            j = rng.randrange(len(mine))
            variants = [mine[:j] + mine[j + 1:], mine + [member]]
            if others:
                variants.append(mine + [rng.choice(others)])
            for variant in variants:
                rejected += not _verdict(variant, member)
    assert tilings > 60 and rejected > 60


def test_is_subdivision_agrees_with_slicing_on_triangulations():
    # both pulling orders tile; one simplex dropped never does; the two
    # orders mixed may or may not
    rng = random.Random(47)
    for _ in range(30):
        k = rng.randint(2, 4)
        pc = make_poly_cone([[rng.randint(0, 3) for _ in range(k)]
                             for _ in range(rng.randint(k, k + 3))])
        first, second = triangulate_cone(pc), triangulate_cone(pc, True)
        assert _verdict(first, pc)
        assert _verdict(second, pc)
        if len(first) > 1:
            j = rng.randrange(len(first))
            assert not _verdict(first[:j] + first[j + 1:], pc)
        half = len(first) // 2
        _verdict(first[:half] + second[half:], pc)


def test_refinement_and_expansion_have_no_dimension_cap():
    gens = [tuple(1 if i == j else 0 for i in range(7)) for j in range(7)]
    orthant = make_simplicial_cone(gens)
    assert common_refinement([orthant]) == ([orthant], [[0]])
    f = parse_germ("1/(x1*x7)", 7)
    assert germ_equal(phi(laurent_expand(AmbientSpace.standard(7), f)), f)


def test_family_functions_reject_mixed_ambient_dimensions():
    plane = cone((1, 0), (0, 1))
    space = cone((1, 0, 0), (0, 1, 0))
    for family, dims in (([plane, space], "2 and 3"),
                         ([space, space, plane], "3 and 2")):
        for check in (common_refinement, union_contains_line,
                      positioning_witness, is_properly_positioned):
            with pytest.raises(ValueError, match=f"dimensions {dims}$"):
                check(family)


def test_simplicial_cone_rejects_generators_of_mixed_length():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        make_simplicial_cone([(1, 0), (0, 1, 0)])


def test_poly_cone_rejects_rays_of_mixed_length():
    with pytest.raises(ValueError, match="lengths 2 and 3$"):
        make_poly_cone([(1, 0), (0, 1, 0)])


def test_face_test_rejects_cones_of_mixed_ambient_dimension():
    with pytest.raises(ValueError, match="dimensions 3 and 2$"):
        cones_meet_along_face(cone((1, 0, 0), (0, 1, 0)), cone((1, 0)))


def test_is_subdivision_rejects_pieces_of_another_ambient_dimension():
    quadrant = cone((1, 0), (0, 1))
    with pytest.raises(ValueError, match="dimensions 2 and 3$"):
        is_subdivision([cone((1, 0, 0), (0, 1, 0))], quadrant)
    with pytest.raises(ValueError, match="dimensions 2 and 3$"):
        is_subdivision([quadrant, cone((1, 0, 0), (0, 1, 0))],
                       make_poly_cone([(1, 0), (0, 1)]))


# ---------------------------------------------------------------------------
# the double-description ray engine against subset enumeration

def _extreme_rays(k: int, eqs: Sequence, ineqs: Sequence) -> list[Vec]:
    """Extreme rays of { x : eqs x = 0, ineqs x >= 0 }, primitive and sorted.

    Works for pointed cones; if the set contains a line, representatives of
    both directions are returned (useful for emptiness tests).  Every extreme
    ray is the kernel of a rank-(k-1) subsystem of active constraints, so
    enumerating constraint subsets finds them all.
    """
    eqs = tuple(dict.fromkeys(primitive_vector(e) for e in eqs if not vec_is_zero(e)))
    ineqs = tuple(dict.fromkeys(primitive_vector(c) for c in ineqs if not vec_is_zero(c)))
    need = k - 1 - mat_rank(eqs)
    if need < 0:
        return []
    found: set[Vec] = set()
    for subset in combinations(ineqs, need):
        stack = eqs + subset
        if mat_rank(stack) != k - 1:
            continue
        # the kernel of a rank-(k-1) system is one primitive line
        v = nullspace(stack)[0] if stack else (1,)
        for w in (v, _neg(v)):
            if all(vec_dot(c, w) >= 0 for c in ineqs):
                found.add(w)
    return sorted(found)


def _assert_pair_matches_enumeration(k, a, b) -> bool:
    """Line test and intersection rays of a pair against the reference;
    returns whether the pair's union holds a line."""
    pa, pb = _simplicial_piece(a.generators), _simplicial_piece(b.generators)
    line = bool(_extreme_rays(k, pa.eqs + pb.eqs,
                              pa.ineqs + tuple(map(_neg, pb.ineqs))))
    assert _pair_contains_line(pa, pb) is line
    assert _meet(pa, pb.eqs, pb.ineqs) == _extreme_rays(
        k, pa.eqs + pb.eqs, pa.ineqs + pb.ineqs)
    return line


def _random_simplicial_cone(rng, k):
    while True:
        gens = [[rng.randint(-3, 3) for _ in range(k)]
                for _ in range(rng.randint(1, k))]
        try:
            return make_simplicial_cone(gens)
        except NotSimplicial:
            pass


def test_ray_engine_matches_subset_enumeration_on_simplicial_pairs():
    rng = random.Random(1401)
    lines = 0
    for _ in range(2000):
        k = rng.randint(1, 5)
        lines += _assert_pair_matches_enumeration(
            k, _random_simplicial_cone(rng, k), _random_simplicial_cone(rng, k))
    assert lines == 430  # both answers of the line test are covered


def test_ray_engine_matches_subset_enumeration_on_ray_sets():
    rng = random.Random(1402)
    checked = pointed = 0
    while checked < 2000:
        k = rng.randint(1, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(k))
                for _ in range(rng.randint(1, 7))]
        raw = [primitive_vector(vec(r)) for r in rays if any(r)]
        if not raw:
            continue
        checked += 1
        eqs = tuple(nullspace(tuple(raw)))
        normals = _extreme_rays(k, eqs, raw)
        assert list(_poly_piece(raw).ineqs) == normals
        if mat_rank(eqs + tuple(normals)) < k:
            with pytest.raises(NotStrictlyConvexUnion):
                make_poly_cone(rays)
        else:
            assert list(make_poly_cone(rays).rays) == _extreme_rays(
                k, eqs, normals)
            pointed += 1
    assert pointed == 1261  # pointed and non-pointed sets are covered


def test_ray_engine_matches_subset_enumeration_on_growth_families():
    for k in (3, 4, 5):
        for a, b in combinations(_growth_cones(k), 2):
            assert not _assert_pair_matches_enumeration(k, a, b)


# ---------------------------------------------------------------------------
# the basic meromorphic valuation

def test_I_of_rays_and_quadrant():
    assert germ_equal(I_simplicial(cone((1, 0))).as_mero(),
                      make_mero(Polynomial.constant(2, -1),
                                ((vec([1, 0]), 1),)))
    assert germ_equal(I_simplicial(cone((1, 1))).as_mero(),
                      make_mero(Polynomial.constant(2, -2),
                                ((vec([1, 1]), 1),)))
    quadrant = cone((1, 0), (0, 1))
    assert germ_equal(I_simplicial(quadrant).as_mero(),
                      make_mero(Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), (vec([0, 1]), 1))))


def test_I_matches_the_validated_polar_term():
    # I_simplicial skips the checks of canonicalize_polar, which every
    # simplicial cone passes
    rng = random.Random(57)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(1, k)
        rows = [random_vector(rng, k) for _ in range(n)]
        if mat_rank(tuple(rows)) < n:
            continue
        c = make_simplicial_cone(rows)
        weight = max_minor_abs_sum(list(c.generators), n)
        assert I_simplicial(c) == canonicalize_polar(
            None, Polynomial.constant(k, (-1) ** n * weight),
            [(g, 1) for g in c.generators])


def test_I_is_invariant_under_generator_scaling():
    a = I_simplicial(cone((1, 0), (1, 1)))
    b = I_simplicial(cone((3, 0), (2, 2)))
    assert a == b


def test_I_is_additive_over_subdivisions():
    # 1/(e1 e2) = 1/(e1(e1+e2)) + 1/(e2(e1+e2)): shared faces cost nothing
    quadrant = cone((1, 0), (0, 1))
    a = cone((1, 0), (1, 1))
    b = cone((0, 1), (1, 1))
    left = I_simplicial(quadrant).as_mero()
    right = mero_add(I_simplicial(a).as_mero(), I_simplicial(b).as_mero())
    assert germ_equal(left, right)


def test_I_cone_sums_a_triangulation():
    pc = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    tri1 = triangulate_cone(pc)
    total1 = I_cone(pc, triangulation=tri1)
    total2 = I_cone(pc)
    assert germ_equal(total1, total2)


def test_I_cone_rejects_wrong_triangulation():
    pc = make_poly_cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    bad = [make_simplicial_cone([(1, 0, 1), (0, 1, 1), (0, 0, 1)])]
    with pytest.raises(NotASubdivision):
        I_cone(pc, triangulation=bad)


def test_cone_family_container():
    fam = ConeFamily((cone((1, 0)), cone((0, 1))))
    assert len(fam) == 2
