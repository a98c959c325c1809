"""Shared random generators for the property tests.

Everything is driven by explicitly seeded random.Random instances so
failures reproduce bit-for-bit.
"""

import functools
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from laurentgerms import (
    AmbientSpace,
    CoproductTerm,
    FormalExpansion,
    GradedComponentKey,
    MeromorphicGerm,
    PolarGerm,
    Polynomial,
    TruncatedGerm,
    as_mero,
    bernoulli_tail_coeffs,
    canonicalize_polar,
    coproduct,
    decompose,
    germ_equal,
    laurent_expand,
    make_expansion,
    make_germ_sum,
    make_mero,
    make_simplicial_cone,
    mero_mul,
    span_key,
)
from laurentgerms.cones import (
    SimplicialCone,
    _common_ambient,
    _meet,
    _pair_contains_line,
    _poly_piece,
    _pull_triangulate,
    _satisfies,
    _simplicial_piece,
    _split_piece,
    common_refinement,
    union_contains_line,
)
from laurentgerms.errors import (
    NonLinearPole,
    NotSimplicial,
    NotStrictlyConvexUnion,
)
from laurentgerms.exact import (
    _reduced_rows,
    int_inverse,
    is_pseudo_positive,
    mat,
    mat_from_columns,
    mat_rank,
    mat_transpose,
    nullspace,
    primitive_pseudo_positive,
    q_orthogonal_complement,
    solve,
    vec_dot,
)
from laurentgerms.expand import DecoratedCone, _germ_entry, _resupport
from laurentgerms.exprio import (
    _BINOPS,
    BinOp,
    Neg,
    Num,
    Pow,
    Var,
    _mero_invert,
    _mero_pow,
)
from laurentgerms.germs import (
    _exchange_worklist,
    _exchanged,
    _rewrite,
    den_poly,
    fraction_sum,
    mero_neg,
    polar_split,
    reduce_to_independent,
    sum_by_factors,
)


@pytest.fixture
def default_int_digits():
    """The interpreter's default cap of 4,300 digits on int <-> str
    conversions, whatever an earlier in-process command set; the limit in
    force before the test is restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter does not cap int <-> str conversions")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


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


def clear_expansion_caches():
    """Empty the germ-keyed caches of ``laurent_expand`` and ``decompose``."""
    _germ_entry.cache_clear()
    _rewrite.cache_clear()


def canonical_expansion_reference(space, f):
    """Reference for ``laurent_expand(space, f)`` that reads no cache: the
    polar split of ``reduce_to_independent(f)``, as ``decompose`` makes it,
    then the common refinement of its pole cones and every term onto the
    pieces of its cone."""
    f = as_mero(f)
    s = polar_split(space, [(num.scale(c), den)
                            for c, num, den in reduce_to_independent(f)])
    cones = list(dict.fromkeys(DecoratedCone(t.factors).cone
                               for t in s.terms))
    pieces, index_sets = common_refinement(cones)
    return _resupport(make_expansion([(t.factors, t.numerator)
                                      for t in s.terms], s.poly),
                      {c: [pieces[i] for i in idx]
                       for c, idx in zip(cones, index_sets)})


def expansion_from_raw(space, items, polynomial_part):
    """``make_expansion`` of raw (factors, numerator) terms: each nonzero
    term is canonicalized first, then equal decorated cones are merged, so
    scaled and negated pole forms land on one term."""
    terms = []
    for factors, num in items:
        if not num.is_zero():
            g = canonicalize_polar(space, num, factors)
            terms.append((g.factors, g.numerator))
    return make_expansion(terms, polynomial_part)


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


def half_space(k: int) -> AmbientSpace:
    """The Gram matrix [[2, 1, 0], [1, 2, 0], [0, 0, 1/2]] of the CLI
    golden's ``gram3``, padded by the identity; below dimension 3 its
    trailing k x k block, so that every dimension keeps the entry 1/2."""
    gram = ((2, 1, 0), (1, 2, 0), (0, 0, Fraction(1, 2)))
    off = max(3 - k, 0)
    return AmbientSpace(k, mat([[gram[i + off][j + off] if max(i, j) < 3 - off
                                 else int(i == j) for j in range(k)]
                                for i in range(k)]))


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


def orthogonal_projection_images(space: AmbientSpace,
                                 forms) -> list[Polynomial]:
    """Substitution images realizing p -> p restricted to the Q-orthogonal
    complement of span(forms), the reference for the derivative criterion
    of ``numerator_is_orthogonal``.

    In the coordinates u = the forms, w = a Q-orthogonal basis of them,
    eps = P u + R w goes to R w.  A polynomial is a function of Q-orthogonal
    linear forms alone iff it is fixed by these images.
    """
    m = len(forms)
    basis = tuple(forms) + tuple(q_orthogonal_complement(space, forms))
    to_u = [Polynomial.linear_form(row, d) for row, d in int_inverse(basis)]
    w_only = ([Polynomial.zero(space.dimension)] * m
              + [Polynomial.linear_form(b) for b in basis[m:]])
    return [image.substitute(w_only) for image in to_u]


def exp_sum_smooth_reference(lc, trunc: int,
                             space: AmbientSpace) -> TruncatedGerm:
    """``exp_sum_smooth`` with one ``decompose`` per product: each set of
    generators kept as poles, times the tails of the others cut at total
    degree ``trunc``, is split on its own and the pieces are summed.  The
    reference the shared polar split is checked against."""
    gens = lc.cone.generators
    k = lc.ambient
    tails = []
    for g in gens:
        form = Polynomial.linear_form(g)
        tail = Polynomial.zero(k)
        power = Polynomial.constant(k, 1)
        for j, c in enumerate(bernoulli_tail_coeffs(trunc)):
            if j > 0:
                power = (power * form).truncated(trunc)
            tail = tail + power.scale(c)
        tails.append(tail)
    polar = []
    poly = Polynomial.zero(k)
    d = len(gens)
    for mask in range(1 << d):
        polar_idx = [i for i in range(d) if mask & (1 << i)]
        num = Polynomial.constant(k, (-1) ** len(polar_idx))
        for i in range(d):
            if i not in polar_idx:
                num = (num * tails[i]).truncated(trunc)
        s = decompose(space, make_mero(num, [(gens[i], 1) for i in polar_idx]))
        polar.extend(s.terms)
        poly = poly + s.poly
    return TruncatedGerm(make_germ_sum(polar, Polynomial.zero(k)),
                         poly.truncated(trunc), trunc)


def common_refinement_reference(cones):
    """``common_refinement`` as it was before only maximal members gave
    hyperplanes: every member, faces of other members included, adds its
    span and facet hyperplanes to the set that slices all of them.  The
    reference the coarser refinement is compared with, on families that
    ``common_refinement`` accepts."""
    cones = list(cones)
    if len(cones) < 2:
        return common_refinement(cones)
    firsts = [_simplicial_piece(c.generators) for c in cones]
    hyperplanes = sorted({primitive_pseudo_positive(w)[1]
                          for p in firsts for w in p.eqs + p.ineqs})
    piece_index = {}
    collected = []
    index_sets = []
    for cone, first in zip(cones, firsts):
        pieces = [first]
        for w in hyperplanes:
            vals = [vec_dot(w, g) for g in cone.generators]
            if min(vals) < 0 < max(vals):
                pieces = [half for p in pieces for half in _split_piece(p, w)]
        mine = set()
        for p in pieces:
            for simplex in _pull_triangulate(p):
                if simplex not in piece_index:
                    piece_index[simplex] = len(collected)
                    collected.append(SimplicialCone(simplex))
                mine.add(piece_index[simplex])
        index_sets.append(sorted(mine))
    return collected, index_sets


def common_refinement_eager(cones):
    """``common_refinement`` as it was before it skipped work whose answer
    is known: the line test and a simplicial piece for every member, and
    every member sliced from that piece, whether a hyperplane cuts it or
    not.  The same hyperplanes (those of the maximal members) slice, so
    the output must be identical."""
    cones = list(cones)
    if not cones:
        return [], []
    _common_ambient(cones)
    if len(cones) == 1:
        return cones, [[0]]
    if (not all(is_pseudo_positive(g) for c in cones for g in c.generators)
            and union_contains_line(cones)):
        raise NotStrictlyConvexUnion(
            "the union of the cones contains a linear subspace")
    firsts = [_simplicial_piece(c.generators) for c in cones]
    gens = [set(c.generators) for c in cones]
    hyperplanes = sorted({primitive_pseudo_positive(w)[1]
                          for g, p in zip(gens, firsts)
                          if not any(g < h for h in gens)
                          for w in p.eqs + p.ineqs})
    piece_index = {}
    collected = []
    index_sets = []
    for cone, first in zip(cones, firsts):
        pieces = [first]
        for w in hyperplanes:
            vals = [vec_dot(w, g) for g in cone.generators]
            if min(vals) < 0 < max(vals):
                pieces = [half for p in pieces for half in _split_piece(p, w)]
        mine = set()
        for p in pieces:
            for simplex in _pull_triangulate(p):
                if simplex not in piece_index:
                    piece_index[simplex] = len(collected)
                    collected.append(SimplicialCone(simplex))
                mine.add(piece_index[simplex])
        index_sets.append(sorted(mine))
    return collected, index_sets


def pieces_meet_along_face_reference(a, b):
    """``cones._pieces_meet_along_face`` as it was before it compared the
    meet's rays with the shared rays: two simplicial pieces meet in a face
    of both when the support of every ray of the intersection lies in it.
    The j-th facet normal of a simplicial piece is positive on a ray of the
    piece exactly when the ray's support holds the j-th generator."""
    rays = _meet(a, b.eqs, b.ineqs)
    eqs, ineqs = a.eqs + b.eqs, a.ineqs + b.ineqs
    for p in (a, b):
        inside = {g for g in p.rays if _satisfies(g, eqs, ineqs)}
        if any(vec_dot(c, r) != 0 and g not in inside
               for r in rays for g, c in zip(p.rays, p.ineqs)):
            return False
    return True


def positioning_witness_reference(cones):
    """``positioning_witness`` as it was before its line pass skipped
    pseudo-positive families: the line test and then the face test on
    every pair i < j of members, whatever their generators."""
    cones = list(cones)
    if not cones:
        return None
    _common_ambient(cones)
    pieces = [_simplicial_piece(c.generators) for c in cones]
    pairs = list(combinations(range(len(pieces)), 2))
    for a, b in pairs:
        if _pair_contains_line(pieces[a], pieces[b]):
            return a, b, "union contains a line"
    for a, b in pairs:
        if not pieces_meet_along_face_reference(pieces[a], pieces[b]):
            return a, b, "intersection is not a common face"
    return None


def is_subdivision_reference(pieces, target):
    """``is_subdivision`` as it was before it counted facets: after the
    same dimension, containment and pairwise face checks, the target is
    sliced by every facet hyperplane of every piece, and the interior point
    of each cell must lie in some piece.  Repeated pieces pass it.  Its
    cost grows far faster than the number of pieces, so the facet count is
    compared with it on small inputs only."""
    pieces = list(pieces)
    if not pieces:
        return False
    k = _common_ambient([target] + pieces)
    if isinstance(target, SimplicialCone):
        cell = _simplicial_piece(target.generators)
    else:
        cell = _poly_piece(target.rays)
    if any(p.dim != cell.dim for p in pieces):
        return False
    if not all(_satisfies(g, cell.eqs, cell.ineqs)
               for p in pieces for g in p.generators):
        return False
    parts = [_simplicial_piece(p.generators) for p in pieces]
    if not all(pieces_meet_along_face_reference(a, b)
               for a, b in combinations(parts, 2)):
        return False
    cells = [cell]
    for w in sorted({primitive_pseudo_positive(w)[1]
                     for p in parts for w in p.ineqs}):
        cells = [half for c in cells for half in _split_piece(c, w)]
    for c in cells:
        interior = tuple(sum(r[i] for r in c.rays) for i in range(k))
        if not any(_satisfies(interior, p.eqs, p.ineqs) for p in parts):
            return False
    return True


def _sympy_ray(v):
    """A vector's ray as sympy Rationals: v over |its first nonzero entry|."""
    from sympy import Rational
    v = [Rational(x) for x in v]
    pivot = abs(next(x for x in v if x != 0))
    return tuple(x / pivot for x in v)


def common_face_certificate(a, b) -> bool:
    """Whether two simplicial cones meet in a common face, decided by one
    exact linear program of sympy (``sympy.solvers.simplex.linprog``) and
    nothing of this package.

    A point of A ∩ B is sum λ_i a_i = sum μ_j b_j with λ, μ >= 0, and
    those coefficients are unique in a simplicial cone.  The meet is a
    common face exactly when every such point uses only the rays the two
    cones share: the most weight on the other rays, over sum λ + sum μ <= 1,
    is 0.  ``linprog`` minimizes, so the optimum of minus that weight is 0
    exactly for a common face."""
    from sympy import Matrix
    from sympy.solvers.simplex import linprog
    rays_a = [_sympy_ray(g) for g in a.generators]
    rays_b = [_sympy_ray(g) for g in b.generators]
    shared = set(rays_a) & set(rays_b)
    columns = rays_a + [tuple(-x for x in r) for r in rays_b]
    n = len(columns)
    cost = Matrix([[0 if r in shared else -1 for r in rays_a + rays_b]])
    equalities = Matrix([[c[i] for c in columns]
                         for i in range(len(rays_a[0]))])
    optimum, _ = linprog(cost, Matrix([[1] * n]), Matrix([1]),
                         equalities, Matrix.zeros(len(rays_a[0]), 1))
    return optimum == 0


def polar_certificate(space, germ) -> bool:
    """Whether a term h / prod L_i^(s_i) is a polar germ, decided in sympy:
    its pole forms v_i are independent, and h(x + t Q v_i) - h(x) expands
    to 0 for each of them, so no direction Q v_i varies the numerator."""
    from sympy import Matrix, Mul, Rational, expand, symbols
    xs, t = symbols(f"x1:{germ.numerator.nvars + 1}"), symbols("t")

    def h(point):
        return sum(Rational(c) * Mul(*(x ** n for x, n in zip(point, e)))
                   for e, c in germ.numerator.terms.items())

    forms = Matrix([[Rational(x) for x in v] for v, _ in germ.factors])
    if forms.rank() != len(germ.factors):
        return False
    gram = Matrix([[Rational(x) for x in row] for row in space.gram])
    for i in range(forms.rows):
        direction = gram * forms.row(i).T
        moved = [x + t * d for x, d in zip(xs, direction)]
        if expand(h(moved) - h(xs)) != 0:
            return False
    return True


def _in_cone_certificate(v, gens) -> bool:
    """Whether v lies in the cone of ``gens`` (sympy Rationals), by one
    bounded linear program: the most t with sum λ_i g_i = t v, λ, t >= 0
    and sum λ + t <= 1 is positive exactly when it does.  ``linprog``
    minimizes, so the optimum of -t is then negative.  The bound keeps the
    program finite; the zero-cost feasibility form runs for minutes."""
    from sympy import Matrix
    from sympy.solvers.simplex import linprog
    n = len(gens)
    cost = Matrix([[0] * n + [-1]])
    equalities = Matrix([[g[i] for g in gens] + [-v[i]]
                         for i in range(len(v))])
    optimum, _ = linprog(cost, Matrix([[1] * (n + 1)]), Matrix([1]),
                         equalities, Matrix.zeros(len(v), 1))
    return optimum < 0


def _primitive_rays(rays) -> list[tuple[int, ...]]:
    """The nonzero rays as primitive integer vectors, deduplicated, sorted:
    each one times the lcm of its denominators, over the gcd of its
    entries."""
    out = set()
    for r in rays:
        r = [Fraction(x) for x in r]
        if any(r):
            m = lcm(*(x.denominator for x in r))
            scaled = [int(x * m) for x in r]
            out.add(tuple(x // gcd(*scaled) for x in scaled))
    return sorted(out)


def extreme_ray_certificate(rays):
    """The extreme rays of the cone the rays generate, decided with sympy's
    linear program and nothing of this package; None when it holds a line.

    The rays are read as primitive and deduplicated.  The cone holds a line
    exactly when some -r lies in the cone of the rays, and a ray of a
    pointed cone is extreme exactly when it does not lie in the cone of
    the others."""
    from sympy import Rational
    rays = _primitive_rays(rays)
    gens = [tuple(Rational(x) for x in r) for r in rays]
    if any(_in_cone_certificate([-x for x in g], gens) for g in gens):
        return None
    return [r for r, g in zip(rays, gens)
            if not _in_cone_certificate(g, [h for h in gens if h != g])]


def facet_certificate(rays, eqs, normals) -> bool:
    """Whether ``eqs`` and ``normals`` are the hull of the pointed cone the
    rays generate, decided with sympy's ``Matrix.rank`` and nothing of
    this package.

    With d the rank of the rays, the equalities must annihilate their span
    and have rank k - d.  A facet is a supporting hyperplane whose tight
    rays have rank d - 1; each such set of d - 1 independent rays, with
    the annihilator, leaves one normal line, and a primitive y on it in the
    span of the rays is a facet normal when y >= 0 on every ray (after a
    sign flip).  Every kept normal must be one of those, each must be
    kept, once and sorted.  Lying in the span makes a normal unique."""
    from sympy import Matrix
    rays = _primitive_rays(rays)
    k, d = len(rays[0]), Matrix(rays).rank()
    eqs = [list(e) for e in eqs]
    if len(eqs) != k - d or (eqs and (Matrix(eqs).rank() != k - d or any(
            sum(a * b for a, b in zip(e, r)) for e in eqs for r in rays))):
        return False
    annihilator = [list(v) for v in Matrix(rays).nullspace()]
    facets = set()
    for tight in combinations(rays, d - 1):
        if d > 1 and Matrix(tight).rank() != d - 1:
            continue
        (y,) = Matrix([*map(list, tight), *annihilator]
                      if tight or annihilator else [[0] * k]).nullspace()
        y = _primitive_rays([y])[0]
        values = [sum(a * b for a, b in zip(y, r)) for r in rays]
        if min(values) < 0 < max(values):
            continue
        facets.add(y if max(values) > 0 else tuple(-a for a in y))
    return list(normals) == sorted(facets)


def tiling_certificate(pieces, member) -> bool:
    """Whether simplicial pieces that meet pairwise in common faces tile a
    member, decided in sympy alone; pair it with
    ``common_face_certificate``, since volumes see no overlap.  The member
    is given by its extreme rays, of dimension d >= 2, and its facets must
    be simplicial: a simplicial cone, or a cone of dimension 3.

    Member coordinates are those in a basis of its rays (the generators of
    a simplicial member), found by ``Matrix.gauss_jordan_solve``.  There
    the facets are the sets of d - 1 rays with every ray on one side of
    their span, and u, the sum of the facet normals, is positive on the
    cone and 1 on each generator of a simplicial member.  Each piece must
    have dimension d, its rays on the inner side of every facet and
    nonzero volume.  The pieces then cover the member exactly when their
    volumes below u = 1 add up to the member's.  Times d!, that volume is
    |det(c_i / <u, c_i>)| for a cone on rays of member coordinates c_i,
    and for the member the sum over its facets of |det(m, c_i / <u, c_i>)|
    on the facet's rays, with m the mean of the member's rays so cut."""
    from sympy import Matrix, Rational, zeros

    def column(v):
        return Matrix([Rational(x) for x in v])

    rays = [column(r) for r in member.rays]
    _, pivots = Matrix.hstack(*rays).rref()
    basis = Matrix.hstack(*(rays[j] for j in pivots))
    d = basis.cols
    own = [basis.gauss_jordan_solve(r)[0] for r in rays]
    facets, normals = [], []
    for face in combinations(own, d - 1):
        kernel = Matrix.hstack(*face).T.nullspace()
        if len(kernel) == 1:
            sides = {kernel[0].dot(c) for c in own} - {0}
            if all(x > 0 for x in sides) or all(x < 0 for x in sides):
                facets.append(face)
                normals.append(kernel[0] * (1 if max(sides) > 0 else -1))
    u = sum(normals, zeros(d, 1))

    def cut(c):
        return c / u.dot(c)

    mean = sum(map(cut, own), zeros(d, 1)) / len(own)
    whole = sum(abs(Matrix.hstack(mean, *map(cut, f)).det()) for f in facets)
    gens = list(dict.fromkeys(g for p in pieces for g in p.generators))
    if not gens:
        return False
    try:
        solved, _ = basis.gauss_jordan_solve(Matrix.hstack(*map(column, gens)))
    except ValueError:  # a ray off the member's span
        return False
    coords = dict(zip(gens, (solved.col(j) for j in range(len(gens)))))
    if any(n.dot(c) < 0 for n in normals for c in coords.values()):
        return False
    total = 0
    for piece in pieces:
        if len(piece.generators) != d:
            return False
        volume = abs(Matrix.hstack(*(cut(coords[g])
                                     for g in piece.generators)).det())
        if volume == 0:
            return False
        total += volume
    return total == whole


def coproduct_at(terms, point):
    """Sum of left(point) * right over the terms of a coproduct: the tensor
    with its left legs evaluated, a right leg of None read as 1."""
    k = len(point)
    polar, poly = [], Polynomial.zero(k)
    for t in terms:
        c = t.left.evaluate(point)
        if t.right is None:
            poly = poly + Polynomial.constant(k, c)
        else:
            polar.append(PolarGerm(t.right.numerator.scale(c),
                                   t.right.factors))
    return make_germ_sum(polar, poly)


def assert_coproducts_agree(space, f, g, points: int = 3):
    """``coproduct`` of f and of g are one tensor: at ``points`` seeded
    random integer points p, sum(left_i(p) * right_i) is one germ.  Term by
    term they may differ, as subdivision moves constants between legs."""
    rng = random.Random(points)
    cf, cg = coproduct(space, f), coproduct(space, g)
    for _ in range(points):
        p = [rng.randint(-5, 5) for _ in range(space.dimension)]
        assert germ_equal(coproduct_at(cf, p), coproduct_at(cg, p)), p


def residue_maps_reference(space: AmbientSpace, f, arr) -> dict:
    """The maps of ``residues`` on a germ or an expansion, by name, each
    read straight off a term list: an expansion's own terms, else those of
    ``decompose`` (the canonical expansion's for ``p_order`` and
    ``p_res``).  ``project_U_p`` is left out: it picks one component of
    ``graded_split``.  The reference the maps are checked against,
    structurally."""
    k = space.dimension
    zero = Polynomial.zero(k)
    x = f if isinstance(f, FormalExpansion) else laurent_expand(space,
                                                                as_mero(f))
    expanded = [PolarGerm(num, dc.factors) for dc, num in x.terms]
    if isinstance(f, FormalExpansion):
        terms, poly = expanded, f.polynomial_part
    else:
        s = decompose(space, f)
        terms, poly = list(s.terms), s.poly
    buckets = {}
    for t in terms:
        key = GradedComponentKey(span_key([v for v, _ in t.factors]),
                                 sum(e for _, e in t.factors))
        buckets.setdefault(key, []).append(t)
    split = {key: make_germ_sum(ts, zero) for key, ts in buckets.items()}
    if not poly.is_zero():
        split[GradedComponentKey((), 0)] = make_germ_sum([], poly)
    span = span_key([v for t in terms for v, _ in t.factors])
    r = mat_rank(arr.delta)
    top = max((sum(e for _, e in t.factors) for t in expanded), default=0)
    one = Polynomial.constant(k, 1)
    return {
        "graded_split": split,
        "pi_plus": poly,
        "pi_minus": make_germ_sum(terms, zero),
        "jk_residue": split.get(GradedComponentKey(span, len(span)),
                                make_germ_sum([], zero)),
        "brion_vergne_split": (
            make_germ_sum([t for t in terms if len(t.factors) == r], zero),
            make_germ_sum([t for t in terms if len(t.factors) != r], poly)),
        "p_order": top,
        "p_res": make_germ_sum(
            [PolarGerm(Polynomial.constant(k, t.numerator.constant_term()),
                       t.factors)
             for t in expanded if sum(e for _, e in t.factors) == top], zero),
        "coproduct": [CoproductTerm(t.numerator, PolarGerm(one, t.factors))
                      for t in terms]
        + ([] if poly.is_zero() else [CoproductTerm(poly, None)]),
    }


def mero_sum(germs, nvars: int) -> MeromorphicGerm:
    """Exact sum of germs in ``nvars`` variables, by ``fraction_sum``."""
    return fraction_sum([(g.numerator, g.den) for g in germs], nvars)


def fraction_sum_reference(fractions, nvars: int) -> MeromorphicGerm:
    """``fraction_sum`` as it was before its arrangement was ordered by use:
    the forms in lexicographic order, each nbc step one ``nullspace`` of the
    later members and one ``solve``, and the survivors added over their
    least common denominator with every cofactor built by ``den_poly``.  The
    reference the ordered sum is checked against, structurally."""
    merged = sum_by_factors(fractions)
    arrangement = sorted({v for den in merged for v, _ in den})
    if len(merged) > 1 and mat_rank(tuple(arrangement)) < len(arrangement):
        rewritten = _lexicographic_nbc_rewrite(merged, arrangement, len(merged))
        if rewritten is not None:
            merged = rewritten
    if not merged:
        return make_mero(Polynomial.zero(nvars))
    lcm = {}
    for den in merged:
        for v, e in den:
            lcm[v] = max(lcm.get(v, 0), e)
    num = Polynomial.zero(nvars)
    for den, part in merged.items():
        own = dict(den)
        cofactor = tuple((v, e - own.get(v, 0)) for v, e in lcm.items()
                         if e > own.get(v, 0))
        num = num + part * den_poly(nvars, cofactor)
    return make_mero(num, tuple(lcm.items()))


def _lexicographic_nbc_rewrite(fractions, arrangement, limit=None):
    """The nbc rewrite over a sorted arrangement, keyed by sort position."""
    n = len(arrangement)
    index = {v: i for i, v in enumerate(arrangement)}
    steps = {}

    def nbc_step(forms):
        lo = 0
        for j, i in enumerate(forms):
            members = forms[j:]
            candidates = range(lo, i)
            lo = i
            if not candidates:
                continue
            vectors = [arrangement[m] for m in members]
            normals = nullspace(tuple(vectors))
            for l0 in candidates:
                x = arrangement[l0]
                if all(vec_dot(x, w) == 0 for w in normals):
                    coords = solve(mat_from_columns(vectors), x)
                    return l0, [(m, c) for m, c in zip(members, coords) if c]
        return None

    def expand(key, num):
        if num.is_zero():
            return []
        forms = tuple(i for i, _ in key)
        if forms not in steps:
            steps[forms] = nbc_step(forms)
        if steps[forms] is None:
            return None
        l0, coords = steps[forms]
        return [(_exchanged(key, i, l0), num.scale(c)) for i, c in coords]

    start = {tuple((index[v], e) for v, e in den): num
             for den, num in fractions.items()}
    out = _exchange_worklist(
        start, lambda key: sum((n - i) * e for i, e in key), expand, limit)
    if out is None:
        return None
    return {tuple((arrangement[i], e) for i, e in key): num
            for key, num in out.items()}


def _per_suffix_nbc_rewrite(fractions, arrangement, limit=None):
    """``germs._nbc_rewrite`` with its nbc step searched one member suffix
    at a time: the candidates between two members are tested in one
    reduction of [the later members | those candidates] as columns, and
    the pivot members, earliest first, give the coordinates.  The reference
    the one-elimination step is checked against, key order included."""
    n = len(arrangement)
    index = {v: i for i, v in enumerate(arrangement)}

    @functools.cache
    def nbc_step(forms):
        lo = 0
        for j, i in enumerate(forms):
            members = forms[j:]
            candidates = range(lo, i)
            lo = i
            if not candidates:
                continue
            rows, pivots = _reduced_rows(mat_from_columns(
                [arrangement[m] for m in members + tuple(candidates)]))
            m = len(members)
            for col, l0 in enumerate(candidates, m):
                if any(row[col] for row, p in zip(rows, pivots) if p >= m):
                    continue
                return l0, [(members[p], Fraction(row[col], row[p]))
                            for row, p in zip(rows, pivots)
                            if p < m and row[col]]
        return None

    def expand(key, num):
        if num.is_zero():
            return []
        step = nbc_step(tuple(i for i, _ in key))
        if step is None:
            return None
        l0, coords = step
        return [(_exchanged(key, i, l0), num.scale(c)) for i, c in coords]

    start = {tuple(sorted((index[v], e) for v, e in den)): num
             for den, num in fractions.items()}
    out = _exchange_worklist(
        start, lambda key: sum((n - i) * e for i, e in key), expand, limit)
    if out is None:
        return None
    return {tuple(sorted((arrangement[i], e) for i, e in key)): num
            for key, num in out.items()}


def to_germ_reference(node, k: int) -> MeromorphicGerm:
    """``exprio.to_germ`` with nothing kept: a divisor is inverted anew
    wherever it is met, by its factors first and whole where a factor has
    no inverse, and a quotient divisor a/b inverts b once to check it and
    again inside the conversion of b.  The reference the conversion that
    inverts each divisor once is checked against, errors included."""
    if isinstance(node, Num):
        return make_mero(Polynomial.constant(k, node.value))
    if isinstance(node, Var):
        return make_mero(Polynomial.variable(k, node.index))
    if isinstance(node, Neg):
        return mero_neg(to_germ_reference(node.operand, k))
    if isinstance(node, Pow):
        if node.exponent < 0:
            return _mero_pow(_inverse_reference(node.base, k), -node.exponent)
        return _mero_pow(to_germ_reference(node.base, k), node.exponent)
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    a = to_germ_reference(node, k)
    for link in reversed(chain):
        right = (_inverse_reference(link.right, k) if link.op == "/"
                 else to_germ_reference(link.right, k))
        a = _BINOPS[link.op](a, right)
    return a


def _inverse_reference(node, k: int) -> MeromorphicGerm:
    if (isinstance(node, Neg) or isinstance(node, Pow) and node.exponent > 0
            or isinstance(node, BinOp) and node.op in ("*", "/")):
        try:
            return _inverse_by_factors_reference(node, k)
        except (NonLinearPole, ZeroDivisionError):
            pass
    return _mero_invert(to_germ_reference(node, k))


def _inverse_by_factors_reference(node, k: int) -> MeromorphicGerm:
    if isinstance(node, Pow) and node.exponent > 0:
        return _mero_pow(_inverse_by_factors_reference(node.base, k),
                         node.exponent)
    if isinstance(node, Neg):
        return mero_neg(_inverse_by_factors_reference(node.operand, k))
    if isinstance(node, BinOp) and node.op == "/":
        _inverse_reference(node.right, k)
        return mero_mul(to_germ_reference(node.right, k),
                        _inverse_by_factors_reference(node.left, k))
    chain = []
    while isinstance(node, BinOp) and node.op == "*":
        chain.append(node.right)
        node = node.left
    if not chain:
        return _mero_invert(to_germ_reference(node, k))
    out = _inverse_by_factors_reference(node, k)
    for right in reversed(chain):
        out = mero_mul(out, _inverse_by_factors_reference(right, k))
    return out
