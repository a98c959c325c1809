"""Expression parsing/printing, germ conversion, and JSON round trips."""

import json
import random
import time
from fractions import Fraction

import pytest

from laurentgerms import exprio
from laurentgerms.cones import ConeFamily, make_simplicial_cone
from laurentgerms.errors import (
    ExprSyntaxError,
    FormatError,
    NonLinearPole,
    UnknownVariable,
)
from laurentgerms.exact import AmbientSpace, Polynomial, vec
from laurentgerms.expand import laurent_expand, phi
from laurentgerms.germs import (
    MeromorphicGerm,
    as_mero,
    decompose,
    evaluate,
    germ_equal,
    make_mero,
    mero_add,
    mero_mul,
    mero_neg,
)
from laurentgerms.exprio import (
    BinOp,
    Neg,
    Num,
    Pow,
    SessionConfig,
    Var,
    ast_evaluate,
    ast_to_string,
    deserialize,
    frac_str,
    from_json,
    load_cone_family,
    load_rows,
    parse_expr,
    parse_frac,
    parse_germ,
    serialize,
    to_germ,
    to_json,
)

F = Fraction


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_builds_the_expected_tree():
    assert parse_expr("x1+x2*x2", 2) == BinOp(
        "+", Var(0), BinOp("*", Var(1), Var(1)))
    assert parse_expr("x1-x2-1", 2) == BinOp(
        "-", BinOp("-", Var(0), Var(1)), Num(F(1)))
    assert parse_expr("-x1^2", 2) == Neg(Pow(Var(0), 2))
    assert parse_expr("x1^-2", 2) == Pow(Var(0), -2)
    assert parse_expr("(x1+x2)^3", 2) == Pow(BinOp("+", Var(0), Var(1)), 3)
    assert parse_expr(" eps2 ", 2) == Var(1)
    assert parse_expr("1/2", 1) == BinOp("/", Num(F(1)), Num(F(2)))


def test_print_uses_minimal_parentheses():
    cases = [
        ("1/(x1*x2)", "1/(eps1*eps2)"),
        ("x1 - (x2 - 1)", "eps1-(eps2-1)"),
        ("(x1+x2)^2", "(eps1+eps2)^2"),
        ("-(x1+x2)", "-(eps1+eps2)"),
        ("-x1*x2", "-eps1*eps2"),  # unary minus binds tighter than *
        ("x1^-1", "eps1^-1"),
        ("2*(x1+x2)", "2*(eps1+eps2)"),
        ("x1*x2/(x1+x2)", "eps1*eps2/(eps1+eps2)"),
    ]
    for src, want in cases:
        assert ast_to_string(parse_expr(src, 2)) == want


def random_ast(rng, k, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Num(F(rng.randint(0, 9)))
        return Var(rng.randrange(k))
    if roll < 0.45:
        return Neg(random_ast(rng, k, depth - 1))
    if roll < 0.55:
        return Pow(random_ast(rng, k, depth - 1),
                   rng.choice([-2, -1, 2, 3]))
    op = rng.choice("+-*/")
    return BinOp(op, random_ast(rng, k, depth - 1),
                 random_ast(rng, k, depth - 1))


def test_parse_inverts_print_on_random_trees():
    rng = random.Random(70)
    for _ in range(50):
        node = random_ast(rng, 2, 4)
        text = ast_to_string(node)
        assert parse_expr(text, 2) == node


def test_print_is_stable_under_reparsing():
    rng = random.Random(71)
    for _ in range(50):
        text = ast_to_string(random_ast(rng, 3, 3))
        assert ast_to_string(parse_expr(text, 3)) == text


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + + x2", 2)
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x1", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 x2", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 @ x2", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1^x2", 2)


def test_too_deep_input_is_a_syntax_error_not_a_crash():
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse_expr("(" * 2000 + "x1" + ")" * 2000, 2)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse_germ("(" * 2000 + "x1" + ")" * 2000, 2)
    # parses iteratively, and its 3000-level left spine converts in a loop
    long_sum = "x1" + "+x1" * 3000
    assert isinstance(parse_expr(long_sum, 2), BinOp)
    assert parse_germ(long_sum, 2) == parse_germ("3001*x1", 2)
    long_quotient = "x1" + "*x2/x1" * 1500
    assert parse_germ(long_quotient, 2) == parse_germ("x2^1500/x1^1499", 2)


def test_unknown_variables_are_rejected():
    with pytest.raises(UnknownVariable):
        parse_expr("x3", 2)
    with pytest.raises(UnknownVariable):
        parse_expr("x0", 2)
    with pytest.raises(UnknownVariable):
        parse_expr("y1", 2)
    assert parse_expr("x3", 3) == Var(2)


# ---------------------------------------------------------------------------
# conversion to germs

def test_germ_conversion_known_values():
    assert germ_equal(parse_germ("1/(x1*x2)", 2),
                      make_mero(Polynomial.constant(2, 1),
                                ((vec([1, 0]), 1), ((vec([0, 1])), 1))))
    # cancellation happens exactly
    assert parse_germ("(x1^2-x2^2)/(x1-x2)", 2).is_polynomial()
    assert germ_equal(parse_germ("(x1^2-x2^2)/(x1-x2)", 2),
                      parse_germ("x1+x2", 2))
    assert germ_equal(parse_germ("x1^-2", 2),
                      make_mero(Polynomial.constant(2, 1),
                                ((vec([1, 0]), 2),)))


def test_germ_conversion_factors_products_of_linear_forms():
    g = parse_germ("1/(x1^2+2*x1*x2+x2^2)", 2)  # (x1+x2)^2
    assert germ_equal(g, make_mero(Polynomial.constant(2, 1),
                                   ((vec([1, 1]), 2),)))


def test_germ_conversion_rejects_non_linear_poles():
    with pytest.raises(NonLinearPole):
        parse_germ("1/(x1*x2+1)", 2)
    with pytest.raises(NonLinearPole):
        parse_germ("1/(x1^2+x2^2)", 2)


def test_powers_are_the_repeated_products():
    for src in ("x1", "x1+2*x2", "(x1-x2)/(x1*(x1+x2)^2)", "3/x2", "0", "1"):
        base = parse_germ(src, 2)
        inverse = parse_germ(f"1/({src})", 2) if src != "0" else None
        power = make_mero(Polynomial.constant(2, 1))
        for e in range(5):
            assert parse_germ(f"({src})^{e}", 2) == power
            if inverse is not None:
                assert parse_germ(f"({src})^-{e}", 2) == parse_germ(
                    f"1/({src})^{e}", 2)
            power = mero_mul(power, base)
    big = make_mero(Polynomial.constant(1, 1), ((vec([1]), 20000),))
    assert parse_germ("1/x1^20000", 1) == parse_germ("x1^-20000", 1) == big


def test_a_high_power_of_a_linear_divisor_is_not_expanded():
    start = time.perf_counter()
    g = parse_germ("1/(x1+x2)^2000", 2)
    minus = parse_germ("1/-(x1+x2)^2000", 2)
    assert time.perf_counter() - start < 1.0
    assert g == make_mero(Polynomial.constant(2, 1), ((vec([1, 1]), 2000),))
    assert minus == mero_neg(g)


def _whole_inverse(node, k):
    """Reference: expand the divisor and factor it as one polynomial."""
    return exprio._mero_invert(to_germ(node, k))


def _outcome(fn):
    try:
        return fn()
    except (NonLinearPole, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_divisors_inverted_by_factors_match_the_whole_inverse():
    rng = random.Random(17)
    seen = set()
    factors = ["x1", "x2", "x1+x2", "2*x1-3*x2", "x1-x2+x3", "3", "-1",
               "x1^2+x2^2", "x1*x2+1", "x1-x1", "x1^2-x2^2",
               "(x1^2+x2^2)^-1", "x3^-2"]
    for _ in range(200):
        den = "*".join(f"({rng.choice(factors)})^{rng.randint(1, 3)}"
                       for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            den = f"({den})^{rng.randint(1, 2)}"
        if rng.random() < 0.3:
            den = f"-{den}"
        num = rng.choice(["1", "x1", "x2^2-x3", "(x1^2+x2^2)*x3"])
        node = parse_expr(den, 3)
        numerator = to_germ(parse_expr(num, 3), 3)
        quotient = _outcome(lambda: parse_germ(f"({num})/({den})", 3))
        assert quotient == _outcome(
            lambda: mero_mul(numerator, _whole_inverse(node, 3)))
        seen.add(quotient[0] if isinstance(quotient, tuple) else type(quotient))
        assert _outcome(lambda: parse_germ(f"({den})^-2", 3)) == _outcome(
            lambda: mero_mul(*[_whole_inverse(node, 3)] * 2))
    assert seen == {MeromorphicGerm, NonLinearPole, ZeroDivisionError}


def test_division_by_the_zero_germ_is_an_error():
    with pytest.raises(ZeroDivisionError):
        parse_germ("1/(x1-x1)", 2)
    with pytest.raises(ZeroDivisionError):
        parse_germ("x1^0/0", 2)


def test_ast_and_germ_evaluation_agree():
    rng = random.Random(72)
    exprs = ["(x1+2*x2)/(x1*(x1+x2)*x2)", "1/(x1*x2)", "x1^-2+x2^3",
             "(x1-x2)/(x1+x2)", "2-x1*(x1-3)/(x2*x2)"]
    for src in exprs:
        node = parse_expr(src, 2)
        g = parse_germ(src, 2)
        done = 0
        while done < 5:
            pt = (F(rng.randint(1, 9), rng.randint(1, 4)),
                  F(rng.randint(1, 9), rng.randint(1, 4)))
            try:
                direct = ast_evaluate(node, pt)
            except ZeroDivisionError:
                continue
            assert evaluate(g, pt) == direct
            done += 1


# ---------------------------------------------------------------------------
# rational scalars

def test_frac_str_and_parse_frac_round_trip():
    assert frac_str(F(3, 2)) == "3/2"
    assert frac_str(F(-5)) == "-5"
    assert parse_frac("3/2") == F(3, 2)
    assert parse_frac(7) == F(7)
    assert parse_frac("-5") == F(-5)
    for bad in (True, 1.5, None, "abc", "1/0", [1]):
        with pytest.raises(FormatError):
            parse_frac(bad)


# ---------------------------------------------------------------------------
# JSON serialization

def test_germ_serialization_snapshot():
    g = make_mero(Polynomial.constant(2, 2),
                  ((vec([1, 0]), 1), (vec([1, 1]), 2)))
    assert serialize(g) == {
        "kind": "germ", "dim": 2, "numerator": "2",
        "denominator": [{"form": ["1", "0"], "power": 1},
                        {"form": ["1", "1"], "power": 2}]}


def test_serialization_round_trips_every_kind():
    sp = AmbientSpace.standard(2)
    f = parse_germ("(x1+2*x2)/(x1*(x1+x2)*x2)", 2)
    poly = parse_germ("1+x1*x2", 2).numerator
    gs = decompose(sp, f)
    expansion = laurent_expand(sp, f)
    cone = make_simplicial_cone([(1, 0), (1, 2)])
    family = ConeFamily((cone, make_simplicial_cone([(0, 1), (1, 1)])))
    for obj in (poly, f, gs.terms[0], gs, expansion, cone, family):
        back = from_json(to_json(obj))
        if hasattr(obj, "support"):  # expansions compare structurally
            assert back.terms == obj.terms
            assert back.polynomial_part == obj.polynomial_part
        else:
            assert back == obj


def test_json_output_never_contains_floats():
    # the form (2,2) normalizes to (1,1) and the scale moves to the numerator
    f = parse_germ("1/(2*x1+2*x2)", 2)
    text = to_json(f)
    assert "0.5" not in text
    assert "1/2" in text


def test_empty_germ_sum_round_trips():
    data = {"kind": "germ-sum", "dim": 2, "polar": [], "poly": "0"}
    gs = deserialize(data)
    assert gs.terms == () and gs.poly == Polynomial.zero(2)
    assert serialize(gs) == data


def test_deserialize_rejects_malformed_input():
    bad_cases = [
        [],                                              # not an object
        {"dim": 2},                                      # missing kind
        {"kind": "mystery", "dim": 2},                   # unknown kind
        {"kind": "polynomial", "poly": "x1"},            # missing dim
        {"kind": "polynomial", "dim": 0, "poly": "1"},   # bad dim
        {"kind": "polynomial", "dim": 2, "poly": "x3"},  # var out of range
        {"kind": "polynomial", "dim": 2, "poly": "1/(x1)"},  # not polynomial
        {"kind": "germ", "dim": 2, "numerator": "1",
         "denominator": [{"power": 1}]},                 # factor sans form
        {"kind": "germ", "dim": 2, "numerator": "1",
         "denominator": [{"form": ["1", "0"], "power": 0}]},
        {"kind": "germ", "dim": 2, "numerator": "1",
         "denominator": [{"form": ["1", 0.5]}]},         # float coordinate
        {"kind": "cone", "dim": 2, "generators": []},
        {"kind": "cone", "dim": 2,
         "generators": [["1", "0"], ["2", "0"]]},        # dependent rays
        {"kind": "cone", "dim": 2,
         "generators": [["1"], ["1", "0"]]},             # mixed dimension
    ]
    for data in bad_cases:
        with pytest.raises(FormatError):
            deserialize(data)
    with pytest.raises(FormatError):
        from_json("{not json")


def _raw_factors(rng, k):
    """Pole factors as a file may give them: unsorted, repeated, scaled,
    and of either sign."""
    basis = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (0, 0, 1)]
    out = []
    for _ in range(rng.randint(1, 3)):
        v = rng.choice(basis)[:k]
        if not any(v):
            continue
        c = rng.choice([1, 2, -1, -3, F(1, 2)])
        out.append(([str(c * a) for a in v], rng.randint(1, 2)))
    return out


def test_deserialized_factors_are_canonical():
    """Sums of deserialized germ-sums, polar germs and expansions are the
    sums of their terms, however the file writes the pole factors."""
    rng = random.Random(6)
    one = Polynomial.constant(2, 1)
    # 1/(2 x1)^2 + 1/x1 + 1/x2: dependent forms, one of them repeated
    data = {"kind": "germ-sum", "dim": 2, "poly": "0", "polar": [
        {"numerator": "1", "factors": [{"form": ["2", "0"]},
                                       {"form": ["2", "0"]}]},
        {"numerator": "1", "factors": [{"form": ["1", "0"]}]},
        {"numerator": "1", "factors": [{"form": ["0", "1"]}]}]}
    expected = mero_add(mero_add(
        make_mero(one, [((2, 0), 2)]), make_mero(one, [((1, 0), 1)])),
        make_mero(one, [((0, 1), 1)]))
    assert as_mero(deserialize(data)) == expected
    for trial in range(60):
        k = rng.choice([2, 3])
        terms = []
        for _ in range(rng.randint(1, 4)):
            num = rng.choice(["1", "-2", "x1", "3/2"])
            terms.append((num, _raw_factors(rng, k)))
        fac = [[{"form": v, "power": e} for v, e in raw] for _, raw in terms]
        expected = make_mero(Polynomial.zero(k))
        for num, raw in terms:
            expected = mero_add(expected, make_mero(
                parse_germ(num, k).numerator,
                [(vec(v), e) for v, e in raw]))
        gs = deserialize({"kind": "germ-sum", "dim": k, "poly": "0",
                          "polar": [{"numerator": num, "factors": f}
                                    for (num, _), f in zip(terms, fac)]})
        ex = deserialize({"kind": "expansion", "dim": k, "poly": "0",
                          "terms": [{"numerator": num, "factors": f}
                                    for (num, _), f in zip(terms, fac)]})
        assert as_mero(gs) == expected, trial
        assert phi(ex) == expected, trial
        assert germ_equal(gs, expected)
        pg = deserialize({"kind": "polar-germ", "dim": k,
                          "numerator": terms[0][0], "factors": fac[0]})
        assert pg.as_mero() == make_mero(parse_germ(terms[0][0], k).numerator,
                                         [(vec(v), e) for v, e in terms[0][1]])
        for obj in (gs, ex, pg):
            assert from_json(to_json(obj)) == obj


def test_zero_or_misdimensioned_pole_form_is_a_format_error():
    for kind, key in (("germ", "denominator"), ("polar-germ", "factors")):
        for form, message in ((["0", "0"], "zero vector"),
                              (["1", "2", "3"], "expected 2 coordinates"),
                              (["1"], "expected 2 coordinates")):
            with pytest.raises(FormatError, match=message):
                deserialize({"kind": kind, "dim": 2, "numerator": "1",
                             key: [{"form": form}]})


# ---------------------------------------------------------------------------
# input files

def test_load_rows(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([["1", "0"], ["1/2", "-3"]]))
    assert load_rows(str(path)) == [(F(1), F(0)), (F(1, 2), F(-3))]
    path.write_text(json.dumps([["1", "0"], ["1"]]))
    with pytest.raises(FormatError):
        load_rows(str(path))
    with pytest.raises(FormatError):
        load_rows(str(tmp_path / "absent.json"))


def test_load_cone_family_accepts_both_shapes(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([[[1, 0], [1, 1]], [[0, 1], [1, 1]]]))
    cones = load_cone_family(str(bare))
    assert [c.generators for c in cones] == [
        (vec([1, 0]), vec([1, 1])), (vec([0, 1]), vec([1, 1]))]

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps(
        {"kind": "cone-family", "dim": 2,
         "cones": [[["1", "0"], ["1", "1"]]]}))
    assert len(load_cone_family(str(wrapped))) == 1

    single = tmp_path / "single.json"
    single.write_text(json.dumps(
        {"kind": "cone", "dim": 2, "generators": [["1", "0"]]}))
    assert len(load_cone_family(str(single))) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[[1, 0], [2, 0]]]))
    with pytest.raises(FormatError):
        load_cone_family(str(bad))


# ---------------------------------------------------------------------------
# session configuration

def test_session_config_builds_spaces():
    cfg = SessionConfig.standard(3)
    assert cfg.dimension == 3
    assert cfg.space() == AmbientSpace.standard(3)
    assert cfg.truncation == 8 and cfg.dim_cap == 6
    custom = SessionConfig(2, ((F(2), F(1)), (F(1), F(1))), truncation=4)
    assert custom.space().pairing(vec([1, 0]), vec([0, 1])) == F(1)
