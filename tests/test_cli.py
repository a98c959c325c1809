"""End-to-end command-line behavior, exit codes, and output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laurentgerms.cli import main
from laurentgerms.cones import (
    ConeFamily,
    common_refinement,
    make_simplicial_cone,
)
from laurentgerms.exprio import deserialize, from_json, parse_germ
from laurentgerms.germs import germ_equal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, *argv):
    code, captured = run(capsys, *argv)
    assert code == 0, captured.err
    return json.loads(captured.out)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# verification and decomposition

def test_verify_reports_exact_equality(capsys):
    got = run_json(capsys, "verify", "1/(x1*x2)",
                   "1/(x1*(x1+x2)) + 1/(x2*(x1+x2))")
    assert got == {"kind": "verify", "dim": 2, "equal": True}
    got = run_json(capsys, "verify", "1/(x1*x2)", "1/(x1*(x1+x2))")
    assert got["equal"] is False


def test_decompose_splits_polar_and_polynomial_parts(capsys):
    got = run_json(capsys, "decompose", "(x1+x2^2)/x1")
    assert got["kind"] == "germ-sum"
    assert got["poly"] == "1"
    assert got["polar"] == [{"numerator": "eps2^2",
                             "factors": [{"form": ["1", "0"], "power": 1}]}]


def test_decompose_of_a_pole_form_with_a_huge_coefficient(capsys):
    # finding the form needs the rational roots of 1 + 10^40 t
    got = run_json(capsys, "decompose", "1/(x1+10^40*x2)")
    assert got["poly"] == "0"
    assert got["polar"] == [{"numerator": "1", "factors": [
        {"form": ["1", str(10 ** 40)], "power": 1}]}]


def test_integers_beyond_the_interpreters_digit_cap_parse_and_print(
        capsys, default_int_digits):
    # 4,300 digits is the default cap on int <-> str conversions; the
    # command lifts it, so both the literal and the computed power work
    literal = 7 * (10 ** 5000 - 1) // 9
    for text, value in (("7" * 5000 + "/x1", literal),
                        ("10^5000/x1", 10 ** 5000)):
        sys.set_int_max_str_digits(4300)
        got = run_json(capsys, "decompose", text)
        [term] = deserialize(got).terms
        assert term.numerator.constant_term() == value
        assert term.factors == (((1, 0), 1),)


def test_laurent_expansion_known_coefficients(capsys, tmp_path):
    def summarize(payload):
        return {(tuple(tuple(f["form"]) for f in t["factors"]),
                 t["numerator"]) for t in payload["terms"]}

    got = run_json(capsys, "laurent", "(x1+2*x2)/(x1*(x1+x2)*x2)")
    assert got["kind"] == "expansion" and got["poly"] == "0"
    assert summarize(got) == {
        ((("1", "0"), ("1", "1")), "2"),
        ((("0", "1"), ("1", "1")), "1"),
    }
    support = write_json(tmp_path, "fam.json",
                         [[[1, 0], [1, 1]], [[0, 1], [1, 1]]])
    same = run_json(capsys, "laurent", "(x1+2*x2)/(x1*(x1+x2)*x2)",
                    "--support", support)
    assert same == got


def test_laurent_reads_a_support_file_as_a_set(capsys, tmp_path):
    # a member listed twice counts once; summed, its numerator would be 2
    a, b = [[1, 0], [1, 1]], [[0, 1], [1, 1]]
    once = run_json(capsys, "laurent", "1/(x1*x2)", "--support",
                    write_json(tmp_path, "once.json", [a, b]))
    twice = run_json(capsys, "laurent", "1/(x1*x2)", "--support",
                     write_json(tmp_path, "twice.json", [a, a, b]))
    assert twice == once
    assert {t["numerator"] for t in once["terms"]} == {"1"}


def test_projections(capsys):
    plus = run_json(capsys, "project-plus", "(1+x1)/x1")
    assert plus == {"kind": "polynomial", "dim": 2, "poly": "1"}
    minus = run_json(capsys, "project-minus", "(1+x1)/x1")
    assert minus["polar"] == [{"numerator": "1",
                               "factors": [{"form": ["1", "0"], "power": 1}]}]


def test_grade_orders_components_by_span_and_order(capsys):
    got = run_json(capsys, "grade", "1/(x1*x2) + 1/x1")
    assert got["kind"] == "graded-split"
    assert [(c["span"], c["p_order"]) for c in got["components"]] == [
        ([["1", "0"]], 1),
        ([["1", "0"], ["0", "1"]], 2),
    ]


def test_jk_residue_command(capsys, tmp_path):
    got = run_json(capsys, "jk", "1/(x1*x2)")
    assert len(got["polar"]) == 1
    axis = write_json(tmp_path, "axis.json", [["1", "0"]])
    kept = run_json(capsys, "jk", "1/x1", "--subspace", axis)
    assert len(kept["polar"]) == 1
    dropped = run_json(capsys, "jk", "1/x1^2", "--subspace", axis)
    assert dropped["polar"] == [] and dropped["poly"] == "0"


def test_brion_vergne_command(capsys, tmp_path):
    arr = write_json(tmp_path, "arr.json", [[1, 0], [0, 1], [1, 1]])
    got = run_json(capsys, "brion-vergne", "1/(x1*x2) + 1/x1^2",
                   "--arrangement", arr)
    assert got["kind"] == "brion-vergne"
    assert len(got["generating"]["polar"]) == 1
    assert len(got["rest"]["polar"]) == 1
    assert got["rest"]["polar"][0]["factors"][0]["power"] == 2


def test_p_order_and_p_res_commands(capsys):
    assert run_json(capsys, "p-order", "1/(x1*x2)") == {
        "kind": "p-order", "dim": 2, "p_order": 2}
    got = run_json(capsys, "p-res", "(1+x2)/x1^2")
    assert got["polar"] == [{"numerator": "1",
                             "factors": [{"form": ["1", "0"], "power": 2}]}]


def test_coproduct_command(capsys):
    got = run_json(capsys, "coproduct", "x1+x2")
    assert got == {"kind": "coproduct", "dim": 2,
                   "terms": [{"left": "eps2 + eps1", "right": None}]}


# ---------------------------------------------------------------------------
# cone subcommands

def test_cone_refine_reports_pieces_per_input(capsys, tmp_path):
    family = write_json(tmp_path, "family.json",
                        [[[1, 0], [0, 1]], [[1, 0], [1, 1]]])
    got = run_json(capsys, "cone", "refine", family)
    assert got["kind"] == "refinement"
    assert len(got["pieces"]) == 2
    assert got["index_sets"] == [[0, 1], [1]]


def test_a_refinement_reads_back_as_a_cone_family(capsys, tmp_path):
    # cone refine of a cut family writes pieces that cone check and
    # laurent --support read as they are, and from_json reads as a family
    expr = "1/(x1*x2*(x1+x2))"
    rows = [[[1, 0], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 1]]]
    family = write_json(tmp_path, "family.json", rows)
    refined = run_json(capsys, "cone", "refine", family)
    assert len(refined["pieces"]) == 2
    pieces, _ = common_refinement([make_simplicial_cone(c) for c in rows])
    assert from_json(json.dumps(refined)) == ConeFamily(tuple(pieces))
    path = write_json(tmp_path, "refined.json", refined)
    got = run_json(capsys, "cone", "check", path)
    assert got == {"kind": "positioning-check",
                   "properly_positioned": True, "witness": None}
    assert main(["laurent", expr]) == 0
    plain = capsys.readouterr().out
    assert main(["laurent", expr, "--support", path]) == 0
    assert capsys.readouterr().out == plain
    # a malformed refinement is named by its own key
    bad = write_json(tmp_path, "bad.json",
                     {"kind": "refinement", "dim": 2, "pieces": 3})
    code, captured = run(capsys, "cone", "check", bad)
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {bad}: pieces: expected a list\n"


def test_an_empty_support_file_expands_only_a_polynomial(capsys, tmp_path):
    empty = write_json(tmp_path, "empty.json", [])
    code, captured = run(capsys, "laurent", "1/(x1*x2)", "--support", empty)
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: the support does not tile the pole "
                            "cones of decompose(f)\n")
    got = run_json(capsys, "laurent", "x1^2+3*x2", "--support", empty)
    assert got == run_json(capsys, "laurent", "x1^2+3*x2")
    assert got["terms"] == []


def test_laurent_expands_on_a_support_finer_than_the_canonical_one(
        capsys, tmp_path):
    # one full-dimensional piece of the canonical support, starred at the
    # sum of its generators: the members do not tile the pole cones of
    # decompose, and the canonical expansion moves onto them
    expr = ("(1/4*x2+1/4*x3^2-1/8*x2^2)/"
            "((2*x3+x2-2*x1)*(x3+x2-x1)*(x3-2*x2)*(x3-x2))")
    plain = run_json(capsys, "--dim", "3", "laurent", expr)
    support = list(dict.fromkeys(tuple(tuple(int(c) for c in f["form"])
                                       for f in t["factors"])
                                 for t in plain["terms"]))
    sigma = next(c for c in support if len(c) == 3)
    w = [sum(c) for c in zip(*sigma)]
    family = ([c for c in support if c != sigma]
              + [[w if h == g else h for h in sigma] for g in sigma])
    path = write_json(tmp_path, "starred.json", family)
    got = run_json(capsys, "--dim", "3", "laurent", expr, "--support", path)
    assert len(plain["terms"]) == 13 and len(got["terms"]) == 15
    assert germ_equal(deserialize(got), parse_germ(expr, 3))


def test_cone_check_finds_witnesses(capsys, tmp_path):
    good = write_json(tmp_path, "good.json",
                      [[[1, 0], [1, 1]], [[0, 1], [1, 1]]])
    got = run_json(capsys, "cone", "check", good)
    assert got == {"kind": "positioning-check",
                   "properly_positioned": True, "witness": None}

    overlap = write_json(tmp_path, "overlap.json",
                         [[[1, 0], [0, 1]], [[1, 0], [1, 1]]])
    got = run_json(capsys, "cone", "check", overlap)
    assert got["properly_positioned"] is False
    assert got["witness"] == {"pair": [0, 1],
                              "reason": "intersection is not a common face"}

    line = write_json(tmp_path, "line.json", [[[1, 0]], [[-1, 0]]])
    got = run_json(capsys, "cone", "check", line)
    assert got["witness"]["reason"] == "union contains a line"


def test_cone_check_honours_the_dimension_cap(capsys, tmp_path):
    family = write_json(tmp_path, "family3.json",
                        [[[1, 0, 0], [1, 1, 0], [0, 0, 1]],
                         [[0, 1, 0], [1, 1, 0], [0, 0, 1]]])
    code, captured = run(capsys, "--dim", "3", "--dim-cap", "2",
                         "cone", "check", family)
    assert code == 4
    assert captured.out == "" and captured.err.startswith("error:")
    got = run_json(capsys, "--dim", "3", "--dim-cap", "3",
                   "cone", "check", family)
    assert got["properly_positioned"] is True


# ---------------------------------------------------------------------------
# exponential sums

def test_exp_sum_smooth_report(capsys, tmp_path):
    cone = write_json(tmp_path, "cone.json", [[1, 0], [1, 1]])
    got = run_json(capsys, "exp-sum", "--cone", cone)
    assert got["smooth"] is True
    assert got["p_order"] == 2
    assert got["truncation"] == 8
    want = [{"numerator": "1", "factors": [{"form": ["1", "0"], "power": 1},
                                           {"form": ["1", "1"], "power": 1}]}]
    assert got["p_res"]["polar"] == want
    assert got["exp_integral"]["polar"] == want
    check = got["numeric_check"]
    assert check["point"] == ["-1", "0"] and check["height"] == 40
    assert check["residual"] < 1e-6

    shallow = run_json(capsys, "--trunc", "4", "exp-sum", "--cone", cone)
    assert shallow["truncation"] == 4
    assert shallow["p_res"] == got["p_res"]


def test_exp_sum_non_smooth_report(capsys, tmp_path):
    cone = write_json(tmp_path, "cone.json", [[1, 0], [1, 2]])
    got = run_json(capsys, "exp-sum", "--cone", cone)
    assert got["smooth"] is False
    assert got["p_order"] == 2
    assert got["truncation"] is None and got["numeric_check"] is None
    pres = deserialize(got["p_res"])
    integral = deserialize(got["exp_integral"])
    assert germ_equal(pres, integral)


def test_exp_sum_of_a_non_smooth_cone_above_rank_two(capsys, tmp_path):
    # the command line takes no smooth pieces, so the message names none
    cone = write_json(tmp_path, "cone.json", [[1, 0, 0], [0, 1, 0], [1, 1, 2]])
    code, captured = run(capsys, "--dim", "3", "exp-sum", "--cone", cone)
    assert code == 3
    assert captured.err == (
        "error: no automatic smooth subdivision above rank two\n")


def test_exp_sum_with_explicit_lattice(capsys, tmp_path):
    cone = write_json(tmp_path, "cone.json", [[2, 0], [0, 1]])
    lattice = write_json(tmp_path, "lattice.json", [[2, 0], [0, 1]])
    got = run_json(capsys, "exp-sum", "--cone", cone, "--lattice", lattice)
    assert got["generators"] == [["0", "1"], ["2", "0"]]
    assert got["smooth"] is True


# ---------------------------------------------------------------------------
# global flags

def test_gram_flag_changes_the_inner_product_but_not_invariants(capsys,
                                                                tmp_path):
    gram = write_json(tmp_path, "gram.json", [[2, 1], [1, 1]])
    standard = run_json(capsys, "p-order", "1/(x1*(x1+x2))")
    skewed = run_json(capsys, "--gram", gram, "p-order", "1/(x1*(x1+x2))")
    assert standard == skewed


def test_dim_flag_controls_the_variable_range(capsys):
    got = run_json(capsys, "--dim", "3", "p-order", "1/(x1*x2*x3)")
    assert got == {"kind": "p-order", "dim": 3, "p_order": 3}
    code, _ = run(capsys, "--dim", "2", "p-order", "1/(x1*x2*x3)")
    assert code == 2
    code, captured = run(capsys, "--dim", "0", "p-order", "1")
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --dim must be a positive integer\n"


def test_output_is_deterministic(capsys, tmp_path):
    family = write_json(tmp_path, "family.json",
                        [[[1, 0], [0, 1]], [[1, 0], [1, 1]]])
    first = run(capsys, "cone", "refine", family)
    second = run(capsys, "cone", "refine", family)
    assert first == second


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_2_for_parse_and_format_errors(capsys, tmp_path):
    for argv in (
        ["verify", "x1++", "x1"],
        ["decompose", "x5"],
        ["p-order", "1/(x1", ],
        ["jk", "1/x1", "--subspace", str(tmp_path / "absent.json")],
    ):
        code, captured = run(capsys, *argv)
        assert code == 2, argv
        assert captured.err.startswith("error:")
    bad_rows = write_json(tmp_path, "bad.json", [[1, 0], [1]])
    code, _ = run(capsys, "cone", "refine", bad_rows)
    assert code == 2
    # a negative order would drop the constant Bernoulli terms from the
    # polar part
    orthant = write_json(tmp_path, "orthant.json", [[1, 0], [0, 1]])
    code, captured = run(capsys, "--trunc", "-1", "exp-sum", "--cone", orthant)
    assert code == 2
    assert captured.err == "error: --trunc must be a non-negative integer\n"


def test_there_is_no_seed_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "decompose", "1/x1"])
    assert exc.value.code == 2
    assert "--seed" not in capsys.readouterr().err


def test_gram_of_the_wrong_size_is_a_format_error(capsys, tmp_path):
    gram = write_json(tmp_path, "g3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, captured = run(capsys, "--dim", "2", "--gram", gram,
                         "decompose", "1/(x1*x2)")
    assert code == 2
    assert "gram matrix must be 2x2" in captured.err


def test_deeply_nested_input_is_a_syntax_error(capsys):
    nested = "(" * 2000 + "x1" + ")" * 2000
    code, captured = run(capsys, "verify", nested, "x1")
    assert code == 2
    assert captured.err == "error: expression nested too deeply\n"


def test_a_json_file_nested_too_deeply_is_a_format_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["cone", "check", str(deep)],
                 ["--gram", str(deep), "decompose", "1/x1"]):
        code, captured = run(capsys, *argv)
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith(f"error: {deep}: invalid JSON: ")
        assert captured.err.count("\n") == 1


def test_exit_code_3_for_mathematical_errors(capsys, tmp_path):
    cases = [
        ["decompose", "1/(x1*x2+1)"],
        ["decompose", "1/(x1-x1)"],
        ["exp-sum", "--cone", write_json(tmp_path, "dep.json",
                                         [[1, 0], [2, 0]])],
        ["laurent", "1/(x1*x2)", "--support",
         write_json(tmp_path, "overlap.json",
                    [[[1, 0], [0, 1]], [[1, 0], [1, 1]]])],
        ["cone", "refine", write_json(tmp_path, "line.json",
                                      [[[1, 0], [0, 1]], [[-1, -1]]])],
    ]
    for argv in cases:
        code, captured = run(capsys, *argv)
        assert code == 3, argv
        assert captured.err.startswith("error:")
    bad_gram = write_json(tmp_path, "gram.json", [[1, 2], [2, 1]])
    code, _ = run(capsys, "--gram", bad_gram, "decompose", "1/x1")
    assert code == 3


def test_exit_code_4_when_the_dimension_cap_is_hit(capsys, tmp_path):
    rays = [[1 if j == i else 0 for j in range(7)] for i in range(7)]
    family = write_json(tmp_path, "big.json", [rays])
    code, captured = run(capsys, "--dim", "7", "cone", "refine", family)
    assert code == 4
    assert captured.err.startswith("error:")
    code, _ = run(capsys, "--dim", "7", "--dim-cap", "7",
                  "cone", "refine", family)
    assert code == 0


def test_every_cone_building_command_honours_the_dimension_cap(capsys,
                                                               tmp_path):
    expr = "1/(x1*(x1+x2)*x3)"
    orthant = write_json(tmp_path, "orthant.json",
                         [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    commands = [[name, expr] for name in ("laurent", "p-order", "p-res")]
    commands += [["exp-sum", "--cone", orthant]]
    for argv in commands:
        code, captured = run(capsys, "--dim", "3", "--dim-cap", "2", *argv)
        assert code == 4, argv
        assert captured.out == ""
        assert captured.err == "error: ambient dimension 3 exceeds the cap 2\n"
        assert run(capsys, "--dim", "3", "--dim-cap", "3", *argv)[0] == 0


def test_commands_that_read_decompose_are_not_capped(capsys, tmp_path):
    expr = "1/(x1*(x1+x2)*x3)"
    arr = write_json(tmp_path, "arr.json", [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    commands = [[name, expr] for name in (
        "project-plus", "project-minus", "grade", "jk", "coproduct")]
    commands += [["brion-vergne", expr, "--arrangement", arr]]
    for argv in commands:
        code, captured = run(capsys, "--dim", "3", "--dim-cap", "2", *argv)
        assert code == 0, (argv, captured.err)


def test_a_cap_above_the_default_admits_larger_expansions(capsys):
    got = run_json(capsys, "--dim", "7", "--dim-cap", "7",
                   "laurent", "1/(x1*x7)")
    assert got["dim"] == 7 and len(got["terms"]) == 1
    code, captured = run(capsys, "--dim", "7", "laurent", "1/(x1*x7)")
    assert code == 4 and captured.out == ""
    # commands that build no cones are not capped
    assert run(capsys, "--dim", "7", "--dim-cap", "1",
               "decompose", "1/x1")[0] == 0


def test_exp_sum_input_must_have_the_dimension_of_dim(capsys, tmp_path):
    plane = write_json(tmp_path, "plane.json", [[1, 0], [1, 1]])
    space = write_json(tmp_path, "space.json", [[1, 0, 0], [0, 1, 0]])
    code, captured = run(capsys, "--dim", "3", "exp-sum", "--cone", plane)
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: {plane}: rows of dimension 2 "
                            "under --dim 3\n")
    code, captured = run(capsys, "exp-sum", "--cone", plane,
                         "--lattice", space)
    assert code == 2
    assert captured.err == (f"error: {space}: rows of dimension 3 "
                            "under --dim 2\n")


@pytest.mark.parametrize("argv, rows", [
    (["--dim", "2", "jk", "1/x1", "--subspace"], [[1, 0, 0], [0, 1, 0]]),
    (["--dim", "3", "brion-vergne", "1/x1", "--arrangement"],
     [[1, 0], [0, 1]]),
    (["--dim", "2", "laurent", "1/x1", "--support"], [[[1, 0, 0]]]),
])
def test_input_files_must_have_the_dimension_of_dim(capsys, tmp_path,
                                                    argv, rows):
    path = write_json(tmp_path, "input.json", rows)
    found = len(rows[0][0]) if isinstance(rows[0][0], list) else len(rows[0])
    code, captured = run(capsys, *argv, path)
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: {path}: rows of dimension {found} "
                            f"under --dim {argv[1]}\n")


@pytest.mark.parametrize("family", [
    [[[1, 0]], [[1, 0, 0]]],
    {"kind": "cone-family", "dim": 2,
     "cones": [[["1", "0"]], [["1", "0", "0"]]]},
])
@pytest.mark.parametrize("command", ["refine", "check"])
def test_cone_family_of_mixed_dimension_is_a_format_error(capsys, tmp_path,
                                                          family, command):
    path = write_json(tmp_path, "mixed.json", family)
    code, captured = run(capsys, "cone", command, path)
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: {path}: cone 1 has dimension 3, "
                            "cone 0 has dimension 2\n")


@pytest.mark.parametrize("family, message", [
    ({"a": 1}, "top level: expected an object with a 'kind' field"),
    ({"kind": "cone-family", "dim": 2, "cones": 1}, "cones: expected a list"),
    ({"kind": "germ", "dim": 2, "numerator": "1"}, "not a cone family"),
    ({"kind": "polynomial", "dim": 2, "poly": "1/0"},
     "poly: division by the zero germ"),
])
def test_a_malformed_support_file_is_named_in_the_error(capsys, tmp_path,
                                                        family, message):
    path = write_json(tmp_path, "obj.json", family)
    code, captured = run(capsys, "laurent", "1/x1", "--support", path)
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_pole_outside_the_arrangement_is_named_in_coordinates(capsys,
                                                              tmp_path):
    arr = write_json(tmp_path, "arr.json", [[1, 0], [0, 1]])
    code, captured = run(capsys, "brion-vergne", "1/(x1+2*x2)",
                         "--arrangement", arr)
    assert code == 3
    assert captured.err == ("error: pole direction (1, 2) is not in the "
                            "arrangement\n")


def test_generator_off_the_lattice_is_named_in_coordinates(capsys,
                                                          tmp_path):
    cone = write_json(tmp_path, "cone.json", [[1, 0], [-3, 5]])
    lattice = write_json(tmp_path, "lattice.json", [[1, 0], [0, 3]])
    code, captured = run(capsys, "exp-sum", "--cone", cone,
                         "--lattice", lattice)
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: generator (-3, 5) is not a lattice "
                            "vector\n")


def test_decompose_of_many_dependent_forms_finishes(capsys):
    expr = " + ".join(f"{i}/(x1+{i}*x2)" for i in range(1, 13))
    got = run_json(capsys, "decompose", expr)
    assert germ_equal(deserialize(got), parse_germ(expr, 2))


def test_a_large_inner_product_space_is_checked_in_one_elimination(capsys):
    # one determinant per leading minor took over 20 s at this size
    code, captured = run(capsys, "--dim", "300", "decompose", "1/(x1*x300)")
    assert code == 0, captured.err


@pytest.mark.parametrize("expr", ["x" + "7" * 5000, "y" + "7" * 5000,
                                  "x1 " + "7" * 5000],
                         ids=["outside", "unknown", "trailing"])
def test_a_parse_error_quotes_a_long_token_cut_short(capsys, expr):
    code, captured = run(capsys, "decompose", expr)
    assert code == 2 and captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error:") and len(line) < 200
    assert "…" in line


def test_a_format_error_quotes_a_long_value_cut_short(capsys, tmp_path):
    gram = write_json(tmp_path, "gram.json", [["1/" + "7" * 5000 + "x", 0],
                                              [0, 1]])
    code, captured = run(capsys, "--gram", gram, "decompose", "1/x1")
    assert code == 2
    line, = captured.err.splitlines()
    assert len(line) < 200 + len(gram) and line.endswith("…")


def test_a_parse_error_quotes_a_short_token_whole(capsys):
    code, captured = run(capsys, "decompose", "x9")
    assert code == 2
    assert captured.err == "error: variable 'x9' outside dimension 2\n"


# ---------------------------------------------------------------------------
# output that cannot be written

GROWTH4 = "1/(x1*x2*x3*x4*(x1+x2+x3+x4)*(x1+2*x2+3*x3+4*x4))"


def cli_env(unbuffered: bool = False) -> dict[str, str]:
    """The environment of a CLI child: this checkout's package, and a
    buffered stdout unless ``unbuffered``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout fails at the flush
    if unbuffered:  # a raw stdout fails at the first write
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli_into(stdout, *argv,
                 unbuffered: bool = False) -> subprocess.CompletedProcess:
    """``python -m laurentgerms.cli argv`` writing to the file ``stdout``."""
    return subprocess.run([sys.executable, "-m", "laurentgerms.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=cli_env(unbuffered), text=True, timeout=120)


def test_a_full_device_ends_in_one_error_line():
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            proc = run_cli_into(full, "decompose", "1/(x1*(x1+x2))",
                                unbuffered=unbuffered)
        assert proc.returncode == 1
        line, = proc.stderr.splitlines()
        assert line.startswith("error: the result could not be written")


def test_a_closed_pipe_ends_silently():
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            proc = run_cli_into(write_end, "--dim", "4", "laurent", GROWTH4,
                                unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


def test_an_unbuffered_stdout_gets_the_same_bytes():
    # the 1.77 MB k = 4 expansion, written whole rather than chunk by chunk
    runs = [run_cli_into(subprocess.PIPE, "--dim", "4", "laurent", GROWTH4,
                         unbuffered=unbuffered) for unbuffered in (False, True)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout) > 10 ** 6


def test_an_unbuffered_reader_that_closes_mid_write_is_not_told_success():
    # the 1.77 MB document fills the pipe; the reader takes 10 bytes and
    # leaves, so the write in progress comes back short and the next fails
    with subprocess.Popen(
            [sys.executable, "-m", "laurentgerms.cli", "--dim", "4",
             "laurent", GROWTH4], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=cli_env(unbuffered=True)) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


class ShortWrites(io.RawIOBase):
    """A raw stream that takes at most ``size`` bytes per write."""

    def __init__(self, size: int):
        self.size = size
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += bytes(b[:self.size])
        return min(len(b), self.size)


def test_the_document_is_encoded_once_and_written_through_short_writes(
        monkeypatch):
    # as under PYTHONUNBUFFERED: no buffer between the text layer and the
    # file, which may take part of a write
    raw = ShortWrites(1000)
    monkeypatch.setattr(sys, "stdout",
                        io.TextIOWrapper(raw, write_through=True))
    assert main(["--dim", "3", "decompose", "1/(x1*x2*x3*(x1+x2+x3))"]) == 0
    text = raw.data.decode()
    assert raw.writes == -(-len(text) // 1000) > 1
    # an in-process text stream without a byte layer gets the same text
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--dim", "3", "decompose",
                     "1/(x1*x2*x3*(x1+x2+x3))"]) == 0
    assert out.getvalue() == text
    assert len(json.loads(text)["polar"]) == 3
