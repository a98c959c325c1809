"""Golden transcripts: the exit code and exact stdout of every command.

Each case runs ``laurentgerms.cli.main`` in-process on a fixed argv and
compares the exit code and the stdout, byte for byte, with the transcript
stored in ``data/cli_golden.json``.  Only the three float fields of an
``exp-sum`` ``numeric_check`` (``lattice_sum``, ``truncated_value``,
``residual``) are masked, because they come from floating-point summation.

After a deliberate change of output, rewrite the transcripts with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and review the diff of the data file.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from laurentgerms.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# input files; an argv item "@name" stands for the path of FILES[name]
FILES = {
    "fam2": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
    "fam2_wrapped": {"kind": "cone-family", "dim": 2,
                     "cones": [[["1", "0"], ["1", "1"]],
                               [["0", "1"], ["1", "1"]]]},
    "overlap": [[[1, 0], [0, 1]], [[1, 0], [1, 1]]],
    "line": [[[1, 0]], [[-1, 0]]],
    "fan3": [[[1, 0, 0], [1, 1, 0], [0, 0, 1]],
             [[0, 1, 0], [1, 1, 0], [0, 0, 1]]],
    "mixed3": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
               [[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
    "orthant7": [[[1 if j == i else 0 for j in range(7)] for i in range(7)]],
    "bad_rows": [[1, 0], [1]],
    "gram2": [[2, 1], [1, 1]],
    "gram3": [[2, 1, 0], [1, 2, 0], [0, 0, "1/2"]],
    "gram_indefinite": [[1, 2], [2, 1]],
    "axis": [["1", "0"]],
    "plane3": [[1, 0, 0], [0, 1, 1]],
    "arr2": [[1, 0], [0, 1], [1, 1]],
    "arr3": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "cone_smooth": [[1, 0], [1, 1]],
    "cone_nonsmooth": [[1, 0], [1, 2]],
    "cone_det5": [[1, 0], [2, 5]],
    "cone_lat": [[2, 0], [0, 1]],
    "lat": [[2, 0], [0, 1]],
    "cone_dependent": [[1, 0], [2, 0]],
    "cone_orthant3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "cone_square3": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
}

E2 = "(x1+2*x2)/(x1*(x1+x2)*x2)"
E3 = "(x1+x3)/(x1*(x1+x2)*x3^2) + x2^2/(x1+x2+x3)"

CASES = [
    # verify and decompose (no cones, no dimension cap)
    ["verify", "1/(x1*x2)", "1/(x1*(x1+x2)) + 1/(x2*(x1+x2))"],
    ["verify", "1/(x1*x2)", "1/(x1*(x1+x2))"],
    ["--dim", "3", "verify", E3, E3 + " + 0"],
    ["decompose", "(x1+x2^2)/x1"],
    ["decompose", "x1^3/(x1+x2)^2 - 1/(x1*x2*(x1-x2))"],
    ["--gram", "@gram2", "decompose", E2],
    ["--dim", "3", "--gram", "@gram3", "decompose", E3],
    ["--dim", "7", "decompose", "1/x1"],
    ["--dim", "7", "--dim-cap", "2", "verify", "1/(x1*x7)", "1/(x7*x1)"],
    # powers and long sums
    ["decompose", "1/x1^20 + x2^7/(x1+x2)^3"],
    ["decompose", "(x1/(x1+x2))^-2 * x2^0"],
    ["decompose", "((x1+x2)^2/(x1*x2))^3"],
    ["decompose", "0^0 + (x1-x1)^2"],
    ["decompose", " + ".join(f"{i}/(x1+{i}*x2)" for i in range(1, 5))],
    ["decompose", " - ".join(f"x1^{i}" for i in range(30))],
    ["decompose", "/".join(["x1"] + ["x2"] * 6)],
    # expansions
    ["laurent", E2],
    ["laurent", "1/(x1*x2)", "--support", "@fam2"],
    ["laurent", E2, "--support", "@fam2_wrapped"],
    ["laurent", "x1^2 + 3"],
    ["--gram", "@gram2", "laurent", "(x1+x2)^2/(x1^2*(x1-x2))"],
    ["--dim", "3", "laurent", "1/(x1*(x1+x2)*x3)"],
    ["--dim", "3", "--gram", "@gram3", "laurent", E3],
    ["--dim", "7", "laurent", "1/(x1*x7)"],
    # projections, gradings, residues
    ["project-plus", "(1+x1)/x1"],
    ["project-minus", "(1+x1)/x1"],
    ["--gram", "@gram2", "project-plus", "x2^2/(x1*(x1+x2))"],
    ["--dim", "3", "project-minus", E3],
    ["grade", "1/(x1*x2) + 1/x1"],
    ["--gram", "@gram2", "grade", E2 + " + x2/x1^2"],
    ["--dim", "3", "grade", E3],
    ["jk", "1/(x1*x2)"],
    ["jk", "1/x1", "--subspace", "@axis"],
    ["jk", "1/x1^2", "--subspace", "@axis"],
    ["--gram", "@gram2", "jk", E2],
    ["--dim", "3", "jk", E3, "--subspace", "@plane3"],
    ["brion-vergne", "1/(x1*x2) + 1/x1^2", "--arrangement", "@arr2"],
    ["--dim", "3", "brion-vergne", "1/(x1*x2*x3) + x3/(x1+x2)^2",
     "--arrangement", "@arr3"],
    ["p-order", "1/(x1*x2)"],
    ["--gram", "@gram2", "p-order", "1/(x1*(x1+x2))"],
    ["--dim", "3", "p-order", E3],
    ["p-res", "(1+x2)/x1^2"],
    ["--gram", "@gram2", "p-res", E2],
    ["--dim", "3", "--gram", "@gram3", "p-res", E3],
    ["coproduct", "x1+x2"],
    ["coproduct", "(1+x2)/x1"],
    ["--dim", "3", "coproduct", E3],
    # cone families
    ["cone", "refine", "@fam2"],
    ["cone", "refine", "@overlap"],
    ["cone", "refine", "@mixed3"],
    ["cone", "refine", "@line"],
    ["cone", "check", "@fam2"],
    ["cone", "check", "@overlap"],
    ["cone", "check", "@line"],
    ["cone", "check", "@mixed3"],
    ["--dim", "3", "--dim-cap", "3", "cone", "check", "@fan3"],
    ["--dim", "3", "--dim-cap", "2", "cone", "check", "@fan3"],
    ["--dim", "7", "cone", "refine", "@orthant7"],
    ["--dim", "7", "--dim-cap", "7", "cone", "check", "@orthant7"],
    # exponential sums
    ["exp-sum", "--cone", "@cone_smooth"],
    ["--trunc", "4", "exp-sum", "--cone", "@cone_smooth"],
    ["--gram", "@gram2", "--trunc", "3", "exp-sum", "--cone", "@cone_smooth"],
    ["exp-sum", "--cone", "@cone_nonsmooth"],
    ["--gram", "@gram2", "exp-sum", "--cone", "@cone_det5"],
    ["exp-sum", "--cone", "@cone_lat", "--lattice", "@lat"],
    ["--dim", "3", "--trunc", "2", "exp-sum", "--cone", "@cone_orthant3"],
    ["--dim", "3", "exp-sum", "--cone", "@cone_square3"],
    # exit codes 2 and 3
    ["verify", "x1++", "x1"],
    ["decompose", "x5"],
    ["p-order", "1/(x1"],
    ["jk", "1/x1", "--subspace", "@absent"],
    ["cone", "refine", "@bad_rows"],
    ["decompose", "1/(x1*x2+1)"],
    ["decompose", "1/(x1-x1)"],
    ["decompose", "0^-1"],
    ["exp-sum", "--cone", "@cone_dependent"],
    ["laurent", "1/(x1*x2)", "--support", "@overlap"],
    ["--gram", "@gram_indefinite", "decompose", "1/x1"],
]

_FLOATS = re.compile(r'("(?:lattice_sum|truncated_value|residual)": )[^,\n]+')


def _run(argv: list[str], tmp: Path) -> tuple[int, str]:
    """Exit code and stdout (float fields masked) of one invocation."""
    args = []
    for item in argv:
        if item.startswith("@"):
            path = tmp / (item[1:] + ".json")
            if item[1:] in FILES:
                path.write_text(json.dumps(FILES[item[1:]]))
            item = str(path)
        args.append(item)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, _FLOATS.sub(r'\1"*"', out.getvalue())


def _load() -> list[dict]:
    if not GOLDEN.exists():  # recording afresh
        return []
    return json.loads(GOLDEN.read_text())


def test_the_transcripts_cover_exactly_the_cases():
    assert [case["argv"] for case in _load()] == CASES


@pytest.mark.parametrize("case", _load(),
                         ids=lambda case: " ".join(case["argv"]))
def test_exit_code_and_stdout_match_the_transcript(case, tmp_path):
    code, stdout = _run(case["argv"], tmp_path)
    assert code == case["code"]
    assert stdout == case["stdout"]


def _record(tmp: Path):
    cases = []
    for argv in CASES:
        code, stdout = _run(argv, tmp)
        cases.append({"argv": argv, "code": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
