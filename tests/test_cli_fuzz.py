"""A seeded fuzz of the command line, in process.

Every input ends in one of two ways: exit 0 with one JSON document on
stdout, or a documented exit code (2, 3 or 4) with exactly one ``error:``
line on stderr.  Expressions come from a small grammar over x1..x3, some
of them cut or spliced into syntax errors; flags and input files are drawn
at random, malformed ones included.
"""

import json
import random

from laurentgerms.cli import main

COEFFICIENTS = ("-3", "-1", "0", "1/2", "1", "2")
VARIABLES = ("x1", "x2", "x3")
CASES = 300


def linear_form(rng, names) -> str:
    used = rng.sample(names, rng.randint(1, len(names)))
    return "+".join(f"({rng.choice(COEFFICIENTS)})*{v}" for v in used)


def monomial(rng, names) -> str:
    powers = "*".join(f"{v}^{rng.randint(0, 3)}" for v in
                      rng.sample(names, rng.randint(0, min(2, len(names)))))
    return f"({rng.choice(COEFFICIENTS)})" + (f"*{powers}" if powers else "")


def pole(rng, names) -> str:
    """(L)^e, now and then a power of a power: the parser refuses a^b^c,
    so it is written ((L)^a)^b."""
    form = f"({linear_form(rng, names)})"
    if rng.random() < 0.2:
        return f"({form}^{rng.randint(1, 2)})^{rng.randint(2, 3)}"
    return f"{form}^{rng.randint(0, 3)}"


def expression(rng, k: int) -> str:
    """Mostly over the variables of the space; now and then over x1..x3."""
    names = VARIABLES[:k] if rng.random() < 0.9 else VARIABLES
    numerator = monomial(rng, names)
    for _ in range(rng.randint(0, 2)):  # a binary + or -
        numerator += rng.choice("+-") + monomial(rng, names)
    poles = [pole(rng, names) for _ in range(rng.randint(0, 4))]
    text = f"({numerator})/({'*'.join(poles)})" if poles else numerator
    if rng.random() < 0.2:  # an unparenthesised chain (…)/(…)*(L)^-2
        text += (f"{rng.choice('*/')}({linear_form(rng, names)})"
                 f"^{rng.choice((-2, -1, 1, 2))}")
    if rng.random() < 0.05:  # nested quotients x1/(x1/(…/text))
        depth = rng.randint(20, 40)
        text = "x1/(" * depth + text + ")" * depth
    roll = rng.random()
    if roll < 0.1:  # cut short
        return text[:rng.randrange(len(text))]
    if roll < 0.2:  # a stray character spliced in
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice("+*/^()$x9 ") + text[at:]
    return text


def rows(rng, k: int) -> list:
    return [[rng.choice((-1, 0, 1, 2, "1/2")) for _ in range(k)]
            for _ in range(rng.randint(1, k))]


def gram(rng, k: int):
    kind = rng.randrange(5)
    g = [[int(i == j) * rng.randint(1, 3) for j in range(k)] for i in range(k)]
    if kind == 0 and k > 1:  # symmetric and positive definite
        g[0][1] = g[1][0] = "1/2"
    elif kind == 1 and k > 1:  # not symmetric
        g[0][1] = 1
    elif kind == 2:  # not positive definite
        g[-1][-1] = rng.choice((0, -1))
    elif kind == 3:  # the wrong shape
        g = [row + [0] for row in g]
    return g


MALFORMED = ("[[1, 0]", "[]", "{}", '{"kind": "cone"}', "[[1, 0], [1]]",
             '[["a", 1]]', "[[true, 0]]", "[[[1, 0]], [[0, 1, 1]]]", "3",
             "[[[]]]", "[[0, 0], [0, 0]]", "[" * 100_000 + "]" * 100_000)


def input_file(rng, tmp_path, k: int, family: bool) -> str:
    path = tmp_path / f"in{rng.randrange(10 ** 9)}.json"
    roll = rng.random()
    if roll < 0.05:
        return str(path)  # never written
    if roll < 0.25:
        path.write_text(rng.choice(MALFORMED))
    else:
        data = rows(rng, k)
        if family:
            data = [rows(rng, k) for _ in range(rng.randint(1, 3))]
        path.write_text(json.dumps(data))
    return str(path)


def command(rng, tmp_path, k: int) -> list[str]:
    name = rng.choice(("decompose", "laurent", "project-plus",
                       "project-minus", "grade", "jk", "brion-vergne",
                       "p-order", "p-res", "coproduct", "verify", "cone",
                       "exp-sum"))
    if name == "cone":
        return ["cone", rng.choice(("refine", "check")),
                input_file(rng, tmp_path, k, family=True)]
    if name == "exp-sum":
        argv = ["exp-sum", "--cone", input_file(rng, tmp_path, k, False)]
        if rng.random() < 0.3:
            argv += ["--lattice", input_file(rng, tmp_path, k, False)]
        return argv
    argv = [name, expression(rng, k)]
    if name == "verify":
        argv.append(expression(rng, k))
    option = {"laurent": ("--support", True), "jk": ("--subspace", False),
              "brion-vergne": ("--arrangement", False)}.get(name)
    if option and (name == "brion-vergne" or rng.random() < 0.5):
        argv += [option[0], input_file(rng, tmp_path, k, option[1])]
    return argv


def flags(rng, tmp_path) -> tuple[list[str], int]:
    k = rng.choice((1, 2, 2, 3, 3, 3) * 5 + (0, -1))
    argv = ["--dim", str(k)]
    if rng.random() < 0.3:
        argv += ["--trunc", str(rng.choice((-1, 0, 1, 2, 2, 3, 3)))]
    if rng.random() < 0.3:
        argv += ["--dim-cap", str(rng.randint(0, 4))]
    if rng.random() < 0.3 and k > 0:
        path = tmp_path / f"gram{rng.randrange(10 ** 9)}.json"
        path.write_text(rng.choice(MALFORMED) if rng.random() < 0.1
                        else json.dumps(gram(rng, k)))
        argv += ["--gram", str(path)]
    return argv, max(k, 1)


def test_every_input_ends_in_a_result_or_one_error_line(capsys, tmp_path):
    rng = random.Random(41)
    codes = set()
    for _ in range(CASES):
        argv, k = flags(rng, tmp_path)
        argv += command(rng, tmp_path, k)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code == 0:
            assert err == "", argv
            json.loads(out)
        else:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, \
                (argv, err)
        codes.add(code)
    assert codes == {0, 2, 3, 4}
