"""Nested input: nested divisors convert in linear work, with the outcome of
inverting each divisor whole, and input nested beyond the interpreter's
stack ends in the documented error."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import to_germ_reference
from laurentgerms import exprio
from laurentgerms.errors import FormatError, NonLinearPole
from laurentgerms.exprio import (
    BinOp,
    Neg,
    Pow,
    from_json,
    parse_expr,
    parse_germ,
    to_germ,
)

NON_LINEAR = "x1^2+x2^2"


def quotient_chain(n: int, innermost: str) -> str:
    """``x1/(x1/(…/innermost))`` with n quotients."""
    return "x1/(" * (n - 1) + f"x1/({innermost})" + ")" * (n - 1)


@pytest.fixture
def invert_calls(monkeypatch) -> list:
    """Each germ ``exprio._mero_invert`` is asked to invert, in order."""
    calls = []
    invert = exprio._mero_invert

    def counted(g):
        calls.append(g)
        return invert(g)

    monkeypatch.setattr(exprio, "_mero_invert", counted)
    return calls


@pytest.mark.parametrize("n", [5, 10, 15, 20])
def test_each_divisor_of_a_nested_quotient_is_inverted_once(n, invert_calls):
    # x1/x1 is 1 and x1/1 is x1
    assert parse_germ(quotient_chain(n, "x1"), 2) == parse_germ(
        "1" if n % 2 else "x1", 2)
    assert len(invert_calls) <= n
    invert_calls.clear()
    with pytest.raises(NonLinearPole, match=r"^denominator eps2\^2 \+ eps1\^2 "
                       "does not factor"):
        parse_germ(quotient_chain(n, NON_LINEAR), 2)
    assert len(invert_calls) <= n


LEAVES = ("x1", "x2", "x1+x2", "2*x1-3*x2", "3", "-1", "x1^2-x2^2")
NO_INVERSE = ("0", "x1-x1", NON_LINEAR, "x1*x2+1")


def leaf(rng: random.Random):
    return parse_expr(rng.choice(NO_INVERSE if rng.random() < 0.1
                                 else LEAVES), 2)


def random_divisor_tree(rng: random.Random, depth: int):
    """Quotients, products, negations and powers of either sign over linear,
    constant, zero and non-factoring leaves."""
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return leaf(rng)
    if roll < 0.3:
        return Neg(random_divisor_tree(rng, depth - 1))
    if roll < 0.45:
        return Pow(random_divisor_tree(rng, depth - 1),
                   rng.choice((-2, -1, 2)))
    if roll < 0.5:  # a long right-nested quotient chain
        node = leaf(rng)
        for _ in range(rng.randint(2, 8)):
            node = BinOp("/", leaf(rng), node)
        return node
    return BinOp(rng.choice("//**+"), random_divisor_tree(rng, depth - 1),
                 random_divisor_tree(rng, depth - 1))


def size(node) -> int:
    if isinstance(node, BinOp):
        return 1 + size(node.left) + size(node.right)
    if isinstance(node, Neg):
        return 1 + size(node.operand)
    if isinstance(node, Pow):
        return 1 + size(node.base)
    return 1


def outcome(convert, node):
    try:
        return convert(node, 2)
    except (NonLinearPole, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_divisors_convert_to_the_outcome_of_inverting_each_whole(
        invert_calls):
    rng = random.Random(44)
    seen = set()
    for _ in range(600):
        node = random_divisor_tree(rng, rng.randint(1, 6))
        invert_calls.clear()
        got = outcome(to_germ, node)
        # every node is inverted at most once
        assert len(invert_calls) <= size(node)
        assert got == outcome(to_germ_reference, node), node
        seen.add(got[0] if isinstance(got, tuple) else type(got))
    assert seen == {exprio.MeromorphicGerm, NonLinearPole, ZeroDivisionError}


def test_inputs_at_the_largest_depths_that_ever_converted_still_convert():
    # in a fresh interpreter, at the default recursion limit
    script = "\n".join([
        "from laurentgerms.exprio import parse_germ",
        "x1 = parse_germ('x1', 2)",
        "assert parse_germ('(' * 197 + 'x1' + ')' * 197, 2) == x1",
        "assert parse_germ('-(' * 164 + 'x1' + ')' * 164, 2) == x1",
        "assert parse_germ('-' * 987 + 'x1', 2) == parse_germ('-x1', 2)",
        "assert parse_germ('1/' + '-' * 984 + 'x1', 2)"
        " == parse_germ('1/x1', 2)",
    ])
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=str(src)))


def test_json_nested_too_deeply_is_a_format_error():
    with pytest.raises(FormatError, match="^invalid JSON: "):
        from_json("[" * 100_000 + "]" * 100_000)
