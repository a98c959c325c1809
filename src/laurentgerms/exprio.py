"""Expression parsing, printing, and JSON serialization.

Input expressions use variables ``x1..xk`` (``eps1..epsk`` also accepted),
integer literals, ``+ - * / ^`` with the usual precedence, and parentheses.
Human-readable output prints variables as ``eps1..epsk``.  Rationals are
serialized as exact "p/q" strings — floats never appear in any format.

Conversion to a meromorphic germ is where denominators are validated: the
parser happily builds ``1/(x1^2+1)``, but germ conversion must factor every
denominator into rational linear forms and rejects it otherwise.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    ExprSyntaxError,
    FormatError,
    NonLinearPole,
    NotSimplicial,
    UnknownVariable,
)
from .exact import (
    ONE,
    AmbientSpace,
    Mat,
    Polynomial,
    Vec,
    frac,
    linear_factorization,
)
from .germs import (
    GermSum,
    MeromorphicGerm,
    PolarGerm,
    canonical_fraction,
    den_poly,
    make_germ_sum,
    make_mero,
    mero_add,
    mero_mul,
    mero_neg,
    mero_sub,
)
from .cones import ConeFamily, SimplicialCone, make_simplicial_cone
from .expand import FormalExpansion, make_expansion
from .latticeexp import DEFAULT_TRUNCATION

DEFAULT_DIMENSION_CAP = 6

__all__ = [
    "DEFAULT_DIMENSION_CAP",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "SessionConfig",
    "parse_expr",
    "ast_to_string",
    "ast_evaluate",
    "to_germ",
    "parse_germ",
    "frac_str",
    "parse_frac",
    "serialize",
    "deserialize",
    "to_json",
    "from_json",
    "load_rows",
    "load_cone_family",
]


# ---------------------------------------------------------------------------
# abstract syntax

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    index: int  # zero-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Num | Var | Neg | BinOp | Pow


@dataclass(frozen=True)
class SessionConfig:
    """Everything a command needs to be reproducible."""

    dimension: int
    gram: Mat
    truncation: int = DEFAULT_TRUNCATION
    dim_cap: int = DEFAULT_DIMENSION_CAP

    def space(self) -> AmbientSpace:
        return AmbientSpace(self.dimension, self.gram)

    @classmethod
    def standard(cls, k: int, **kw) -> "SessionConfig":
        return cls(k, AmbientSpace.standard(k).gram, **kw)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]+\d+)"
                       r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ExprSyntaxError(f"unexpected character {rest[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, k: int):
        self.tokens = _tokenize(text)
        self.k = k
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, val, pos = self.take()
        if kind != "op" or val != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", pos)

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val, pos = self.take()
            if kind != "num":
                raise ExprSyntaxError("exponent must be an integer", pos)
            return Pow(base, sign * int(val))
        return base

    def atom(self) -> Node:
        kind, val, pos = self.take()
        if kind == "num":
            return Num(Fraction(int(val)))
        if kind == "name":
            m = re.fullmatch(r"(x|eps)(\d+)", val)
            if m is None:
                raise UnknownVariable(f"unknown name {val!r} at position {pos}")
            idx = int(m.group(2))
            if not 1 <= idx <= self.k:
                raise UnknownVariable(
                    f"variable {val!r} outside dimension {self.k}")
            return Var(idx - 1)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text: str, k: int) -> Node:
    """Parse an expression over variables x1..xk (eps1..epsk accepted)."""
    parser = _Parser(text, k)
    try:
        node = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply") from None
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# printing and direct evaluation

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def ast_to_string(node: Node) -> str:
    """Canonical text form; parse_expr of the result gives the node back."""

    def wrap(child: Node, minimum: int) -> str:
        if _prec(child) < minimum:
            return "(" + ast_to_string(child) + ")"
        return ast_to_string(child)

    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return f"eps{node.index + 1}"
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, 3)
    if isinstance(node, Pow):
        exp = str(node.exponent)
        if node.exponent < 0:
            exp = "-" + str(-node.exponent)
        return wrap(node.base, 5) + "^" + exp
    p = _PREC[node.op]
    left = wrap(node.left, p)
    right = wrap(node.right, p + 1)
    return f"{left}{node.op}{right}"


def _prec(node: Node) -> int:
    if isinstance(node, (Num, Var)):
        return 5
    if isinstance(node, Pow):
        return 4
    if isinstance(node, Neg):
        return 3
    return _PREC[node.op]


def ast_evaluate(node: Node, point: Sequence) -> Fraction:
    """Evaluate the expression tree directly at a rational point."""
    pt = [frac(c) for c in point]

    def rec(n: Node) -> Fraction:
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            return pt[n.index]
        if isinstance(n, Neg):
            return -rec(n.operand)
        if isinstance(n, Pow):
            base = rec(n.base)
            if n.exponent < 0:
                return ONE / base ** (-n.exponent)
            return base ** n.exponent
        a, b = rec(n.left), rec(n.right)
        if n.op == "+":
            return a + b
        if n.op == "-":
            return a - b
        if n.op == "*":
            return a * b
        return a / b

    return rec(node)


# ---------------------------------------------------------------------------
# conversion to germs

def _mero_invert(g: MeromorphicGerm) -> MeromorphicGerm:
    if g.is_zero():
        raise ZeroDivisionError("division by the zero germ")
    factored = linear_factorization(g.numerator)
    if factored is None:
        raise NonLinearPole(
            f"denominator {g.numerator.to_string()} does not factor into "
            "linear forms over the rationals")
    const, factors = factored
    return make_mero(den_poly(g.nvars, g.den).scale(ONE / const), factors)


def _mero_pow(g: MeromorphicGerm, e: int) -> MeromorphicGerm:
    # no pole form divides the reduced numerator, so none divides its
    # power: this equals the product of e copies of g
    return make_mero(g.numerator ** e, [(v, s * e) for v, s in g.den])


def _inverse(node: Node, k: int) -> MeromorphicGerm:
    """1 / node, as ``_mero_invert`` of the whole divisor gives it.

    A product is inverted one factor at a time, a positive power by
    inverting its base and a negation by inverting its operand, so a power
    of a linear form is never expanded and factored again; when some factor
    has no inverse the whole divisor is inverted, which keeps the result and
    the error of the whole.
    """
    if (isinstance(node, Neg) or isinstance(node, Pow) and node.exponent > 0
            or isinstance(node, BinOp) and node.op == "*"):
        try:
            return _inverse_by_factors(node, k)
        except (NonLinearPole, ZeroDivisionError):
            pass
    return _mero_invert(to_germ(node, k))


def _inverse_by_factors(node: Node, k: int) -> MeromorphicGerm:
    if isinstance(node, Pow) and node.exponent > 0:
        return _mero_pow(_inverse_by_factors(node.base, k), node.exponent)
    if isinstance(node, Neg):
        return mero_neg(_inverse_by_factors(node.operand, k))
    chain = []
    while isinstance(node, BinOp) and node.op == "*":
        chain.append(node.right)
        node = node.left
    if not chain:
        return _mero_invert(to_germ(node, k))
    out = _inverse_by_factors(node, k)
    for right in reversed(chain):
        out = mero_mul(out, _inverse_by_factors(right, k))
    return out


_BINOPS = {"+": mero_add, "-": mero_sub, "*": mero_mul, "/": mero_mul}


def to_germ(node: Node, k: int) -> MeromorphicGerm:
    """Interpret the tree as an exact meromorphic germ in k variables.

    Division requires the (reduced) divisor numerator to factor into linear
    forms; NonLinearPole otherwise.
    """
    if isinstance(node, Num):
        return make_mero(Polynomial.constant(k, node.value))
    if isinstance(node, Var):
        return make_mero(Polynomial.variable(k, node.index))
    if isinstance(node, Neg):
        return mero_neg(to_germ(node.operand, k))
    if isinstance(node, Pow):
        if node.exponent < 0:
            return _mero_pow(_inverse(node.base, k), -node.exponent)
        return _mero_pow(to_germ(node.base, k), node.exponent)
    # a flat sum or product of n operands is n levels deep on the left:
    # walk that spine in a loop and recurse only into the right operands
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    a = to_germ(node, k)
    for link in reversed(chain):
        right = (_inverse(link.right, k) if link.op == "/"
                 else to_germ(link.right, k))
        a = _BINOPS[link.op](a, right)
    return a


def parse_germ(text: str, k: int) -> MeromorphicGerm:
    node = parse_expr(text, k)
    try:
        return to_germ(node, k)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# rationals and vectors as JSON scalars

def frac_str(x) -> str:
    x = frac(x)
    return str(x)


def parse_frac(value, where: str = "value") -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{where}: bad rational {value!r}") from exc
    raise FormatError(f"{where}: expected a rational, got {type(value).__name__}")


def _vec_out(v: Vec) -> list[str]:
    return [frac_str(c) for c in v]


def _vec_in(row, where: str) -> Vec:
    if not isinstance(row, list):
        raise FormatError(f"{where}: expected a list of rationals")
    return tuple(parse_frac(c, f"{where}[{i}]") for i, c in enumerate(row))


def _poly_out(p: Polynomial) -> str:
    return p.to_string()


def _poly_in(text, k: int, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a polynomial string")
    try:
        g = parse_germ(text, k)
    except (ExprSyntaxError, UnknownVariable, NonLinearPole) as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if not g.is_polynomial():
        raise FormatError(f"{where}: {text!r} is not a polynomial")
    return g.numerator


def _factors_out(factors) -> list[dict]:
    return [{"form": _vec_out(v), "power": e} for v, e in factors]


def _factors_in(items, k: int, where: str) -> tuple:
    if not isinstance(items, list):
        raise FormatError(f"{where}: expected a list of factors")
    out = []
    for i, item in enumerate(items):
        spot = f"{where}[{i}]"
        if not isinstance(item, dict) or "form" not in item:
            raise FormatError(f"{spot}: expected {{form, power}}")
        power = item.get("power", 1)
        if not isinstance(power, int) or power < 1:
            raise FormatError(f"{spot}.power: expected a positive integer")
        form = _vec_in(item["form"], f"{spot}.form")
        if len(form) != k:
            raise FormatError(f"{spot}.form: expected {k} coordinates")
        if not any(form):
            raise FormatError(f"{spot}.form: the zero vector is not a pole form")
        out.append((form, power))
    return tuple(out)


# ---------------------------------------------------------------------------
# object serialization

def serialize(obj) -> dict:
    """Canonical JSON-compatible form of any public value."""
    if isinstance(obj, Polynomial):
        return {"kind": "polynomial", "dim": obj.nvars,
                "poly": _poly_out(obj)}
    if isinstance(obj, MeromorphicGerm):
        return {"kind": "germ", "dim": obj.nvars,
                "numerator": _poly_out(obj.numerator),
                "denominator": _factors_out(obj.den)}
    if isinstance(obj, PolarGerm):
        return {"kind": "polar-germ", "dim": obj.nvars,
                "numerator": _poly_out(obj.numerator),
                "factors": _factors_out(obj.factors)}
    if isinstance(obj, GermSum):
        return {"kind": "germ-sum", "dim": obj.nvars,
                "polar": [{"numerator": _poly_out(t.numerator),
                           "factors": _factors_out(t.factors)}
                          for t in obj.terms],
                "poly": _poly_out(obj.poly)}
    if isinstance(obj, FormalExpansion):
        return {"kind": "expansion", "dim": obj.nvars,
                "terms": [{"factors": _factors_out(dc.factors),
                           "numerator": _poly_out(num)}
                          for dc, num in obj.terms],
                "poly": _poly_out(obj.polynomial_part)}
    if isinstance(obj, SimplicialCone):
        return {"kind": "cone", "dim": obj.ambient,
                "generators": [_vec_out(g) for g in obj.generators]}
    if isinstance(obj, ConeFamily):
        return {"kind": "cone-family",
                "dim": obj.cones[0].ambient if obj.cones else 0,
                "cones": [[_vec_out(g) for g in c.generators]
                          for c in obj.cones]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def deserialize(data: dict):
    """Inverse of :func:`serialize`; raises FormatError on malformed input."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("top level: expected an object with a 'kind' field")
    kind = data["kind"]
    k = data.get("dim")
    if not isinstance(k, int) or k < 1:
        raise FormatError("dim: expected a positive integer")
    if kind == "polynomial":
        return _poly_in(data.get("poly"), k, "poly")
    if kind == "germ":
        num = _poly_in(data.get("numerator"), k, "numerator")
        den = _factors_in(data.get("denominator", []), k, "denominator")
        return make_mero(num, den)
    if kind == "polar-germ":
        num = _poly_in(data.get("numerator"), k, "numerator")
        fac = _factors_in(data.get("factors", []), k, "factors")
        return PolarGerm(*canonical_fraction(num, fac))
    if kind == "germ-sum":
        items = data.get("polar", [])
        if not isinstance(items, list):
            raise FormatError("polar: expected a list")
        terms = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise FormatError(f"polar[{i}]: expected an object")
            num = _poly_in(item.get("numerator"), k, f"polar[{i}].numerator")
            fac = _factors_in(item.get("factors", []), k, f"polar[{i}].factors")
            terms.append(PolarGerm(*canonical_fraction(num, fac)))
        poly = _poly_in(data.get("poly", "0"), k, "poly")
        return make_germ_sum(terms, poly)
    if kind == "expansion":
        items = data.get("terms", [])
        if not isinstance(items, list):
            raise FormatError("terms: expected a list")
        terms = []
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                raise FormatError(f"terms[{i}]: expected an object")
            fac = _factors_in(item.get("factors", []), k, f"terms[{i}].factors")
            num = _poly_in(item.get("numerator"), k, f"terms[{i}].numerator")
            num, fac = canonical_fraction(num, fac)
            terms.append((fac, num))
        poly = _poly_in(data.get("poly", "0"), k, "poly")
        return make_expansion(None, terms, poly, validate=False)
    if kind == "cone":
        return _cone_in(data.get("generators"), "generators")
    if kind == "cone-family":
        rows = data.get("cones")
        if not isinstance(rows, list):
            raise FormatError("cones: expected a list")
        return ConeFamily(tuple(_cone_in(c, f"cones[{i}]")
                                for i, c in enumerate(rows)))
    raise FormatError(f"kind: unknown kind {kind!r}")


def _cone_in(rows, where: str) -> SimplicialCone:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{where}: expected a nonempty list of generators")
    gens = [_vec_in(r, f"{where}[{i}]") for i, r in enumerate(rows)]
    if len({len(g) for g in gens}) != 1:
        raise FormatError(f"{where}: generators of mixed dimension")
    try:
        return make_simplicial_cone(gens)
    except NotSimplicial as exc:
        raise FormatError(f"{where}: {exc}") from exc


def to_json(obj) -> str:
    return json.dumps(serialize(obj), indent=2)


def from_json(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return deserialize(data)


# ---------------------------------------------------------------------------
# simple input files (rows of rationals)

def _load_json(path: str):
    """The JSON document in a file; FormatError when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def load_rows(path: str) -> list[Vec]:
    """A JSON file holding a list of equal-length rational rows."""
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise FormatError(f"{path}: expected a nonempty list of rows")
    rows = [_vec_in(r, f"{path}: row {i}") for i, r in enumerate(data)]
    if len({len(r) for r in rows}) != 1:
        raise FormatError(f"{path}: rows of mixed length")
    return rows


def load_cone_family(path: str) -> list[SimplicialCone]:
    """A JSON file holding a list of cones, each a list of generator rows.

    The wrapped {"kind": "cone-family", ...} form is accepted too.  All
    cones must have the same ambient dimension.
    """
    data = _load_json(path)
    if isinstance(data, dict):
        family = deserialize(data)
        if isinstance(family, ConeFamily):
            cones = list(family.cones)
        elif isinstance(family, SimplicialCone):
            cones = [family]
        else:
            raise FormatError(f"{path}: not a cone family")
    elif isinstance(data, list):
        cones = [_cone_in(c, f"{path}: cone {i}") for i, c in enumerate(data)]
    else:
        raise FormatError(f"{path}: expected a list of cones")
    for i, cone in enumerate(cones):
        if cone.ambient != cones[0].ambient:
            raise FormatError(f"{path}: cone {i} has dimension {cone.ambient}, "
                              f"cone 0 has dimension {cones[0].ambient}")
    return cones
