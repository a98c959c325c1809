"""Expression parsing, printing, and JSON serialization.

Input expressions use variables ``x1..xk`` (``eps1..epsk`` also accepted),
integer literals, ``+ - * / ^`` with the usual precedence, and parentheses.
Human-readable output prints variables as ``eps1..epsk``.  Rationals are
serialized as exact "p/q" strings — floats never appear in any format.

Conversion to a meromorphic germ is where denominators are validated: the
parser happily builds ``1/(x1^2+1)``, but germ conversion must factor every
denominator into rational linear forms and rejects it otherwise.  Session
settings (dimension, inner product, truncation, cap) belong to ``cli``.
Cones and expansions are read and written by importing ``cones`` and
``expand`` where they are met, so that germs alone load neither.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    ExprSyntaxError,
    FormatError,
    NonLinearPole,
    NotSimplicial,
    UnknownVariable,
)
from .exact import (
    ONE,
    Polynomial,
    Record,
    Vec,
    frac,
    linear_factorization,
    mat_rank,
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

if TYPE_CHECKING:
    from .cones import SimplicialCone

__all__ = [
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "parse_expr",
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

class Num(Record):
    value: Fraction


class Var(Record):
    index: int  # zero-based


class Neg(Record):
    operand: "Node"


class BinOp(Record):
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


class Pow(Record):
    base: "Node"
    exponent: int


Node = Num | Var | Neg | BinOp | Pow


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
        kind = m.lastgroup  # the one of num, name and op that matched
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _shown(token: str) -> str:
    """The token quoted for an error message, cut after 40 characters."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}…"


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

    def expr(self, ops: str = "+-") -> Node:
        # a left-associated chain of ops; the operands are direct calls, so a
        # level of parentheses takes expr, expr, factor, power and atom
        node = self.expr("*/") if ops == "+-" else self.factor()
        while (tok := self.peek())[0] == "op" and tok[1] in ops:
            self.take()
            node = BinOp(tok[1], node,
                         self.expr("*/") if ops == "+-" else self.factor())
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
                raise UnknownVariable(
                    f"unknown name {_shown(val)} at position {pos}")
            idx = int(m.group(2))
            if not 1 <= idx <= self.k:
                raise UnknownVariable(
                    f"variable {_shown(val)} outside dimension {self.k}")
            return Var(idx - 1)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {_shown(val)}", pos)


def parse_expr(text: str, k: int) -> Node:
    """Parse an expression over variables x1..xk (eps1..epsk accepted)."""
    parser = _Parser(text, k)
    try:
        node = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply") from None
    except ValueError as exc:  # an int beyond sys.get_int_max_str_digits()
        raise ExprSyntaxError(f"integer too long: {exc}") from None
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {_shown(val)}", pos)
    return node


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


_BINOPS = {"+": mero_add, "-": mero_sub, "*": mero_mul, "/": mero_mul}


def to_germ(node: Node, k: int) -> MeromorphicGerm:
    """Interpret the tree as an exact meromorphic germ in k variables.

    A divisor must be nonzero (ZeroDivisionError otherwise) with a reduced
    numerator that factors into linear forms (NonLinearPole).  It is
    inverted by its factors (a product's one by one, a positive power's
    base, a negation's operand, and a/b as b times 1/a), so a power of a
    linear form is never expanded and factored again; where a factor has no
    inverse the whole is inverted, so the result and the error are the
    whole's.  Each divisor is inverted once per call, failures included.
    """
    inverses: dict[int, MeromorphicGerm | Exception] = {}  # by id(divisor)

    def germ(node: Node) -> MeromorphicGerm:
        if isinstance(node, Num):
            return make_mero(Polynomial.constant(k, node.value))
        if isinstance(node, Var):
            return make_mero(Polynomial.variable(k, node.index))
        if isinstance(node, Neg):
            return mero_neg(germ(node.operand))
        if isinstance(node, Pow):
            if node.exponent < 0:
                return _mero_pow(inverse(node.base), -node.exponent)
            return _mero_pow(germ(node.base), node.exponent)
        # a flat sum or product of n operands is n levels deep on the left:
        # walk that spine in a loop and recurse only into the right operands
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        a = germ(node)
        for link in reversed(chain):
            right = inverse(link.right) if link.op == "/" else germ(link.right)
            a = _BINOPS[link.op](a, right)
        return a

    def inverse(d: Node) -> MeromorphicGerm:
        if id(d) not in inverses:
            # 1/d is out times 1/f^e for each (f, e) left to do
            out, todo = make_mero(Polynomial.constant(k, 1)), [(d, 1)]
            try:
                while todo:
                    f, e = todo.pop()
                    if isinstance(f, Neg):
                        out = mero_neg(out) if e % 2 else out
                        todo.append((f.operand, e))
                    elif isinstance(f, Pow) and f.exponent > 0:
                        todo.append((f.base, e * f.exponent))
                    elif isinstance(f, BinOp) and f.op == "*":
                        todo += [(f.left, e), (f.right, e)]
                    elif isinstance(f, BinOp) and f.op == "/":
                        # the whole a/b fails where b does: b is a divisor
                        inverse(f.right)
                        out = mero_mul(out, _mero_pow(germ(f.right), e))
                        todo.append((f.left, e))
                    elif f is not d:
                        out = mero_mul(out, _mero_pow(inverse(f), e))
                    else:  # d has no factors
                        out = None
            except (NonLinearPole, ZeroDivisionError):
                out = None
            if out is None:  # invert the whole divisor
                try:
                    out = _mero_invert(germ(d))
                except (NonLinearPole, ZeroDivisionError) as exc:
                    out = exc
            inverses[id(d)] = out
        out = inverses[id(d)]
        if isinstance(out, Exception):
            raise out
        return out

    return germ(node)


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
            raise FormatError(f"{where}: bad rational {_shown(value)}") from exc
    raise FormatError(f"{where}: expected a rational, got {type(value).__name__}")


def _vec_out(v: Vec) -> list[str]:
    return [frac_str(c) for c in v]


def _vec_in(row, where: str) -> Vec:
    if not isinstance(row, list):
        raise FormatError(f"{where}: expected a list of rationals")
    return tuple(parse_frac(c, f"{where}[{i}]") for i, c in enumerate(row))


def _poly_in(text, k: int, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a polynomial string")
    try:
        g = parse_germ(text, k)
    except (ExprSyntaxError, UnknownVariable, NonLinearPole,
            ZeroDivisionError) as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if not g.is_polynomial():
        raise FormatError(f"{where}: {_shown(text)} is not a polynomial")
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
        if isinstance(power, bool) or not isinstance(power, int) or power < 1:
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
                "poly": obj.to_string()}
    if isinstance(obj, MeromorphicGerm):
        return {"kind": "germ", "dim": obj.nvars,
                "numerator": obj.numerator.to_string(),
                "denominator": _factors_out(obj.den)}
    if isinstance(obj, PolarGerm):
        return {"kind": "polar-germ", "dim": obj.nvars,
                "numerator": obj.numerator.to_string(),
                "factors": _factors_out(obj.factors)}
    if isinstance(obj, GermSum):
        return {"kind": "germ-sum", "dim": obj.nvars,
                "polar": [{"numerator": t.numerator.to_string(),
                           "factors": _factors_out(t.factors)}
                          for t in obj.terms],
                "poly": obj.poly.to_string()}
    from .cones import ConeFamily, SimplicialCone
    if isinstance(obj, SimplicialCone):
        return {"kind": "cone", "dim": obj.ambient,
                "generators": [_vec_out(g) for g in obj.generators]}
    if isinstance(obj, ConeFamily):
        return {"kind": "cone-family",
                "dim": obj.cones[0].ambient if obj.cones else 0,
                "cones": [[_vec_out(g) for g in c.generators]
                          for c in obj.cones]}
    from .expand import FormalExpansion
    if isinstance(obj, FormalExpansion):
        return {"kind": "expansion", "dim": obj.nvars,
                "terms": [{"factors": _factors_out(dc.factors),
                           "numerator": num.to_string()}
                          for dc, num in obj.terms],
                "poly": obj.polynomial_part.to_string()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def deserialize(data: dict):
    """Inverse of :func:`serialize`; raises FormatError on malformed input."""
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("top level: expected an object with a 'kind' field")
    kind = data["kind"]
    k = data.get("dim")
    # an empty family or refinement has no dimension: it is written with dim 0
    least = 0 if kind in ("cone-family", "refinement") else 1
    if isinstance(k, bool) or not isinstance(k, int) or k < least:
        raise FormatError("dim: expected a positive integer")
    if kind == "polynomial":
        return _poly_in(data.get("poly"), k, "poly")
    if kind == "germ":
        num = _poly_in(data.get("numerator"), k, "numerator")
        den = _factors_in(data.get("denominator", []), k, "denominator")
        return make_mero(num, den)
    if kind == "polar-germ":
        return PolarGerm(*_fraction_in(data, k, ""))
    if kind == "germ-sum":
        terms = [PolarGerm(*f) for f in _fractions_in(data, "polar", k)]
        poly = _poly_in(data.get("poly", "0"), k, "poly")
        return make_germ_sum(terms, poly)
    if kind == "expansion":
        from .expand import make_expansion
        terms = [(fac, num) for num, fac in _fractions_in(data, "terms", k)]
        poly = _poly_in(data.get("poly", "0"), k, "poly")
        return make_expansion(terms, poly)
    if kind == "cone":
        return _cones_in([data.get("generators")], "generators", k)[0]
    if kind in ("cone-family", "refinement"):
        from .cones import ConeFamily
        key = "cones" if kind == "cone-family" else "pieces"  # not index_sets
        rows = data.get(key)
        if not isinstance(rows, list):
            raise FormatError(f"{key}: expected a list")
        return ConeFamily(tuple(_cones_in(rows, key + "[{}]", k)))
    raise FormatError(f"kind: unknown kind {kind!r}")


def _fraction_in(item, k: int, where: str) -> tuple[Polynomial, tuple]:
    """One polar term, canonical; FormatError naming the term when its
    numerator is zero or its pole forms are dependent (the orthogonality of
    the numerator needs an inner product, which the format does not carry).
    """
    num = _poly_in(item.get("numerator"), k, f"{where}numerator")
    fac = _factors_in(item.get("factors", []), k, f"{where}factors")
    num, fac = canonical_fraction(num, fac)
    term = where.rstrip(".") or "polar germ"
    if num.is_zero():
        raise FormatError(f"{term}: a polar term needs a nonzero numerator")
    if mat_rank(tuple(v for v, _ in fac)) < len(fac):
        raise FormatError(f"{term}: the pole forms are dependent")
    return num, fac


def _fractions_in(data: dict, key: str,
                  k: int) -> list[tuple[Polynomial, tuple]]:
    items = data.get(key, [])
    if not isinstance(items, list):
        raise FormatError(f"{key}: expected a list")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise FormatError(f"{key}[{i}]: expected an object")
        out.append(_fraction_in(item, k, f"{key}[{i}]."))
    return out


def _cone_in(rows, where: str) -> SimplicialCone:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{where}: expected a nonempty list of generators")
    gens = [_vec_in(r, f"{where}[{i}]") for i, r in enumerate(rows)]
    from .cones import make_simplicial_cone
    try:
        return make_simplicial_cone(gens)
    except (NotSimplicial, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _cones_in(rows: list, where: str,
              k: int | None = None) -> list[SimplicialCone]:
    """Cones of one ambient dimension, which is ``k`` when given;
    ``where.format(i)`` names cone i."""
    cones = [_cone_in(c, where.format(i)) for i, c in enumerate(rows)]
    for i, cone in enumerate(cones):
        if cone.ambient != cones[0].ambient:
            raise FormatError(f"cone {i} has dimension {cone.ambient}, "
                              f"cone 0 has dimension {cones[0].ambient}")
    if k is not None and cones and cones[0].ambient != k:
        raise FormatError(f"dim: {k}, but the generators have "
                          f"{cones[0].ambient} coordinates")
    return cones


def to_json(obj) -> str:
    return json.dumps(serialize(obj), indent=2)


def from_json(text: str):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a long int, deep nesting
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
    except (ValueError, RecursionError) as exc:  # a long int, deep nesting
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

    The wrapped {"kind": "cone-family", ...} form is accepted too, and so
    are a "cone" document and the "refinement" that ``cone refine`` writes.
    All cones must have the same ambient dimension.
    """
    data = _load_json(path)
    try:
        if isinstance(data, list):
            return _cones_in(data, "cone {}")
        if not isinstance(data, dict):
            raise FormatError("expected a list of cones")
        family = deserialize(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    from .cones import ConeFamily, SimplicialCone
    if isinstance(family, ConeFamily):
        return list(family.cones)
    if isinstance(family, SimplicialCone):
        return [family]
    raise FormatError(f"{path}: not a cone family")
