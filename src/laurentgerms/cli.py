"""Command-line interface.

Every command reads expressions in the x1..xk syntax, prints one JSON
object to stdout, and is deterministic for a fixed configuration.

Exit codes: 0 success; 1 the result could not be written (silently when
the reader of stdout has gone); 2 parse or format error in an expression or
input file; 3 mathematical precondition violated (nonlinear pole, improper
support, non-smooth cone, ...); 4 ambient dimension above ``--dim-cap``,
checked before any cone geometry runs.  Each library error type carries its
code as ``exit_code``; a stray ZeroDivisionError or ValueError exits 3.
Only ``laurent``, ``p-order``, ``p-res``, ``exp-sum`` and ``cone`` build
cones and are capped; the others read ``decompose`` or nothing, and the
library itself has no cap.
The cap (``DEFAULT_DIMENSION_CAP``) is this tool's policy alone: commands
read their settings from the parsed arguments and build their own space.

A command imports the modules it runs inside its own branch, and ``import
laurentgerms`` loads its submodules only on the first read of a package
attribute, so a cold call compiles only what that command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DimensionCapExceeded, FormatError, LaurentGermsError
from .exact import ONE, AmbientSpace, mat, solve, vec
from .germs import decompose, germ_equal
from .exprio import (
    _vec_out,
    load_cone_family,
    load_rows,
    parse_germ,
    serialize,
)

__all__ = ["main"]

DEFAULT_DIMENSION_CAP = 6


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="laurentgerms",
        description="Exact Laurent expansions, residues, and lattice-cone "
                    "exponential sums for germs with linear poles.")
    top.add_argument("--dim", type=int, default=2, metavar="K",
                     help="ambient dimension (default 2)")
    top.add_argument("--gram", metavar="FILE",
                     help="JSON file with a KxK rational inner-product matrix "
                          "(default: identity)")
    # None stands for latticeexp.DEFAULT_TRUNCATION, read by exp-sum alone
    top.add_argument("--trunc", type=int, metavar="N",
                     help="truncation order for exponential sums")
    top.add_argument("--dim-cap", type=int, default=DEFAULT_DIMENSION_CAP,
                     metavar="D",
                     help="dimension cap of the commands that build cones")
    sub = top.add_subparsers(dest="command", required=True)

    def expr_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expr", metavar="EXPR")
        return p

    expr_cmd("decompose", "polar/holomorphic decomposition of EXPR")
    p = expr_cmd("laurent", "Laurent expansion of EXPR")
    p.add_argument("--support", metavar="FILE",
                   help="cone family file fixing the expansion support")
    expr_cmd("project-plus", "holomorphic projection of EXPR")
    expr_cmd("project-minus", "polar projection of EXPR")
    expr_cmd("grade", "split EXPR by pole span and order")
    p = expr_cmd("jk", "iterated residue of EXPR on a subspace")
    p.add_argument("--subspace", metavar="FILE",
                   help="file of spanning rows (default: span of the poles)")
    p = expr_cmd("brion-vergne", "split EXPR relative to an arrangement")
    p.add_argument("--arrangement", metavar="FILE", required=True)
    expr_cmd("p-order", "maximal total pole order of EXPR")
    expr_cmd("p-res", "highest-order residue of EXPR")
    expr_cmd("coproduct", "numerator/denominator coproduct of EXPR")

    cone = sub.add_parser("cone", help="cone family operations")
    cone_sub = cone.add_subparsers(dest="cone_command", required=True)
    p = cone_sub.add_parser("refine", help="common simplicial refinement")
    p.add_argument("family", metavar="FILE")
    p = cone_sub.add_parser("check", help="test proper positioning")
    p.add_argument("family", metavar="FILE")

    p = sub.add_parser("exp-sum",
                       help="exponential sum on a lattice cone")
    p.add_argument("--cone", metavar="FILE", required=True,
                   help="file of generator rows")
    p.add_argument("--lattice", metavar="FILE",
                   help="file of lattice basis rows (default: standard)")

    p = sub.add_parser("verify", help="exact equality of two expressions")
    p.add_argument("expr1", metavar="EXPR1")
    p.add_argument("expr2", metavar="EXPR2")
    return top


def _space(args) -> AmbientSpace:
    """The space of ``--dim`` and ``--gram``; checks the global flags."""
    k = args.dim
    if k < 1:
        raise FormatError("--dim must be a positive integer")
    if args.trunc is not None and args.trunc < 0:
        raise FormatError("--trunc must be a non-negative integer")
    if not args.gram:
        return AmbientSpace.standard(k)
    rows = load_rows(args.gram)
    if len(rows) != k or len(rows[0]) != k:
        raise FormatError(f"{args.gram}: gram matrix must be {k}x{k}")
    return AmbientSpace(k, mat(rows))


def _check_dim_cap(k: int, args):
    if k > args.dim_cap:
        raise DimensionCapExceeded(
            f"ambient dimension {k} exceeds the cap {args.dim_cap}")


def _read(path: str | None, k: int, load=load_rows):
    """The rows of the file ``path``, or with ``load=load_cone_family`` its
    cones, in the ``--dim`` space k (FormatError otherwise).  No file named
    reads as None, and an empty family as [], with no dimension to check."""
    if not path:
        return None
    found = load(path)
    if found:
        n = found[0].ambient if load is load_cone_family else len(found[0])
        if n != k:
            raise FormatError(f"{path}: rows of dimension {n} under --dim {k}")
    return found


def _run(args) -> dict:
    space = _space(args)
    k = space.dimension
    if args.command in ("laurent", "p-order", "p-res", "exp-sum"):
        _check_dim_cap(k, args)  # cone checks its family's dimension

    if args.command == "decompose":
        return serialize(decompose(space, parse_germ(args.expr, k)))
    elif args.command == "laurent":
        from .expand import laurent_expand
        support = _read(args.support, k, load_cone_family)
        g = parse_germ(args.expr, k)
        return serialize(laurent_expand(space, g, support=support))
    elif args.command == "project-plus":
        from .residues import pi_plus
        return serialize(pi_plus(space, parse_germ(args.expr, k)))
    elif args.command == "project-minus":
        from .residues import pi_minus
        return serialize(pi_minus(space, parse_germ(args.expr, k)))
    elif args.command == "grade":
        from .residues import graded_split
        split = graded_split(space, parse_germ(args.expr, k))
        components = []
        for key in sorted(split, key=lambda key: (key.span_dim, key.p_order,
                                                  key.support_span)):
            components.append({"span": list(map(_vec_out, key.support_span)),
                               "p_order": key.p_order,
                               "component": serialize(split[key])})
        return {"kind": "graded-split", "dim": k, "components": components}
    elif args.command == "jk":
        from .residues import jk_residue
        subspace = _read(args.subspace, k)
        g = parse_germ(args.expr, k)
        return serialize(jk_residue(space, g, subspace=subspace))
    elif args.command == "brion-vergne":
        from .residues import brion_vergne_split, make_arrangement
        arr = make_arrangement(_read(args.arrangement, k))
        gen, rest = brion_vergne_split(space, parse_germ(args.expr, k), arr)
        return {"kind": "brion-vergne", "dim": k,
                "generating": serialize(gen), "rest": serialize(rest)}
    elif args.command == "p-order":
        from .residues import p_order
        return {"kind": "p-order", "dim": k,
                "p_order": p_order(space, parse_germ(args.expr, k))}
    elif args.command == "p-res":
        from .residues import p_res
        return serialize(p_res(space, parse_germ(args.expr, k)))
    elif args.command == "coproduct":
        from .residues import coproduct
        terms = []
        for t in coproduct(space, parse_germ(args.expr, k)):
            right = None if t.right is None else serialize(t.right)
            terms.append({"left": t.left.to_string(), "right": right})
        return {"kind": "coproduct", "dim": k, "terms": terms}
    elif args.command == "cone":
        return _run_cone(args)
    elif args.command == "exp-sum":
        return _run_exp_sum(args, space)
    elif args.command == "verify":
        g1 = parse_germ(args.expr1, k)
        g2 = parse_germ(args.expr2, k)
        return {"kind": "verify", "dim": k, "equal": germ_equal(g1, g2)}


def _run_cone(args) -> dict:
    from .cones import common_refinement, positioning_witness
    cones = load_cone_family(args.family)
    _check_dim_cap(cones[0].ambient if cones else 0, args)
    if args.cone_command == "refine":
        pieces, index_sets = common_refinement(cones)
        return {"kind": "refinement",
                "dim": pieces[0].ambient if pieces else 0,
                "pieces": [list(map(_vec_out, c.generators)) for c in pieces],
                "index_sets": [sorted(s) for s in index_sets]}
    found = positioning_witness(cones)
    witness = None if found is None else {"pair": [found[0], found[1]],
                                          "reason": found[2]}
    return {"kind": "positioning-check",
            "properly_positioned": witness is None,
            "witness": witness}


def _run_exp_sum(args, space: AmbientSpace) -> dict:
    from .latticeexp import (
        DEFAULT_TRUNCATION,
        exp_integral,
        exp_sum_smooth,
        is_smooth,
        make_lattice_cone,
        p_res_exp_sum,
    )
    k = space.dimension
    lc = make_lattice_cone(_read(args.cone, k), _read(args.lattice, k))

    pres = p_res_exp_sum(lc)
    integral = exp_integral(lc)
    order = max((t.p_order for t in pres.terms), default=0)
    report = {"kind": "exp-sum", "dim": lc.ambient,
              "generators": list(map(_vec_out, lc.rays)),
              "smooth": is_smooth(lc),
              "p_order": order,
              "p_res": serialize(pres),
              "exp_integral": serialize(integral)}

    if report["smooth"]:
        trunc = DEFAULT_TRUNCATION if args.trunc is None else args.trunc
        ts = exp_sum_smooth(lc, trunc=trunc, space=space)
        report["truncation"] = ts.truncation_order
        report["polar"] = serialize(ts.polar_part)
        report["tail"] = ts.taylor_tail.to_string()
        report["numeric_check"] = _numeric_check(lc, ts)
    else:
        report["truncation"] = None
        report["polar"] = None
        report["tail"] = None
        report["numeric_check"] = None
    return report


def _numeric_check(lc, ts) -> dict:
    """Compare the truncated sum against direct lattice summation.

    The test point has pairing -1 with every generator, so the defining
    series converges fast and the comparison is meaningful.
    """
    from .latticeexp import evaluate_truncated, lattice_sum_numeric
    rows = mat(lc.rays)
    point = solve(rows, vec([-ONE] * len(lc.rays)))
    direct = lattice_sum_numeric(lc, point, height=40)
    value = float(evaluate_truncated(ts, point))
    return {"point": _vec_out(point),
            "height": 40,
            "lattice_sum": direct,
            "truncated_value": value,
            "residual": abs(direct - value)}


def main(argv=None) -> int:
    # exact results of any size parse and print (no 4,300-digit int cap)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        payload = _run(args)
    except (LaurentGermsError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)
    try:
        text = json.dumps(payload, indent=2) + "\n"
        if hasattr(sys.stdout, "buffer"):  # whole, not one write per chunk
            data = memoryview(text.encode())
            while data:  # a raw stdout may take only part of it
                data = data[sys.stdout.buffer.write(data):]
        else:  # an in-process text stream
            sys.stdout.write(text)
        sys.stdout.flush()  # a buffered write would fail only at exit
    except OSError as exc:
        # as the SIGPIPE note of the signal docs advises: stdout goes to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed reader is silent
            print(f"error: the result could not be written: {exc}",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
