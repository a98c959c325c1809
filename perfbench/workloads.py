"""Inputs, ops and output checks of the benchmark's four workloads.

An op is one unit of a workload's input: one germ, one lattice cone or one
CLI invocation.  ``Op.run`` is the timed call into the package; ``Op.check``
decides, outside the timed region, whether the value it returned passes an
exact identity that does not trust the op.

Inputs come only from the seed: ``build(workload, seed, pass_index, ...)``
returns the same ops for the same arguments.  Each pass draws fresh inputs
of one fixed structure, so no result repeats between passes and the cost of
a pass does not depend on the seed:

* ``roundtrip`` and ``residues`` run the 200-germ acceptance-04 corpus
  (``random.Random(4)``, as in the package's round-trip test).  The seed
  shuffles the order and scales every germ by a random nonzero rational.
* ``lattice`` takes its determinant cones, 3D smooth cones and 3D cones
  from the pass index alone; the seed picks the 2D smooth cones and the
  order.
* ``cli`` fixes the commands and the magnitudes 10^e of the pole-form
  coefficients; the seed picks the coefficients and the embeddings.

Package functions are looked up on their module at call time, so a traced
run sees the calls the ops make.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import laurentgerms as lg
from laurentgerms import exact

CORPUS_SEED = 4


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _is_true(value) -> bool:
    return value is True


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# ---------------------------------------------------------------------------
# the acceptance-04 germ corpus (same draws as tests/conftest.py)

def _random_fraction(rng, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _random_vector(rng, k, lo=-3, hi=3):
    while True:
        v = tuple(Fraction(rng.randint(lo, hi)) for _ in range(k))
        if any(c != 0 for c in v):
            return v


def _random_polynomial(rng, k):
    out = lg.Polynomial.zero(k)
    for _ in range(rng.randint(1, 4)):
        e = [0] * k
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(k)] += 1
        out = out + lg.Polynomial(k, {tuple(e): _random_fraction(rng)})
    return out


def random_germ(rng, k):
    """A germ with numerator degree <= 3 and at most 4 linear pole factors."""
    g = lg.make_mero(_random_polynomial(rng, k))
    for _ in range(rng.randint(0, 4)):
        form = _random_vector(rng, k, -2, 2)
        g = lg.mero_mul(g, lg.make_mero(lg.Polynomial.constant(k, 1),
                                        ((form, 1),)))
    return g


@functools.lru_cache(maxsize=2)
def germ_corpus(corpus_seed: int = CORPUS_SEED) -> tuple:
    """200 ``(k, germ)`` pairs; seed 4 gives the acceptance-04 corpus."""
    rng = random.Random(corpus_seed)
    out = []
    for _ in range(200):
        k = rng.randint(1, 3)
        out.append((k, random_germ(rng, k)))
    return tuple(out)


def _scale(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _scaled_corpus(workload, seed, pass_index, corpus_seed):
    rng = _rng(workload, seed, pass_index)
    items = [(f"germ{i}", k, lg.mero_scale(_scale(rng), f))
             for i, (k, f) in enumerate(germ_corpus(corpus_seed))]
    rng.shuffle(items)
    return items


def round_trip_op(label, k, germ, expected=None) -> Op:
    """Expand, forget the cones with ``phi``, compare with ``expected``."""
    expected = germ if expected is None else expected
    space = lg.AmbientSpace.standard(k)

    def run():
        return lg.germ_equal(lg.phi(lg.laurent_expand(space, germ)), expected)

    return Op(label, run, _is_true)


def skew_space(k: int):
    """The skew inner product of acceptance criterion 9."""
    if k == 1:
        return lg.AmbientSpace(1, exact.mat([[2]]))
    rows = [[2, 1], [1, 1]]
    return lg.AmbientSpace(k, exact.mat(
        [[rows[i][j] if i < 2 and j < 2 else int(i == j) for j in range(k)]
         for i in range(k)]))


def residues_op(label, k, germ) -> Op:
    """p-order and p-res under two inner products; they must agree."""
    identity, skew = lg.AmbientSpace.standard(k), skew_space(k)

    def run():
        orders = lg.p_order(identity, germ), lg.p_order(skew, germ)
        res = lg.p_res(identity, germ), lg.p_res(skew, germ)
        return orders[0] == orders[1] and lg.germ_equal(*res)

    return Op(label, run, _is_true)


# ---------------------------------------------------------------------------
# lattice cones

# 2D cones (1,0),(p,q): determinants q log-uniform up to 300, and p near
# q/phi^2 so the number of smooth pieces grows slowly with q
CONE2D_COUNT = 12
CONE2D_TOP = 300
SMOOTH2D_COUNT = 8
# skewed smooth 3D cones; exp_sum_smooth on them costs 0.3 s to 1.5 s
SMOOTH3D_CONES = (
    ((1, 0, -1), (0, 1, -1), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 0), (0, -2, 1)),
    ((2, 0, -1), (-1, 1, 0), (-1, 0, 1)),
)
POLY3D_RAYS = (4, 5, 6)
POLY3D_COUNT = 96


def _coprime_near(q: int, x: float) -> int:
    for step in range(q):
        for p in (round(x) - step, round(x) + step):
            if 0 < p < q and math.gcd(p, q) == 1:
                return p
    return 1


def cone2d_strata() -> list[tuple[int, int]]:
    """``(p, q)`` with q = det, fixed for every seed."""
    out = []
    for i in range(1, CONE2D_COUNT + 1):
        q = max(2, round(CONE2D_TOP ** (i / CONE2D_COUNT)))
        out.append((_coprime_near(q, q * (3 - math.sqrt(5)) / 2), q))
    return out


def unimodular(rng, k: int, steps: int, bound: int) -> list[list[int]]:
    """A random integer matrix of determinant 1 with entries in [-bound, bound]."""
    while True:
        m = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(steps):
            i, j = rng.sample(range(k), 2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if max(abs(x) for row in m for x in row) <= bound:
            return m


def _apply(u, v) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) for row in u]


def embedded_cone2d(rng, p: int, q: int) -> list[tuple[int, int]]:
    """Rays U(1,0), U(p,q) for a random unimodular U.

    U(1,0) is kept the lexicographically smaller ray, so the package's
    normal form of the cone is (1,0),(p,q) again and the number of smooth
    pieces depends on (p, q) only.
    """
    while True:
        u = unimodular(rng, 2, 3, 3)
        a = (u[0][0], u[1][0])
        b = (p * u[0][0] + q * u[0][1], p * u[1][0] + q * u[1][1])
        if a < b:
            return [a, b]


def poly_cone(rng, n: int):
    """A pointed 3D cone with exactly ``n`` extreme rays.

    The rays (t, t^2, 1) for distinct integers t lie over a convex polygon,
    so all n are extreme; a random unimodular map varies the shape.
    """
    ts = sorted(rng.sample(range(-4, 5), n))
    u = unimodular(rng, 3, 3, 2)
    return lg.make_poly_cone([_apply(u, (t, t * t, 1)) for t in ts])


def residue_is_integral_op(label, rays) -> Op:
    def run():
        lc = lg.make_lattice_cone(rays)
        return lg.germ_equal(lg.p_res_exp_sum(lc), lg.exp_integral(lc))

    return Op(label, run, _is_true)


def smooth_sum_op(label, rays) -> Op:
    def run():
        lc = lg.make_lattice_cone(rays)
        return lc, lg.exp_sum_smooth(lc)

    return Op(label, run, lambda value: matches_direct_sum(*value))


def matches_direct_sum(lc, ts) -> bool:
    """The truncated sum against direct summation to height 40, within 1e-6,
    at pairing -1 with every generator."""
    point = exact.solve(exact.mat(lc.rays),
                        tuple(Fraction(-1) for _ in lc.rays))
    direct = lg.lattice_sum_numeric(lc, point, 40)
    return abs(float(lg.evaluate_truncated(ts, point)) - direct) < 1e-6


def poly_integral_op(label, cone) -> Op:
    def run():
        lc = lg.make_lattice_cone(cone)
        return lc, lg.exp_integral(lc)

    return Op(label, run, lambda value: matches_reverse_triangulation(*value))


def matches_reverse_triangulation(lc, integral) -> bool:
    """The integral of a full-dimensional cone in the standard lattice,
    summed over the other pulling triangulation: (-1)^d |det| / prod L."""
    k = lc.ambient
    sign = -1 if lc.dim % 2 else 1
    total = lg.make_mero(lg.Polynomial.zero(k))
    for piece in lg.triangulate_cone(lc.cone, reverse_order=True):
        weight = abs(exact.det(piece.generators))
        total = lg.mero_add(total, lg.make_mero(
            lg.Polynomial.constant(k, sign * weight),
            [(g, 1) for g in piece.generators]))
    return lg.germ_equal(integral, total)


def lattice_inputs(seed: int, pass_index: int) -> list[tuple]:
    """``(kind, label, cone)`` of one pass, in the order they run.

    Op costs here move by up to 20% (2x for the 3D smooth cones) with the
    coordinates of a cone, so only the 2D smooth cones and the order come
    from the seed; the other cones come from the pass index alone and are
    the same for every seed.
    """
    rng = _rng("lattice", seed, pass_index)
    fixed = _rng("lattice", "any", pass_index)
    items = [("residue", f"det{q}", embedded_cone2d(fixed, p, q))
             for p, q in cone2d_strata()]
    for i, rows in enumerate(SMOOTH3D_CONES):
        axes = fixed.sample(range(3), 3)
        items.append(("smooth", f"smooth3d.{i}",
                      [[row[j] for j in axes] for row in rows]))
    items += [("poly", f"poly3d.{i}",
               poly_cone(fixed, POLY3D_RAYS[i % len(POLY3D_RAYS)]))
              for i in range(POLY3D_COUNT)]
    items += [("smooth", f"smooth2d.{i}", unimodular(rng, 2, 3, 3))
              for i in range(SMOOTH2D_COUNT)]
    rng.shuffle(items)
    return items


LATTICE_OPS = {"residue": residue_is_integral_op, "smooth": smooth_sum_op,
               "poly": poly_integral_op}


# ---------------------------------------------------------------------------
# CLI invocations

@dataclass(frozen=True)
class CliCase:
    label: str
    argv: tuple[str, ...]
    expect: Callable[[dict], bool]


def _big(rng, e: int) -> int:
    """A coefficient of magnitude 10^e."""
    return 10 ** e + rng.randrange(10 ** (e // 2) + 1)


def _factor_key(factors) -> tuple:
    return tuple(sorted((tuple(Fraction(c) for c in f["form"]), f["power"])
                        for f in factors))


def _polar_terms(data: dict) -> dict:
    """{factors: numerator} of a serialized germ-sum or expansion."""
    items = data["polar"] if data["kind"] == "germ-sum" else data["terms"]
    return {_factor_key(t["factors"]): t["numerator"] for t in items}


def _form(*coords) -> tuple:
    return tuple(Fraction(c) for c in coords)


def _germ_sum_is(data, kind, terms) -> bool:
    """``data`` is ``kind`` with exactly ``terms`` {factors: numerator} and
    no polynomial part."""
    return (data["kind"] == kind and data["poly"] == "0"
            and {k: Fraction(v) for k, v in _polar_terms(data).items()}
            == {k: Fraction(v) for k, v in terms.items()})


def _same_germ(data, expected) -> bool:
    value = lg.deserialize(data)
    if isinstance(value, lg.FormalExpansion):
        value = lg.phi(value)
    return lg.germ_equal(value, expected)


def _mero(numerator_terms: dict, forms) -> object:
    num = lg.Polynomial(2, {e: Fraction(c) for e, c in numerator_terms.items()})
    return lg.make_mero(num, [(_form(*v), 1) for v in forms])


def _write(workdir: Path, name: str, rows) -> str:
    path = workdir / name
    path.write_text(json.dumps(rows), encoding="utf-8")
    return str(path)


def cli_cases(seed: int, pass_index: int, workdir: Path) -> list[CliCase]:
    """One invocation of every command; files go into ``workdir``."""
    rng = _rng("cli", seed, pass_index)
    c, a, b = rng.randint(2, 9), rng.randint(1, 9), rng.randint(1, 9)
    k3, k6, k9, k10, k12 = (_big(rng, e) for e in (3, 6, 9, 10, 12))
    u = unimodular(rng, 2, 3, 3)

    def family(name, cones):
        return _write(workdir, f"{name}{pass_index}.json",
                      [[_apply(u, g) for g in cone] for cone in cones])

    def image(*cones):
        return {frozenset(tuple(_form(*_apply(u, g)) for g in cone))
                for cone in cones}

    split = [[(1, 0), (1, 1)], [(0, 1), (1, 1)]]
    overlap = [[(1, 0), (0, 1)], [(1, 1), (0, 1)]]
    support = _write(workdir, f"support{pass_index}.json", split)
    arrangement = _write(workdir, f"arrangement{pass_index}.json",
                         [[1, 0], [0, 1], [1, 1]])
    smooth = _write(workdir, f"smooth{pass_index}.json",
                    unimodular(rng, 2, 3, 3))
    wide = _write(workdir, f"wide{pass_index}.json",
                  embedded_cone2d(rng, 11, 30))
    split_file = family("split", split)
    overlap_file = family("overlap", overlap)

    def pieces(data):
        return {frozenset(tuple(Fraction(x) for x in g) for g in cone)
                for cone in data["pieces"]}

    def exp_sum(data, is_smooth):
        ok = (data["kind"] == "exp-sum" and data["smooth"] is is_smooth
              and data["p_order"] == 2
              and lg.germ_equal(lg.deserialize(data["p_res"]),
                                lg.deserialize(data["exp_integral"])))
        if is_smooth:
            ok = ok and data["numeric_check"]["residual"] < 1e-6
        return ok

    cases = [
        CliCase("decompose", ("decompose", f"({a}*x1+x2)/(x1*(x1+{k9}*x2))"),
                lambda d: _germ_sum_is(d, "germ-sum", {
                    ((_form(1, 0), 1),): Fraction(1, k9),
                    ((_form(1, k9), 1),): a - Fraction(1, k9)})),
        CliCase("laurent",
                ("laurent", f"({a}*x1+{b}*x2)/(x1*(x1+{k12}*x2)*x2)"),
                lambda d: d["kind"] == "expansion" and _same_germ(
                    d, _mero({(1, 0): a, (0, 1): b},
                             [(1, 0), (1, k12), (0, 1)]))),
        CliCase("laurent-support",
                ("laurent", f"{c}*(x1+2*x2)/(x1*(x1+x2)*x2)",
                 "--support", support),
                lambda d: _germ_sum_is(d, "expansion", {
                    ((_form(1, 0), 1), (_form(1, 1), 1)): 2 * c,
                    ((_form(0, 1), 1), (_form(1, 1), 1)): c})),
        CliCase("project-plus",
                ("project-plus", f"{c}*(x1+{k6}*x2+1)/(x1+{k6}*x2)"),
                lambda d: d["kind"] == "polynomial" and d["poly"] == str(c)),
        CliCase("project-minus",
                ("project-minus", f"{c}*(x1+{k3}*x2+1)/(x1+{k3}*x2)"),
                lambda d: _germ_sum_is(d, "germ-sum",
                                       {((_form(1, k3), 1),): c})),
        CliCase("grade", ("grade", f"{c}/(x1*x2) + {a}/x1"),
                lambda d: [(x["p_order"], _polar_terms(x["component"]))
                           for x in d["components"]] == [
                    (1, {((_form(1, 0), 1),): str(a)}),
                    (2, {((_form(0, 1), 1), (_form(1, 0), 1)): str(c)})]),
        CliCase("jk", ("jk", f"{c}/(x1*x2)"),
                lambda d: _germ_sum_is(d, "germ-sum", {
                    ((_form(0, 1), 1), (_form(1, 0), 1)): c})),
        CliCase("brion-vergne",
                ("brion-vergne", f"{c}/(x1*x2) + {a}/x1^2",
                 "--arrangement", arrangement),
                lambda d: _germ_sum_is(d["generating"], "germ-sum", {
                    ((_form(0, 1), 1), (_form(1, 0), 1)): c})
                and _germ_sum_is(d["rest"], "germ-sum",
                                 {((_form(1, 0), 2),): a})),
        CliCase("p-order", ("p-order", f"{c}/(x1*(x1+{k12}*x2))"),
                lambda d: d["p_order"] == 2),
        CliCase("p-res", ("p-res", f"({c}+{c}*x2)/x1^2"),
                lambda d: _germ_sum_is(d, "germ-sum",
                                       {((_form(1, 0), 2),): c})),
        CliCase("coproduct", ("coproduct", f"({c}+x2)/x1"),
                lambda d: [(t["left"], _polar_terms({"kind": "germ-sum",
                                                     "polar": [t["right"]]}))
                           for t in d["terms"]]
                == [(f"{c} + eps2", {((_form(1, 0), 1),): "1"})]),
        CliCase("cone-refine", ("cone", "refine", overlap_file),
                lambda d: pieces(d) == image(*split)
                and sorted(map(len, d["index_sets"])) == [1, 2]),
        CliCase("cone-check-true", ("cone", "check", split_file),
                lambda d: d["properly_positioned"] is True),
        CliCase("cone-check-false", ("cone", "check", overlap_file),
                lambda d: d["properly_positioned"] is False),
        CliCase("exp-sum-smooth", ("exp-sum", "--cone", smooth),
                lambda d: exp_sum(d, True)),
        CliCase("exp-sum-wide", ("exp-sum", "--cone", wide),
                lambda d: exp_sum(d, False)),
        CliCase("verify-equal",
                ("verify", f"{c}/(x1*x2)",
                 f"{c}/(x1*(x1+x2)) + {c}/(x2*(x1+x2))"),
                lambda d: d["equal"] is True),
        CliCase("verify-differ",
                ("verify", f"{c}/(x1*x2)", f"{c}/(x1*(x1+{k10}*x2))"),
                lambda d: d["equal"] is False),
    ]
    rng.shuffle(cases)
    return cases


def cold_runner(root: Path, src: Path):
    """Run each invocation in a fresh ``python -m laurentgerms.cli``."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "laurentgerms.cli", *argv],
            capture_output=True, text=True, env=env, cwd=root, timeout=120)
        return proc.returncode, proc.stdout

    return run


def in_process_run(argv):
    """Call ``laurentgerms.cli.main`` in this process, capturing stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = importlib.import_module("laurentgerms.cli").main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_op(case: CliCase, runner) -> Op:
    def check(value):
        code, out = value
        return code == 0 and case.expect(json.loads(out))

    return Op(case.label, lambda: runner(case.argv), check)


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, pass_index: int, *,
          cli_runner=None, workdir: Path | None = None,
          corpus_seed: int = CORPUS_SEED) -> list[Op]:
    """The ops of one pass of ``workload``."""
    if workload == "roundtrip":
        return [round_trip_op(label, k, g) for label, k, g in
                _scaled_corpus(workload, seed, pass_index, corpus_seed)]
    if workload == "residues":
        return [residues_op(label, k, g) for label, k, g in
                _scaled_corpus(workload, seed, pass_index, corpus_seed)]
    if workload == "lattice":
        return [LATTICE_OPS[kind](label, cone)
                for kind, label, cone in lattice_inputs(seed, pass_index)]
    if workload == "cli":
        return [cli_op(case, cli_runner)
                for case in cli_cases(seed, pass_index, workdir)]
    raise ValueError(f"unknown workload {workload!r}")
