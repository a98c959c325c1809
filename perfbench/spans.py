"""Traced runs: wrap the package's public functions from outside.

A :class:`Tracer` rebinds each listed function in every ``laurentgerms.*``
module namespace that holds it (so calls made inside the package are seen
too), patches ``Polynomial`` methods on the class, records one span per call
in memory and restores every original on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
span that was open when the call began, or -1.  Spans are appended when a
call starts, so a parent always precedes its children.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

WRAPPED = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Layer:
    """One traced function: ``attr`` is a module attribute or ``Class.method``.

    ``name`` is the metric prefix.  ``count`` maps ``(result, *args,
    **kwargs)`` of a call that returned to exact counts, one per key in
    ``keys``, which are added up over the run.
    """
    module: str
    attr: str
    name: str
    keys: tuple[str, ...] = ()
    count: Callable[..., tuple[int, ...]] | None = None


def _distinct_forms(x) -> int:
    return len({v for dc, _ in x.terms for v, _ in dc.factors})


LAYERS = (
    Layer("exact", "rref", "exact.rref"),
    Layer("exact", "det", "exact.det"),
    Layer("exact", "nullspace", "exact.nullspace"),
    Layer("exact", "linear_factorization", "exact.linear_factorization"),
    Layer("exact", "Polynomial.__mul__", "exact.Polynomial.mul"),
    Layer("exact", "Polynomial.substitute", "exact.Polynomial.substitute"),
    Layer("germs", "decompose", "germs.decompose", ("terms_out",),
          lambda out, *a, **k: (len(out.terms),)),
    Layer("germs", "reduce_to_independent", "germs.reduce_to_independent"),
    Layer("germs", "mero_add", "germs.mero_add"),
    Layer("germs", "germ_equal", "germs.germ_equal"),
    Layer("cones", "common_refinement", "cones.common_refinement",
          ("cones_in", "pieces_out"),
          lambda out, cones, *a, **k: (len(cones), len(out[0]))),
    Layer("cones", "union_contains_line", "cones.union_contains_line"),
    Layer("cones", "is_properly_positioned", "cones.is_properly_positioned"),
    Layer("cones", "is_subdivision", "cones.is_subdivision"),
    Layer("cones", "triangulate_cone", "cones.triangulate_cone"),
    Layer("expand", "laurent_expand", "expand.laurent_expand", ("terms_out",),
          lambda out, *a, **k: (len(out.terms),)),
    Layer("expand", "_subdivide_term", "expand._subdivide_term"),
    Layer("expand", "make_expansion", "expand.make_expansion"),
    Layer("expand", "phi", "expand.phi", ("terms_in", "distinct_forms_in"),
          lambda out, x: (len(x.terms), _distinct_forms(x))),
    Layer("residues", "p_order", "residues.p_order"),
    Layer("residues", "p_res", "residues.p_res"),
    Layer("latticeexp", "smooth_subdivide_2d", "latticeexp.smooth_subdivide_2d",
          ("pieces_out",), lambda out, lc: (len(out),)),
    Layer("latticeexp", "exp_sum_smooth", "latticeexp.exp_sum_smooth"),
    Layer("latticeexp", "p_res_exp_sum", "latticeexp.p_res_exp_sum"),
    Layer("latticeexp", "exp_integral", "latticeexp.exp_integral"),
    Layer("latticeexp", "make_lattice_cone", "latticeexp.make_lattice_cone"),
    Layer("exprio", "parse_germ", "exprio.parse_germ"),
    Layer("exprio", "serialize", "exprio.serialize"),
    Layer("cli", "main", "cli.main"),
)


class Tracer:
    """Records spans and counters of the wrapped layers while installed."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts = {f"{layer.name}.{key}": 0
                       for layer in self.layers for key in layer.keys}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def _wrap(self, layer: Layer, fn):
        call, count, counts = self.call, layer.count, self.counts
        name = layer.name
        keys = [f"{name}.{key}" for key in layer.keys]

        def wrapper(*args, **kwargs):
            out = call(name, fn, *args, **kwargs)
            if count is not None:
                for key, n in zip(keys, count(out, *args, **kwargs)):
                    counts[key] += n
            return out

        setattr(wrapper, WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing --------------------------------------------------------
    def install(self):
        """Rebind every listed function wherever the package holds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        homes = {layer.module: importlib.import_module(
            f"laurentgerms.{layer.module}") for layer in self.layers}
        modules = package_modules()
        try:
            for layer in self.layers:
                home = homes[layer.module]
                if "." in layer.attr:
                    cls_name, meth = layer.attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original,
                                 self._wrap(layer, original))
                    continue
                original = getattr(home, layer.attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, attr: str, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back, in reverse order of rebinding."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def write(self, path):
        """Write the spans as tab-separated ``index name start end parent``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "laurentgerms"
                                    or name.startswith("laurentgerms."))]


def leftover_wrappers() -> list[str]:
    """Names of package attributes that still hold a tracing wrapper."""
    found = []
    for mod in package_modules():
        holders = [(mod.__name__, vars(mod))]
        holders += [(f"{mod.__name__}.{k}", vars(v))
                    for k, v in vars(mod).items()
                    if isinstance(v, type) and v.__module__ == mod.__name__]
        for where, namespace in holders:
            found += [f"{where}.{k}" for k, v in namespace.items()
                      if hasattr(v, WRAPPED)]
    return found


def covered(parent: tuple[float, float],
            children: list[tuple[float, float]]) -> float:
    """Length of the part of ``parent`` that the union of ``children`` covers."""
    lo, hi = parent
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(spans, names) -> dict[str, dict[str, float]]:
    """``calls``, ``total_s`` and ``self_s`` for each span name in ``names``.

    ``total_s`` adds up the spans of a name that are not nested in another
    span of the same name, so recursion is not counted twice.  ``self_s`` is
    each span's duration minus the time its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.get(name)
        if entry is None:
            continue
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered(
            (start, end), children.get(i, []))
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["total_s"] += end - start
    return stats
