"""Benchmark of laurentgerms: one workload per run, outputs checked exactly.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Workloads are ``roundtrip``, ``residues``, ``lattice`` and ``cli`` (see
``workloads.py``).  A run makes as many whole passes over the workload's
ops as take ``--seconds`` at reference speed, one op at a time in this
process (``cli`` starts one interpreter per op), on one core.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, times at reference core speed (see ``speed.py``).  With
``--trace 1`` it holds the per-layer metrics of a traced pass (see
``spans.py``) instead, and the spans are written to ``.perfbench_out/``.
Ops that raise or fail their check are counted in ``failed`` and the run
carries on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from quantile import harrell_davis
from spans import LAYERS, Tracer, layer_stats
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
# Seconds one pass takes at reference speed at the baseline.  A run makes
# ceil(seconds / PASS_SECONDS) passes, so its work does not depend on how
# fast the machine happens to be.
PASS_SECONDS = {"roundtrip": 8.5, "residues": 12.3, "lattice": 5.9,
                "cli": 3.4}


@dataclass
class Pass:
    """Op times (seconds, sampling excluded), their intervals and failures."""
    raw: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def add(self, other: "Pass"):
        self.raw += other.raw
        self.windows += other.windows
        self.failed += other.failed

    def at_reference_speed(self, meter: Speedometer) -> list[float]:
        return [t / meter.around(a, b)
                for t, (a, b) in zip(self.raw, self.windows)]


def run_pass(ops, tracer=None, meter=None, clock=time.perf_counter) -> Pass:
    """Time every op, then check every value with tracing off.

    An op that raises, or whose value fails its check, counts as failed.
    """
    result = Pass()
    values = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            spent = meter.spent if meter else 0.0
            start = clock()
            try:
                if tracer is None:
                    value = op.run()
                else:
                    value = tracer.call("op", op.run)
                ok = True
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                print(f"op {op.label} raised {exc!r}", file=sys.stderr)
                value, ok = None, False
            end = clock()
            sampling = meter.spent - spent if meter else 0.0
            result.raw.append(end - start - sampling)
            result.windows.append((start, end))
            values.append((op, value, ok))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, value, ok in values:
        if ok:
            try:
                ok = op.check(value) is True
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                print(f"check of {op.label} raised {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"op {op.label} failed its check", file=sys.stderr)
        result.failed += not ok
    return result


def measure(make_ops, passes: int, meter=None) -> Pass:
    total = Pass()
    for index in range(passes):
        total.add(run_pass(make_ops(index), meter=meter))
    return total


def setup_seconds(meter: Speedometer) -> float:
    """Median time, at reference speed, from starting a fresh interpreter to
    the end of ``import laurentgerms``.

    One unmeasured start first fills the bytecode cache.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import laurentgerms, time; print(repr(time.perf_counter()))"
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        if i:
            end = float(proc.stdout)
            times.append((end - start) / meter.around(start, end))
    return statistics.median(times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def e2e_metrics(latencies, failed: int, setup: float, rss_mb: float) -> dict:
    return {
        "setup_s": metric(setup, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": metric(harrell_davis(latencies, 0.5) * 1e3, "ms"),
        "op_p95_ms": metric(harrell_davis(latencies, 0.95) * 1e3, "ms"),
        "ok_ratio": metric(1 - failed / len(latencies), "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def end_to_end(workload, make_ops, seconds) -> tuple[Pass, dict, str]:
    passes = max(1, math.ceil(seconds / PASS_SECONDS[workload]))
    with Speedometer() as meter:
        setup = setup_seconds(meter)
        total = measure(make_ops, passes, meter)
    latencies = total.at_reference_speed(meter)
    metrics = e2e_metrics(latencies, total.failed, setup,
                          peak_rss_mb(workload == "cli"))
    raw = total.raw
    note = (f"{workload}: {passes} passes, {total.attempted} ops "
            f"(percentile samples), {sum(raw):.2f} s of op time, median "
            f"core slowness {statistics.median(meter.slowness):.3f}; as "
            f"timed: ops_per_s {len(raw) / sum(raw):.4g}, op_p50_ms "
            f"{harrell_davis(raw, 0.5) * 1e3:.4g}, op_p95_ms "
            f"{harrell_davis(raw, 0.95) * 1e3:.4g}")
    return total, metrics, note


def traced(workload, seed, make_ops, in_process,
           out_dir: Path = OUT) -> tuple[Pass, dict, str]:
    """Per-layer metrics of one traced pass.

    Each op runs once untraced and once traced, in alternating order, so
    the tracing overhead is measured on the same inputs at the same moment.
    For ``cli`` a pass of cold processes comes first, and the paired runs
    call ``main`` in this process with the same argv.  Times here are as
    timed, not corrected for core speed.
    """
    total = Pass()
    if workload == "cli":
        cold = run_pass(make_ops(0))
        total.add(cold)
        make_ops = in_process
    tracer = Tracer()
    untraced, traced_pass = Pass(), Pass()
    for i, op in enumerate(make_ops(0)):
        runs = [(untraced, None), (traced_pass, tracer)]
        for done, by in runs[::-1] if i % 2 else runs:
            done.add(run_pass([op], tracer=by))
    total.add(untraced)
    total.add(traced_pass)

    stats = layer_stats(tracer.spans, [layer.name for layer in LAYERS])
    metrics = {}
    for layer in LAYERS:
        for stat, value in stats[layer.name].items():
            unit = "count" if stat == "calls" else "s"
            metrics[f"{layer.name}.{stat}"] = metric(value, unit)
        for key in layer.keys:
            name = f"{layer.name}.{key}"
            metrics[name] = metric(tracer.counts[name], "count")
    counts = tracer.counts
    cones_in = counts["cones.common_refinement.cones_in"]
    pieces = counts["cones.common_refinement.pieces_out"]
    metrics["cones.common_refinement.pieces_per_cone"] = metric(
        pieces / cones_in if cones_in else 0.0, "ratio")
    ops = traced_pass.attempted
    metrics["residues.expansions_per_op"] = metric(
        stats["expand.laurent_expand"]["calls"] / ops, "1/op")
    interpreter = 0.0
    if workload == "cli":
        interpreter = statistics.fmean(cold.raw) - statistics.fmean(
            untraced.raw)
    metrics["cli.interpreter_s"] = metric(interpreter, "s")
    plain = untraced.attempted / sum(untraced.raw)
    slow = ops / sum(traced_pass.raw)
    metrics["trace.untraced_ops_per_s"] = metric(plain, "1/s")
    metrics["trace.traced_ops_per_s"] = metric(slow, "1/s")
    metrics["trace.overhead"] = metric(plain / slow, "ratio")

    path = out_dir / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(path)
    note = (f"{workload}: traced pass of {ops} ops, {len(tracer.spans)} "
            f"spans in {path}, tracing overhead "
            f"{plain / slow:.3f}x")
    return total, metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=PASS_SECONDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=4,
                        help="seed of the germ corpus of roundtrip and "
                             "residues (default 4, the acceptance-04 corpus)")
    args = parser.parse_args(argv)

    if not (SRC / "laurentgerms" / "__init__.py").is_file():
        print(f"error: no laurentgerms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if hasattr(os, "sched_setaffinity"):
        # one core for this process and the interpreters it starts, so the
        # speed samples come from the core the ops run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    cold = workloads.cold_runner(ROOT, SRC)

    def make_ops(pass_index, runner=cold):
        return workloads.build(args.workload, args.seed, pass_index,
                               cli_runner=runner, workdir=workdir,
                               corpus_seed=args.corpus_seed)

    try:
        if args.trace:
            total, metrics, note = traced(
                args.workload, args.seed, make_ops,
                lambda i: make_ops(i, workloads.in_process_run))
        else:
            total, metrics, note = end_to_end(args.workload, make_ops,
                                              args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(note)
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
