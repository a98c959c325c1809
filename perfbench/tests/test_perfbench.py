"""Tests of the benchmark's own code: span arithmetic, input generation,
failure accounting and the removal of tracing wrappers.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""

import importlib.util
import itertools
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import laurentgerms as lg
import run
import spans
import workloads
from conftest import ROOT
from quantile import beta_cdf, harrell_davis
from spans import Tracer, covered, layer_stats, leftover_wrappers
from speed import Speedometer


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_the_time_children_cover():
    nested = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
        ("a", 7.5, 8.5, 2),   # recursion: a inside c inside a
        ("x", 11.0, 12.0, -1),
    ]
    stats = layer_stats(nested, ["a", "b", "c", "d"])
    assert stats["a"] == {"calls": 2, "total_s": 10.0, "self_s": 4.0}
    assert stats["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert stats["c"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert stats["d"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_covered_merges_overlapping_children_and_clips_to_the_parent():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (4.0, 6.0)]) == 5.0
    assert covered((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered((0.0, 10.0), []) == 0.0


def test_tracer_links_each_span_to_the_span_that_was_open():
    ticks = itertools.count()
    tracer = Tracer(layers=(), clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("leaf", lambda: 7)

    assert tracer.call("root", lambda: tracer.call("mid", inner)) == 7
    assert tracer.spans == [("root", 0.0, 5.0, -1), ("mid", 1.0, 4.0, 0),
                            ("leaf", 2.0, 3.0, 1)]


def test_harrell_davis_weights_the_order_statistics_near_the_quantile():
    values = list(range(1, 201))
    assert harrell_davis(values, 0.5) == pytest.approx(100.5)
    assert 189 < harrell_davis(values, 0.95) < 192
    assert harrell_davis([3.0], 0.95) == 3.0
    assert harrell_davis([5.0] * 7, 0.95) == pytest.approx(5.0)
    # the incomplete beta function at values checked against a reference
    assert beta_cdf(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert beta_cdf(2.0, 3.0, 0.4) == pytest.approx(0.5248)


# -- speed correction ----------------------------------------------------------

def test_op_time_is_divided_by_the_slowness_around_it():
    meter = Speedometer()
    meter.times = [0.5, 1.5, 2.5, 9.0]
    meter.slowness = [2.0, 2.0, 4.0, 10.0]
    assert meter.around(1.0, 2.0, margin=0.6) == 8.0 / 3
    assert meter.around(5.0, 6.0, margin=0.1) == 4.5   # no sample: all
    done = run.Pass(raw=[1.0, 3.0], windows=[(0.4, 1.6), (8.0, 9.5)])
    assert done.at_reference_speed(meter) == [0.5, 0.3]


def test_sampling_time_is_not_counted_as_op_time():
    class Meter:
        spent = 0.0

    meter = Meter()

    def op():
        meter.spent += 0.25

    ticks = iter([10.0, 11.0])
    result = run.run_pass([workloads.Op("x", op, lambda v: True)],
                          meter=meter, clock=lambda: next(ticks))
    assert result.raw == [0.75]
    assert result.windows == [(10.0, 11.0)]


def test_speedometer_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer(interval=0.002) as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.slowness) >= 5
    assert meter.spent > 0
    assert all(s > 0 for s in meter.slowness)


# -- inputs ------------------------------------------------------------------

def _load_test_conftest():
    spec = importlib.util.spec_from_file_location(
        "package_test_helpers", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_the_acceptance_04_corpus():
    helpers = _load_test_conftest()
    import random
    rng = random.Random(4)
    expected = []
    for _ in range(200):
        k = rng.randint(1, 3)
        expected.append((k, helpers.random_germ(rng, k, max_forms=4,
                                                degree=3)))
    assert list(workloads.germ_corpus(4)) == expected


def test_germ_inputs_are_a_function_of_the_seed():
    a = workloads._scaled_corpus("roundtrip", 7, 0, 4)
    b = workloads._scaled_corpus("roundtrip", 7, 0, 4)
    c = workloads._scaled_corpus("roundtrip", 8, 0, 4)
    d = workloads._scaled_corpus("roundtrip", 7, 1, 4)
    assert a == b
    assert a != c and a != d
    # every seed runs the same 200 germs up to a nonzero scalar
    assert sorted(label for label, _, _ in a) == sorted(
        label for label, _, _ in c)


def test_lattice_inputs_are_a_function_of_the_seed():
    a = workloads.lattice_inputs(3, 0)
    assert a == workloads.lattice_inputs(3, 0)
    assert a != workloads.lattice_inputs(4, 0)
    kinds = sorted(kind for kind, _, _ in a)
    assert kinds == sorted(kind for kind, _, _ in
                           workloads.lattice_inputs(4, 0))


def test_embedded_cones_keep_their_determinant_and_first_ray():
    import random
    rng = random.Random(0)
    for p, q in workloads.cone2d_strata():
        a, b = workloads.embedded_cone2d(rng, p, q)
        assert abs(a[0] * b[1] - a[1] * b[0]) == q
        assert a < b


def test_cli_argv_is_a_function_of_the_seed(tmp_path):
    def argv(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        return [(c.label, tuple(x.replace(str(work), "") for x in c.argv))
                for c in workloads.cli_cases(seed, 0, work)]

    first = argv(5, "a")
    assert first == argv(5, "b")
    assert first != argv(6, "c")


# -- failure accounting --------------------------------------------------------

def _germ():
    return lg.parse_germ("(x1+2*x2)/(x1*(x1+x2)*x2)", 2)


def test_wrong_expected_value_and_raising_op_are_counted_as_failed():
    g = _germ()
    wrong = lg.mero_add(g, lg.make_mero(lg.Polynomial.constant(2, 1)))
    ops = [workloads.round_trip_op("good", 2, g),
           workloads.round_trip_op("wrong", 2, g, expected=wrong),
           workloads.Op("raises", lambda: 1 // 0, lambda v: True),
           workloads.Op("check-raises", lambda: 1,
                        lambda v: v["missing"])]
    result = run.run_pass(ops)
    assert result.attempted == 4
    assert result.failed == 3
    metrics = run.e2e_metrics(result.raw, result.failed, setup=0.1,
                              rss_mb=20.0)
    assert metrics["ok_ratio"]["value"] == 0.25


def test_cli_check_fails_on_a_wrong_expected_value(tmp_path):
    cases = {c.label: c for c in workloads.cli_cases(1, 0, tmp_path)}
    good = cases["verify-equal"]
    bad = workloads.CliCase(good.label, good.argv,
                            lambda d: d["equal"] is False)
    ops = [workloads.cli_op(c, workloads.in_process_run)
           for c in (good, bad)]
    result = run.run_pass(ops)
    assert (result.attempted, result.failed) == (2, 1)


def test_every_cli_case_passes_in_process(tmp_path):
    ops = [workloads.cli_op(c, workloads.in_process_run)
           for c in workloads.cli_cases(2, 0, tmp_path)]
    assert run.run_pass(ops).failed == 0


def test_lattice_checks_reject_a_wrong_value():
    lc = lg.make_lattice_cone([(1, 0), (0, 1)])
    ts = lg.exp_sum_smooth(lc)
    assert workloads.matches_direct_sum(lc, ts)
    other = lg.exp_sum_smooth(lg.make_lattice_cone([(1, 0), (1, 1)]))
    assert not workloads.matches_direct_sum(lc, other)
    cone = workloads.poly_cone(__import__("random").Random(1), 5)
    plc = lg.make_lattice_cone(cone)
    integral = lg.exp_integral(plc)
    assert workloads.matches_reverse_triangulation(plc, integral)
    assert not workloads.matches_reverse_triangulation(
        plc, lg.exp_integral(lg.make_lattice_cone([(1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1)])))


# -- tracing -----------------------------------------------------------------

def test_tracer_sees_calls_inside_the_package_and_removes_every_wrapper():
    original_phi = lg.expand.phi
    original_mul = lg.Polynomial.__dict__["__mul__"]
    tracer = Tracer()
    ops = [workloads.round_trip_op("g", 2, _germ())]
    tracer.install()
    try:
        assert leftover_wrappers()
        assert hasattr(lg.expand.phi, spans.WRAPPED)
        assert hasattr(lg.phi, spans.WRAPPED)
        assert run.run_pass(ops).failed == 0
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    assert lg.expand.phi is original_phi and lg.phi is original_phi
    assert lg.Polynomial.__dict__["__mul__"] is original_mul
    stats = layer_stats(tracer.spans, [layer.name for layer in spans.LAYERS])
    # mero_add and Polynomial.mul are called only from inside the package
    assert stats["expand.phi"]["calls"] == 1
    assert stats["germs.mero_add"]["calls"] >= 1
    assert stats["exact.Polynomial.mul"]["calls"] >= 1
    assert tracer.counts["expand.phi.terms_in"] == 2


def test_untraced_run_carries_no_wrapper_after_a_traced_run():
    ops = workloads.build("roundtrip", 1, 0)[:5]
    run.run_pass(ops, tracer=Tracer())
    assert leftover_wrappers() == []
    assert run.run_pass(ops).failed == 0


def test_tracer_restores_originals_when_installing_fails():
    layers = spans.LAYERS + (spans.Layer("exact", "no_such_function",
                                         "exact.no_such_function"),)
    with pytest.raises(AttributeError):
        Tracer(layers).install()
    assert leftover_wrappers() == []


def test_counts_repeat_exactly_for_the_same_inputs():
    def counts():
        tracer = Tracer()
        ops = workloads.build("residues", 3, 1)[:40]
        assert run.run_pass(ops, tracer=tracer).failed == 0
        calls = {name: entry["calls"] for name, entry in layer_stats(
            tracer.spans, [layer.name for layer in spans.LAYERS]).items()}
        return calls, dict(tracer.counts)

    first = counts()
    assert first == counts()
    assert first[0]["expand.laurent_expand"] == 4 * 40


# -- the command -------------------------------------------------------------

def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_lists_exactly_the_metrics_a_run_prints(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.PASS_SECONDS)

    def declared(key):
        return {m["name"]: m["unit"] for m in bench[key]}

    def printed(metrics):
        return {name: m["unit"] for name, m in metrics.items()}

    e2e = run.e2e_metrics([0.1, 0.3], 0, setup=0.1, rss_mb=20.0)
    assert printed(e2e) == declared("end_to_end")
    total, layers, _ = run.traced(
        "roundtrip", 1, lambda i: workloads.build("roundtrip", 1, i)[:3],
        None, out_dir=tmp_path)
    assert total.failed == 0
    assert printed(layers) == declared("per_layer")
