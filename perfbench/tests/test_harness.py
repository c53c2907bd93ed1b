"""Tests of the benchmark harness itself (not of the handlebody package).

    python3 -m pytest -q perfbench/tests

The smoke runs execute every workload once through ``run.py`` (a whole op
cycle each), so the module takes about a minute and a half.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402

workloads = run.load_package()
import tracing  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)
END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
GATED = {"ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"}


def digest(name, seed):
    wl = workloads.WORKLOADS[name](run.ROOT, seed)
    wl.setup()
    return run.plan_digest(wl, n=200)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_plan_digest(name):
    assert digest(name, 3) == digest(name, 3)
    assert digest(name, 3) != digest(name, 4)


def test_percentile_interpolates_between_ranks():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([7.0], 90) == 7.0
    xs = [float(v) for v in range(1, 12)]
    assert run.percentile(xs, 90) == 10.0
    ys = [0.3, 5.0, 1.25, 9.5, 2.0, 4.75, 8.0]
    assert run.percentile(ys, 90) == pytest.approx(
        statistics.quantiles(ys, n=10, method="inclusive")[8])
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5)], 0, 10) == 4
    assert tracing.covered([(1, 3), (4, 5)], 0, 10) == 3
    assert tracing.covered([(9, 12), (-2, 1)], 0, 10) == 2
    assert tracing.covered([(3, 4), (1, 6), (2, 3)], 0, 10) == 5
    assert tracing.covered([], 0, 10) == 0


def synthetic_spans():
    # 0: op [0, 10] with children 1 [1, 3] and 2 [2, 5] overlapping, and
    #    3 [9, 12] running past its end; 4 [1.5, 2.5] is nested in 1.
    # 5: op [20, 24] with one child 6 [21, 22] of the same layer as 1.
    return [("op", 0.0, 10.0, -1, 0), ("a", 1.0, 3.0, 0, 0),
            ("b", 2.0, 5.0, 0, 0), ("b", 9.0, 12.0, 0, 0),
            ("c", 1.5, 2.5, 1, 0), ("op", 20.0, 24.0, -1, 1),
            ("a", 21.0, 22.0, 5, 1)]


def test_self_times_on_nested_and_overlapping_children():
    got = tracing.self_times(synthetic_spans())
    assert got == pytest.approx([10 - 4 - 1, 2 - 1, 3, 3, 1, 3, 1])


def test_aggregate_per_op_and_setup():
    tracer = tracing.Tracer()
    tracer.spans = synthetic_spans() + [("setup", 30.0, 33.0, -1, -1),
                                        ("a", 30.5, 31.0, 7, -1)]
    agg = tracing.Aggregate(tracer, ops=2, wall=14.0)
    assert agg.self_per_op("a") == pytest.approx((1 + 1) / 2)
    assert agg.calls_per_op("b") == pytest.approx(1)
    assert agg.self_per_op("op") == pytest.approx((5 + 3) / 2)
    assert agg.setup_self("a") == pytest.approx(0.5)
    assert agg.setup_self("setup") == pytest.approx(2.5)
    assert agg.ops_per_s == pytest.approx(2 / 14.0)


def test_install_wraps_every_alias_and_uninstall_restores():
    import handlebody
    homs = sys.modules["handlebody.homs"]
    kernel_orbit = sys.modules["handlebody.kernel_orbit"]
    original = sys.modules["handlebody.backend"].pack_words
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = homs.pack_words
        assert wrapped is not original
        assert kernel_orbit.pack_words is wrapped
        assert handlebody.pack_words is wrapped
        sid = tracer.begin(0)
        handlebody.pack_words([handlebody.commutator_base()])
        tracer.end(sid)
        assert [s[0] for s in tracer.spans] == ["op", "backend.pack"]
        assert tracer.spans[1][3] == 0
        handlebody.pack_words([])            # no op open: not recorded
        assert len(tracer.spans) == 2
    finally:
        tracer.uninstall()
    assert homs.pack_words is original
    assert handlebody.pack_words is original


def test_missing_targets_are_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.install([
        ("backend.find_identity", "handlebody.no_such_module:f", None),
        ("homs.batch", "handlebody.homs:NoSuchClass.method", None),
    ])
    assert tracer.missing == {"backend.find_identity", "homs.batch"}
    metrics, missing = tracing.per_layer_metrics(tracer, 1, 1.0)
    for name in ("backend.find_identity_s", "backend.find_identity_calls",
                 "homs.batch_s", "homs.batch_resolved_ratio"):
        assert name in missing
        assert name in metrics
    assert "homs.witness_s" not in missing
    assert set(metrics) == {m[0] for m in tracing.PER_LAYER}


def run_bench(cwd, script, *args):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_unit(name):
    proc = run_bench(run.ROOT, os.path.join("perfbench", "run.py"),
                     "--workload", name, "--seed", "5", "--seconds", "0.2",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("error_rate=0 ratio") for line in lines)
    for metric, unit in END_TO_END_UNITS.items():
        assert any(line.startswith("%s=" % metric)
                   and line.split("=", 1)[1].split()[1] == unit
                   for line in lines), metric
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {k: END_TO_END_UNITS[k] for k in GATED}
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        gated = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert gated == GATED


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = run_bench(run.ROOT, os.path.join("perfbench", "run.py"),
                     "--workload", "check_stream", "--seed", "5",
                     "--seconds", "0.2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m[0] for m in tracing.PER_LAYER}
    assert result["metrics"]["homs.witness_s"]["value"] > 0
    assert result["metrics"]["backend.pack_calls"]["value"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(str(tmp_path), os.path.join("perfbench", "run.py"),
                     "--workload", "check_stream", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_scale_rescales_by_median_probe_time():
    import speed
    nominal = speed.NOMINAL_PROBE_S
    # Probe every 0.1 s; nominal speed for t < 5, half speed after.
    samples = [(0.1 * i, nominal if i < 50 else 2 * nominal)
               for i in range(100)]
    scale = speed.SpeedScale(samples)
    assert scale.factor(1.0, 4.0) == pytest.approx(1.0)
    assert scale.factor(6.0, 9.0) == pytest.approx(0.5)
    assert scale.scale(6.0, 9.0) == pytest.approx(1.5)
    # A short window is widened to MIN_WINDOW_S before taking the median.
    assert scale.factor(7.0, 7.0) == pytest.approx(0.5)
    # A window with no samples falls back to all of them.
    assert scale.factor(50.0, 51.0) == pytest.approx(2 / 3)


def test_speed_probe_samples_and_stops():
    import time
    import speed
    with speed.SpeedProbe() as probe:
        time.sleep(0.2)
        scale = probe.stop()
        proc = probe._proc
    assert proc.returncode is not None
    assert len(scale.samples) >= 5
