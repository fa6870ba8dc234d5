"""Tests of the benchmark itself: tracer arithmetic, the correctness gate
and seeded input generation.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import puritynet  # noqa: E402
import puritynet.cli  # noqa: E402
from bench import END_TO_END, MISSED_S, PER_LAYER, Runner, latencies, pass_walls, tail_percentile, timing_metrics  # noqa: E402
from checks import strict_json  # noqa: E402
from hostspeed import REF_KERNEL_S, HostSpeed  # noqa: E402
from tracer import Tracer, analyse, covered  # noqa: E402
from workloads import BUILDERS, WHY, generate, probe_item  # noqa: E402

import numpy as np  # noqa: E402


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0), (8.5, 8.7)]) == pytest.approx(6.0)


def test_self_time_on_synthetic_span_tree():
    tr = Tracer()
    a = tr.record("m.a", -1, 0, 0.0, 10.0)
    b = tr.record("m.b", a, 0, 1.0, 4.0)
    tr.record("m.e", b, 0, 2.0, 3.0)
    tr.record("m.c", a, 0, 3.0, 6.0)  # overlaps b: covered once
    tr.record("m.d", a, 0, 8.0, 9.0)
    inner = tr.record("m.a", -1, 1, 20.0, 22.0)
    tr.record("m.a", inner, 1, 20.5, 21.0)  # recursive call inside m.a
    stats = analyse(tr)
    assert stats["m.a"]["calls"] == 3
    assert stats["m.a"]["self_s"] == pytest.approx((10 - 6) + (2 - 0.5) + 0.5)
    assert stats["m.a"]["s"] == pytest.approx(12.0)  # nested span not counted twice
    assert stats["m.b"]["self_s"] == pytest.approx(2.0)
    assert stats["m.c"]["self_s"] == pytest.approx(3.0)
    assert stats["m.e"]["s"] == pytest.approx(1.0)


def test_tracer_catches_cross_and_same_module_calls_and_uninstalls(tmp_path):
    original = puritynet.separability.all_subset_purities
    tr = Tracer()
    tr.install(puritynet, lambda: 0.0)
    try:
        assert puritynet.cli.all_subset_purities is not original
        tr.active = True
        puritynet.cli.main(["probe", "--spec-text", "statespec v1\nkind = ghz\nn = 3\n", "--out", str(tmp_path / "o.json")])
        tr.active = False
    finally:
        tr.uninstall()
    assert puritynet.cli.all_subset_purities is original
    assert puritynet.separability.all_subset_purities is original
    names = [tr.names[i] for i in tr.name_id]
    parent_of = {names[i]: names[tr.parent[i]] for i in range(len(tr)) if tr.parent[i] >= 0}
    assert parent_of["cli.run_probe"] == "cli.main"  # same-module call
    assert parent_of["separability.all_subset_purities"] in ("cli.run_probe", "bs_network.joint_sign_probabilities")
    assert names.count("separability.all_subset_purities") == 2
    assert names.count("qstate.partial_trace") == 2 * 6


def ghz_runner(tmp_path):
    rng = np.random.default_rng(0)
    items = [probe_item("ghz", 3, rng), probe_item("cat", 4, rng)]
    runner = Runner(tmp_path)
    runner.prepare(items)
    return runner, items


def test_correct_program_passes_the_gate(tmp_path):
    runner, items = ghz_runner(tmp_path)
    runner.run_pass(items)
    assert runner.failures == []


def test_corrupted_purity_counts_as_failure(tmp_path, monkeypatch):
    real = puritynet.separability.all_subset_purities

    def corrupted(rho, cap=None):
        table = real(rho, cap=cap)
        entries = dict(table.entries)
        entries[(1,)] += 1e-6
        return puritynet.separability.SubsetPurityMap(table.n_sites, entries)

    monkeypatch.setattr(puritynet.cli, "all_subset_purities", corrupted)
    runner, items = ghz_runner(tmp_path)
    runner.run_pass(items)
    assert len(runner.failures) == 2
    assert latencies(runner, lambda t0, t1: t1 - t0) == [MISSED_S] * 2


def test_strict_json_rejects_non_finite():
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            strict_json('{"a": %s}' % token)


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_same_seed_same_inputs(workload):
    first = [it.key() for it in generate(workload, 7, 1)]
    assert first == [it.key() for it in generate(workload, 7, 1)]
    assert first != [it.key() for it in generate(workload, 8, 1)]
    assert first != [it.key() for it in generate(workload, 7, 2)]  # each pass draws fresh inputs


def test_pass_walls_and_timing_metrics():
    lat = [1.0, 2.0, 3.0, 0.5, 4.0, 5.0, 6.0]
    assert pass_walls(lat, [3, 2, 2]) == [6.0, 4.5, 11.0]
    lat = [float(k) for k in range(1, 31)]  # three passes of ten
    metrics = timing_metrics(lat, [10, 10, 10])
    assert metrics["wall_s"] == 155.0
    assert metrics["op_p50_s"] == 15.5
    assert metrics["op_tail_s"] == 20.0  # 66th percentile: ten samples beyond it


def test_host_speed_rescales_to_reference_seconds():
    speed = HostSpeed(clock=lambda: 0.0, smooth_s=0.15)
    # fast host (kernel at its reference time) until t = 1, then 1.5x slower
    for i in range(20):
        speed.starts.append(i * 0.1)
        speed.durations.append(REF_KERNEL_S * (1.0 if i < 10 else 1.5))
        speed._prefix.append(speed._prefix[-1] + speed.durations[-1])
    fast = speed.reference_seconds(0.05, 0.55)  # five samples inside
    assert fast == pytest.approx(0.5 - 5 * REF_KERNEL_S)
    slow = speed.reference_seconds(1.35, 1.36)  # no sample inside: the nearest
    assert slow == pytest.approx(0.01 / 1.5)
    assert speed.net_seconds(1.35, 1.36) == pytest.approx(0.01)
    assert speed.summary()["factor_median"] == pytest.approx((1 + 1 / 1.5) / 2)


def test_host_speed_timer_takes_samples():
    import time

    with HostSpeed(time.perf_counter, interval=0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(speed.starts) >= 5
    assert all(d > 0 for d in speed.durations)


def test_tail_percentile_leaves_ten_samples():
    for n in (11, 62, 240, 520):
        pct = tail_percentile(n)
        assert n - math.ceil(pct / 100 * n) >= 10
        assert n - math.ceil((pct + 1) / 100 * n) < 10


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
