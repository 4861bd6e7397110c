"""Tests of the benchmark's own logic (not of spinenav).

    python3 -m pytest bench/tests -q
"""

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import baseline
import run
import worker
import workloads
from tracer import TRACED, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]


def _spans(rows, names=TRACED):
    """rows: (name, start, end, parent[, raised]) -> the tracer's arrays."""
    idx = {n: i for i, n in enumerate(names)}
    rows = [r + (0,) * (5 - len(r)) for r in rows]
    return {"name": np.array([idx[r[0]] for r in rows], dtype=np.int32),
            "start": np.array([r[1] for r in rows], dtype=float),
            "end": np.array([r[2] for r in rows], dtype=float),
            "parent": np.array([r[3] for r in rows], dtype=np.int32),
            "op": np.zeros(len(rows), dtype=np.int32),
            "raised": np.array([r[4] for r in rows], dtype=np.int8)}


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))[::-1]
    assert run.percentile(values, 50) == pytest.approx(np.percentile(values, 50))
    assert run.percentile(values, 90) == pytest.approx(np.percentile(values, 90))
    assert run.percentile([7.0], 90) == 7.0


def test_reference_units_cancel_a_machine_slowdown():
    latencies = [0.010, 0.020, 0.016]
    references = [0.002, 0.002, 0.004, 0.004]
    got = run.in_reference_units(latencies, references)
    slower = run.in_reference_units([2 * x for x in latencies], [2 * x for x in references])
    assert slower == pytest.approx(got)
    # bracket means 0.002, 0.003, 0.004; run median 0.003
    assert got == pytest.approx([0.010 / (0.002 * 0.003) ** 0.5, 0.020 / 0.003,
                                 0.016 / (0.004 * 0.003) ** 0.5])


def test_setup_in_nominal_seconds_cancels_a_machine_slowdown():
    setups = [1.0, 1.5, 0.9]
    references = [0.5, 0.5, 0.7, 0.3]
    got = run.in_nominal_seconds(setups, references)
    assert run.in_nominal_seconds([2 * x for x in setups],
                                  [2 * x for x in references]) == pytest.approx(got)
    # ratios 1.0 / 0.5, 1.5 / 0.6, 0.9 / 0.5: median 2.0
    assert got == pytest.approx(2.0 * run.NOMINAL_REFERENCE_LAUNCH_S)


def test_p90_is_reported_only_by_workloads_with_long_runs():
    reporting = {name for name, w in workloads.WORKLOADS.items() if w.reports_p90}
    assert reporting == {"robot_planning", "placement_sessions"}
    recorded = json.loads((ROOT / "bench" / "BENCH_baseline.json").read_text())
    for name, summary in recorded.items():
        ops = summary["metrics"]["ops"]["values"]
        assert (min(ops) >= run.P90_MIN_OPS) == (name in reporting), name


class _Counting(workloads.Workload):
    cycle = 3

    def prepare(self, i):
        return i

    def op(self, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(self, i, inputs, result):
        return workloads.Outcome(result == 0, None if result == 0 else "wrong")


def test_loop_runs_whole_cycles_and_counts_failed_ops(tmp_path):
    record = worker.run_loop(_Counting(0, tmp_path), seconds=0.0)
    assert len(record["latencies_s"]) == 3
    assert len(record["references_s"]) == 4
    assert record["solved"] == 1
    assert record["failures"] == {"1": "RuntimeError: boom", "2": "wrong"}


def test_baseline_spread_is_the_quartile_distance_over_the_median():
    records = [{"metrics": {"op_p50_ref": {"value": float(v), "unit": "ref"}}}
               for v in range(1, 11)]
    got = baseline.summarize(records)["op_p50_ref"]
    q1, median, q3 = statistics.quantiles(range(1, 11), n=4)
    assert (got["q1"], got["median"], got["q3"]) == (q1, median, q3)
    assert got["spread"] == pytest.approx((q3 - q1) / 5.5)


def test_compare_flags_a_median_worse_than_its_bound_and_a_wide_spread():
    def file(median, spread):
        return {"w": {"metrics": {"setup_s": {"median": median, "spread": spread},
                                  "op_p50_ref": {"median": median, "spread": spread}}}}

    bounds = {"setup_s": ("lower", 0.25), "op_p50_ref": ("lower", 0.25)}
    ok = baseline.compare(file(1.0, 0.05), file(1.2, 0.05), bounds)
    assert [row[-1] for row in ok] == [True, True]
    assert ok[0][4] == pytest.approx(0.2)
    slower = baseline.compare(file(1.0, 0.05), file(1.3, 0.05), bounds)
    assert [row[-1] for row in slower] == [False, False]
    # only setup_s's spread goes unchecked
    wide = baseline.compare(file(1.0, 0.3), file(1.0, 0.05), bounds)
    assert [row[-1] for row in wide] == [True, False]


def test_self_time_subtracts_child_coverage_once():
    # parent 0..10; children 1..3 and 2..5 overlap (cover 1..5); a grandchild
    # counts against its own parent only; a child running past its parent's
    # end is clipped to the parent
    rows = [("simharness.run_study", 0.0, 10.0, -1),
            ("simharness.run_trial", 1.0, 3.0, 0),
            ("simharness.run_trial", 2.0, 5.0, 0),
            ("registration.register_points", 2.5, 4.0, 2),
            ("simharness.run_trial", 9.0, 12.0, 0)]
    s = _spans(rows)
    got = self_times(s["start"], s["end"], s["parent"])
    np.testing.assert_allclose(got, [10.0 - 4.0 - 1.0, 2.0, 3.0 - 1.5, 1.5, 3.0])


def test_layer_metrics_are_per_op_with_derived_ratios():
    rows = [("kinematics.plan_safe", 0.0, 10.0, -1),
            ("kinematics.plan_trajectory", 0.0, 4.0, 0),
            ("kinematics.ik", 0.0, 1.0, 1, 1),
            ("kinematics.plan_trajectory", 5.0, 9.0, 0),
            ("kinematics.ik", 5.0, 6.0, 3),
            ("registration.icp_register", 20.0, 30.0, -1)]
    rows += [("registration.closest_points_on_mesh", 21.0 + k, 21.5 + k, 5)
             for k in range(4)]
    m = layer_metrics(_spans(rows), TRACED, n_ops=2)
    assert m["kinematics.plan_safe.rolls_per_plan"] == 2.0
    assert m["kinematics.ik.error_frac"] == 0.5
    assert m["kinematics.ik.calls"] == 1.0
    assert m["registration.icp_register.iterations"] == 3.0
    assert m["kinematics.plan_safe.self_ms"] == pytest.approx((10.0 - 8.0) * 1e3 / 2)
    assert m["kinematics.self_ms"] == pytest.approx(10.0 * 1e3 / 2)
    assert m["calibration.self_ms"] == 0.0


def test_wrapping_reaches_calls_made_across_modules(tmp_path):
    """A traced accuracy_study op records registration.register_points spans
    called from simharness, whose binding came from a from-import."""
    from spinenav import registration, simharness

    original = registration.register_points
    study = workloads.AccuracyStudy(3, tmp_path)
    study.setup()
    tracer = Tracer()
    tracer.install()
    try:
        assert simharness.register_points is not original
        assert registration.register_points is simharness.register_points
        assert study.op(study.prepare(0)) == 0
    finally:
        tracer.uninstall()
    assert simharness.register_points is original
    assert registration.register_points is original

    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    register = np.flatnonzero(names == "registration.register_points")
    assert len(register) >= 150
    parents = set(names[spans["parent"][register]])
    assert "simharness.run_trial" in parents
    assert np.all(spans["end"] >= spans["start"])
    m = layer_metrics(spans, tracer.names, n_ops=1)
    assert m["simharness.run_trial.calls"] == 450
    assert m["cli.main.calls"] == 1
    assert m["calibration.dlt_calibrate.calls"] > 0
    assert m["kinematics.ik.calls"] == 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.BOUNDED)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    empty = layer_metrics(_spans([]), TRACED, n_ops=1)
    record = {"latencies_s": [1.0], "references_s": [1.0, 1.0]}
    reported = list(run.per_layer({"layers": empty, "import_s": 1.0, **record}, record))
    assert [m["name"] for m in spec["per_layer"]] == reported


def test_oracle_kinematics_match_spinenav():
    from spinenav import kinematics

    model = kinematics.default_robot()
    q = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 6))
    frames = workloads.link_frames(model.dh_rows, q)
    for row, expected in zip(frames, q):
        np.testing.assert_allclose(row, kinematics.fk_frames(model, expected), atol=1e-9)


def test_oracle_flags_a_pose_inside_an_obstacle():
    from spinenav import kinematics

    model = kinematics.default_robot()
    q = np.array([workloads.HOME])
    tip = workloads.link_frames(model.dh_rows, q)[0, 6, :3, 3]
    far = [("far", kinematics.sphere(tip + [0.0, 0.0, 1000.0], 10.0))]
    near = [("near", kinematics.sphere(tip, 10.0))]
    assert workloads.sampled_clearance(model, far, q) > 100.0
    assert workloads.sampled_clearance(model, near, q) < 0.0
