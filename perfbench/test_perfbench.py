"""The benchmark's own tests: run with ``python -m pytest perfbench -q``.

Each workload runs at tiny scale in a fresh process on the default and
the held-out seed; corrupted results must count as failures.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.checks import fleet_problems, frame_problems
from perfbench.tracing import SpanRecorder, patched

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (bench.DEFAULT_SEED, bench.HELD_OUT_SEED)

#: the human-readable table names every metric the workload has
REPORTED = {
    "sr-client": (
        "sr_frames_per_s", "sr_frame_ms_p50", "sr_frame_ms_p90", "sr_chamfer",
        "setup_s", "peak_rss_mb", "error_rate",
    ),
    "fleet-congested-mpc": (
        "content_s_per_s", "mean_qoe", "stall_ratio", "abandon_rate",
        "setup_s", "peak_rss_mb", "error_rate",
    ),
}
REPORTED["fleet-chaos-bola"] = REPORTED["fleet-congested-mpc"]


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _table(stdout: str) -> dict[str, tuple[float, str]]:
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload, seed):
    proc = _run(workload, seed, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    table = _table(proc.stdout)
    for name in REPORTED[workload]:
        assert name in table, name
    assert table["error_rate"][0] == 0.0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _run(workload, bench.DEFAULT_SEED, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.PER_LAYER
    busy = {
        "sr-client": ("compression.decode_ms", "spatial.query_ms", "sr.refinement_ms",
                      "sr.lut_lookups", "sr.chamfer"),
        "fleet-congested-mpc": ("net.topology.steps", "streaming.policies.rows",
                                "streaming.cdn.lookups", "streaming.fleet.driver_self_s",
                                "trace.scheduler_share", "profile.scheduler_share"),
        "fleet-chaos-bola": ("net.topology.flows_cancelled", "streaming.faults.chunk_retries",
                             "streaming.faults.sessions_resteered", "streaming.control.ticks"),
    }[workload]
    for name in busy:
        assert metrics[name] > 0, name
    assert metrics["trace.overhead"] > 0
    spans = ROOT / ".perfbench-out" / f"spans-{workload}-seed{bench.DEFAULT_SEED}.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "trace", "parent", "start_s", "end_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sr-client", bench.DEFAULT_SEED, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- corrupted results count as failures -----------------------------------


def test_frame_with_dropped_points_or_nan_fails():
    from repro.pointcloud.cloud import PointCloud

    rng = np.random.default_rng(0)
    good = PointCloud(rng.random((50, 3)), rng.random((50, 3)))
    assert frame_problems(good, 50) == []
    assert frame_problems(PointCloud(good.positions[:49], good.colors[:49]), 50)
    corrupted = good.copy()
    corrupted.positions[3, 1] = np.nan  # past the constructor's own check
    assert frame_problems(corrupted, 50)
    assert frame_problems(PointCloud(good.positions, None), 50)


@pytest.fixture(scope="module")
def fleet_result():
    from perfbench.fleet_workloads import build_chaos
    from repro.streaming import simulate_fleet

    return simulate_fleet(**build_chaos(24, 0))


def test_clean_fleet_result_passes(fleet_result):
    assert fleet_problems(fleet_result) == ([], 0)


def test_mismatched_byte_total_fails_every_chunk(fleet_result):
    report = replace(fleet_result.report, total_bytes=fleet_result.report.total_bytes + 1)
    problems, failed = fleet_problems(replace(fleet_result, report=report))
    assert problems and failed == sum(s.n_chunks for s in fleet_result.sessions)


def test_retry_histogram_mismatch_fails(fleet_result):
    report = replace(fleet_result.report, chunk_retries=fleet_result.report.chunk_retries + 1)
    assert fleet_problems(replace(fleet_result, report=report))[0]


def test_undrained_flows_fail(fleet_result):
    flows = {"flows_added": 10, "completions": 8, "flows_cancelled": 1}
    assert fleet_problems(fleet_result, flows)[0]
    flows["flows_cancelled"] = 2
    assert fleet_problems(fleet_result, flows) == ([], 0)


def test_session_watching_past_its_video_fails_its_chunks(fleet_result):
    sessions = list(fleet_result.sessions)
    over = fleet_result.session_specs[0].spec.duration + 1.0
    sessions[0] = replace(sessions[0], watched_seconds=over)
    problems, failed = fleet_problems(replace(fleet_result, sessions=sessions))
    assert len(problems) == 1 and failed == sessions[0].n_chunks


def test_run_with_dropped_points_fails_every_frame():
    from repro.pointcloud.cloud import PointCloud
    from repro.sr.pipeline import SRResult, VolutUpsampler

    upsample = VolutUpsampler.upsample

    def lossy(self, cloud, ratio):
        out = upsample(self, cloud, ratio).cloud
        return SRResult(PointCloud(out.positions[:-1], out.colors[:-1]))

    with patched([(VolutUpsampler, "upsample", lossy)]):
        res = bench._sr_client(bench.SCALES["tiny"], 0, 0.1, False, None)
    assert res["attempted"] >= bench.SCALES["tiny"]["sr_min_frames"]
    assert res["failed"] == res["attempted"]


def test_run_with_mismatched_byte_total_fails_every_chunk():
    from perfbench import fleet_workloads

    simulate_fleet = fleet_workloads.simulate_fleet

    def miscounting(**kwargs):
        result = simulate_fleet(**kwargs)
        report = replace(result.report, total_bytes=result.report.total_bytes - 1)
        return replace(result, report=report)

    with patched([(fleet_workloads, "simulate_fleet", miscounting)]):
        res = bench._fleet("fleet-congested-mpc", bench.SCALES["tiny"], 0, 0.1, False, None)
    assert res["attempted"] > 0 and res["failed"] == res["attempted"]


# -- span recording ----------------------------------------------------------


def test_self_time_excludes_child_spans():
    rec = SpanRecorder()
    calls = []
    inner = rec.wrap("layer.inner", lambda: sum(range(20000)),
                     after=lambda out, args: calls.append("inner"), outer_only="layer.")
    outer = rec.wrap("layer.outer", lambda: inner() + inner(),
                     after=lambda out, args: calls.append("outer"), outer_only="layer.")
    outer()
    spans = rec.spans
    (o,) = [s for s in spans if rec.names[s[0]] == "layer.outer"]
    children = [s for s in spans if rec.names[s[0]] == "layer.inner"]
    assert all(c[3] == spans.index(o) for c in children)
    child_time = sum(c[2] - c[1] for c in children)
    assert rec.self_seconds("layer.outer") == pytest.approx((o[2] - o[1]) - child_time)
    assert rec.self_seconds("layer.") == pytest.approx(o[2] - o[1])
    assert calls == ["outer"]  # nested calls of the same layer are not recounted


def test_patched_restores_inherited_and_own_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    with patched([(Child, "f", lambda self: "wrapped"), (Child, "g", lambda self: "g2")]):
        assert Child().f() == "wrapped" and Child().g() == "g2"
    assert "f" not in vars(Child) and Child().f() == "base" and Child().g() == "child"
