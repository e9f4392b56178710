"""Repository benchmark: VoLUT client super-resolution and the CDN fleet.

Usage, from the repository root::

    python3 perfbench/run.py --workload sr-client --seed 0 --seconds 35 --trace 0

Workloads: ``sr-client``, ``fleet-congested-mpc``, ``fleet-chaos-bola``
(see ``perfbench/README.md`` for why each exists and what it predicts).
The run prints a readable table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.perfbench-out/`` as JSON lines.
"""

# A command-line report: printing to stdout is its job.
# ruff: noqa: T201

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("sr-client", "fleet-congested-mpc", "fleet-chaos-bola")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7

#: ``full`` is the benchmark; ``tiny`` keeps the benchmark's own tests fast.
SCALES = {
    "full": dict(
        sr_points=25_000, sr_pool=64, sr_min_frames=100, sr_setup_reps=5,
        viewers={"fleet-congested-mpc": 1000, "fleet-chaos-bola": 600},
        fleet_setup_batches=6, fleet_setup_batch_s=1.0,
    ),
    "tiny": dict(
        sr_points=3_000, sr_pool=4, sr_min_frames=6, sr_setup_reps=2,
        viewers={"fleet-congested-mpc": 60, "fleet-chaos-bola": 48},
        fleet_setup_batches=2, fleet_setup_batch_s=0.02,
    ),
}

END_TO_END = {
    "content_s_per_s": "content-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "net.topology.self_s": "s",
    "net.topology.steps": "count",
    "net.topology.completions": "count",
    "net.topology.useful_step_ratio": "ratio",
    "net.topology.flows_added": "count",
    "net.topology.flows_cancelled": "count",
    "net.topology.active_flows_mean": "flows",
    "streaming.policies.self_s": "s",
    "streaming.policies.calls": "count",
    "streaming.policies.rows": "count",
    "streaming.policies.single_row_share": "ratio",
    "streaming.policies.rows_per_chunk": "rows/chunk",
    "streaming.cdn.lookups": "count",
    "streaming.cdn.hit_rate": "ratio",
    "streaming.cdn.encode_jobs": "count",
    "streaming.cdn.encode_wait_p95_s": "s",
    "streaming.cdn.origin_egress_gb": "GB",
    "streaming.faults.chunk_retries": "count",
    "streaming.faults.requests_timed_out": "count",
    "streaming.faults.requests_hedged": "count",
    "streaming.faults.sessions_resteered": "count",
    "streaming.control.ticks": "count",
    "streaming.control.self_s": "s",
    "streaming.fleet.driver_self_s": "s",
    "streaming.fleet.mean_qoe": "qoe",
    "streaming.fleet.stall_ratio": "ratio",
    "streaming.fleet.abandon_rate": "ratio",
    "streaming.fleet.watched_content_s": "content-s",
    "streaming.fleet.chunk_completions": "count",
    "profile.scheduler_self_s": "s",
    "profile.planner_self_s": "s",
    "trace.scheduler_share": "ratio",
    "profile.scheduler_share": "ratio",
    "compression.decode_ms": "ms/frame",
    "compression.bytes_per_point": "B/point",
    "spatial.build_ms": "ms/frame",
    "spatial.query_ms": "ms/frame",
    "spatial.queries": "count",
    "sr.interpolation_ms": "ms/frame",
    "sr.colorization_ms": "ms/frame",
    "sr.refinement_ms": "ms/frame",
    "sr.lut_lookups": "count",
    "sr.lut_hit_rate": "ratio",
    "sr.points_out": "count",
    "sr.frames_per_s": "frames/s",
    "sr.frame_ms_p50": "ms",
    "sr.frame_ms_p90": "ms",
    "sr.chamfer": "distance",
    "trace.overhead": "x",
}


#: scheduler shares within this distance of 1/2 rank as a tie
RANK_TIE = 0.05


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _sr_client(scale: dict, seed: int, seconds: float, trace: bool, spans) -> dict:
    from perfbench import sr_client
    from repro.pointcloud.datasets import PAPER_VIDEOS

    r = sr_client.run(
        scale["sr_points"], scale["sr_pool"], seed, seconds, trace,
        scale["sr_setup_reps"], scale["sr_min_frames"], spans,
    )
    frame_ms = [1e3 * s for s in r["frame_s"]]
    fps = len(frame_ms) / (sum(frame_ms) / 1e3)
    report = {
        "sr_frames_per_s": (fps, "frames/s"),
        "sr_frame_ms_p50": (_percentile(frame_ms, 50), "ms"),
        "sr_frame_ms_p90": (_percentile(frame_ms, 90), "ms"),
        "sr_chamfer": (r["chamfer"], "distance"),
        "frames_timed": (len(frame_ms), "count"),
    }
    e2e = {
        "content_s_per_s": fps / PAPER_VIDEOS["loot"]["fps"],
        "setup_s": median(r["setup_s"]),
    }
    layers = {}
    if trace:
        rec, c, pool = r["recorder"], r["counts"], scale["sr_pool"]

        def per_frame_ms(prefix: str) -> float:
            return 1e3 * rec.self_seconds(prefix) / pool

        lookups = r["lut_hits"] + r["lut_misses"]
        layers = {
            "compression.decode_ms": per_frame_ms("compression."),
            "compression.bytes_per_point": _ratio(c["payload_bytes"], c["decoded_points"]),
            "spatial.build_ms": per_frame_ms("spatial.build"),
            "spatial.query_ms": per_frame_ms("spatial.query"),
            "spatial.queries": c["query_points"],
            "sr.interpolation_ms": per_frame_ms("sr.interpolation"),
            "sr.colorization_ms": per_frame_ms("sr.colorization"),
            "sr.refinement_ms": per_frame_ms("sr.refinement."),
            "sr.lut_lookups": lookups,
            "sr.lut_hit_rate": _ratio(r["lut_hits"], lookups),
            "sr.points_out": r["points_out"],
            "sr.frames_per_s": fps,
            "sr.frame_ms_p50": report["sr_frame_ms_p50"][0],
            "sr.frame_ms_p90": report["sr_frame_ms_p90"][0],
            "sr.chamfer": r["chamfer"],
            "trace.overhead": sum(r["traced_s"]) / sum(r["frame_s"][:pool]),
        }
    return dict(
        e2e=e2e, layers=layers, report=report, attempted=r["attempted"],
        failed=r["failed"], problems=r["problems"], spans=r.get("spans_written", 0),
    )


def _fleet(name: str, scale: dict, seed: int, seconds: float, trace: bool, spans) -> dict:
    from perfbench import fleet_workloads

    r = fleet_workloads.run(
        name, scale["viewers"][name], seed, seconds, trace,
        scale["fleet_setup_batches"], scale["fleet_setup_batch_s"], spans,
    )
    reps = r["reps"]
    problems = [p for rep in reps for p in rep["problems"]]
    failed = sum(rep["failed"] for rep in reps)
    # Runs of the same population must give identical reports.
    first = {}
    for i, rep in enumerate(reps):
        j = first.setdefault(rep["population"], i)
        if repr(rep["report"]) != repr(reps[j]["report"]):
            problems.append(f"run {i} report differs from run {j} on the same inputs")
            failed += rep["chunks"]
    untraced = reps if not trace else reps[:1]
    # Each population weighs the same whatever the number of rounds.
    by_population: dict[int, list[float]] = {}
    for rep in untraced:
        by_population.setdefault(rep["population"], []).append(rep["watched"] / rep["wall"])
    rate = mean(median(rates) for rates in by_population.values())
    rep0, base = reps[0]["report"], reps[0]
    report = {
        "content_s_per_s": (rate, "content-s/s"),
        "mean_qoe": (rep0.mean_qoe, "qoe"),
        "stall_ratio": (rep0.stall_ratio, "ratio"),
        "abandon_rate": (rep0.abandon_rate, "ratio"),
        "watched_content_s": (base["watched"], "content-s"),
        "chunk_completions": (base["chunks"], "count"),
        "runs_timed": (len(untraced), "count"),
        "run_wall_s": (median(rep["wall"] for rep in untraced), "s"),
    }
    e2e = {"content_s_per_s": rate, "setup_s": median(r["setup_s"])}
    layers = {}
    if trace:
        rec, c = r["recorder"], r["counts"]
        traced = reps[1]
        rep = traced["report"]
        phases = r["phases"]
        layers = {
            "net.topology.self_s": rec.self_seconds("net.topology."),
            "net.topology.steps": c["steps"],
            "net.topology.completions": c["completions"],
            "net.topology.useful_step_ratio": _ratio(c["useful_steps"], c["steps"]),
            "net.topology.flows_added": c["flows_added"],
            "net.topology.flows_cancelled": c["flows_cancelled"],
            "net.topology.active_flows_mean": _ratio(c["active_flows"], c["steps"]),
            "streaming.policies.self_s": rec.self_seconds("streaming.policies."),
            "streaming.policies.calls": c["policy_calls"],
            "streaming.policies.rows": c["policy_rows"],
            "streaming.policies.single_row_share": _ratio(
                c["single_row_calls"], c["policy_calls"]
            ),
            "streaming.policies.rows_per_chunk": _ratio(c["policy_rows"], traced["chunks"]),
            "streaming.cdn.lookups": c["cache_lookups"],
            "streaming.cdn.hit_rate": _ratio(c["cache_hits"], c["cache_lookups"]),
            "streaming.cdn.encode_jobs": c["encode_jobs"],
            "streaming.cdn.encode_wait_p95_s": rep.encode_wait_p95,
            "streaming.cdn.origin_egress_gb": rep.origin_egress_bytes / 1e9,
            "streaming.faults.chunk_retries": rep.chunk_retries,
            "streaming.faults.requests_timed_out": rep.requests_timed_out,
            "streaming.faults.requests_hedged": rep.requests_hedged,
            "streaming.faults.sessions_resteered": rep.sessions_resteered,
            "streaming.control.ticks": c["control_ticks"],
            "streaming.control.self_s": rec.self_seconds("streaming.control."),
            "streaming.fleet.driver_self_s": rec.self_seconds("streaming.fleet.run"),
            "streaming.fleet.mean_qoe": rep.mean_qoe,
            "streaming.fleet.stall_ratio": rep.stall_ratio,
            "streaming.fleet.abandon_rate": rep.abandon_rate,
            "streaming.fleet.watched_content_s": traced["watched"],
            "streaming.fleet.chunk_completions": traced["chunks"],
            "profile.scheduler_self_s": phases.get("scheduler", {}).get("seconds", 0.0),
            "profile.planner_self_s": phases.get("planner", {}).get("seconds", 0.0),
            "trace.overhead": traced["wall"] / base["wall"],
        }
        # The profiler's scheduler phase covers next_event + advance; its
        # planner phase covers the decide calls plus the engine's own work.
        sched = (rec.self_seconds("net.topology.next_event")
                 + rec.self_seconds("net.topology.advance"))
        ours = _ratio(sched, sched + layers["streaming.policies.self_s"])
        theirs = _ratio(
            layers["profile.scheduler_self_s"],
            layers["profile.scheduler_self_s"] + layers["profile.planner_self_s"],
        )
        layers["trace.scheduler_share"] = ours
        layers["profile.scheduler_share"] = theirs
        if (ours > 0.5) == (theirs > 0.5):
            verdict = "agree"
        elif abs(theirs - 0.5) < RANK_TIE:
            verdict = "tie (the profiler cannot order them)"
        else:
            verdict = "DISAGREE"
        report["rank_vs_profiler"] = verdict
    attempted = sum(rep["chunks"] for rep in reps)
    return dict(
        e2e=e2e, layers=layers, report=report, attempted=attempted,
        failed=failed, problems=problems, spans=r.get("spans_written", 0),
    )


def _planned_ops(workload: str, scale: dict) -> int:
    """Operations a run would attempt: what a run that raises has failed."""
    if workload == "sr-client":
        return scale["sr_min_frames"]
    from repro.experiments.common import SMOKE

    return scale["viewers"][workload] * SMOKE.stream_seconds


def _print_table(title: str, rows: dict) -> None:
    print(title)
    for name, row in rows.items():
        if isinstance(row, str):
            print(f"  {name}: {row}")
        else:
            value, unit = row
            print(f"  {name:<40} {value:>16.6g}  {unit}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = ap.parse_args(argv)

    # One process, one thread of Python; BLAS pools capped at the CPU count
    # (set before anything imports numpy).
    ncpu = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, ncpu)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    scale = SCALES[args.scale]
    trace = bool(args.trace)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl" if trace else None
    try:
        if args.workload == "sr-client":
            res = _sr_client(scale, args.seed, args.seconds, trace, spans)
        else:
            res = _fleet(args.workload, scale, args.seed, args.seconds, trace, spans)
    except Exception:  # the program under test raised: every operation failed
        traceback.print_exc()
        ops = _planned_ops(args.workload, scale)
        print(json.dumps({"correct": False, "attempted": ops, "failed": ops,
                          "metrics": {}}))
        return 1

    res["e2e"]["peak_rss_mb"] = _peak_rss_mb()
    error_rate = res["failed"] / res["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}")
    report = dict(res["report"])
    report["setup_s"] = (res["e2e"]["setup_s"], "s")
    report["peak_rss_mb"] = (res["e2e"]["peak_rss_mb"], "MiB")
    report["error_rate"] = (error_rate, "ratio")
    _print_table("end-to-end", report)
    if trace:
        _print_table("per-layer (traced run)",
                     {k: (res["layers"].get(k, 0), u) for k, u in PER_LAYER.items()})
        print(f"spans: {res['spans']} written to {spans}")
    for problem in res["problems"][:20]:
        print(f"FAILED CHECK: {problem}")

    units = PER_LAYER if trace else END_TO_END
    values = res["layers"] if trace else res["e2e"]
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
