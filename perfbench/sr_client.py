"""The ``sr-client`` workload: one VoLUT client's receive path, closed loop.

Set-up builds what the client receives: the refinement LUT
(``get_artifacts``: net training + LUT build), the procedural ``loot``
frames, and their octree-encoded payloads, each frame at a density drawn
uniformly from [1/8, 1/2] so the SR ratio spans 2-8x.  The timed loop
decodes one payload and super-resolves it back to the full point count,
then takes the next, cycling through the payload pool.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.experiments import artifacts
from repro.experiments.common import SMOKE
from repro.metrics.chamfer import chamfer_distance
from repro.pointcloud.datasets import make_video
from repro.spatial.octree import TwoLayerOctree
from repro.sr import pipeline
from repro.sr.pipeline import VolutUpsampler
from repro.sr.refine import LUTRefiner
from repro.streaming import encoder

from .checks import frame_problems
from .tracing import SpanRecorder, patched, quiesced_gc

DENSITY_RANGE = (1 / 8, 1 / 2)


def densities(n: int, seed: int) -> np.ndarray:
    """``n`` densities, each uniform on ``DENSITY_RANGE``, stratified.

    Frame ``i`` draws from its own 1/n-wide stratum (strata shuffled), so
    every pool covers the range evenly and the pool's mean SR ratio, and
    with it the work per frame, barely moves from seed to seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = DENSITY_RANGE
    strata = rng.permutation(n)
    return lo + (hi - lo) * (strata + rng.random(n)) / n


def build(points: int, pool: int, seed: int) -> dict:
    """Everything the client receives: LUT, ground-truth frames, payloads."""
    lut = artifacts.get_artifacts(SMOKE).lut
    video = make_video("loot", n_points=points, n_frames=pool, seed=seed)
    frames = [video.frame(i) for i in range(pool)]
    payloads = [
        encoder.encode_frame_compressed(f, float(d), seed=seed * 1000 + i)
        for i, (f, d) in enumerate(zip(frames, densities(pool, seed)))
    ]
    return dict(lut=lut, frames=frames, payloads=payloads)


def _receive(upsampler: VolutUpsampler, payload: bytes, n_full: int):
    """Decode one payload and super-resolve it to ``n_full`` points."""
    low = encoder.decode_frame_compressed(payload)
    return low, upsampler.upsample(low, n_full / len(low)).cloud


def _digest(positions: np.ndarray) -> str:
    return hashlib.sha1(positions.tobytes()).hexdigest()


def _layer_targets(rec: SpanRecorder, c: dict) -> list:
    def on_decode(out, args):
        c["payload_bytes"] += len(args[0])
        c["decoded_points"] += len(out)

    def on_query(out, args):
        c["query_points"] += len(args[1])

    return [
        (encoder, "decode_frame_compressed",
         rec.wrap("compression.decode", encoder.decode_frame_compressed, on_decode)),
        (pipeline, "interpolate", rec.wrap("sr.interpolation", pipeline.interpolate)),
        (pipeline, "colorize_by_parent",
         rec.wrap("sr.colorization", pipeline.colorize_by_parent)),
        (pipeline, "gather_refinement_neighborhoods",
         rec.wrap("sr.refinement.gather", pipeline.gather_refinement_neighborhoods)),
        (LUTRefiner, "refine", rec.wrap("sr.refinement.lut", LUTRefiner.refine)),
        (TwoLayerOctree, "__init__", rec.wrap("spatial.build", TwoLayerOctree.__init__)),
        (TwoLayerOctree, "query", rec.wrap("spatial.query", TwoLayerOctree.query, on_query)),
    ]


def run(points: int, pool: int, seed: int, seconds: float, trace: bool,
        setup_reps: int, min_frames: int, spans_path=None) -> dict:
    """Set up, warm up and time the client loop; returns raw results.

    The machine's speed wanders over tens of seconds, so the set-up
    samples are split between before and after the timed loop.
    """
    setup_s = []

    def timed_build() -> dict:
        # get_artifacts memoizes per process; each set-up sample starts cold.
        artifacts._CACHE.clear()
        with quiesced_gc():
            t0 = time.perf_counter()
            inputs = build(points, pool, seed)
            setup_s.append(time.perf_counter() - t0)
        return inputs

    for _ in range(setup_reps // 2):
        inputs = timed_build()
    frames, payloads, lut = inputs["frames"], inputs["payloads"], inputs["lut"]

    # Warm-up, untimed: first-call costs stay out of the timed loop.
    _receive(VolutUpsampler(lut=lut, seed=seed), payloads[0], len(frames[0]))

    upsampler = VolutUpsampler(lut=lut, seed=seed)
    frame_s: list[float] = []
    problems: list[str] = []
    failed = 0
    # The first pass's outputs are scored after the loop: computing the
    # Chamfer distance between timed frames slows the frames after it.
    first_pass = []
    with quiesced_gc():
        while sum(frame_s) < seconds or len(frame_s) < min_frames:
            i = len(frame_s)
            k = i % pool
            t0 = time.perf_counter()
            _, out = _receive(upsampler, payloads[k], len(frames[k]))
            frame_s.append(time.perf_counter() - t0)
            bad = frame_problems(out, len(frames[k]))
            if i < pool:
                first_pass.append(out.positions)
            if bad:
                failed += 1
                problems.extend(f"frame {i}: {p}" for p in bad)
    digests = [_digest(pos) for pos in first_pass]
    chamfer = float(np.mean([
        chamfer_distance(pos, frames[k].positions) for k, pos in enumerate(first_pass)
    ]))
    del first_pass
    for _ in range(setup_reps - setup_reps // 2):
        timed_build()
    out_d = dict(
        setup_s=setup_s, frame_s=frame_s, problems=problems, failed=failed,
        attempted=len(frame_s), chamfer=chamfer,
    )
    if not trace:
        return out_d

    # Traced pass: the pool once more through a fresh upsampler with the
    # same seed, so its outputs must match the untraced first pass exactly.
    rec = SpanRecorder()
    counts = dict.fromkeys(("payload_bytes", "decoded_points", "query_points"), 0)
    stats0 = (lut.stats.hits, lut.stats.misses)
    upsampler = VolutUpsampler(lut=lut, seed=seed)
    receive = rec.wrap("frame", _receive)
    traced_s, points_out = [], 0
    with patched(_layer_targets(rec, counts)), quiesced_gc():
        for k in range(pool):
            rec.trace_id = k
            t0 = time.perf_counter()
            _, out = receive(upsampler, payloads[k], len(frames[k]))
            traced_s.append(time.perf_counter() - t0)
            points_out += len(out)
            if _digest(out.positions) != digests[k]:
                out_d["failed"] += 1
                problems.append(f"traced frame {k} differs from its untraced run")
    out_d["attempted"] += pool
    out_d.update(
        recorder=rec, counts=counts, traced_s=traced_s, points_out=points_out,
        lut_hits=lut.stats.hits - stats0[0],
        lut_misses=lut.stats.misses - stats0[1],
        spans_written=rec.write_jsonl(spans_path) if spans_path else 0,
    )
    return out_d
