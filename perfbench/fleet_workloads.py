"""The two fleet workloads: batch runs of ``simulate_fleet`` over a CDN.

``fleet-congested-mpc`` loads the path scheduler with many concurrent
flows per path class and the MPC planner with horizon searches; faults
and control stay idle.  ``fleet-chaos-bola`` bypasses the planner (BOLA
decides in closed form), drives the scheduler through cancels and
re-adds, voids and refills the edge caches, and keeps the fault and
control layers busy.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from statistics import median

import numpy as np
from repro.experiments import make_cdn, make_population
from repro.experiments.common import SMOKE
from repro.net.topology import PathScheduler
from repro.obs import Telemetry
from repro.streaming import (
    ControlPlane,
    ControlPolicy,
    CorrelatedFaultGenerator,
    EdgeChunkCache,
    EncodeQueue,
    FaultSchedule,
    GrayFailure,
    RetryPolicy,
    simulate_fleet,
)

from .checks import fleet_problems
from .tracing import SpanRecorder, patched, quiesced_gc

#: viewers in the untimed warm-up run that precedes every timed run
WARMUP_VIEWERS = 40
#: viewer populations drawn from one seed (see ``population_seeds``)
POPULATIONS = 2


def build_congested(n_viewers: int, seed: int) -> dict:
    """Diurnal Zipf viewers on continuous MPC over an 8-edge CDN, 6 Mbps each."""
    return dict(
        sessions=make_population(SMOKE, n_viewers, diurnal=True, seed=seed),
        topology=make_cdn(SMOKE, n_viewers, n_edges=8, mbps_per_session=6.0),
    )


def build_chaos(n_viewers: int, seed: int) -> dict:
    """BOLA viewers on 8 edges in 2 regions under a rolling regional incident.

    The correlated generator always cascades (probability 1) and the
    neighbour region goes dark only after the origin region recovers, so
    every seed sees the same incident shape and some edge stays live.  A
    gray failure browns out the first region-1 edge before the incident;
    clients time out after 1.5 s and hedge to the least-loaded edge.
    """
    window = float(SMOKE.stream_seconds)
    topology = make_cdn(
        SMOKE, n_viewers, n_edges=8, mbps_per_session=20.0,
        assignment="least-loaded", n_regions=2,
    )
    incident = CorrelatedFaultGenerator(
        seed=seed, cascade_probability=1.0, cascade_delay_s=0.2 * window
    ).generate(
        list(topology.regions), origin="region-0",
        start=0.3 * window, duration=0.15 * window,
    )
    gray = GrayFailure(
        edge=topology.regions["region-1"][0], start=0.1 * window,
        duration=0.2 * window, capacity_factor=0.5, drop_fraction=0.1,
        drop_delay_s=1.0, seed=seed,
    )
    return dict(
        sessions=make_population(SMOKE, n_viewers, abr="bola", seed=seed),
        topology=topology,
        faults=FaultSchedule(incident.events + (gray,)),
        retry_policy=RetryPolicy(
            timeout_s=1.5, backoff_base_s=0.25, backoff_cap_s=1.0,
            max_attempts=3, hedge=True,
        ),
        controller=ControlPlane(ControlPolicy(
            interval=5.0, quality_cap_when_dark=0.5, disable_sr_when_dark=True,
        )),
    )


BUILDERS = {"fleet-congested-mpc": build_congested, "fleet-chaos-bola": build_chaos}


def _layer_targets(rec: SpanRecorder, c: Counter, inputs: dict) -> list:
    """Wrappers around each fleet layer's public entry points."""

    def on_add(out, args):
        c["flows_added"] += 1

    def on_cancel(out, args):
        c["flows_cancelled"] += 1

    def on_advance(out, args):
        n = len(out)
        c["steps"] += 1
        c["completions"] += n
        c["useful_steps"] += n > 0
        c["active_flows"] += args[0].n_flows + n

    def on_decide(out, args):
        c["policy_calls"] += 1
        c["policy_rows"] += 1
        c["single_row_calls"] += 1

    def on_batch(out, args):
        rows = len(out)
        c["policy_calls"] += 1
        c["policy_rows"] += rows
        c["single_row_calls"] += rows == 1

    def on_lookup(out, args):
        c["cache_lookups"] += 1
        c["cache_hits"] += bool(out)

    def on_submit(out, args):
        c["encode_jobs"] += 1

    def on_tick(out, args):
        c["control_ticks"] += 1

    controllers = {id(s.controller): s.controller for s in inputs["sessions"]}
    if len(controllers) != 1:
        raise RuntimeError(f"expected one shared controller, got {len(controllers)}")
    (ctrl,) = controllers.values()
    wrap = rec.wrap
    targets = [
        (PathScheduler, "add_flow",
         wrap("net.topology.add_flow", PathScheduler.add_flow, on_add)),
        (PathScheduler, "cancel", wrap("net.topology.cancel", PathScheduler.cancel, on_cancel)),
        (PathScheduler, "sync", wrap("net.topology.sync", PathScheduler.sync)),
        (PathScheduler, "next_event", wrap("net.topology.next_event", PathScheduler.next_event)),
        (PathScheduler, "advance",
         wrap("net.topology.advance", PathScheduler.advance, on_advance)),
        (EdgeChunkCache, "lookup",
         wrap("streaming.cdn.lookup", EdgeChunkCache.lookup, on_lookup)),
        (EncodeQueue, "submit", wrap("streaming.cdn.submit", EncodeQueue.submit, on_submit)),
        (ControlPlane, "tick", wrap("streaming.control.tick", ControlPlane.tick, on_tick)),
    ]
    for attr, hook in (
        ("decide", on_decide), ("decide_batch", on_batch), ("decide_columns", on_batch)
    ):
        targets.append((ctrl, attr, wrap(
            f"streaming.policies.{attr}", getattr(ctrl, attr), hook,
            outer_only="streaming.policies.",
        )))
    return targets


def _timed_run(inputs: dict, telemetry=None, run=None):
    run = run or simulate_fleet
    with quiesced_gc():
        t0 = time.perf_counter()
        result = run(**inputs, telemetry=telemetry)
        wall = time.perf_counter() - t0
    return wall, result


def _summary(population: int, wall: float, result, flows=None) -> dict:
    problems, failed = fleet_problems(result, flows)
    return dict(
        population=population,
        wall=wall,
        report=result.report,
        watched=sum(s.watched_seconds for s in result.sessions),
        chunks=sum(s.n_chunks for s in result.sessions),
        problems=problems,
        failed=failed,
    )


def population_seeds(seed: int) -> list[int]:
    """The seeds of the viewer populations one run alternates between.

    The cost per content-second depends on the draw of arrivals and
    titles; averaging two draws per run damps that seed-to-seed swing.
    """
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(POPULATIONS)]


class SetupTimer:
    """Per-build set-up seconds, one sample per batch of builds.

    A single build takes milliseconds, too short to time steadily, so
    each sample is a batch lasting at least ``batch_s`` (sized from one
    untimed build), alternating the populations, divided by its size.
    """

    def __init__(self, build, viewers: int, seeds: list[int], batch_s: float):
        self.build, self.viewers, self.seeds = build, viewers, seeds
        t0 = time.perf_counter()
        build(viewers, seeds[0])
        self.size = max(1, math.ceil(batch_s / (time.perf_counter() - t0)))
        self.samples: list[float] = []

    def sample(self, batches: int) -> None:
        for _ in range(batches):
            with quiesced_gc():
                t0 = time.perf_counter()
                for i in range(self.size):
                    self.build(self.viewers, self.seeds[i % POPULATIONS])
                self.samples.append((time.perf_counter() - t0) / self.size)


def run(name: str, viewers: int, seed: int, seconds: float, trace: bool,
        setup_batches: int, setup_batch_s: float, spans_path=None) -> dict:
    """Set up, warm up and time one fleet workload; returns raw results.

    Untraced, the timed runs come in complete rounds, one run of each of
    the seed's populations per round, and rounds continue while another
    still fits in ``seconds`` of ``simulate_fleet`` time.
    """
    build = BUILDERS[name]
    seeds = population_seeds(seed)
    _timed_run(build(WARMUP_VIEWERS, seeds[0]))
    setup = SetupTimer(build, viewers, seeds, setup_batch_s)
    reps: list[dict] = []
    out: dict = dict(setup_s=setup.samples, reps=reps)
    if not trace:
        # The machine's speed wanders over tens of seconds, so the set-up
        # samples are spread over the first round: before each timed run
        # and after the last.
        per_gap = math.ceil(setup_batches / (POPULATIONS + 1))
        rounds: list[float] = []
        while not rounds or sum(rounds) + median(rounds) <= seconds:
            for population in range(POPULATIONS):
                if not rounds:
                    setup.sample(per_gap)
                inputs = build(viewers, seeds[population])
                reps.append(_summary(population, *_timed_run(inputs)))
            if not rounds:
                setup.sample(per_gap)
            rounds.append(sum(rep["wall"] for rep in reps[-POPULATIONS:]))
        return out

    setup.sample(setup_batches)
    # Traced run, all on the first population: one plain run as the
    # overhead base, one with the layer wrappers, one with the program's
    # own phase profiler as a cross-check.
    reps.append(_summary(0, *_timed_run(build(viewers, seeds[0]))))
    inputs = build(viewers, seeds[0])
    rec, counts = SpanRecorder(), Counter()
    with patched(_layer_targets(rec, counts, inputs)):
        wall, result = _timed_run(
            inputs, run=rec.wrap("streaming.fleet.run", simulate_fleet)
        )
    reps.append(_summary(0, wall, result, counts))
    del result
    telemetry = Telemetry(trace=False, metrics=False, profile=True)
    reps.append(_summary(0, *_timed_run(build(viewers, seeds[0]), telemetry=telemetry)))
    out.update(
        recorder=rec, counts=counts,
        phases=telemetry.profiler.breakdown(),
        spans_written=rec.write_jsonl(spans_path) if spans_path else 0,
    )
    return out
