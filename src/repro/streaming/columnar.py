"""Columnar (struct-of-arrays) session engine for the fleet hot loop.

:mod:`repro.streaming.fleet` originally advanced every viewer through a
per-session :class:`~repro.streaming.simulator.SessionMachine` — a Python
generator holding a :class:`~repro.streaming.buffer.PlaybackBuffer`, a
:class:`~repro.net.estimator.HarmonicMeanEstimator`, and a dataclass
context per decision.  Every completion pays generator suspension,
attribute chasing across five objects, and an
``AbrContext``/``DecisionRequest`` allocation round-trip — the
per-viewer Python cost left after the vectorized scheduler (roughly
twice the columnar engine's session layer on the 2k-viewer benchmark,
though at that scale the shared scheduler and MPC planner dominate the
wall clock for both engines).

:class:`ColumnarFleet` replaces the object layer with **one array per
session field**: buffer level, playback clocks, previous quality,
abandon state, per-chunk records, and live-health counters all live in
slot-indexed NumPy columns, and per-chunk record/decision storage is one
flat preallocated array per field (offset-indexed per session, so report
aggregation never walks machine objects).  The event-step transition is
exposed as pure field math (:meth:`advance_download` reads and writes
columns only), and the decision pass feeds
``AbrController.decide_columns`` straight from column slices — the MPC
planners read those columns directly and never materialize a context
object at all.

Two things deliberately stay sequential Python, because bit-exactness
pins their order:

* the **SR-result cache** (and edge/encode state) is mutated in
  completion order, so the per-completion tail is a scalar pass over the
  batch — the same order the machine engine produces;
* **health samples** and the harmonic-mean estimate are sequential
  ``float`` sums (NumPy's pairwise reduction would diverge at 8+ terms).

The completion batch of one event step is narrow (~1–2 sessions), so the
win here is structural — no generators, no per-decision dataclasses, no
window re-slicing — not ufunc throughput.  The object-machine path
remains the bit-exact oracle: ``simulate_fleet(session_engine="columnar")``
must reproduce ``session_engine="machine"`` result for result, which
``tests/streaming/test_columnar.py`` pins on a hypothesis grid (the
sixth instance of the oracle-parity convention).
"""

from __future__ import annotations

import math

import numpy as np

from ..metrics.qoe import ChunkRecord, session_qoe
from ..obs.events import (
    EV_CHUNK_COMPLETE,
    EV_CHUNK_STALL,
    EV_SESSION_ABANDON,
    EV_SESSION_FINISH,
)
from .abr import AbrContext, Decision, SRQualityModel
from .simulator import DownloadRequest, SessionConfig, SessionResult

__all__ = ["ColumnarFleet", "DecisionColumns", "NEEDS_DECISION"]

#: sentinel returned by :meth:`ColumnarFleet.advance_download` when the
#: session's next suspension is an ABR decision (the machine engine's
#: ``DecisionRequest`` analogue, without the allocation)
NEEDS_DECISION = object()

#: session lifecycle stages (one int8 column)
_STARTUP = 0   # startup payload (manifest / SR models) in flight
_DECISION = 1  # parked on an ABR decision
_DOWNLOAD = 2  # chunk transfer in flight
_DONE = 3


class DecisionColumns:
    """Column view of one decision batch, fed to ``decide_columns``.

    Rows are appended by :meth:`ColumnarFleet.decide` straight from the
    session columns.  Controllers read the scalar columns directly;
    :meth:`window` returns a row's horizon window (the chunk tuple the
    MPC planners key their per-window terms by), and :meth:`context`
    materializes a full :class:`~repro.streaming.abr.AbrContext` for
    controllers that decide from contexts.
    """

    __slots__ = ("tput", "buffer", "prev", "_chunks", "_start", "_cfg_h")

    def __init__(self):
        self.tput: list[float] = []
        self.buffer: list[float] = []
        self.prev: list[float | None] = []
        self._chunks: list[list] = []
        self._start: list[int] = []
        self._cfg_h: list[int] = []

    def append(
        self,
        tput: float,
        buffer: float,
        prev: float | None,
        chunks: list,
        start: int,
        cfg_horizon: int,
    ) -> None:
        self.tput.append(tput)
        self.buffer.append(buffer)
        self.prev.append(prev)
        self._chunks.append(chunks)
        self._start.append(start)
        self._cfg_h.append(cfg_horizon)

    def __len__(self) -> int:
        return len(self.tput)

    def window(self, i: int, horizon: int) -> tuple:
        """Chunk window ``tuple(next_chunks[:horizon])`` of row ``i``,
        value-identical to the machine path's context slice."""
        start = self._start[i]
        return tuple(
            self._chunks[i][start : start + min(self._cfg_h[i], horizon)]
        )

    def context(self, i: int) -> AbrContext:
        """Materialize row ``i`` as a full decision context."""
        start = self._start[i]
        return AbrContext(
            throughput_bps=self.tput[i],
            buffer_level=self.buffer[i],
            prev_quality=self.prev[i],
            next_chunks=self._chunks[i][start : start + self._cfg_h[i]],
        )


class ColumnarFleet:
    """Struct-of-arrays state for every session of one fleet run.

    Construction mirrors what ``simulate_fleet`` builds per
    :class:`~repro.streaming.simulator.SessionMachine`; every float
    expression in the transition methods replicates the machine
    generator's arithmetic operation for operation (the parity grid in
    ``tests/streaming/test_columnar.py`` enforces it).  ``sr_caches`` is
    a plain mutable list so the control plane's re-steer can swap a
    session onto its new edge's cache, exactly like assigning
    ``machine.sr_cache``.
    """

    def __init__(self, sessions: list, sr_caches: list) -> None:
        n = len(sessions)
        self.n = n
        self.sessions = sessions
        self.sr_caches = list(sr_caches)
        self.controllers = [s.controller for s in sessions]
        self.sr_latencies = [s.sr_latency for s in sessions]
        self.quality_models = [
            s.quality_model or SRQualityModel() for s in sessions
        ]
        self.qoe_weights = [s.qoe_weights for s in sessions]
        configs = [s.config or SessionConfig() for s in sessions]
        self.configs = configs

        # -- static per-session columns ---------------------------------
        self.join_time = np.array([s.join_time for s in sessions])
        self.startup_threshold = np.array([c.startup_buffer for c in configs])
        self.max_buffer = np.array([c.max_buffer for c in configs])
        self.fetch_fraction = np.array([c.fetch_fraction for c in configs])
        self.quality_factor = np.array([c.quality_factor for c in configs])
        self.startup_bytes = np.array(
            [c.startup_bytes for c in configs], dtype=np.int64
        )
        self.horizon = np.array([c.horizon for c in configs], dtype=np.int64)
        self.est_window = np.array(
            [c.estimator_window for c in configs], dtype=np.int64
        )
        self.est_initial = np.array(
            [c.initial_throughput_bps for c in configs]
        )
        # churn thresholds; +inf == "never abandons" (None policy)
        self.churn_total = np.array(
            [
                s.churn.max_total_stall if s.churn is not None else math.inf
                for s in sessions
            ]
        )
        self.churn_single = np.array(
            [
                s.churn.max_single_stall if s.churn is not None else math.inf
                for s in sessions
            ]
        )

        # Chunk lists, shared across co-watching sessions: one
        # ``spec.chunks()`` materialization per (video spec, chunk length).
        chunk_cache: dict[tuple, list] = {}
        self.chunks: list[list] = []
        for s, c in zip(sessions, configs):
            key = (id(s.spec), c.chunk_seconds)
            lst = chunk_cache.get(key)
            if lst is None:
                lst = s.spec.chunks(c.chunk_seconds)
                chunk_cache[key] = lst
            self.chunks.append(lst)
        self.n_chunks = np.array(
            [len(lst) for lst in self.chunks], dtype=np.int64
        )

        # -- dynamic per-session columns --------------------------------
        self.t_net = self.join_time.copy()
        self.cpu_free = self.join_time.copy()
        self.buffer_clock = self.join_time.copy()
        self.level = np.zeros(n)
        self.playing = np.zeros(n, dtype=bool)
        self.startup_delay = np.zeros(n)
        self.prev_quality = np.full(n, np.nan)  # NaN == no chunk played yet
        self.chunk_i = np.zeros(n, dtype=np.int64)
        self.watched = np.zeros(n)
        self.total_stall = np.zeros(n)
        self.stage = np.full(n, _DECISION, dtype=np.int8)
        self.abandoned = np.zeros(n, dtype=bool)
        # live health counters (control plane samples these mid-run)
        self.live_chunks = np.zeros(n, dtype=np.int64)
        self.live_qsum = np.zeros(n)
        self.live_stall = np.zeros(n)
        # in-flight decision payload (what the pending transfer fetches)
        self.pend_density = np.zeros(n)
        self.pend_ratio = np.zeros(n)
        self.pend_nbytes = np.zeros(n, dtype=np.int64)
        # harmonic-mean estimator windows (sequential-sum semantics)
        self.est_samples: list[list[float]] = [[] for _ in range(n)]

        # -- flat per-chunk record columns ------------------------------
        # One contiguous region per session (records and decisions are
        # both capped at the chunk count), so end-of-run aggregation and
        # result assembly are array slices, not object walks.
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.n_chunks, out=offsets[1:])
        self.rec_offset = offsets
        self.rec_count = np.zeros(n, dtype=np.int64)
        total = int(offsets[-1])
        self.rec_quality = np.zeros(total)
        self.rec_stall = np.zeros(total)
        self.rec_bytes = np.zeros(total, dtype=np.int64)
        self.dec_density = np.zeros(total)
        self.dec_count = np.zeros(n, dtype=np.int64)

        #: wired by ``simulate_fleet`` when tracing; emission sites are
        #: pure observation, so a tracer cannot perturb the column math
        self.tracer = None

    # ------------------------------------------------------------------
    def initial_requests(self) -> tuple[list, list[int]]:
        """Session starts: startup transfers + first-decision session ids.

        The machine engine's constructor runs each generator to its first
        suspension; here that is one stage assignment per session.
        """
        requests: list[tuple[int, DownloadRequest]] = []
        first_decisions: list[int] = []
        stage = self.stage
        startup = self.startup_bytes
        t_net = self.t_net
        for sid in range(self.n):
            nbytes = int(startup[sid])
            if nbytes > 0:
                stage[sid] = _STARTUP
                requests.append(
                    (sid, DownloadRequest(float(t_net[sid]), nbytes))
                )
            else:
                first_decisions.append(sid)
        return requests, first_decisions

    def _advance_buffer(self, sid: int, to_time: float) -> float:
        """Drain the buffer column up to ``to_time``; returns the stall.

        The fused form of the machine's ``advance_buffer`` +
        ``PlaybackBuffer.drain`` (identical float expressions).
        """
        clock = float(self.buffer_clock[sid])
        if to_time <= clock:
            return 0.0
        dt = to_time - clock
        self.buffer_clock[sid] = to_time
        if not self.playing[sid]:
            self.startup_delay[sid] += dt
            return 0.0
        level = float(self.level[sid])
        if level >= dt:
            self.level[sid] = level - dt
            return 0.0
        self.level[sid] = 0.0
        return dt - level

    def _prep_decision(self, sid: int) -> None:
        """Top-of-loop prep before a decision: headroom wait + drain."""
        t_net = float(self.t_net[sid])
        self._advance_buffer(sid, t_net)
        chunk = self.chunks[sid][int(self.chunk_i[sid])]
        overflow = (float(self.level[sid]) + chunk.duration) - float(
            self.max_buffer[sid]
        )
        if overflow > 0 and self.playing[sid]:
            # The buffer drains in real time, so waiting `overflow`
            # seconds frees exactly that much headroom.
            t_net += overflow
            self.t_net[sid] = t_net
            self._advance_buffer(sid, t_net)
        self.stage[sid] = _DECISION

    def _estimate(self, sid: int) -> float:
        """Harmonic-mean throughput estimate (sequential float sum)."""
        samples = self.est_samples[sid]
        if not samples:
            return float(self.est_initial[sid])
        total = 0.0
        for s in samples:
            total += 1.0 / s
        return 1.0 / (total / len(samples))

    def advance_download(self, sid: int, elapsed: float):
        """Resolve ``sid``'s in-flight transfer with its elapsed seconds.

        Returns the next :class:`DownloadRequest`, :data:`NEEDS_DECISION`
        when the session parks on an ABR decision, or ``None`` when it
        finished — the column-math mirror of ``SessionMachine.advance``.
        """
        if self.stage[sid] == _STARTUP:
            self.t_net[sid] = float(self.t_net[sid]) + elapsed
            self._prep_decision(sid)
            return NEEDS_DECISION

        i = int(self.chunk_i[sid])
        chunk = self.chunks[sid][i]
        dl_finish = float(self.t_net[sid]) + elapsed
        self.t_net[sid] = dl_finish

        density = float(self.pend_density[sid])
        ratio = float(self.pend_ratio[sid])
        nbytes = int(self.pend_nbytes[sid])
        sr_time = chunk.n_frames * self.sr_latencies[sid](
            chunk.points_at_density(density), ratio
        )
        sr_start = max(dl_finish, float(self.cpu_free[sid]))
        cache = self.sr_caches[sid]
        if cache is not None and sr_time > 0.0:
            key = (
                self.sessions[sid].spec.name,
                chunk.index,
                round(density, 3),
                round(ratio, 3),
            )
            sr_time = cache.acquire(key, sr_start, sr_time)
        ready = sr_start + sr_time
        self.cpu_free[sid] = ready

        stall = self._advance_buffer(sid, ready)
        level = min(
            float(self.level[sid]) + chunk.duration,
            float(self.max_buffer[sid]),
        )
        self.level[sid] = level
        if not self.playing[sid] and level >= float(
            self.startup_threshold[sid]
        ):
            self.playing[sid] = True

        samples = self.est_samples[sid]
        samples.append(
            nbytes * 8.0 / elapsed
            if nbytes > 0 and elapsed > 0
            else self._estimate(sid)
        )
        if len(samples) > int(self.est_window[sid]):
            samples.pop(0)

        q = self.quality_models[sid].quality(density, ratio) * float(
            self.quality_factor[sid]
        )
        at = int(self.rec_offset[sid]) + int(self.rec_count[sid])
        self.rec_quality[at] = q
        self.rec_stall[at] = stall
        self.rec_bytes[at] = nbytes
        self.rec_count[sid] += 1
        self.live_chunks[sid] += 1
        self.live_qsum[sid] += q
        self.live_stall[sid] += stall
        self.prev_quality[sid] = q
        self.watched[sid] += chunk.duration
        total_stall = float(self.total_stall[sid]) + stall
        self.total_stall[sid] = total_stall

        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                dl_finish, EV_CHUNK_COMPLETE, session=sid,
                quality=q, stall=stall, elapsed=elapsed,
            )
            if stall > 0.0:
                tracer.emit(
                    dl_finish, EV_CHUNK_STALL, session=sid, seconds=stall
                )

        if total_stall > self.churn_total[sid] or stall > self.churn_single[
            sid
        ]:
            self.abandoned[sid] = True
            self.stage[sid] = _DONE
            if tracer is not None:
                tracer.emit(dl_finish, EV_SESSION_ABANDON, session=sid)
            return None
        i += 1
        self.chunk_i[sid] = i
        if i == len(self.chunks[sid]):
            self.stage[sid] = _DONE
            if tracer is not None:
                tracer.emit(dl_finish, EV_SESSION_FINISH, session=sid)
            return None
        self._prep_decision(sid)
        return NEEDS_DECISION

    # ------------------------------------------------------------------
    def decide(
        self, sids: list[int], clamp=None
    ) -> list[tuple[int, DownloadRequest]]:
        """Resolve every parked decision; returns the unblocked requests.

        Groups by shared controller object (one ``decide_columns`` column
        pass each) exactly like the machine path's ``_batched_decisions``,
        so request issue order — which the weighted-share scheduler sums
        are sensitive to — is identical.  ``clamp``, when given, rewrites
        each decision before it is issued (the control plane's graceful-
        degradation levers); it must match the machine path's clamp
        exactly, which the driver guarantees by passing the same callable
        to both engines.
        """
        by_controller: dict[int, list[int]] = {}
        controllers = self.controllers
        for sid in sids:
            by_controller.setdefault(id(controllers[sid]), []).append(sid)
        out: list[tuple[int, DownloadRequest]] = []
        for ids in by_controller.values():
            controller = controllers[ids[0]]
            batch = DecisionColumns()
            for sid in ids:
                prev = float(self.prev_quality[sid])
                batch.append(
                    self._estimate(sid),
                    float(self.level[sid]),
                    None if math.isnan(prev) else prev,
                    self.chunks[sid],
                    int(self.chunk_i[sid]),
                    int(self.horizon[sid]),
                )
            for sid, decision in zip(ids, controller.decide_columns(batch)):
                if clamp is not None:
                    decision = clamp(decision)
                out.append((sid, self._issue_request(sid, decision)))
        return out

    def _issue_request(self, sid: int, decision: Decision) -> DownloadRequest:
        """Turn a decision into the chunk's transfer request."""
        chunk = self.chunks[sid][int(self.chunk_i[sid])]
        self.dec_density[
            int(self.rec_offset[sid]) + int(self.dec_count[sid])
        ] = decision.density
        self.dec_count[sid] += 1
        nbytes = int(
            chunk.bytes_at_density(decision.density)
            * float(self.fetch_fraction[sid])
        )
        self.pend_density[sid] = decision.density
        self.pend_ratio[sid] = decision.sr_ratio
        self.pend_nbytes[sid] = nbytes
        self.stage[sid] = _DOWNLOAD
        return DownloadRequest(
            float(self.t_net[sid]),
            nbytes,
            video=self.sessions[sid].spec.name,
            chunk_index=chunk.index,
            density=decision.density,
        )

    # ------------------------------------------------------------------
    def finished(self, sid: int) -> bool:
        return self.stage[sid] == _DONE

    def finished_flags(self) -> list[bool]:
        """Per-session finished flags (one vectorized compare)."""
        return (self.stage == _DONE).tolist()

    def all_finished(self) -> bool:
        return bool((self.stage == _DONE).all())

    def live_totals(self) -> tuple[int, float, float]:
        """Fleet-wide live counters, summed in session order.

        Sequential float accumulation in ascending session id — the
        exact order (and therefore the exact float values) the machine
        engine's ``_health_sample`` loop produces.
        """
        chunks = 0
        qsum = 0.0
        stall = 0.0
        for c, q, s in zip(
            self.live_chunks.tolist(),
            self.live_qsum.tolist(),
            self.live_stall.tolist(),
        ):
            chunks += c
            qsum += q
            stall += s
        return chunks, qsum, stall

    def finalize(self) -> list[SessionResult]:
        """Materialize one :class:`SessionResult` per session."""
        results: list[SessionResult] = []
        offsets = self.rec_offset.tolist()
        rec_counts = self.rec_count.tolist()
        dec_counts = self.dec_count.tolist()
        for sid in range(self.n):
            off = offsets[sid]
            count = rec_counts[sid]
            records = [
                ChunkRecord(quality=q, stall=s, bytes_downloaded=b)
                for q, s, b in zip(
                    self.rec_quality[off : off + count].tolist(),
                    self.rec_stall[off : off + count].tolist(),
                    self.rec_bytes[off : off + count].tolist(),
                )
            ]
            scores = session_qoe(records, self.qoe_weights[sid])
            results.append(
                SessionResult(
                    records=records,
                    qoe=scores["qoe"],
                    total_bytes=int(scores["bytes"])
                    + int(self.startup_bytes[sid]),
                    stall_seconds=scores["stall_seconds"],
                    startup_delay=float(self.startup_delay[sid]),
                    mean_quality=scores["mean_quality"],
                    decisions=self.dec_density[
                        off : off + dec_counts[sid]
                    ].tolist(),
                    watched_seconds=float(self.watched[sid]),
                    abandoned=bool(self.abandoned[sid]),
                )
            )
        return results
