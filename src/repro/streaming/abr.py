"""Adaptive bitrate controllers (paper §5).

VoLUT's contribution here is **continuous** adaptation: because the
two-stage SR supports arbitrary ratios at stable latency, the MPC can pick
any fetch density in ``(0, 1]`` rather than a handful of encoded levels.
Three controllers share the MPC machinery:

* :class:`ContinuousMPC` — VoLUT (H1): fine-grained density grid,
  effectively continuous;
* :class:`DiscreteMPC` — H2 / YuZu-style: densities restricted to the
  reciprocals of the discrete SR options;
* :class:`BufferBased` — the classic threshold controller, used as a
  sanity baseline.

The SR-quality model maps a {density, SR-ratio} decision to the perceived
quality ``Q`` of Eq. 10: the post-SR density discounted by a per-doubling
SR efficiency (SR'd points are almost, not exactly, as good as native
ones — the discount is calibrated from the SR-quality experiments).

The non-MPC controllers of the policy zoo (BOLA, throughput rule,
hybrid) live in :mod:`repro.streaming.policies` along with the
string-keyed registry — ``get_policy("bola")`` — that the experiment
CLIs resolve ``--abr`` names against; every controller here is
registered there too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.qoe import QoEModel
from .chunks import ChunkSpec, batched_chunk_bytes, batched_points_at_density
from .latency import SRLatency, latency_batch

__all__ = [
    "SRQualityModel",
    "AbrContext",
    "Decision",
    "AbrController",
    "ContinuousMPC",
    "DiscreteMPC",
    "BufferBased",
    "YUZU_DENSITY_LEVELS",
]

#: Fetch densities reachable with YuZu's discrete SR options.  The paper
#: lists them as factor pairs (1x2, 2x2, 1x3, 1x4, 4x1, 2x1), i.e. end-to-end
#: ratios {2, 3, 4} — so a discrete client can never fetch below 1/4 density.
YUZU_DENSITY_LEVELS = (1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0)


class SRQualityModel:
    """Maps a {density, SR-ratio} pair to perceived quality Q ∈ [0, 1].

    ``Q = min(1, density · sr_ratio) · efficiency^log2(sr_ratio)`` — the
    post-SR point density, discounted per upsampling doubling.  The default
    efficiency (0.93) reproduces the PSNR gap between SR'd and native
    content measured in §7.2 (×4 SR sits a few dB below ×2).
    """

    def __init__(self, max_ratio: float = 8.0, efficiency: float = 0.93):
        if max_ratio < 1.0:
            raise ValueError("max_ratio must be >= 1")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.max_ratio = float(max_ratio)
        self.efficiency = float(efficiency)

    def sr_ratio_for(self, density: float) -> float:
        """SR ratio the client will apply for a fetch density."""
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        return float(min(self.max_ratio, 1.0 / density))

    def quality(self, density: float, sr_ratio: float | None = None) -> float:
        """Perceived quality of Eq. 10's Q term."""
        s = self.sr_ratio_for(density) if sr_ratio is None else float(sr_ratio)
        if s < 1.0:
            raise ValueError("sr_ratio must be >= 1")
        restored = min(1.0, density * s)
        discount = self.efficiency ** np.log2(max(s, 1.0))
        return float(restored * discount)

    # -- batched forms (one candidate-density axis) --------------------
    def sr_ratios_for(self, densities: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sr_ratio_for` (identical arithmetic)."""
        d = np.asarray(densities, dtype=np.float64)
        if np.any((d <= 0.0) | (d > 1.0)):
            raise ValueError("densities must be in (0, 1]")
        return np.minimum(self.max_ratio, 1.0 / d)

    def qualities(
        self, densities: np.ndarray, sr_ratios: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized :meth:`quality` (identical arithmetic)."""
        d = np.asarray(densities, dtype=np.float64)
        s = (
            self.sr_ratios_for(d)
            if sr_ratios is None
            else np.asarray(sr_ratios, dtype=np.float64)
        )
        if np.any(s < 1.0):
            raise ValueError("sr_ratio must be >= 1")
        restored = np.minimum(1.0, d * s)
        discount = self.efficiency ** np.log2(np.maximum(s, 1.0))
        return restored * discount


@dataclass
class AbrContext:
    """Client state available to the controller at decision time."""

    throughput_bps: float
    buffer_level: float
    prev_quality: float | None
    next_chunks: list[ChunkSpec]

    def __post_init__(self) -> None:
        if self.throughput_bps <= 0:
            raise ValueError(
                "AbrContext.throughput_bps must be positive, got "
                f"{self.throughput_bps!r}"
            )
        if self.buffer_level < 0:
            raise ValueError(
                "AbrContext.buffer_level must be non-negative, got "
                f"{self.buffer_level!r}"
            )
        if not self.next_chunks:
            raise ValueError(
                "AbrContext.next_chunks must contain at least the next chunk, "
                f"got {self.next_chunks!r}"
            )


@dataclass(frozen=True)
class Decision:
    """{to-be-fetched point density, SR ratio} (paper §5.1)."""

    density: float
    sr_ratio: float

    def __post_init__(self) -> None:
        if not 0.0 < self.density <= 1.0:
            raise ValueError(
                f"Decision.density must be in (0, 1], got {self.density!r}"
            )
        if self.sr_ratio < 1.0:
            raise ValueError(
                f"Decision.sr_ratio must be >= 1, got {self.sr_ratio!r}"
            )


class AbrController:
    """Interface: pick a decision for the next chunk."""

    def decide(self, ctx: AbrContext) -> Decision:
        raise NotImplementedError

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        """Decide for many independent contexts at once.

        The default loops over :meth:`decide`; MPC controllers override it
        with a single array pass so a fleet driver can resolve every
        session waiting on a decision in one call.  Must be equivalent to
        ``[self.decide(c) for c in ctxs]`` — the fleet parity tests rely
        on it.
        """
        return [self.decide(ctx) for ctx in ctxs]

    def decide_columns(self, batch) -> list[Decision]:
        """Decide for a columnar batch (``DecisionColumns``).

        The columnar fleet engine hands decision state over as parallel
        columns instead of context objects.  The default materializes
        every row and defers to :meth:`decide_batch`; MPC controllers
        override it to read the columns directly, so no context is
        allocated at all.
        Must be equivalent to deciding each row's
        :meth:`~repro.streaming.columnar.DecisionColumns.context` — the
        columnar oracle-parity grid relies on it.
        """
        return self.decide_batch(
            [batch.context(i) for i in range(len(batch))]
        )


class _MPCBase(AbrController):
    """Shared horizon-planning logic (Eq. 10 maximization).

    Rows are evaluated by one of two paths that share one arithmetic.  A
    one-row call — the fleet's common shape, one session deciding per
    chunk completion — runs :meth:`_row_values`, a Python-float kernel
    over per-window lists; a call with two or more rows runs
    :meth:`_tensor_values`, one NumPy pass per horizon length.  Both
    follow :meth:`_plan_value` step for step on the same cached terms,
    so they return bit-identical values and the same decisions (the
    scalar oracle itself agrees to ~1e-9).
    """

    def __init__(
        self,
        candidates: np.ndarray,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        horizon: int = 5,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
    ):
        cand = np.asarray(candidates, dtype=np.float64)
        if cand.ndim != 1 or len(cand) == 0:
            raise ValueError("need a non-empty 1-D candidate density array")
        if np.any((cand <= 0) | (cand > 1)):
            raise ValueError("candidate densities must be in (0, 1]")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 < safety <= 1:
            raise ValueError("safety must be in (0, 1]")
        self.candidates = np.sort(cand)
        self.quality_model = quality_model
        self.qoe_model = qoe_model
        self.sr_latency = sr_latency
        self.horizon = int(horizon)
        self.safety = float(safety)
        if not 0.0 < fetch_fraction <= 1.0:
            raise ValueError("fetch_fraction must be in (0, 1]")
        # Fraction of each chunk's bytes actually fetched (ViVo's
        # visibility culling); must match the session's fetch_fraction so
        # the plan prices downloads correctly.
        self.fetch_fraction = float(fetch_fraction)
        # The candidate grid is fixed at construction, so its SR ratios,
        # qualities, α·q terms and decisions are too.
        self._sr_ratios = quality_model.sr_ratios_for(self.candidates)
        self._qualities = quality_model.qualities(
            self.candidates, self._sr_ratios
        )
        alpha = qoe_model.weights.alpha
        self._row_q = self._qualities.tolist()
        self._row_aq = [alpha * q for q in self._row_q]
        self._decisions = [
            Decision(density=d, sr_ratio=quality_model.sr_ratio_for(d))
            for d in self.candidates.tolist()
        ]
        #: per-window tensors and their per-candidate list form, keyed by
        #: the chunk tuple (see :meth:`_horizon_tensors`)
        self._horizon_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def _plan_value(self, density: float, ctx: AbrContext) -> float:
        """QoE of fetching the next ``horizon`` chunks at ``density``.

        Uses the robust-MPC simplification of a constant decision over the
        horizon with a safety-discounted throughput estimate.

        This is the scalar **reference oracle**: one-row calls run the
        one-row kernel and larger ones the tensor pass instead, and the
        parity test grid pins all three against each other (the
        analogue of the kNN three-backend parity oracle).
        """
        tput = ctx.throughput_bps * self.safety
        s = self.quality_model.sr_ratio_for(density)
        q = self.quality_model.quality(density, s)
        horizon_chunks = ctx.next_chunks[: self.horizon]
        buffer = ctx.buffer_level
        qualities, stalls = [], []
        for chunk in horizon_chunks:
            dl = chunk.bytes_at_density(density) * self.fetch_fraction * 8.0 / tput
            sr = chunk.n_frames * self.sr_latency(
                chunk.points_at_density(density), s
            )
            # Download and SR overlap across chunks (pipelined client), so
            # the steady-state readiness interval is the slower stage.
            ready = max(dl, sr)
            stall = max(0.0, ready - buffer)
            buffer = max(buffer - ready, 0.0) + chunk.duration
            qualities.append(q)
            stalls.append(stall)
        return self.qoe_model.plan_value(qualities, stalls, ctx.prev_quality)

    def _horizon_tensors(self, chunks: tuple) -> tuple:
        """Throughput-independent terms of one horizon window.

        ``(fetched bits, SR seconds, chunk durations)`` over the
        ``(chunk, candidate)`` grid depend only on the chunk specs, the
        fixed candidate densities, and the (fixed) SR latency model — so
        they are computed once per distinct window and replayed.  The
        fourth element holds the same numbers for the one-row kernel:
        one tuple of ``(bits, SR seconds, duration)`` steps per candidate.
        """
        cached = self._horizon_cache.get(chunks)
        if cached is None:
            d = self.candidates
            ppf = np.array([c.points_per_frame for c in chunks])
            nf = np.array([c.n_frames for c in chunks], dtype=np.int64)
            bpp = np.array([c.bytes_per_point for c in chunks])
            dur = np.array([c.duration for c in chunks])
            pts = batched_points_at_density(ppf[:, None], d)   # (H, C)
            nbytes = batched_chunk_bytes(nf[:, None], pts, bpp[:, None])
            bits = nbytes * self.fetch_fraction * 8.0
            sr = nf[:, None] * latency_batch(self.sr_latency, pts, self._sr_ratios)
            durations = dur.tolist()
            steps = [
                tuple(zip(b, s, durations))
                for b, s in zip(bits.T.tolist(), sr.T.tolist())
            ]
            cached = (bits, sr, dur, steps)
            self._horizon_cache[chunks] = cached
        return cached

    def _row_values(
        self, tput: float, buffer: float, prev: float | None, window: tuple
    ) -> list[float]:
        """Plan values of one row over every candidate (the one-row kernel).

        Python floats over the window's per-candidate steps, in
        :meth:`_plan_value`'s order: ``ready = max(bits/tput, sr)``, then
        the stall, then the buffer update.  The plan's quality is constant
        over the horizon, so the variation term is nonzero only at the
        first step.  Equal to :meth:`_tensor_values` bit for bit.
        """
        tput = tput * self.safety
        w = self.qoe_model.weights
        gamma = w.gamma
        aqs = self._row_aq
        if prev is None:
            heads = aqs
        else:
            heads = []
            for aq, q in zip(aqs, self._row_q):
                delta = q - prev
                mult = w.drop_multiplier if delta < 0 else 1.0
                heads.append(aq - w.beta * mult * abs(delta))
        values = []
        for head, aq, steps in zip(heads, aqs, self._horizon_tensors(window)[3]):
            buf = buffer
            total = 0.0
            for bits, sr, dur in steps:
                ready = bits / tput
                if sr > ready:
                    ready = sr
                stall = ready - buf
                if stall > 0.0:
                    buf = dur
                else:
                    stall = 0.0
                    buf = (buf - ready) + dur
                total += head - gamma * stall
                head = aq
            values.append(total)
        return values

    def _tensor_values(
        self,
        tputs: list[float],
        buffers: list[float],
        prevs: list[float | None],
        windows: list[tuple],
    ) -> np.ndarray:
        """Plan values for every (row, candidate) pair in one pass.

        All windows must share the same length (the public entry points
        group by it).  Returns ``(n_rows, n_candidates)``.  The arithmetic
        replicates :meth:`_plan_value` operation for operation with a
        candidate axis appended — rounding modes included — so each row
        equals :meth:`_row_values` bit for bit.
        """
        per_row = [self._horizon_tensors(win) for win in windows]
        bits = np.stack([t[0] for t in per_row])               # (N, H, C)
        sr = np.stack([t[1] for t in per_row])
        dur = np.stack([t[2] for t in per_row])                # (N, H)
        tput = np.array(tputs) * self.safety                   # (N,)
        dl = bits / tput[:, None, None]
        ready = np.maximum(dl, sr)                             # (N, H, C)

        buffer = np.array(buffers)[:, None]
        stalls = np.empty((dur.shape[1], len(windows), len(self.candidates)))
        for h in range(dur.shape[1]):
            r = ready[:, h, :]
            stalls[h] = np.maximum(0.0, r - buffer)
            buffer = np.maximum(buffer - r, 0.0) + dur[:, h, None]

        prev = np.array(
            [np.nan if p is None else p for p in prevs]
        )[:, None]                                             # (N, 1)
        return self.qoe_model.plan_values(self._qualities, stalls, prev)

    def plan_values(self, ctx: AbrContext) -> np.ndarray:
        """Tensor-pass plan values over all candidate densities, ``(C,)``."""
        return self._tensor_values(
            [ctx.throughput_bps], [ctx.buffer_level], [ctx.prev_quality],
            [tuple(ctx.next_chunks[: self.horizon])],
        )[0]

    def _decide_rows(
        self,
        tputs: list[float],
        buffers: list[float],
        prevs: list[float | None],
        windows: list[tuple],
    ) -> list[Decision]:
        """Decide column-shaped rows: one row runs the kernel, more the
        tensor pass grouped by horizon length (contexts near the end of
        their video have shorter windows).  Ties keep the first maximum,
        as ``np.argmax`` does."""
        decisions = self._decisions
        if len(windows) == 1:
            values = self._row_values(tputs[0], buffers[0], prevs[0], windows[0])
            return [decisions[values.index(max(values))]]
        out: list[Decision | None] = [None] * len(windows)
        groups: dict[int, list[int]] = {}
        for i, win in enumerate(windows):
            groups.setdefault(len(win), []).append(i)
        for idxs in groups.values():
            values = self._tensor_values(
                [tputs[i] for i in idxs],
                [buffers[i] for i in idxs],
                [prevs[i] for i in idxs],
                [windows[i] for i in idxs],
            )
            for i, best in zip(idxs, np.argmax(values, axis=1).tolist()):
                out[i] = decisions[best]
        return out  # type: ignore[return-value]

    def decide(self, ctx: AbrContext) -> Decision:
        return self.decide_batch([ctx])[0]

    def decide_batch(self, ctxs: list[AbrContext]) -> list[Decision]:
        h = self.horizon
        return self._decide_rows(
            [ctx.throughput_bps for ctx in ctxs],
            [ctx.buffer_level for ctx in ctxs],
            [ctx.prev_quality for ctx in ctxs],
            [tuple(ctx.next_chunks[:h]) for ctx in ctxs],
        )

    def decide_columns(self, batch) -> list[Decision]:
        """Columnar decide: rows read straight from the columns, so no
        :class:`AbrContext` is built."""
        h = self.horizon
        return self._decide_rows(
            batch.tput, batch.buffer, batch.prev,
            [batch.window(i, h) for i in range(len(batch))],
        )


class ContinuousMPC(_MPCBase):
    """VoLUT's continuous ABR: a fine density grid (§5.1).

    A 64-point geometric grid over ``[min_density, 1]`` is dense enough
    that adjacent candidates differ by <5% in byte size — adaptation is
    effectively continuous while the argmax stays a 'simple constrained
    optimization' as in the paper.
    """

    def __init__(
        self,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        min_density: float = 1.0 / 8.0,
        n_grid: int = 64,
        horizon: int = 5,
        safety: float = 0.9,
        fetch_fraction: float = 1.0,
    ):
        if not 0 < min_density < 1:
            raise ValueError("min_density must be in (0, 1)")
        grid = np.geomspace(min_density, 1.0, n_grid)
        super().__init__(
            grid, quality_model, qoe_model, sr_latency, horizon, safety,
            fetch_fraction,
        )


class DiscreteMPC(_MPCBase):
    """Discrete-level MPC (H2 / YuZu-style): density ∈ 1/ratio levels."""

    def __init__(
        self,
        quality_model: SRQualityModel,
        qoe_model: QoEModel,
        sr_latency: SRLatency,
        levels: tuple[float, ...] = YUZU_DENSITY_LEVELS,
        horizon: int = 5,
        safety: float = 0.9,
    ):
        super().__init__(
            np.asarray(levels), quality_model, qoe_model, sr_latency,
            horizon, safety,
        )


class BufferBased(AbrController):
    """Classic threshold rule: density grows linearly with buffer level."""

    def __init__(
        self,
        quality_model: SRQualityModel,
        min_density: float = 1.0 / 8.0,
        low_buffer: float = 1.0,
        high_buffer: float = 6.0,
    ):
        if not 0 < min_density <= 1:
            raise ValueError("min_density must be in (0, 1]")
        if low_buffer >= high_buffer:
            raise ValueError("low_buffer must be below high_buffer")
        self.quality_model = quality_model
        self.min_density = float(min_density)
        self.low_buffer = float(low_buffer)
        self.high_buffer = float(high_buffer)

    def decide(self, ctx: AbrContext) -> Decision:
        lvl = ctx.buffer_level
        if lvl <= self.low_buffer:
            d = self.min_density
        elif lvl >= self.high_buffer:
            d = 1.0
        else:
            frac = (lvl - self.low_buffer) / (self.high_buffer - self.low_buffer)
            d = self.min_density + frac * (1.0 - self.min_density)
        return Decision(density=d, sr_ratio=self.quality_model.sr_ratio_for(d))
