"""Multi-link network topologies: paths over shared links.

A CDN serves viewers over *paths* — origin → edge backhaul, then edge →
viewer access — where several paths share component links and the
bottleneck moves with load:

* :class:`NetworkPath` — an ordered series of :class:`SharedLink` hops.
  A fluid transfer traverses all hops simultaneously (cut-through, not
  store-and-forward): its instantaneous rate is the **minimum over hops**
  of its processor-sharing allocation on each hop, and it pays the sum of
  per-hop RTTs once before bits move.
* :class:`PathScheduler` — the event engine.  It generalizes
  :class:`SharedLink`'s event loop to flows on different paths over a
  shared link pool: ``next_event`` returns the earliest instant any
  link's fluid allocation can change, ``advance`` drains every active
  flow at its path rate and reports completions.

The allocation is *per-link* processor sharing capped by the path
minimum — deterministic and monotone (adding a hop can never increase a
flow's rate), though not globally max-min (bandwidth a flow cannot use on
a non-bottleneck hop is not redistributed; the conservative model).

**Two engines, one contract.**  ``engine="scalar"``, the reference
oracle, loops over every active flow and link each event step; for
one-hop paths it mirrors :class:`SharedLink` operation for operation.
``engine="class"`` (the default) groups active flows into *path classes*
keyed by (path, weight).  Every member gets the same min-over-hops rate,
so a class keeps one virtual service clock — bits served per member, the
GPS virtual time of Parekh & Gallager (1993) — and a heap of finish marks
(clock at activation + bits to send).  Only classes whose links changed
load are re-rated, link capacities stay cached until their trace or
degradation boundary, and one heap bounds every class's next completion:
a step costs O(classes touched + log n), not O(active flows × hops).

The stated tolerance between the engines is **zero**.  Clocks only pick
candidates: a candidate's bits are replayed from its class's record of
per-step drains (the oracle's own ``rate * dt`` products, subtracted in
its order), and instants, rates and capacities are the oracle's
expressions, so completions are bit-identical
(``tests/net/test_topology.py``).  ``delivered_bits`` totals agree to
float tolerance; :meth:`PathScheduler.check` verifies them on either.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field

import numpy as np

from .link import Completion, SharedLink, _finish_threshold

__all__ = ["NetworkPath", "PathScheduler", "SCHEDULER_ENGINES", "path_download_time"]


@dataclass(frozen=True)
class NetworkPath:
    """An ordered series of :class:`SharedLink` hops.

    Links are shared by identity: two paths holding the same
    ``SharedLink`` object contend for that link's capacity.  ``rtt`` is
    the request latency of the whole path — one round trip per hop,
    paid once before data moves (persistent connections per hop).
    """

    links: tuple[SharedLink, ...]
    name: str = "path"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("NetworkPath needs at least one link")
        if len({id(l) for l in self.links}) != len(self.links):
            raise ValueError("NetworkPath hops must be distinct links")

    @property
    def rtt(self) -> float:
        """Total request latency: one RTT per hop, in series."""
        total = 0.0
        for link in self.links:
            total += link.trace.rtt
        return total

    @property
    def n_hops(self) -> int:
        return len(self.links)


def path_download_time(path: NetworkPath, nbytes: int, start_time: float) -> float:
    """Seconds to fetch ``nbytes`` over an otherwise-idle path.

    The multi-hop :meth:`repro.net.link.Link.download_time`: the rate is
    the minimum over hop traces and segments end at the nearest boundary
    of any hop (one hop: bit-exact with the single-link integrator).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if start_time < 0:
        raise ValueError("start_time must be non-negative")
    traces = [link.trace for link in path.links]
    rtt = path.rtt
    if nbytes == 0:
        return rtt
    remaining = float(nbytes) * 8.0  # bits
    t = start_time + rtt
    elapsed = rtt
    max_iterations = 10_000_000
    for _ in range(max_iterations):
        rate = min(tr.bandwidth_at(t) for tr in traces)
        seg = min(tr.time_to_next_change(t) for tr in traces)
        if rate * seg >= remaining:
            dt = remaining / rate
            return elapsed + dt
        remaining -= rate * seg
        t += seg
        elapsed += seg
    raise RuntimeError("download did not converge")  # pragma: no cover


def _bits_over(traces, start: float, end: float) -> float:
    """Bits a lone flow moves over ``[start, end]`` at the min-hop rate."""
    bits = 0.0
    t = start
    max_iterations = 10_000_000
    for _ in range(max_iterations):
        if t >= end:
            return bits
        rate = min(tr.bandwidth_at(t) for tr in traces)
        seg = min(tr.time_to_next_change(t) for tr in traces)
        step = min(seg, end - t)
        bits += rate * step
        t += step
    raise RuntimeError("integration did not converge")  # pragma: no cover


@dataclass(eq=False, slots=True)
class _PathFlow:
    flow_id: int
    nbytes: int
    path: NetworkPath
    start_time: float
    data_start: float  # start_time + path RTT + any gate delay
    weight: float
    total_bits: float
    #: remaining bits (class engine, active: as of event step ``idx``)
    remaining_bits: float
    #: exact elapsed via path_download_time when the flow had every hop to
    #: itself for its whole lifetime (None = shared/progressive)
    solo_elapsed: float | None = field(default=None)
    cls: _PathClass | None = None  # class engine: class it is active in
    idx: int = 0
    #: class engine queue token: -1 in no queue, 0 in the finished list,
    #: else the sequence number of its live heap entry (older ones stale)
    seq: int = -1


class _Hop:
    """Class-engine state of one link: its load and capacity segment."""

    __slots__ = ("link", "weighted", "classes", "n", "wsum", "trace", "lo", "hi", "bw")

    def __init__(self, link: SharedLink) -> None:
        self.link = link
        self.weighted = link.policy == "weighted"
        self.classes: list[_PathClass] = []  # active classes crossing it
        self.n = 0  # active flows (fair share denominator)
        self.wsum = 0.0  # active weight (weighted share denominator)
        self.trace = None  # capacity ``bw`` cached over ``[lo, hi)``
        self.lo = self.hi = self.bw = 0.0


class _PathClass:
    """Active flows sharing one (path, weight): one rate, one clock."""

    __slots__ = ("key", "hops", "weight", "heap", "n", "rate", "drains", "base",
                 "clock", "t_ref", "svc", "tmax", "due")

    def __init__(self, key, hops: list[_Hop], weight: float, now: float, step: int):
        self.key, self.hops, self.weight = key, hops, weight
        self.heap: list[tuple[float, int, _PathFlow]] = []  # (mark, seq, flow)
        self.n = 0
        self.rate = 0.0
        #: the clock's exact record: per-step drains ``rate * dt`` from
        #: event step ``base`` on at ``drains[k - base + 1]`` (slot 0 spare)
        self.drains = array("d", [0.0])
        self.base = step
        self.clock = 0.0  # estimated bits served per member at ``t_ref``
        self.t_ref = now
        self.svc = 0.0  # n * rate as counted in the pool's service rate
        self.tmax = 0.0  # largest finish threshold of any member
        self.due = -1  # sequence number of its live ``_due`` entry


def _near(heap: list, bound: float) -> list:
    """Heap entries with key ``<= bound`` (pruned walk of the heap tree)."""
    if not heap or heap[0][0] > bound:
        return []
    out, stack, n = [heap[0]], [1, 2], len(heap)
    while stack:
        i = stack.pop()
        if i < n and heap[i][0] <= bound:
            out.append(heap[i])
            stack += (2 * i + 1, 2 * i + 2)
    return out


#: Supported :class:`PathScheduler` event engines.
SCHEDULER_ENGINES = ("class", "scalar")
#: Relative slack of :meth:`PathScheduler.check`'s conservation identities.
_CHECK_RTOL = 1e-9
#: Relative bound on the float drift of a clock estimate (mark − clock)
#: from a flow's exact bits: far above the ~steps × 1e-16 it can reach.
_DRIFT = 1e-6
#: Relative time slack within which cached link capacities and boundaries
#: are re-read from the trace exactly as the oracle reads them.
_SLACK = 1e-9
_RECORD = 4096  # event steps between settling every class's drain record


class PathScheduler:
    """Event engine for concurrent transfers over a pool of shared links.

    Flows are registered with :meth:`add_flow` on a :class:`NetworkPath`;
    each link allocates its capacity among the flows active *on that
    link* under its own sharing policy, and a flow drains at the minimum
    of its per-hop allocations.  The driver loop is the same contract as
    :class:`SharedLink`: ``next_event`` → ``advance`` until ``busy()``
    turns false.

    ``extra_delay`` on :meth:`add_flow` gates a flow's data start beyond
    the path RTT without changing the elapsed-time origin — the hook the
    CDN layer uses for server-side encode waits.  ``engine`` is
    ``"class"`` (default) or the ``"scalar"`` oracle (module docstring).
    """

    def __init__(self, engine: str = "class") -> None:
        if engine not in SCHEDULER_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; pick from {SCHEDULER_ENGINES}"
            )
        self.engine = engine
        self._flows: dict[int, _PathFlow] = {}
        #: per-link flow registries, insertion-ordered like SharedLink's
        self._link_flows: dict[int, dict[int, _PathFlow]] = {}
        self._links: dict[int, SharedLink] = {}
        self._link_base: dict[int, float] = {}  # delivered_bits at first use
        #: bits actually delivered to receivers (conservation checks)
        self.delivered_bits = 0.0
        #: bits removed flows crossed, plain and times their hop counts
        self._crossed = self._crossed_hops = 0.0
        # Class engine state.
        self._hops: dict[int, _Hop] = {}
        self._classes: dict[tuple, _PathClass] = {}
        self._waiting: list[tuple[float, int, _PathFlow]] = []  # by data start
        #: empty flows awaiting their report (zero-byte, or sync-emptied)
        self._finished: list[_PathFlow] = []
        self._dirty: dict[int, _Hop] = {}  # hops whose load changed
        self._horizon = float("inf")  # earliest cached segment end, loaded hops
        #: classes by a lower bound on any member's finish (stale skipped)
        self._due: list[tuple[float, int, _PathClass]] = []
        self._service = 0.0  # Σ n × rate: bits the pool serves per second
        self._steps = 0  # event steps advanced
        self._seq = 0
        #: instant activation and rates are current for (None after a change)
        self._ready: float | None = None

    # ------------------------------------------------------------------
    def add_flow(
        self,
        flow_id: int,
        nbytes: int,
        start_time: float,
        path: NetworkPath,
        weight: float = 1.0,
        extra_delay: float = 0.0,
    ) -> None:
        """Register a transfer of ``nbytes`` requested at ``start_time``."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already in flight")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if start_time < 0:
            raise ValueError("start_time must be non-negative")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")
        bits, start = float(nbytes) * 8.0, float(start_time)
        data_start = start + path.rtt + float(extra_delay)
        flow = _PathFlow(flow_id, nbytes, path, start, data_start, float(weight), bits, bits)
        if extra_delay > 0.0:
            # A gated flow is never "untouched solo" in the SharedLink
            # sense; forcing the progressive path keeps elapsed exact.
            flow.solo_elapsed = float("nan")
        self._flows[flow_id] = flow
        for link in path.links:
            if id(link) not in self._links:
                self._links[id(link)] = link
                self._link_base[id(link)] = link.delivered_bits
                self._link_flows[id(link)] = {}
            self._link_flows[id(link)][flow_id] = flow
        if self.engine == "class":
            self._place(flow)

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def has_flow(self, flow_id: int) -> bool:
        """True iff ``flow_id`` is currently in flight."""
        return flow_id in self._flows

    def cancel(self, flow_id: int) -> None:
        """Withdraw an in-flight transfer without completing it.

        The fault-injection hook (outages, timeouts).  Bits already
        drained stay counted in ``delivered_bits``; the flow never reports
        a :class:`Completion`.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"flow {flow_id} is not in flight")
        self._remove(flow)

    def busy(self) -> bool:
        """True while any transfer is unfinished."""
        return bool(self._flows)

    def sync(self, now: float) -> None:
        """Materialize a solo flow's progress up to ``now``.

        The solo fast path resolves a lone untouched flow's finish in
        closed form and drains nothing until it completes.  A driver that
        injects or cancels a flow at any other instant (the fleet's
        deferred CDN requests) must call this first, or the solo flow
        would silently restart from its full byte count.
        """
        solo = self._solo_flow() if len(self._flows) == 1 else None
        if solo is None or solo.total_bits == 0.0 or now <= solo.data_start:
            return
        traces = [link.trace for link in solo.path.links]
        # Untouched, so its remaining bits are its total.
        drained = min(_bits_over(traces, solo.data_start, now), solo.total_bits)
        if drained <= 0.0:
            return
        self.delivered_bits += drained
        solo.solo_elapsed = None
        if self.engine == "scalar":
            solo.remaining_bits -= drained
            self._account(solo, drained)
        else:
            # Re-queue with the banked progress; emptied outright (the
            # request landed at the solo finish) it still reports.
            self._detach(solo)
            solo.remaining_bits -= drained
            self._place(solo)

    def check(self) -> None:
        """Verify the pool's byte conservation once every flow has left.

        Raises :class:`RuntimeError` naming the first violated identity:
        no flow may still be in flight; the pool's ``delivered_bits``
        (accumulated per event step) must equal the bits every removed
        flow crossed (derived per flow at removal); and the links'
        ``delivered_bits`` gained in this pool must equal those crossed
        bits times each flow's hop count.
        """
        if self._flows:
            raise RuntimeError(f"scheduler check: {len(self._flows)} flow(s) still in flight")
        crossed = self._crossed
        if abs(self.delivered_bits - crossed) > _CHECK_RTOL * max(crossed, 1.0):
            raise RuntimeError(
                f"scheduler check: pool delivered_bits {self.delivered_bits!r} "
                f"!= crossed bits of removed flows {crossed!r}"
            )
        base = self._link_base
        link_bits = sum(link.delivered_bits - base[li] for li, link in self._links.items())
        hop_bits = self._crossed_hops
        if abs(link_bits - hop_bits) > _CHECK_RTOL * max(hop_bits, 1.0):
            raise RuntimeError(
                f"scheduler check: link delivered_bits {link_bits!r} != "
                f"crossed bits x hops {hop_bits!r}"
            )

    # ------------------------------------------------------------------
    def _remaining(self, flow: _PathFlow) -> float:
        """Bits ``flow`` has left to send, exactly as the oracle has them.

        An active flow replays its class's drains since step ``idx`` in
        the oracle's order (``np.subtract.accumulate`` is sequential).
        """
        cls = flow.cls
        if cls is None:
            return flow.remaining_bits
        i, n = flow.idx, self._steps
        if i < n:
            r = flow.remaining_bits
            drains = cls.drains
            lo = i - cls.base + 1
            if n - i <= 16:
                for k in range(lo, lo + n - i):
                    r -= drains[k]
            else:
                # Park r in the slot before step i; accumulate in place.
                view = np.frombuffer(drains)[lo - 1 :]
                saved = view[0]
                view[0] = r
                r = float(np.subtract.accumulate(view)[-1])
                view[0] = saved
            flow.remaining_bits = r
            flow.idx = n
        return flow.remaining_bits

    def _solo_flow(self) -> _PathFlow | None:
        """The lone untouched flow, if the whole pool holds exactly one:
        its finish resolves in closed form (as :meth:`SharedLink._solo_flow`)."""
        if len(self._flows) != 1:
            return None
        flow = next(iter(self._flows.values()))
        if self._remaining(flow) != flow.total_bits:
            return None
        if flow.solo_elapsed is not None and flow.solo_elapsed != flow.solo_elapsed:
            return None  # NaN sentinel: gated flow, use the fluid path
        return flow

    def _allocations(self, now: float) -> dict[int, tuple[float, float]]:
        """Per-link ``(capacity, share denominator)`` at ``now``, via the
        link's own share arithmetic (one hop ≡ :class:`SharedLink`)."""
        alloc: dict[int, tuple[float, float]] = {}
        for link_id, link in self._links.items():
            active = [
                f for f in self._link_flows[link_id].values()
                if f.data_start <= now and f.remaining_bits > 0.0
            ]
            if active:
                alloc[link_id] = (link.trace.bandwidth_at(now), link._share_denominator(active))
        return alloc

    def _rate_of(self, flow: _PathFlow, alloc: dict[int, tuple[float, float]]) -> float:
        """Min-over-hops allocation for one active flow."""
        rate: float | None = None
        for link in flow.path.links:
            capacity, denom = alloc[id(link)]
            share = link._share_of(flow, capacity, denom)
            rate = share if rate is None else min(rate, share)
        assert rate is not None
        return rate

    def next_event(self, now: float) -> float:
        """Earliest future instant any link's allocation can change."""
        if not self._flows:
            raise RuntimeError("no flows in flight")
        solo = self._solo_flow() if len(self._flows) == 1 else None
        if solo is not None:
            if solo.solo_elapsed is None:
                solo.solo_elapsed = path_download_time(
                    solo.path, solo.nbytes, solo.start_time
                )
            return solo.start_time + solo.solo_elapsed
        if self.engine == "class":
            return self._next_event_class(now)

        events = [f.data_start for f in self._flows.values() if f.data_start > now]
        # Zero-byte transfers complete as soon as their RTT elapses.
        events += [max(f.data_start, now) for f in self._flows.values() if f.remaining_bits <= 0.0]
        alloc = self._allocations(now)
        for link_id in alloc:
            events.append(now + self._links[link_id].trace.time_to_next_change(now))
        if alloc:
            for f in self._flows.values():
                if f.data_start <= now and f.remaining_bits > 0.0:
                    events.append(now + f.remaining_bits / self._rate_of(f, alloc))
        return min(events)

    def advance(self, now: float, to_time: float) -> list[Completion]:
        """Drain all flows from ``now`` to ``to_time``; report completions.

        ``to_time`` must not exceed the next event.  Completions are
        ordered by flow id, matching :meth:`SharedLink.advance`.
        """
        if to_time < now:
            raise ValueError("cannot advance backwards")
        solo = self._solo_flow() if len(self._flows) == 1 else None
        if solo is not None and solo.solo_elapsed is not None:
            finish = solo.start_time + solo.solo_elapsed
            if finish <= to_time:
                self.delivered_bits += solo.total_bits
                if self.engine == "scalar":
                    self._account(solo, solo.total_bits)
                self._detach(solo)
                solo.remaining_bits = 0.0
                self._remove(solo)
                return [Completion(solo.flow_id, finish, solo.solo_elapsed)]
            return []
        if self.engine == "class":
            return self._advance_class(now, to_time)

        dt = to_time - now
        active = [f for f in self._flows.values() if f.data_start <= now and f.remaining_bits > 0.0]
        # Allocations are fixed over [now, to_time]: snapshot every rate
        # before draining, or a flow emptied earlier in this loop would
        # hand its share to later flows mid-interval.
        alloc = self._allocations(now)
        rates = [self._rate_of(f, alloc) for f in active]
        for f, rate in zip(active, rates):
            drained = min(rate * dt, f.remaining_bits)
            f.remaining_bits -= drained
            self.delivered_bits += drained
            self._account(f, drained)
            if f.remaining_bits <= _finish_threshold(f.total_bits):
                self.delivered_bits += f.remaining_bits
                self._account(f, f.remaining_bits)
                f.remaining_bits = 0.0
        done: list[Completion] = []
        for f in sorted(self._flows.values(), key=lambda f: f.flow_id):
            if f.remaining_bits <= 0.0 and f.data_start <= to_time:
                finish = f.data_start if f.total_bits == 0.0 else to_time
                done.append(Completion(f.flow_id, finish, finish - f.start_time))
                self._remove(f)
        return done

    # ------------------------------------------------------------------
    # Class engine: one virtual clock per (path, weight) class.
    def _place(self, flow: _PathFlow) -> None:
        """Queue a flow that is in no class: finished if empty, else waiting."""
        self._ready = None
        if flow.remaining_bits <= 0.0:
            flow.seq = 0
            self._finished.append(flow)
        else:
            self._seq += 1
            flow.seq = self._seq
            heapq.heappush(self._waiting, (flow.data_start, self._seq, flow))

    def _detach(self, flow: _PathFlow) -> None:
        """Take a flow out of its class or queue, materializing its bits."""
        cls = flow.cls
        if cls is not None:
            flow.remaining_bits = self._remaining(flow)
            flow.cls = None
            self._join(cls, -1)
        elif flow.seq == 0:
            self._finished.remove(flow)
        flow.seq = -1  # any heap entry left behind is now stale

    def _join(self, cls: _PathClass, delta: int) -> None:
        """Change a class's active membership; its hops' loads go dirty."""
        if cls.n == 0:
            for hop in cls.hops:
                hop.classes.append(cls)
        cls.n += delta
        for hop in cls.hops:
            self._dirty[id(hop)] = hop
        if cls.n == 0:
            del self._classes[cls.key]
            for hop in cls.hops:
                hop.classes.remove(cls)
            cls.due = -1
            self._service = self._service - cls.svc if self._classes else 0.0

    def _activate(self, now: float) -> None:
        """Move every waiting flow whose data has started into its class."""
        waiting = self._waiting
        while waiting and waiting[0][0] <= now:
            _, seq, flow = heapq.heappop(waiting)
            if flow.seq != seq:
                continue
            key = (flow.path.links, flow.weight)
            cls = self._classes.get(key)
            if cls is None:
                hops = []
                for link in flow.path.links:
                    hop = self._hops.get(id(link))
                    if hop is None:
                        hop = self._hops[id(link)] = _Hop(link)
                    hops.append(hop)
                cls = self._classes[key] = _PathClass(
                    key, hops, flow.weight, now, self._steps
                )
            flow.cls = cls
            flow.idx = self._steps
            mark = cls.clock + cls.rate * (now - cls.t_ref) + flow.remaining_bits
            cls.tmax = max(cls.tmax, _finish_threshold(flow.total_bits))
            self._seq += 1
            flow.seq = self._seq
            heapq.heappush(cls.heap, (mark, self._seq, flow))
            self._join(cls, 1)

    def _refresh(self, now: float) -> None:
        """Recompute the rates of classes on links whose state changed.

        A link is dirty when a class crossing it gained or lost members,
        or when ``now`` nears the end of its cached capacity segment; it
        then re-reads its trace at ``now`` as the oracle does every step.
        Shares are the oracle's expressions — ``bw / n`` (fair), or
        ``bw * w / Σw`` with Σw summed over the link's active flows in
        insertion order (weighted) — and a class's rate is their min over
        hops.  Each recomputed class re-keys its ``_due`` bound.
        """
        dirty = self._dirty
        slack = _SLACK * (now + 1.0)
        if now >= self._horizon - slack:
            for hop in self._hops.values():
                if hop.classes and now >= hop.hi - slack:
                    dirty[id(hop)] = hop
        if not dirty:
            return
        touched: list[_PathClass] = []
        rescan = False
        for hop in dirty.values():
            classes = hop.classes
            if not classes:
                rescan = rescan or hop.hi <= self._horizon
                continue
            if hop.weighted:
                hop.wsum = sum(
                    f.weight
                    for f in self._link_flows[id(hop.link)].values()
                    if f.cls is not None
                )
            else:
                n = 0
                for cls in classes:
                    n += cls.n
                hop.n = n
            trace = hop.link.trace
            if hop.trace is not trace or not hop.lo <= now < hop.hi - slack:
                hop.trace, hop.lo, hop.bw = trace, now, trace.bandwidth_at(now)
                hop.hi = now + trace.time_to_next_change(now)
                rescan = True
            elif hop.hi < self._horizon:  # a hop that just became loaded
                self._horizon = hop.hi
            for cls in classes:
                if cls not in touched:
                    touched.append(cls)
        dirty.clear()
        due = self._due
        service = self._service
        for cls in touched:
            rate = float("inf")
            for hop in cls.hops:
                share = hop.bw * cls.weight / hop.wsum if hop.weighted else hop.bw / hop.n
                if share < rate:
                    rate = share
            clock = cls.clock = cls.clock + cls.rate * (now - cls.t_ref)
            cls.t_ref = now
            cls.rate = rate
            svc = cls.n * rate
            service += svc - cls.svc
            cls.svc = svc
            heap = cls.heap
            while heap[0][2].seq != heap[0][1]:
                heapq.heappop(heap)
            # Lower bound on when any member can reach its finish threshold.
            mark = heap[0][0]
            err = _DRIFT * (mark + clock) + cls.tmax
            self._seq += 1
            cls.due = self._seq
            heapq.heappush(due, (now + (mark - clock - err) / rate - slack, self._seq, cls))
        self._service = service
        if len(due) > 8 * len(self._classes) + 64:
            self._due = [e for e in due if e[2].due == e[1]]
            heapq.heapify(self._due)
        if rescan:
            self._horizon = min(
                (hop.hi for hop in self._hops.values() if hop.classes),
                default=float("inf"),
            )

    def _finish_of(self, cls: _PathClass, now: float) -> float:
        """The oracle's earliest completion instant among ``cls``'s members:
        those whose marks lie within drift of the top, replayed exactly."""
        heap = cls.heap
        mark = heap[0][0]
        bound = mark + 2.0 * _DRIFT * (mark + cls.clock)
        if len(heap) < 2 or (heap[1][0] > bound and (len(heap) < 3 or heap[2][0] > bound)):
            return now + self._remaining(heap[0][2]) / cls.rate  # the top alone
        best = float("inf")
        for _, seq, flow in _near(heap, bound):
            if flow.seq == seq:
                best = min(best, now + self._remaining(flow) / cls.rate)
        return best

    def _next_event_class(self, now: float) -> float:
        """The oracle's event instant: bounds prune, candidates are exact."""
        waiting = self._waiting
        if waiting and waiting[0][0] <= now:
            self._activate(now)
        slack = _SLACK * (now + 1.0)
        if self._dirty or now >= self._horizon - slack:
            self._refresh(now)
        best = float("inf")
        while waiting and waiting[0][2].seq != waiting[0][1]:
            heapq.heappop(waiting)
        if waiting:
            best = waiting[0][0]
        # Already-empty flows complete as soon as their data start elapses.
        for flow in self._finished:
            best = min(best, max(flow.data_start, now))
        due = self._due
        while due and due[0][2].due != due[0][1]:
            heapq.heappop(due)
        # The first class's exact finish tightens the bound the rest are
        # pruned against; a cached link boundary is an upper bound too.
        bound = min(best, self._horizon + slack)
        if due and due[0][0] <= bound:
            top = due[0]
            best = min(best, self._finish_of(top[2], now))
            bound = min(best, bound)
            if len(due) > 1 and (due[1][0] <= bound or (len(due) > 2 and due[2][0] <= bound)):
                for _, seq, cls in _near(due, bound):
                    if cls.due == seq and seq != top[1]:
                        best = min(best, self._finish_of(cls, now))
        if self._horizon - slack <= best:
            for hop in self._hops.values():
                if hop.classes and hop.hi - slack <= best:
                    best = min(best, now + hop.link.trace.time_to_next_change(now))
        self._ready = now
        return best

    def _advance_class(self, now: float, to_time: float) -> list[Completion]:
        if self._ready != now:
            self._activate(now)
            self._refresh(now)
        dt = to_time - now
        self._steps += 1
        self.delivered_bits += self._service * dt
        for cls in self._classes.values():
            cls.drains.append(cls.rate * dt)
        if self._steps % _RECORD == 0:  # settle every member, drop the records
            for cls in self._classes.values():
                for _, seq, flow in cls.heap:
                    if flow.seq == seq:
                        self._remaining(flow)
                del cls.drains[1:]
                cls.base = self._steps
        finished: list[_PathFlow] = []
        due = self._due
        for _, seq, cls in _near(due, to_time) if due and due[0][0] <= to_time else ():
            if cls.due != seq:
                continue
            # Members within drift of a finish threshold are checked
            # exactly, as the oracle checks all.
            clock = cls.clock + cls.rate * (to_time - cls.t_ref)
            bound = (clock + cls.tmax) * (1.0 + 3.0 * _DRIFT)
            for _, fseq, flow in _near(cls.heap, bound):
                if flow.seq == fseq and self._remaining(flow) <= _finish_threshold(
                    flow.total_bits
                ):
                    finished.append(flow)
        for flow in finished:
            # Flush the sub-threshold residue, as the oracle does.
            self._detach(flow)
            self.delivered_bits += flow.remaining_bits
            flow.remaining_bits = 0.0
        if self._finished:
            finished.extend(f for f in self._finished if f.data_start <= to_time)
        if not finished:
            return []
        finished.sort(key=lambda f: f.flow_id)
        done: list[Completion] = []
        for f in finished:
            finish = f.data_start if f.total_bits == 0.0 else to_time
            done.append(Completion(f.flow_id, finish, finish - f.start_time))
            self._remove(f)
        return done

    # ------------------------------------------------------------------
    def _account(self, flow: _PathFlow, bits: float) -> None:
        """Charge ``bits`` to every hop the flow traverses (series)."""
        for link in flow.path.links if bits else ():
            link.delivered_bits += bits

    def _remove(self, flow: _PathFlow) -> None:
        self._ready = None
        self._detach(flow)
        crossed = flow.total_bits - flow.remaining_bits
        self._crossed += crossed
        self._crossed_hops += crossed * len(flow.path.links)
        del self._flows[flow.flow_id]
        for link in flow.path.links:
            del self._link_flows[id(link)][flow.flow_id]
        if self.engine == "class":
            # Everything the flow drained crosses each hop exactly once,
            # charged as it leaves the pool (completion or cancellation).
            self._account(flow, crossed)
