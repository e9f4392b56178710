"""Multi-link path properties: one-hop parity, engine parity, accounting.

The scheduler ships two engines behind one contract: ``scalar`` (per-flow
Python loops, the reference oracle) and ``class`` (one virtual clock per
path class, the default).  Following the repo's oracle-parity convention
(kNN backends, the MPC planner), every property here runs against both
engines, and :class:`TestEngineParity` and :class:`EngineParityMachine`
drive the two engines over the same multi-hop workloads asserting
bit-identical completion streams (stated tolerance: zero).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.net import (
    SCHEDULER_ENGINES,
    Link,
    NetworkPath,
    PathScheduler,
    SharedLink,
    lte_trace,
    path_download_time,
    stable_trace,
)
from repro.net import topology
from repro.streaming.faults import DegradedTrace


def drive(engine):
    """Run an engine's event loop to completion; return all completions."""
    return drive_from(engine, 0.0)


def drive_from(engine, now):
    """Run an engine's event loop from ``now`` to completion."""
    out = []
    guard = 0
    while engine.busy():
        t = engine.next_event(now)
        assert t < float("inf"), "busy pool has no next event"
        out += engine.advance(now, t)
        now = t
        guard += 1
        assert guard < 100_000, "event loop did not converge"
    return out


#: (nbytes, start_time, weight) triples with staggered starts.
flow_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50_000_000),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


@pytest.fixture(params=SCHEDULER_ENGINES)
def engine(request):
    return request.param


class TestOneHopParity:
    """A one-hop PathScheduler must be bit-exact with bare SharedLink."""

    @pytest.mark.parametrize("engine", SCHEDULER_ENGINES)
    @settings(max_examples=60, deadline=None)
    @given(
        flows=flow_lists,
        policy=st.sampled_from(["fair", "weighted"]),
        mean=st.floats(min_value=5.0, max_value=150.0),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_bit_exact_completions(self, engine, flows, policy, mean, seed):
        trace = lte_trace(mean, mean / 3, duration=120.0, seed=seed)
        shared = SharedLink(trace, policy=policy)
        sched = PathScheduler(engine=engine)
        path = NetworkPath((SharedLink(trace, policy=policy),))
        for fid, (nbytes, start, weight) in enumerate(flows):
            shared.add_flow(fid, nbytes, start, weight=weight)
            sched.add_flow(fid, nbytes, start, path, weight=weight)
        a, b = drive(shared), drive(sched)
        assert a == b  # Completion is frozen: == is field-exact

    def test_solo_flow_matches_link_integrator(self, engine):
        """A lone flow resolves through the same segment-exact arithmetic."""
        trace = lte_trace(40, 12, seed=3)
        path = NetworkPath((SharedLink(trace),))
        sched = PathScheduler(engine=engine)
        sched.add_flow(0, 7_654_321, 1.25, path)
        (done,) = drive(sched)
        assert done.elapsed == Link(trace).download_time(7_654_321, 1.25)

    def test_zero_byte_flow_costs_path_rtt(self, engine):
        trace = stable_trace(50.0, rtt=0.025)
        sched = PathScheduler(engine=engine)
        sched.add_flow(0, 0, 2.0, NetworkPath((SharedLink(trace),)))
        (done,) = drive(sched)
        assert done.elapsed == pytest.approx(0.025)
        assert done.finish_time == pytest.approx(2.025)


class TestHopMonotonicity:
    """Adding a hop can never speed a transfer up."""

    @settings(max_examples=40, deadline=None)
    @given(
        flows=flow_lists,
        mean=st.floats(min_value=5.0, max_value=100.0),
        extra_mbps=st.floats(min_value=2.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=10),
    )
    def test_extra_hop_never_faster(self, flows, mean, extra_mbps, seed):
        one = PathScheduler()
        two = PathScheduler()
        first = lte_trace(mean, mean / 3, duration=120.0, seed=seed)
        extra = stable_trace(extra_mbps, duration=120.0, rtt=0.0)
        path_one = NetworkPath((SharedLink(first),))
        path_two = NetworkPath((SharedLink(first), SharedLink(extra)))
        for fid, (nbytes, start, weight) in enumerate(flows):
            one.add_flow(fid, nbytes, start, path_one, weight=weight)
            two.add_flow(fid, nbytes, start, path_two, weight=weight)
        by_id_one = {c.flow_id: c for c in drive(one)}
        for c in drive(two):
            assert c.elapsed >= by_id_one[c.flow_id].elapsed - 1e-9

    def test_slow_middle_hop_is_the_bottleneck(self):
        """Path throughput is the min over hops, not the access link."""
        fast = stable_trace(100.0, rtt=0.0)
        slow = stable_trace(10.0, rtt=0.0)
        sched = PathScheduler()
        sched.add_flow(
            0, 10_000_000, 0.0, NetworkPath((SharedLink(slow), SharedLink(fast)))
        )
        (done,) = drive(sched)
        assert done.elapsed == pytest.approx(80e6 / 10e6)

    def test_path_download_time_one_hop_matches_link(self):
        trace = lte_trace(35, 10, seed=7)
        path = NetworkPath((SharedLink(trace),))
        for nbytes, start in [(0, 0.0), (123, 3.5), (9_999_999, 0.75)]:
            assert path_download_time(path, nbytes, start) == Link(
                trace
            ).download_time(nbytes, start)


class TestSharedHopContention:
    def test_shared_backhaul_splits_between_paths(self):
        """Two flows on disjoint access links sharing one backhaul each
        get half the backhaul when it is the bottleneck."""
        backhaul = SharedLink(stable_trace(20.0, rtt=0.0))
        access_a = SharedLink(stable_trace(100.0, rtt=0.0))
        access_b = SharedLink(stable_trace(100.0, rtt=0.0))
        sched = PathScheduler()
        sched.add_flow(0, 10_000_000, 0.0, NetworkPath((backhaul, access_a)))
        sched.add_flow(1, 10_000_000, 0.0, NetworkPath((backhaul, access_b)))
        done = drive(sched)
        # 80 Mbit each over a shared 20 Mbps hop: both finish at t=8.
        assert [c.finish_time for c in done] == pytest.approx([8.0, 8.0])

    def test_per_link_delivered_accounting(self):
        """Every hop a flow traverses carries its full byte count."""
        backhaul = SharedLink(stable_trace(50.0, rtt=0.0))
        access = SharedLink(stable_trace(50.0, rtt=0.0))
        sched = PathScheduler()
        sched.add_flow(0, 1_000_000, 0.0, NetworkPath((backhaul, access)))
        sched.add_flow(1, 2_000_000, 0.0, NetworkPath((access,)))
        drive(sched)
        assert backhaul.delivered_bits == pytest.approx(8e6)
        assert access.delivered_bits == pytest.approx(24e6)
        assert sched.delivered_bits == pytest.approx(24e6)

    def test_extra_delay_gates_data_start(self):
        """An encode-gated flow starts late but elapsed counts from request."""
        trace = stable_trace(80.0, rtt=0.0)
        plain = PathScheduler()
        plain.add_flow(0, 1_000_000, 0.0, NetworkPath((SharedLink(trace),)))
        (base,) = drive(plain)
        gated = PathScheduler()
        gated.add_flow(
            0, 1_000_000, 0.0, NetworkPath((SharedLink(trace),)), extra_delay=2.5
        )
        (late,) = drive(gated)
        assert late.elapsed == pytest.approx(base.elapsed + 2.5)


#: per-flow (nbytes, start, weight, path index, extra_delay) draws.
engine_flow_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30_000_000),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([0.0, 0.0, 0.5, 2.0]),
    ),
    min_size=1,
    max_size=12,
)


class TestEngineParity:
    """class == scalar, bit for bit, on multi-hop shared-link pools.

    The grid mixes weights, staggered starts, gated (``extra_delay``)
    flows, and one/two/three-hop paths sharing links — the full surface
    the CDN fleet exercises.  Completions must compare equal field for
    field; per-link byte accounting agrees to float tolerance (the class
    engine sums drained bits per class and charges links as flows leave).
    """

    def build(self, engine, flows, policy, mean, seed):
        links = [
            SharedLink(lte_trace(mean, mean / 3, duration=90.0, seed=seed),
                       policy=policy),
            SharedLink(stable_trace(mean * 1.5, duration=90.0, rtt=0.005),
                       policy=policy),
            SharedLink(lte_trace(mean / 2, mean / 6, duration=90.0,
                                 seed=seed + 50), policy=policy),
        ]
        paths = [
            NetworkPath((links[0],)),
            NetworkPath((links[0], links[1])),
            NetworkPath((links[1], links[2])),
            NetworkPath((links[0], links[1], links[2])),
        ]
        sched = PathScheduler(engine=engine)
        for fid, (nbytes, start, weight, path_i, delay) in enumerate(flows):
            sched.add_flow(
                fid, nbytes, start, paths[path_i],
                weight=weight, extra_delay=delay,
            )
        return sched, links

    @settings(max_examples=50, deadline=None)
    @given(
        flows=engine_flow_lists,
        policy=st.sampled_from(["fair", "weighted"]),
        mean=st.floats(min_value=5.0, max_value=120.0),
        seed=st.integers(min_value=0, max_value=8),
    )
    def test_bit_exact_multihop_completions(self, flows, policy, mean, seed):
        scalar, s_links = self.build("scalar", flows, policy, mean, seed)
        klass, c_links = self.build("class", flows, policy, mean, seed)
        assert drive(scalar) == drive(klass)
        assert klass.delivered_bits == pytest.approx(scalar.delivered_bits)
        for sl, cl in zip(s_links, c_links):
            assert cl.delivered_bits == pytest.approx(sl.delivered_bits)
        scalar.check()
        klass.check()

    def test_weighted_denominator_beyond_pairwise_block(self):
        """20 weighted flows, each its own class, over shared hops: the
        class engine must sum each weighted hop's share denominator over
        its active flows in insertion order, as the oracle does, not per
        class (float addition is order-sensitive)."""
        flows = [
            (1_000_000 + 37 * i, 0.25 * (i % 3), 0.3 + 0.17 * i, i % 4, 0.0)
            for i in range(20)
        ]
        scalar, _ = self.build("scalar", flows, "weighted", 60.0, 2)
        klass, _ = self.build("class", flows, "weighted", 60.0, 2)
        assert drive(scalar) == drive(klass)

    def test_weighted_single_link_pool_beyond_pairwise(self):
        """12 concurrent weighted flows in 12 classes on one link, pinned
        against bare SharedLink."""
        trace = lte_trace(50, 15, duration=90.0, seed=3)
        shared = SharedLink(trace, policy="weighted")
        sched = PathScheduler(engine="class")
        path = NetworkPath((SharedLink(trace, policy="weighted"),))
        for fid in range(12):
            nbytes = 800_000 + 12_345 * fid
            start = 0.2 * (fid % 4)
            weight = 0.3 + 0.21 * fid
            shared.add_flow(fid, nbytes, start, weight=weight)
            sched.add_flow(fid, nbytes, start, path, weight=weight)
        assert drive(shared) == drive(sched)

    def test_fair_many_flows_bit_exact(self):
        flows = [
            (500_000 + 991 * i, 0.1 * i, 1.0, i % 4, 0.0) for i in range(24)
        ]
        scalar, _ = self.build("scalar", flows, "fair", 45.0, 5)
        klass, _ = self.build("class", flows, "fair", 45.0, 5)
        assert drive(scalar) == drive(klass)

    def test_settled_drain_records_stay_bit_exact(self, monkeypatch):
        """The class engine settles its drain records every ``_RECORD``
        event steps; a three-step period exercises that on a short run."""
        monkeypatch.setattr(topology, "_RECORD", 3)
        flows = [
            (700_000 + 991 * i, 0.15 * i, 0.5 + 0.5 * (i % 2), i % 4, 0.0)
            for i in range(24)
        ]
        for policy in ("fair", "weighted"):
            scalar, _ = self.build("scalar", flows, policy, 45.0, 5)
            klass, _ = self.build("class", flows, policy, 45.0, 5)
            assert drive(scalar) == drive(klass)

    def test_sync_mid_flight_injection_parity(self):
        """The fleet's deferred-release pattern: sync() at an arbitrary
        instant, then inject a flow — both engines must bank the solo
        flow's progress identically."""
        results = []
        for engine in SCHEDULER_ENGINES:
            trace = stable_trace(40.0, duration=120.0)
            link = SharedLink(trace)
            path = NetworkPath((link,))
            sched = PathScheduler(engine=engine)
            sched.add_flow(0, 10_000_000, 0.0, path)
            sched.next_event(0.0)  # resolves the solo fast path
            sched.sync(1.0)
            sched.add_flow(1, 5_000_000, 1.0, path)
            results.append(drive(sched))
        assert results[0] == results[1]

    def test_sync_draining_solo_to_zero_still_completes(self):
        """A deferred request landing at (or past) the solo flow's finish
        makes sync() empty it outright; the emptied flow must still be
        reported, not lost with the pool spinning forever."""
        results = []
        for engine in SCHEDULER_ENGINES:
            path = NetworkPath((SharedLink(stable_trace(80.0)),))
            sched = PathScheduler(engine=engine)
            sched.add_flow(0, 1_000_000, 0.0, path)  # finishes at ~0.11 s
            sched.next_event(0.0)                    # resolve solo fast path
            sched.sync(1.0)                          # fully drained
            sched.add_flow(1, 1_000, 1.0, path)
            done = drive(sched)
            assert {c.flow_id for c in done} == {0, 1}
            results.append(done)
        assert results[0] == results[1]

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="engine"):
            PathScheduler(engine="quantum")


class EngineParityMachine(RuleBasedStateMachine):
    """Drive ``class`` and ``scalar`` side by side through interleaved
    adds (gated, zero-byte, weighted, multi-hop, over a ``DegradedTrace``
    hop), cancels, syncs and steps, re-using flow ids the way the fleet
    re-issues a cancelled session's request.  After every rule both pools
    hold the same flows and have reported bit-identical completions, in
    the same order.  ``jump`` reproduces the two
    ``sync`` hazards: a driver that lets virtual time run on a resolved
    solo flow without advancing it, then syncs (mid-flight, or at its
    finish so it is emptied outright).
    """

    @initialize(policy=st.sampled_from(["fair", "weighted"]))
    def build(self, policy):
        self.now = 0.0
        self.pools = {}
        self.done = {engine: [] for engine in SCHEDULER_ENGINES}
        for engine in SCHEDULER_ENGINES:
            degraded = DegradedTrace(
                stable_trace(30.0, duration=60.0, rtt=0.002),
                [(2.0, 5.0, 0.5), (4.0, 9.0, 0.25)],
            )
            links = [
                SharedLink(lte_trace(40, 12, duration=60.0, seed=1), policy=policy),
                SharedLink(stable_trace(60.0, duration=60.0, rtt=0.005)),
                SharedLink(degraded, policy=policy),
            ]
            paths = [
                NetworkPath((links[0],)),
                NetworkPath((links[0], links[1])),
                NetworkPath((links[1], links[2])),
                NetworkPath((links[0], links[1], links[2])),
                NetworkPath((links[2],)),
            ]
            self.pools[engine] = (PathScheduler(engine=engine), paths)

    def scheds(self):
        return [pool[0] for pool in self.pools.values()]

    @rule(
        fid=st.integers(0, 7),
        nbytes=st.sampled_from([0, 1, 400, 250_000, 1_000_000, 3_000_000]),
        offset=st.sampled_from([0.0, 0.0, 0.3, 1.5]),
        weight=st.sampled_from([1.0, 0.5, 1.7, 3.0]),
        path_i=st.integers(0, 4),
        delay=st.sampled_from([0.0, 0.0, 0.4, 2.0]),
    )
    def add(self, fid, nbytes, offset, weight, path_i, delay):
        for sched, paths in self.pools.values():
            if sched.has_flow(fid):
                return
            sched.sync(self.now)
            sched.add_flow(
                fid, nbytes, self.now + offset, paths[path_i],
                weight=weight, extra_delay=delay,
            )

    @precondition(lambda self: self.scheds()[0].busy())
    @rule(data=st.data())
    def cancel(self, data):
        fid = data.draw(st.sampled_from(sorted(self.scheds()[0]._flows)))
        for sched in self.scheds():
            sched.sync(self.now)
            sched.cancel(fid)

    @rule()
    def sync(self):
        for sched in self.scheds():
            sched.sync(self.now)

    @rule(dt=st.floats(min_value=0.01, max_value=4.0))
    def step(self, dt):
        target = self.now + dt
        for engine, sched in zip(self.pools, self.scheds()):
            now = self.now
            while sched.busy():
                t = sched.next_event(now)
                if t > target:
                    sched.advance(now, target)
                    break
                self.done[engine] += sched.advance(now, t)
                now = t
        self.now = target

    @precondition(lambda self: self.pools["scalar"][0]._solo_flow() is not None)
    @rule(dt=st.sampled_from([0.05, 0.5, 30.0]))
    def jump(self, dt):
        # Like any driver, never pass an event: at most up to the solo
        # finish, where sync() empties the flow outright.
        finish = min(sched.next_event(self.now) for sched in self.scheds())
        self.now = max(self.now, min(self.now + dt, finish))
        for sched in self.scheds():
            sched.sync(self.now)

    @invariant()
    def same_pools(self):
        scalar, klass = (self.pools[e][0] for e in ("scalar", "class"))
        assert klass.n_flows == scalar.n_flows
        assert sorted(klass._flows) == sorted(scalar._flows)
        assert self.done["class"] == self.done["scalar"]

    def teardown(self):
        if not hasattr(self, "pools"):
            return
        for engine, sched in zip(self.pools, self.scheds()):
            self.done[engine] += drive_from(sched, self.now)
            sched.check()
        self.same_pools()


EngineParityMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestEngineParityMachine = EngineParityMachine.TestCase


class TestSchedulerCheck:
    """``check()`` pins the byte identities and names the broken one."""

    def pool(self, engine):
        backhaul = SharedLink(lte_trace(30, 9, duration=60.0, seed=4))
        access = SharedLink(stable_trace(50.0, duration=60.0))
        sched = PathScheduler(engine=engine)
        for fid in range(4):
            links = (backhaul, access) if fid % 2 else (access,)
            sched.add_flow(fid, 2_000_000 + fid, 0.1 * fid, NetworkPath(links))
        return sched

    def test_drained_pool_passes(self, engine):
        sched = self.pool(engine)
        drive(sched)
        sched.check()

    def test_flow_in_flight_fails(self, engine):
        sched = self.pool(engine)
        with pytest.raises(RuntimeError, match="still in flight"):
            sched.check()

    def test_corrupted_clock_trips_check(self):
        sched = self.pool("class")
        now = 0.0
        for _ in range(4):
            t = sched.next_event(now)
            sched.advance(now, t)
            now = t
        cls = next(iter(sched._classes.values()))
        # Halve the last step of one class's clock (its record of bits
        # served per member): its members drain less than the pool counted.
        cls.drains[-1] *= 0.5
        drive_from(sched, now)
        with pytest.raises(RuntimeError, match="pool delivered_bits"):
            sched.check()

    def test_link_charge_mismatch_trips_check(self, engine):
        sched = self.pool(engine)
        drive(sched)
        next(iter(sched._links.values())).delivered_bits += 8.0
        with pytest.raises(RuntimeError, match="link delivered_bits"):
            sched.check()


class TestValidation:
    def test_path_needs_links(self):
        with pytest.raises(ValueError, match="at least one link"):
            NetworkPath(())

    def test_path_rejects_duplicate_hop(self):
        link = SharedLink(stable_trace(10.0))
        with pytest.raises(ValueError, match="distinct"):
            NetworkPath((link, link))

    def test_add_flow_validation(self):
        sched = PathScheduler()
        path = NetworkPath((SharedLink(stable_trace(10.0)),))
        sched.add_flow(0, 100, 0.0, path)
        with pytest.raises(ValueError, match="already in flight"):
            sched.add_flow(0, 100, 0.0, path)
        with pytest.raises(ValueError, match="non-negative"):
            sched.add_flow(1, -1, 0.0, path)
        with pytest.raises(ValueError, match="non-negative"):
            sched.add_flow(1, 100, -1.0, path)
        with pytest.raises(ValueError, match="positive"):
            sched.add_flow(1, 100, 0.0, path, weight=0.0)
        with pytest.raises(ValueError, match="extra_delay"):
            sched.add_flow(1, 100, 0.0, path, extra_delay=-0.1)
        with pytest.raises(RuntimeError):
            PathScheduler().next_event(0.0)
