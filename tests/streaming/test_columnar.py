"""Columnar session engine: sixth instance of the oracle-parity convention.

``simulate_fleet(session_engine="columnar")`` replaces the per-session
``SessionMachine`` generators with struct-of-arrays state
(:class:`~repro.streaming.columnar.ColumnarFleet`).  The machine engine
stays the bit-exact oracle: the hypothesis grid below pins the columnar
path against it across single-link/CDN serving, SR-cache modes, churn,
startup payloads, and the fault-free control-plane configurations —
joining kNN backends, vectorized MPC, PathScheduler engines, the sharded
executor, and the disabled-mode fault machinery.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import QoEModel
from repro.net import stable_trace
from repro.streaming import (
    AbandonPolicy,
    BackhaulDegradation,
    ContinuousMPC,
    ControlPlane,
    ControlPolicy,
    EdgeOutage,
    FaultSchedule,
    FleetSession,
    SessionConfig,
    SRQualityModel,
    SRResultCache,
    get_policy,
    shard_fleet,
    simulate_fleet,
    uniform_cdn,
)

from .helpers import FixedDensity, spec, sr_lat


def make_sessions(n, n_videos=3, churn=True, startup_bytes=0):
    qm = SRQualityModel()
    lat = sr_lat()
    ctrl = ContinuousMPC(qm, QoEModel(), lat, n_grid=8, horizon=2)
    config = (
        SessionConfig(startup_bytes=startup_bytes) if startup_bytes else None
    )
    return [
        FleetSession(
            spec=spec(6, name=f"v{i % n_videos}"),
            controller=ctrl,
            sr_latency=lat,
            quality_model=qm,
            config=config,
            join_time=1.5 * i,
            churn=AbandonPolicy(max_total_stall=20.0) if churn else None,
        )
        for i in range(n)
    ]


def make_topology(n_edges, encode_seconds=0.0, cache_bytes=1 << 32):
    return uniform_cdn(
        n_edges,
        access_mbps=80.0,
        backhaul_mbps=30.0,
        cache_bytes=cache_bytes,
        assignment="static",
        n_encode_workers=3,
        encode_seconds=encode_seconds,
    )


def assert_identical(a, b):
    assert a.report == b.report
    assert len(a.sessions) == len(b.sessions)
    for ra, rb in zip(a.sessions, b.sessions):
        assert ra == rb
    assert a.assignment == b.assignment
    assert a.end_times == b.end_times


class TestColumnarParity:
    """session_engine='columnar' == session_engine='machine', bit for bit."""

    @given(
        n_sessions=st.integers(3, 8),
        mode=st.sampled_from(["link", "cdn-1", "cdn-3"]),
        encode_seconds=st.sampled_from([0.0, 0.05]),
        sr_mode=st.sampled_from(["none", "per-edge", "shared"]),
        churn=st.booleans(),
        startup_bytes=st.sampled_from([0, 200_000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_grid(
        self, n_sessions, mode, encode_seconds, sr_mode, churn, startup_bytes
    ):
        if mode == "link" and sr_mode == "per-edge":
            sr_mode = "shared"  # per-edge SR caches need a topology

        def run(session_engine):
            kw = {}
            if mode == "link":
                kw["trace"] = stable_trace(60.0, duration=600.0)
            else:
                kw["topology"] = make_topology(
                    int(mode.split("-")[1]), encode_seconds=encode_seconds
                )
            sr = {
                "none": None,
                "per-edge": "per-edge",
                "shared": SRResultCache(),
            }[sr_mode]
            return simulate_fleet(
                make_sessions(
                    n_sessions, churn=churn, startup_bytes=startup_bytes
                ),
                sr_cache=sr,
                session_engine=session_engine,
                **kw,
            )

        assert_identical(run("machine"), run("columnar"))

    def test_degradation_parity(self):
        """Backhaul degradations act through the trace wrapper, so the
        columnar engine supports them; outcomes must match the oracle."""
        faults = FaultSchedule((
            BackhaulDegradation(edge=0, start=2.0, duration=5.0, factor=0.2),
        ))

        def run(session_engine):
            return simulate_fleet(
                make_sessions(6),
                topology=make_topology(2),
                faults=faults,
                session_engine=session_engine,
            )

        a, b = run("machine"), run("columnar")
        assert_identical(a, b)
        assert a.report.faults_injected == 1

    def test_active_controller_parity(self):
        """A control plane that actually re-steers (skewed explicit
        assignment) and resizes the encode pool must see identical live
        health/load state from both engines."""
        def run(session_engine):
            return simulate_fleet(
                make_sessions(8, churn=False),
                topology=make_topology(3, encode_seconds=0.2),
                assignment=[0] * 6 + [1, 2],
                sr_cache="per-edge",
                controller=ControlPlane(
                    ControlPolicy(interval=1.0, saturation_factor=1.5)
                ),
                session_engine=session_engine,
            )

        a, b = run("machine"), run("columnar")
        assert a.report.control_ticks > 0
        assert a.report == b.report
        assert a.sessions == b.sessions
        assert a.assignment == b.assignment

    def test_sharded_columnar_parity(self):
        """session_engine plumbs through the sharded executor: workers=1
        columnar matches both its own simulate_fleet and the oracle."""
        ref = simulate_fleet(
            make_sessions(8),
            topology=make_topology(2),
            sr_cache="per-edge",
        )
        sharded = shard_fleet(
            make_sessions(8),
            make_topology(2),
            workers=1,
            sr_cache="per-edge",
            session_engine="columnar",
        )
        assert_identical(ref, sharded)

    def test_scheduler_engines_compose(self):
        """The session layer and the network scheduler select
        independently: columnar over the scalar scheduler still matches."""
        a = simulate_fleet(
            make_sessions(5), topology=make_topology(2), scheduler_engine="scalar"
        )
        b = simulate_fleet(
            make_sessions(5),
            topology=make_topology(2),
            scheduler_engine="scalar",
            session_engine="columnar",
        )
        assert_identical(a, b)


class TestZooColumnarParity:
    """Policy-zoo entry in the oracle-parity convention: every registry
    controller must produce identical fleets on both session engines
    (the zoo's vectorized ``decide_columns`` against the machine
    engine's per-session path)."""

    @pytest.mark.parametrize(
        "name",
        ["bola", "throughput", "hybrid", "discrete-mpc", "buffer-linear"],
    )
    def test_policy_engine_parity(self, name):
        qm = SRQualityModel()
        lat = sr_lat()

        def run(session_engine):
            ctrl = get_policy(
                name, quality_model=qm, sr_latency=lat, n_grid=8, horizon=2
            )
            sessions = [
                FleetSession(
                    spec=spec(6, name=f"v{i % 3}"),
                    controller=ctrl,
                    sr_latency=lat,
                    quality_model=qm,
                    join_time=1.0 * i,
                    churn=AbandonPolicy(max_total_stall=20.0),
                )
                for i in range(6)
            ]
            return simulate_fleet(
                sessions,
                topology=make_topology(2),
                sr_cache="per-edge",
                session_engine=session_engine,
            )

        assert_identical(run("machine"), run("columnar"))


class TestColumnarValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="session_engine"):
            simulate_fleet(
                make_sessions(2),
                trace=stable_trace(60.0, duration=600.0),
                session_engine="vectorized",
            )

    def test_outages_run_on_columnar(self):
        """Edge outages used to be rejected on the columnar engine; the
        evacuation path is now engine-agnostic and must match the
        machine oracle, failover included."""
        faults = FaultSchedule((EdgeOutage(edge=0, start=2.0, duration=9.0),))

        def run(session_engine):
            return simulate_fleet(
                make_sessions(6),
                topology=make_topology(2),
                faults=faults,
                session_engine=session_engine,
            )

        a, b = run("machine"), run("columnar")
        assert_identical(a, b)
        assert a.report.sessions_resteered > 0

    def test_empty_schedule_allowed(self):
        a = simulate_fleet(
            make_sessions(3),
            topology=make_topology(2),
            faults=FaultSchedule(),
            session_engine="columnar",
        )
        b = simulate_fleet(make_sessions(3), topology=make_topology(2))
        assert a.report == b.report


class TestColumnarUnits:
    """Direct unit coverage of the array container."""

    def test_decide_columns_default_matches_decide(self):
        """The AbrController.decide_columns default must agree with
        per-row decide for non-MPC controllers (BufferBased et al.)."""
        from repro.streaming.columnar import ColumnarFleet

        sessions = [
            FleetSession(
                spec=spec(4, name="v0"),
                controller=FixedDensity(0.5),
                join_time=0.0,
            )
            for _ in range(3)
        ]
        fleetcols = ColumnarFleet(sessions, [None] * 3)
        _, first = fleetcols.initial_requests()
        out = fleetcols.decide(first)
        assert len(out) == 3
        assert all(req.nbytes > 0 for _, req in out)

    def test_co_watchers_share_chunk_lists(self):
        from repro.streaming.columnar import ColumnarFleet

        v = spec(4, name="shared")
        sessions = [
            FleetSession(spec=v, controller=FixedDensity(0.5))
            for _ in range(2)
        ]
        cols = ColumnarFleet(sessions, [None, None])
        assert cols.chunks[0] is cols.chunks[1]

    def test_never_churning_thresholds_are_inf(self):
        from repro.streaming.columnar import ColumnarFleet

        sessions = [
            FleetSession(spec=spec(4), controller=FixedDensity(0.5)),
            FleetSession(
                spec=spec(4),
                controller=FixedDensity(0.5),
                churn=AbandonPolicy(max_total_stall=3.0, max_single_stall=1.0),
            ),
        ]
        cols = ColumnarFleet(sessions, [None, None])
        assert math.isinf(cols.churn_total[0])
        assert math.isinf(cols.churn_single[0])
        assert cols.churn_total[1] == 3.0
        assert cols.churn_single[1] == 1.0
