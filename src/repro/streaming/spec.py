"""`FleetSpec`: one validated configuration object for a fleet run.

``simulate_fleet`` and ``shard_fleet`` grew to 11+ loose keyword
arguments that had to be kept in sync by hand, with the cross-field
rules (trace xor topology, policy-vs-topology, faults-need-topology, …)
duplicated in both functions.  :class:`FleetSpec` is the single source
of truth: both entry points accept ``spec=`` and route every legacy
keyword through the same object, so the shim path is bit-exact with the
spec path by construction, and :meth:`FleetSpec.validate` holds each
cross-field rule exactly once.

The spec is also where the historical ``engine`` / ``fleet_engine``
naming collision is retired: the :class:`~repro.net.topology.PathScheduler`
implementation is ``scheduler_engine`` and the session layer is
``session_engine``.  The old names still work — as keyword aliases here
and on both entry points — but emit a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..net.traces import NetworkTrace
    from ..obs import Telemetry
    from .cdn import CDNTopology
    from .control import ControlPlane
    from .cost import CostModel
    from .faults import FaultSchedule, RetryPolicy
    from .fleet import SRResultCache

__all__ = ["FleetSpec"]


@dataclass
class FleetSpec:
    """Everything ``simulate_fleet`` needs beyond the session list.

    Field semantics are those documented on
    :func:`~repro.streaming.fleet.simulate_fleet`; the defaults are the
    entry points' historical defaults, so ``FleetSpec()`` plus a trace
    or topology reproduces a bare call.  ``shard_fleet`` takes the same
    spec verbatim (topology mode only) and forwards it to each shard's
    inner ``simulate_fleet``.

    ``engine=`` and ``fleet_engine=`` are accepted as deprecated
    constructor aliases for ``scheduler_engine`` / ``session_engine``
    and emit a :class:`DeprecationWarning`.
    """

    trace: "NetworkTrace | None" = None
    topology: "CDNTopology | None" = None
    policy: str = "fair"
    sr_cache: "SRResultCache | str | None" = None
    scheduler_engine: str = "class"
    session_engine: str = "machine"
    assignment: list[int] | None = None
    faults: "FaultSchedule | None" = None
    retry_policy: "RetryPolicy | None" = None
    controller: "ControlPlane | None" = None
    telemetry: "Telemetry | None" = None
    cost_model: "CostModel | None" = None
    # -- deprecated aliases (pre-rename keyword names) ------------------
    engine: InitVar[str | None] = None
    fleet_engine: InitVar[str | None] = None

    def __post_init__(
        self, engine: str | None, fleet_engine: str | None
    ) -> None:
        if engine is not None:
            warnings.warn(
                "engine= is deprecated; use scheduler_engine=",
                DeprecationWarning,
                stacklevel=3,
            )
            self.scheduler_engine = engine
        if fleet_engine is not None:
            warnings.warn(
                "fleet_engine= is deprecated; use session_engine=",
                DeprecationWarning,
                stacklevel=3,
            )
            self.session_engine = fleet_engine

    def validate(self) -> None:
        """Enforce every cross-field rule; normalizes empty faults.

        The one home of the checks ``simulate_fleet`` and ``shard_fleet``
        used to duplicate.  Raises ``ValueError`` on the first violated
        rule; an empty fault schedule is normalized to ``None`` (the
        parity convention: no events ≡ no faults).  Session-dependent
        checks (assignment length/bounds) stay with the entry points,
        which hold the session list.
        """
        if (self.trace is None) == (self.topology is None):
            raise ValueError(
                "exactly one of trace and topology must be given"
            )
        if self.topology is not None and self.policy != "fair":
            raise ValueError(
                "policy applies to the single-link mode; a topology's "
                "links carry their own sharing policies (set them at "
                "construction, e.g. uniform_cdn(policy=...))"
            )
        if self.session_engine not in ("machine", "columnar"):
            raise ValueError(
                f"unknown session_engine {self.session_engine!r}; "
                "expected 'machine' or 'columnar'"
            )
        if self.faults is not None and not self.faults:
            self.faults = None  # empty schedule ≡ no faults
        if (
            self.faults is not None or self.controller is not None
        ) and self.topology is None:
            raise ValueError(
                "faults and controller require a topology (fault events "
                "and control actions are defined against CDN edges)"
            )
        if self.retry_policy is not None and self.topology is None:
            raise ValueError(
                "retry_policy requires a topology (timeouts retry "
                "against CDN edges; the single-link mode has no edge "
                "to fail over to)"
            )
        if self.topology is None and self.assignment is not None:
            raise ValueError("assignment requires a topology")
        if isinstance(self.sr_cache, str):
            if self.sr_cache != "per-edge":
                raise ValueError(
                    f"unknown sr_cache mode {self.sr_cache!r}; pass an "
                    "SRResultCache, None, or 'per-edge'"
                )
            if self.topology is None:
                raise ValueError("sr_cache='per-edge' requires a topology")
