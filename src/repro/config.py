"""Protocol and platform parameter sets.

All tunables of the system are grouped into small frozen-ish dataclasses so a
scenario is fully described by values (no hidden globals), mirroring how the
paper states its experimental settings:

* heart-beat period 5 s, suspicion after 30 s of silence (confined cluster);
* coordinator replication period 60 s (Internet testbed);
* 16 servers, 4 coordinators, 1 client on the confined cluster.

Each setting has one home.  Which algorithm runs on a decision axis is a
``policy.*`` entry (:class:`PolicyConfig`), carrying only that algorithm's
own parameters; a setting that applies whichever algorithm runs — the
replication period, the suspicion timeout, the reschedule-on-suspicion
switch — lives on the tier config alone.  :func:`apply_protocol_overrides`
edits either by dotted path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "FaultDetectionConfig",
    "LoggingConfig",
    "PolicyConfig",
    "ReplicationConfig",
    "SchedulerConfig",
    "ClientConfig",
    "CoordinatorConfig",
    "ServerConfig",
    "ProtocolConfig",
    "apply_protocol_overrides",
    "normalize_policy_entry",
]


@dataclass
class FaultDetectionConfig:
    """Heart-beat based unreliable failure detection parameters."""

    #: period between two heart-beat signals (seconds); 5 s in the paper.
    heartbeat_period: float = 5.0
    #: silence after which a component is suspected (seconds); 30 s in the paper.
    suspicion_timeout: float = 30.0
    #: initial grace period before the first suspicion can be raised.
    startup_grace: float = 0.0

    def validate(self) -> None:
        if self.heartbeat_period <= 0:
            raise ConfigurationError("heartbeat_period must be positive")
        if self.suspicion_timeout <= self.heartbeat_period:
            raise ConfigurationError(
                "suspicion_timeout must exceed heartbeat_period "
                f"({self.suspicion_timeout} <= {self.heartbeat_period})"
            )
        if self.startup_grace < 0:
            raise ConfigurationError("startup_grace must be non-negative")


@dataclass
class LoggingConfig:
    """Client-side sender-based message logging parameters."""

    #: capacity of the local log in bytes before garbage collection triggers.
    capacity_bytes: int = 4 * 1024 * 1024 * 1024
    #: fraction of the capacity to free when garbage collection runs.
    gc_target_fraction: float = 0.5
    #: whether garbage collection may stall computation instead of flushing
    #: logs still potentially useful (the paper's alternative trade-off).
    prefer_stall_over_flush: bool = False

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        if not 0.0 < self.gc_target_fraction <= 1.0:
            raise ConfigurationError("gc_target_fraction must be in (0, 1]")


@dataclass
class ReplicationConfig:
    """Passive replication of coordinator state over the virtual ring."""

    #: period between two state propagations to the ring successor (seconds);
    #: 60 s for the Internet testbed, one heart-beat period on the cluster.
    period: float = 60.0

    def validate(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("replication period must be positive")


@dataclass
class SchedulerConfig:
    """Coordinator-side scheduling settings shared by every ``policy.sched.*``."""

    #: re-schedule all tasks of a suspected server ("on suspicion" replication).
    reschedule_on_suspicion: bool = True


@dataclass
class ClientConfig:
    """Client component parameters."""

    logging: LoggingConfig = field(default_factory=LoggingConfig)
    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: period at which the client pulls the coordinator for results (seconds).
    result_poll_period: float = 1.0
    #: per-RPC computation the client performs between two submissions
    #: (seconds); the "inter-RPC application computation time" of Fig. 4's
    #: discussion.
    inter_rpc_compute: float = 0.0
    #: how long the client waits for a coordinator reply before re-sending the
    #: request (the coordinator is only *switched* once the suspicion timeout
    #: elapses without hearing anything from it).
    request_retry: float = 10.0

    def validate(self) -> None:
        self.logging.validate()
        self.detection.validate()
        if self.result_poll_period <= 0:
            raise ConfigurationError("result_poll_period must be positive")
        if self.inter_rpc_compute < 0:
            raise ConfigurationError("inter_rpc_compute must be non-negative")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")


@dataclass
class CoordinatorConfig:
    """Coordinator component parameters."""

    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: fixed middleware processing time charged per handled request (job
    #: translation, HTTP/serialisation layers of XtremWeb), on top of the
    #: database costs.  This is what produces the paper's ~17 % infrastructure
    #: overhead on the 96x10 s benchmark.
    request_processing_overhead: float = 0.08
    #: maintain the incremental :class:`~repro.core.taskindex.TaskIndex` over
    #: the task table (O(log n) scheduling, O(dirty) replication builds, O(1)
    #: state counts).  Off restores the legacy scan-everything data plane —
    #: behaviorally identical, kept for equivalence tests and as the
    #: benchmark's head-to-head baseline.
    use_task_index: bool = True

    def validate(self) -> None:
        self.replication.validate()
        self.detection.validate()
        if self.request_processing_overhead < 0:
            raise ConfigurationError(
                "request_processing_overhead must be non-negative"
            )


@dataclass
class ServerConfig:
    """Server (worker) component parameters."""

    detection: FaultDetectionConfig = field(default_factory=FaultDetectionConfig)
    #: number of concurrent task slots.
    slots: int = 1
    #: how long the server waits after a NO_WORK answer before asking again.
    work_poll_period: float = 2.0
    #: how long the server waits for a coordinator reply before re-sending.
    request_retry: float = 10.0

    def validate(self) -> None:
        self.detection.validate()
        if self.slots < 1:
            raise ConfigurationError("slots must be >= 1")
        if self.work_poll_period <= 0:
            raise ConfigurationError("work_poll_period must be positive")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")


def normalize_policy_entry(
    entry: Any, label: str = "policy entry"
) -> tuple[str, dict[str, Any]] | None:
    """``entry`` -> ``(name, params)``, or ``None`` when unset.

    Accepted shapes: ``None``, a registry key / dotted-path string, or a
    mapping with a ``"name"`` key and optional ``"params"``.
    """
    if entry is None:
        return None
    if isinstance(entry, str):
        if not entry:
            raise ConfigurationError(f"{label} must be a non-empty name")
        return entry, {}
    if isinstance(entry, Mapping):
        name = entry.get("name")
        if not name:
            raise ConfigurationError(f"{label} {dict(entry)!r} has no 'name' key")
        return str(name), dict(entry.get("params") or {})
    raise ConfigurationError(
        f"{label} must be a name or a {{'name', 'params'}} mapping, got {entry!r}"
    )


@dataclass
class PolicyConfig:
    """Registry-resolved strategy selection (the ``policy.*`` component keys).

    Each entry is ``None`` (the paper's built-in), a registry key /
    dotted-path string such as ``"policy.sched.random"``, or a
    ``{"name": ..., "params": {...}}`` mapping.  Resolution lives in
    :mod:`repro.policies.resolve`; this class only carries the selection, so
    it stays importable without the policy implementations.
    """

    #: coordinator scheduling policy (``policy.sched.*``).
    scheduler: Any = None
    #: coordinator replication policy (``policy.repl.*``).
    replication: Any = None
    #: client logging policy (``policy.log.*``).
    logging: Any = None
    #: failure-detection policy (``policy.detect.*``), shared by the
    #: coordinator's server/ring detectors and the server's coordinator
    #: detector.
    detection: Any = None

    def validate(self) -> None:
        for axis in fields(self):
            normalize_policy_entry(getattr(self, axis.name), f"policy.{axis.name}")


@dataclass
class ProtocolConfig:
    """The full protocol parameter set shared by a scenario."""

    client: ClientConfig = field(default_factory=ClientConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    #: ``policy.*`` selections; ``None`` entries run the paper's built-ins.
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> "ProtocolConfig":
        self.client.validate()
        self.coordinator.validate()
        self.server.validate()
        self.policy.validate()
        return self


def _field_names(target: Any) -> list[str]:
    """The settable keys at one segment of an override path."""
    return [f.name for f in fields(target)] if is_dataclass(target) else []


def apply_protocol_overrides(
    protocol: ProtocolConfig, overrides: Mapping[str, Any]
) -> ProtocolConfig:
    """Apply dotted-path overrides (``"coordinator.replication.period"``).

    Every path must name a config field — typos (and method names) are
    configuration errors, not silent no-ops, and the error names the valid
    keys at the failing segment.  The mutated config is re-validated.
    """
    for path, value in overrides.items():
        target: Any = protocol
        parts = path.split(".")
        for index, part in enumerate(parts):
            keys = _field_names(target)
            if part not in keys:
                at = ".".join(parts[:index]) or "the protocol root"
                raise ConfigurationError(
                    f"unknown protocol path {path!r}: {part!r} is not a key "
                    f"of {at} (valid keys: {', '.join(sorted(keys)) or '<none>'})"
                )
            if index < len(parts) - 1:
                target = getattr(target, part)
        setattr(target, parts[-1], value)
    return protocol.validate()
