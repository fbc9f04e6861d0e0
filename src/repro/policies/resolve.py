"""Turning ``policy.*`` entries into policy instances.

A :class:`~repro.config.PolicyConfig` entry (``protocol.policy.scheduler``
and friends) is a registry key string (``"policy.sched.random"``) or a
``{"name": ..., "params": {...}}`` mapping, resolved through
:mod:`repro.platform.registry` so custom policies plug in by dotted path
exactly like custom injectors.  ``None`` runs the paper's built-in for that
axis.  An entry carries only its algorithm's own parameters: settings that
apply whichever algorithm runs (the replication period, the suspicion
timeout, the reschedule-on-suspicion switch) are read from the tier configs.
"""

from __future__ import annotations

from typing import Any

from repro.config import normalize_policy_entry
from repro.errors import ConfigurationError
from repro.platform.registry import create_component, resolve_component
from repro.policies.base import PolicyBase
from repro.policies.detection import DetectionPolicy, FixedTimeoutDetection
from repro.policies.logging import LoggingPolicy, PessimisticNonBlockingLogging
from repro.policies.replication import PassivePeriodicReplication, ReplicationPolicy
from repro.policies.scheduling import FifoReschedulePolicy, SchedulerPolicy

__all__ = ["normalize_policy_entry", "resolve_policy", "validate_policy_entries"]

#: axis -> (the policy base class its entries must resolve to, the paper's
#: built-in that an unset entry runs).
_AXES: dict[str, tuple[type[PolicyBase], type[PolicyBase]]] = {
    "scheduler": (SchedulerPolicy, FifoReschedulePolicy),
    "replication": (ReplicationPolicy, PassivePeriodicReplication),
    "logging": (LoggingPolicy, PessimisticNonBlockingLogging),
    "detection": (DetectionPolicy, FixedTimeoutDetection),
}


def resolve_policy(axis: str, entry: Any = None) -> Any:
    """A fresh policy instance for one ``policy.<axis>`` entry.

    ``None`` is the paper's built-in: FCFS scheduling, passive periodic
    replication, pessimistic non-blocking logging, fixed-timeout detection.
    """
    expected, builtin = _AXES[axis]
    normalized = normalize_policy_entry(entry, f"policy.{axis}")
    if normalized is None:
        return builtin()
    name, params = normalized
    instance = create_component(name, params)
    if not isinstance(instance, expected):
        raise ConfigurationError(
            f"{axis} policy {name!r} resolved to {type(instance).__name__}, "
            f"which is not a {expected.__name__}"
        )
    return instance


def validate_policy_entries(policy_config: Any) -> None:
    """Fail fast on unresolvable policy entries (CLI pre-sweep validation).

    Checks that every set entry's name resolves through the registry without
    instantiating anything (parameters are validated at construction time,
    inside the cells).
    """
    for axis in _AXES:
        normalized = normalize_policy_entry(getattr(policy_config, axis, None))
        if normalized is not None:
            resolve_component(normalized[0])
