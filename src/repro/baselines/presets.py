"""Protocol presets for the baseline systems, as declarative policy bundles.

Each baseline of the paper's comparison is a *bundle*: a mapping of
dotted-path protocol overrides — ``policy.*`` entries naming the algorithm
on a decision axis, plus the tier settings that differ from the defaults —
in the same format as ``--set`` on the CLI and a spec's
``protocol_overrides``.  :func:`protocol_from_bundle` applies one to a
default :class:`~repro.config.ProtocolConfig`.

Bundles are plain data: copy one, swap an entry, and a new protocol
ablation needs no code.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import ProtocolConfig, apply_protocol_overrides
from repro.errors import ConfigurationError

__all__ = [
    "POLICY_BUNDLES",
    "protocol_from_bundle",
    "rpcv_protocol",
    "no_fault_tolerance_protocol",
    "netsolve_style_protocol",
]

#: the three baseline systems of the paper's comparison, one bundle each.
POLICY_BUNDLES: dict[str, dict[str, Any]] = {
    # The full RPC-V configuration used throughout the experiments.
    "rpc-v": {
        "policy.scheduler": "policy.sched.fifo-reschedule",
        "policy.replication": "policy.repl.passive-periodic",
        "policy.logging": "policy.log.pessimistic-nonblocking",
        "coordinator.replication.period": 5.0,
    },
    # Ninf/RCS-style: no replication, no rescheduling, no durable client
    # logs.  Submissions still reach the middle tier (the architecture is
    # shared), but nothing protects the execution: a lost coordinator or
    # server simply loses whatever it was holding until the application
    # notices by itself.
    "no-fault-tolerance": {
        "policy.replication": "policy.repl.none",
        "policy.logging": "policy.log.optimistic",
        "coordinator.scheduler.reschedule_on_suspicion": False,
    },
    # NetSolve-style: server fault tolerance only.  The agent (coordinator)
    # reschedules RPCs when it suspects a server, but it is a single point
    # of failure (no passive replication) and the client keeps no durable
    # logs — "agent and client fault tolerance is not supported".
    "netsolve-style": {
        "policy.replication": "policy.repl.none",
        "policy.logging": "policy.log.optimistic",
    },
}


def protocol_from_bundle(bundle: Mapping[str, Any] | str) -> ProtocolConfig:
    """A default configuration with ``bundle`` (or the one of that name in
    :data:`POLICY_BUNDLES`) applied."""
    if isinstance(bundle, str):
        try:
            bundle = POLICY_BUNDLES[bundle]
        except KeyError:
            known = ", ".join(sorted(POLICY_BUNDLES))
            raise ConfigurationError(
                f"unknown policy bundle {bundle!r} (known: {known})"
            ) from None
    return apply_protocol_overrides(ProtocolConfig(), bundle)


def rpcv_protocol() -> ProtocolConfig:
    """The full RPC-V configuration used throughout the experiments."""
    return protocol_from_bundle("rpc-v")


def no_fault_tolerance_protocol() -> ProtocolConfig:
    """Ninf/RCS-style: no replication, no rescheduling, no durable client logs."""
    return protocol_from_bundle("no-fault-tolerance")


def netsolve_style_protocol() -> ProtocolConfig:
    """NetSolve-style: server fault tolerance only."""
    return protocol_from_bundle("netsolve-style")
