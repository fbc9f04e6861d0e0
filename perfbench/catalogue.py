"""Every metric the benchmark reports, with what it should move.

Host time is what the simulator costs to run; simulated time is what the
modelled grid would take (``sim_makespan_s``).  End-to-end metrics are measured with tracing off;
per-layer metrics come from a separate traced run (see ``tracing.py``).
Counts are deterministic for a given seed and code, so a later change can
cite them exactly.

``BENCHMARK.json`` is the one source of each metric's name, unit, direction
and (end-to-end only) regression bound.  Its schema has no room for the
layer, boundary and target columns, which live here in ``_WHERE``; a metric
listed in one place but not the other stops the benchmark at import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from perfbench.tracing import LAYERS

__all__ = ["END_TO_END", "PER_LAYER", "Metric"]

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    layer: str
    #: where it is measured: the wrapped boundary or the counter it reads.
    boundary: str
    #: the end-to-end metric it should move, and on which workloads.
    moves: str = ""
    on: str = ""
    #: end-to-end only: the share of the parent's median by which it may
    #: worsen before a change counts as a regression.
    bound: float | None = None


_ALL = "fig7, backlog, coord-churn, flash-crowd"

#: name -> (layer, boundary, end-to-end metric it should move, on which workloads)
_WHERE: dict[str, tuple[str, str, str, str]] = {
    # end-to-end
    "wall_s": ("all", "paced host time (pace.py) of one pass, tracing off, minus "
               "setup_s; median of the run's passes", "", ""),
    "setup_s": ("grid", "host time inside build_grid and Grid.start with the "
                "garbage collector paused, each call paced on its own (pace.py), "
                "summed over the pass's cells; median of the run's passes", "", ""),
    "peak_rss_mb": ("all", "peak resident memory (ru_maxrss) of the process, which "
                    "ran only this workload", "", ""),
    "completion_ratio": ("all", "completed calls / submitted calls, crowd clients "
                         "included", "", ""),
    # the simulated outcome: deterministic per seed, but it varies between
    # seeds by more than any end-to-end bound allows (see STEADINESS.md), so
    # it is reported here; the output digest pins it exactly.
    "sim_makespan_s": ("all", "simulated makespan summed over the cells; a change "
                       "that only speeds up the simulator leaves it identical",
                       "", _ALL),
    # sim
    "sim.self_s": ("sim", "Environment.run minus process-resume and callback spans, "
                   "plus resumes of sim-defined processes", "wall_s",
                   "coord-churn (little on backlog)"),
    "sim.events": ("sim", "queue_stats events_processed", "wall_s", "coord-churn"),
    "sim.ns_per_event": ("sim", "sim.self_s / sim.events", "wall_s", "coord-churn"),
    "sim.wheel_flushes": ("sim", "queue_stats wheel_flushes", "wall_s", "coord-churn"),
    # net
    "net.send_s": ("net", "Network.send", "wall_s", "coord-churn, fig7"),
    "net.deliver_s": ("net", "delivery callbacks scheduled by the transport "
                      "(Network._deliver)", "wall_s", "coord-churn, fig7"),
    "net.messages": ("net", "net.sent counter", "wall_s", "coord-churn, fig7"),
    "net.bytes_sent": ("net", "net.bytes_sent counter", "wall_s", "coord-churn, fig7"),
    "net.dropped": ("net", "net.dropped.* counters", "completion_ratio", _ALL),
    "net.pool_hit_rate": ("net", "message-pool hits / acquires during the traced pass",
                          "wall_s", "coord-churn"),
    # core
    "core.handler_s": ("core", "resumes of core-defined processes (coordinator, "
                       "server, client) and core callbacks, minus child spans",
                       "wall_s", "backlog"),
    "core.codec_s": ("core", "CallDescription/ResultRecord/ReplicaState to_payload and "
                     "from_payload; TaskRecord to_replica_entry and from_replica_entry",
                     "wall_s", "fig7 and backlog alike (about 14% of the traced wall "
                     "on both)"),
    "core.codec_calls": ("core", "calls of the codec spans", "wall_s", "fig7"),
    "core.repl.build_s": ("core", "build_state", "wall_s", "coord-churn, fig7"),
    "core.repl.merge_s": ("core", "merge_state", "wall_s", "coord-churn, fig7"),
    "core.repl.rounds": ("core", "coordinator.replications counter", "wall_s",
                         "coord-churn, fig7"),
    "core.repl.bytes": ("core", "size_bytes of every state build_state returned",
                        "wall_s", "coord-churn, fig7"),
    "core.index_s": ("core", "TaskIndex public methods", "wall_s", "backlog"),
    "core.index.notes": ("core", "calls of TaskIndex.note", "wall_s", "backlog"),
    "core.client.pending_scan_s": ("core", "ClientComponent.pending_handles", "wall_s",
                                   "backlog"),
    "core.client.pending_scans": ("core", "calls of ClientComponent.pending_handles",
                                  "wall_s", "backlog"),
    "core.client.sync_s": ("core", "resumes of ClientComponent.synchronize", "wall_s",
                           "backlog"),
    "core.useful_exec_ratio": ("core", "coordinator.results / server.tasks_executed",
                               "sim_makespan_s", "fig7, backlog"),
    "core.upload_retries": ("core", "server.result_upload_retries counter",
                            "sim_makespan_s", "fig7, backlog"),
    # policies
    "policies.pick_s": ("policies", "SchedulerPolicy.pick / choose_indexed / choose",
                        "wall_s", "backlog"),
    "policies.decisions": ("policies", "calls of SchedulerPolicy.pick", "wall_s",
                           "backlog"),
    "policies.reschedule_s": ("policies",
                              "SchedulerPolicy.reschedule_for_suspected_server",
                              "wall_s", "backlog"),
    "policies.rescheduled": ("policies", "tasks re-queued by "
                             "reschedule_for_suspected_server", "sim_makespan_s",
                             "backlog"),
    "policies.quorum_commit_ratio": ("policies", "coordinator.quorum_commits / "
                                     "(quorum_commits + quorum_aborts); 1 when no "
                                     "quorum round ran", "completion_ratio",
                                     "coord-churn"),
    # detect
    "detect.heard_s": ("detect", "FailureDetector.heard_from / is_suspected",
                       "wall_s; sim_makespan_s", "coord-churn"),
    "detect.beat_s": ("detect", "HeartbeatEmitter.beat_now", "wall_s", "coord-churn"),
    "detect.heartbeats": ("detect", "heart-beats sent by beat_now", "wall_s",
                          "coord-churn"),
    "detect.wrong_suspicion_ratio": ("detect", "detect.wrong_suspicions / "
                                     "detect.suspicions; 0 when none",
                                     "sim_makespan_s", "coord-churn"),
    # msglog
    "msglog.self_s": ("msglog", "MessageLog public methods", "wall_s",
                      "backlog (not coord-churn)"),
    "msglog.records": ("msglog", "calls of MessageLog.append", "wall_s", "backlog"),
    # nodes
    "nodes.db_s": ("nodes", "Database.charge_write / charge_read / charge_scan",
                   "wall_s", "backlog"),
    "nodes.db_ops": ("nodes", "calls of the Database spans", "sim_makespan_s",
                     "backlog"),
    "nodes.faults_injected": ("nodes", "faults.* counters", "sim_makespan_s", _ALL),
    # crowd
    "crowd.table_s": ("crowd", "CrowdTable public methods", "wall_s, completion_ratio",
                      "flash-crowd only"),
    "crowd.batches": ("crowd", "crowd.batches_sent counter", "wall_s", "flash-crowd"),
    "crowd.resends": ("crowd", "crowd.batch_resends counter", "completion_ratio",
                      "flash-crowd"),
    # grid
    "grid.build_s": ("grid", "build_grid", "setup_s", "fig7 (66 builds), not backlog"),
    "grid.start_s": ("grid", "Grid.start", "setup_s", "fig7"),
    "grid.builds": ("grid", "calls of build_grid", "setup_s", "fig7"),
    # layer shares of the traced pass (self time / traced wall)
    **{
        f"share.{layer}": (layer, f"self time of every {layer} span / traced wall",
                           "wall_s", "see the layer's own rows")
        for layer in (*LAYERS, "other")
    },
    # the trace itself
    "trace.wall_s": ("all", "host time of one traced pass, speed probes left out",
                     "", _ALL),
    "trace.unattributed_s": ("all", "traced wall minus the sum of every span's self "
                             "time", "", _ALL),
    "trace.overhead_ratio": ("all", "paced traced wall / paced untraced wall of the "
                             "same run", "", _ALL),
}


def _metrics(section: list[dict]) -> tuple[Metric, ...]:
    return tuple(Metric(**entry, **dict(zip(("layer", "boundary", "moves", "on"),
                                            _WHERE[entry["name"]])))
                 for entry in section)


_SPEC = json.loads(SPEC_FILE.read_text())
END_TO_END = _metrics(_SPEC["end_to_end"])
PER_LAYER = _metrics(_SPEC["per_layer"])

_unlisted = set(_WHERE) - {m.name for m in (*END_TO_END, *PER_LAYER)}
if _unlisted:
    raise ValueError(f"catalogue rows missing from BENCHMARK.json: {sorted(_unlisted)}")
