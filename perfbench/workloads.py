"""The benchmark's four workloads, built from one workload seed.

Each workload is a fixed batch of work run through the entry points users
already call — :class:`~repro.scenarios.runner.SweepRunner` over a registered
scenario (always ``jobs=1``), or :func:`~repro.scenarios.engine.execute_benchmark`
for a single §5.1 cell.  Calls are submitted up front by the synthetic
client; the crowd's arrivals are scheduled in simulated time.  The workload
seed only chooses the simulator's seeds (via :func:`derive`); the simulator
receives nothing but those generated inputs.

Why each workload is in the benchmark:

``fig7``
    The paper's headline result, Figure 7 at paper scale: 66 cells (11 fault
    rates x {servers, coordinators} x 3 seeds), each 96 calls of 10 s on 16
    servers and 4 coordinators.  Its tables are small and it rebuilds the
    grid 66 times, so grid set-up matters here; coordinator kills drive
    replication merges and the payload codecs.  Table walks that grow with
    the number of calls cost almost nothing here.

``backlog``
    One §5.1 cell with 1 client and 2000 calls of 10 s on 32 servers and 4
    coordinators, with Poisson server kills at 2 per minute.  The costs that
    grow with table size dominate: the coordinator's result-pull walks, the
    client's ``pending_handles`` rescans, the ``MessageLog`` byte totals and
    reschedules on server death (1500 calls take about 2.5 s, 3000 calls
    about 7 s: superlinear).  This is where table-walk indexing should show,
    with ``fig7`` and ``coord-churn`` as controls.  The server count stays
    well below 64 on purpose: at 64 servers the simulated coordinators
    saturate (1000 calls took 4518 simulated s, against 352 s on 32
    servers), so the workload would measure a simulated queue rather than
    the simulator.

``coord-churn``
    ``quorum-survival``'s most volatile arm: coordinator MTBF 90 s, both
    ``policy.repl.*`` arms on one seed with the common-random-numbers pairing
    asserted by the runner, 36 calls per cell, run to the full 4000 s
    horizon.  Few calls and a long horizon make steady background traffic
    dominate: heart-beats, work-request polls, replication pushes and acks,
    freshest-replica recovery.  It uses the coordinator data plane for
    *writes* (replica builds, merges, recoveries) where ``backlog`` uses it
    for *reads* (scheduling picks, result pulls), so a change that helps one
    use at the other's cost shows.

``flash-crowd``
    The paper-scale ``flash-crowd`` sweep: 2 cells, a 50k-client crowd, a
    1x vs 100x surge and a coordinator kill.  It is the only workload that
    runs ``crowd/``, and it loads the coordinators through batched ingest and
    shard handoff; without it one layer would go unmeasured.

``fig11`` is left out: its layer shares repeat ``fig7``'s and its single 2 s
cell was the noisiest candidate measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["DEFAULT_SEED", "HELD_OUT_SEED", "Outcome", "WORKLOADS", "derive", "digest"]

#: the workload seed a run uses when none is given.
DEFAULT_SEED = 1
#: a second seed, not used while the benchmark was tuned, kept for
#: confirming a claimed gain on inputs it was not developed against.
HELD_OUT_SEED = 9001

#: calls in the ``backlog`` cell (see the module docstring for the range).
BACKLOG_CALLS = 2000


def derive(seed: int, label: str, count: int = 1) -> tuple[int, ...]:
    """``count`` distinct simulator seeds for ``label``, drawn from ``seed``.

    String seeding hashes with SHA-512, so the derivation does not depend on
    the interpreter's hash randomisation.
    """
    rng = random.Random(f"perfbench:{label}:{seed}")
    return tuple(rng.sample(range(1, 1_000_000), count))


@dataclass
class Outcome:
    """What one pass of a workload produced."""

    #: the sweep's reduced rows (the figure's data).
    rows: list[dict[str, Any]]
    #: per cell: simulated makespan, calls submitted, calls completed.
    cells: list[dict[str, Any]]
    #: broken invariants (empty when the pass is correct).
    problems: list[str] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        return sum(int(cell["submitted"]) for cell in self.cells)

    @property
    def completed(self) -> int:
        return sum(int(cell["completed"]) for cell in self.cells)

    @property
    def makespan(self) -> float:
        return sum(float(cell["makespan"]) for cell in self.cells)


def digest(outcome: Outcome) -> str:
    """sha256 over canonical JSON of the rows and the per-cell outputs."""
    canonical = json.dumps(
        {"rows": outcome.rows, "cells": outcome.cells},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cell_view(outputs: dict[str, Any]) -> dict[str, Any]:
    return {key: outputs[key] for key in ("makespan", "submitted", "completed")}


def _sweep(name: str, smoke: bool, **kwargs: Any) -> Outcome:
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import SweepRunner

    result = SweepRunner(
        get_scenario(name), scale="tiny" if smoke else None, jobs=1, **kwargs
    ).run()
    outcome = Outcome(
        rows=result.rows, cells=[_cell_view(cell["outputs"]) for cell in result.cells]
    )
    for cell in result.cells:
        if not cell["outputs"].get("finished_in_time", True):
            outcome.problems.append(f"{name} cell {cell['params']} missed its horizon")
    return outcome


def run_fig7(seed: int, smoke: bool = False) -> Outcome:
    return _sweep("fig7", smoke, seeds=derive(seed, "fig7", 1 if smoke else 3))


def run_backlog(seed: int, smoke: bool = False) -> Outcome:
    from repro.scenarios.engine import (
        FaultPlan,
        GridTopology,
        WorkloadSpec,
        execute_benchmark,
    )

    report = execute_benchmark(
        topology=GridTopology(n_servers=8 if smoke else 32, n_coordinators=4),
        workload=WorkloadSpec(n_calls=120 if smoke else BACKLOG_CALLS, exec_time=10.0),
        faults=FaultPlan(
            kind="rate", target="servers", faults_per_minute=2.0, restart_delay=5.0
        ),
        seed=derive(seed, "backlog")[0],
        horizon=20_000.0,
    )
    row = {
        "makespan": report.makespan,
        "submitted": report.submitted,
        "completed": report.completed,
        "faults_injected": report.faults_injected,
        "finished_in_time": report.finished_in_time,
    }
    outcome = Outcome(rows=[row], cells=[_cell_view(row)])
    if not report.finished_in_time:
        outcome.problems.append("backlog missed its horizon")
    return outcome


def run_coord_churn(seed: int, smoke: bool = False) -> Outcome:
    # The runner asserts the quorum-survival spec's paired replication axis:
    # both arms must report identical fault-stream fingerprints.
    return _sweep(
        "quorum-survival",
        smoke,
        seeds=derive(seed, "coord-churn"),
        axes={"mtbf": (45.0,) if smoke else (90.0,)},
        params={"crn_seed": derive(seed, "coord-churn.crn")[0]},
    )


def run_flash_crowd(seed: int, smoke: bool = False) -> Outcome:
    outcome = _sweep(
        "flash-crowd",
        smoke,
        seeds=derive(seed, "flash-crowd"),
        # crn_seed keys the crowd's per-client lanes and the fault streams.
        params={"crn_seed": derive(seed, "flash-crowd.crn")[0]},
    )
    for row in outcome.rows:
        if row["double_committed"]:
            outcome.problems.append(
                f"flash-crowd surge {row['surge_factor']}: "
                f"{row['double_committed']} double commits"
            )
    return outcome


#: workload name -> ``run(seed, smoke)``; ``BENCHMARK.json`` gives each a
#: one-line reason, the module docstring the full one.
WORKLOADS: dict[str, Callable[[int, bool], Outcome]] = {
    "fig7": run_fig7,
    "backlog": run_backlog,
    "coord-churn": run_coord_churn,
    "flash-crowd": run_flash_crowd,
}
