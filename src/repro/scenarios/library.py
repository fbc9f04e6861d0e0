"""Scenarios beyond the paper's figures.

This is where new workloads enter the registry as ~30-line declarative specs
instead of new driver modules.  ``churn-survival`` sweeps a volatile desktop
grid: every server lives through exponential up/down cycles (see
:mod:`repro.nodes.churn`), some departures permanent, and the question is how
the makespan and completion degrade as the mean time between failures shrinks
— the "volatile nodes" regime the paper targets but never sweeps.
``sched-ablation`` sweeps the coordinator's scheduling policy axis over the
``policy.sched.*`` family on a heterogeneous batch.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.engine import benchmark_cell
from repro.scenarios.reducers import grouped, mean
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Axis, CellResult, ScenarioSpec

__all__ = ["CHURN_SURVIVAL", "SCHED_ABLATION", "SCHEDULER_POLICIES"]


def _churn_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per MTBF point: mean makespan/overhead, worst-case completion."""
    rows: list[dict[str, Any]] = []
    for (mtbf,), cells in grouped(results, ("mtbf",)).items():
        rows.append(
            {
                "server_mtbf_seconds": mtbf,
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "mean_overhead_vs_ideal": mean(
                    c.outputs["overhead_vs_ideal"] for c in cells
                ),
                "min_completion_ratio": min(
                    c.outputs["completed"] / max(c.outputs["submitted"], 1)
                    for c in cells
                ),
                "departures": sum(c.outputs["faults_injected"] for c in cells),
                "all_finished": all(c.outputs["finished_in_time"] for c in cells),
            }
        )
    return rows


@scenario("churn-survival")
def _churn_survival() -> ScenarioSpec:
    return ScenarioSpec(
        name="churn-survival",
        title="Synthetic benchmark on a volatile grid vs server MTBF",
        figure=None,
        description=(
            "Every server churns independently (exponential up/down cycles, a "
            "few permanent departures); sweep the MTBF down from calm to "
            "hostile and watch completion survive rescheduling."
        ),
        cell=benchmark_cell,
        base=dict(
            n_calls=48,
            exec_time=5.0,
            n_servers=8,
            n_coordinators=4,
            mttr=20.0,
            permanent_fraction=0.05,
            horizon=6000.0,
        ),
        axes=(Axis("mtbf", (900.0, 300.0, 120.0, 60.0)),),
        seeds=(3, 5, 9),
        outputs=("makespan", "completed", "faults_injected", "overhead_vs_ideal"),
        # The injector is a named platform component, not fault-plan keywords:
        # the swept MTBF (and the repair/permanence knobs from base) reach it
        # through $-interpolation against each cell's parameters.
        components=(
            {
                "name": "inject.churn",
                "params": {
                    "target": "servers",
                    "mtbf": "$mtbf",
                    "mttr": "$mttr",
                    "permanent_fraction": "$permanent_fraction",
                },
            },
        ),
        scales={
            # Small enough for CI, volatile enough that departures do happen:
            # the ideal time (12 x 5 s / 2 servers = 30 s) spans several MTBFs.
            "tiny": dict(
                n_calls=12, exec_time=5.0, n_servers=2, n_coordinators=2,
                mttr=5.0, mtbf=(20.0, 6.0), seeds=(3,), horizon=2500.0,
            ),
        },
        reduce=_churn_rows,
    )


CHURN_SURVIVAL = _churn_survival


#: every built-in coordinator scheduling policy, in sweep order.
SCHEDULER_POLICIES = (
    "policy.sched.fifo-reschedule",
    "policy.sched.random",
    "policy.sched.round-robin",
    "policy.sched.fastest-first",
)


def _sched_rows(results: list[CellResult]) -> list[dict[str, Any]]:
    """One row per scheduling policy: makespan/overhead means over the seeds."""
    rows: list[dict[str, Any]] = []
    for (policy,), cells in grouped(results, ("scheduler_policy",)).items():
        rows.append(
            {
                "scheduler_policy": policy,
                "mean_makespan_seconds": mean(c.outputs["makespan"] for c in cells),
                "mean_overhead_vs_ideal": mean(
                    c.outputs["overhead_vs_ideal"] for c in cells
                ),
                "all_completed": all(
                    c.outputs["completed"] >= c.outputs["submitted"] for c in cells
                ),
                "faults": sum(c.outputs["faults_injected"] for c in cells),
            }
        )
    return rows


@scenario("sched-ablation")
def _sched_ablation() -> ScenarioSpec:
    return ScenarioSpec(
        name="sched-ablation",
        title="Makespan under each coordinator scheduling policy",
        figure=None,
        description=(
            "The synthetic benchmark with heterogeneous task durations and "
            "server faults, swept over the policy.sched.* registry: FCFS vs "
            "random vs round-robin vs fastest-first.  Each policy is a "
            "registry key on the swept axis — no flags, no code."
        ),
        cell=benchmark_cell,
        base=dict(
            n_calls=96,
            exec_time=10.0,
            exec_time_spread=3.0,
            n_servers=16,
            n_coordinators=4,
            fault_kind="rate",
            fault_target="servers",
            faults_per_minute=2.0,
            restart_delay=5.0,
            horizon=6000.0,
        ),
        axes=(Axis("scheduler_policy", SCHEDULER_POLICIES),),
        seeds=(7, 11),
        outputs=(
            "makespan",
            "submitted",
            "completed",
            "faults_injected",
            "overhead_vs_ideal",
        ),
        scales={
            "tiny": dict(
                n_calls=24, exec_time=4.0, n_servers=4, n_coordinators=2,
                faults_per_minute=3.0, seeds=(7,), horizon=3000.0,
            ),
        },
        reduce=_sched_rows,
    )


SCHED_ABLATION = _sched_ablation
