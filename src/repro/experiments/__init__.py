"""Experiment drivers: one module per figure of the paper's evaluation.

Every figure is registered as a declarative scenario (see
:mod:`repro.scenarios`): importing this package populates the registry, which
is how ``python -m repro list`` finds the figures.  Every driver also keeps a
``run_*`` wrapper returning plain rows (lists of dictionaries) that print as
the series the paper plots; the benchmark harness under ``benchmarks/``
simply calls these with scaled-down parameters.
"""

from repro.experiments.fig4_message_logging import run_fig4_vs_calls, run_fig4_vs_size
from repro.experiments.fig5_replication import run_fig5_vs_count, run_fig5_vs_size
from repro.experiments.fig6_synchronization import run_fig6_vs_calls, run_fig6_vs_size
from repro.experiments.fig7_fault_frequency import run_fig7
from repro.experiments.fig8_task_durations import run_fig8
from repro.experiments.fig9_reference import run_fig9
from repro.experiments.fig10_coordinator_faults import run_fig10
from repro.experiments.fig11_partition import run_fig11
from repro.experiments.ablations import run_baseline_ablation, run_detector_ablation

__all__ = [
    "run_baseline_ablation",
    "run_detector_ablation",
    "run_fig10",
    "run_fig11",
    "run_fig4_vs_calls",
    "run_fig4_vs_size",
    "run_fig5_vs_count",
    "run_fig5_vs_size",
    "run_fig6_vs_calls",
    "run_fig6_vs_size",
    "run_fig7",
    "run_fig8",
    "run_fig9",
]
