"""Self-checks of the benchmark, at smoke scale so they stay fast.

* Two traced passes of the same code give identical work counts, and both
  reproduce the untraced output digest (tracing changes nothing simulated).
* Leaving a traced pass restores every patched attribute.
* A paced pass keeps the output digest, paces its set-up calls, keeps its
  probes out of traced spans' self time, and gives ``SIGALRM`` back.
* ``BENCHMARK.json`` names the workloads, and the default and held-out
  seeds have recorded output digests.
"""

from __future__ import annotations

import json
import signal
from pathlib import Path

import pytest

from perfbench.catalogue import PER_LAYER
from perfbench.pace import Pacer
from perfbench.run import layer_metrics
from perfbench.tracing import setup_timer, traced
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, derive, digest

ROOT = Path(__file__).resolve().parent.parent
COUNTS = [metric.name for metric in PER_LAYER if metric.unit in ("count", "bytes")]
_POOL = {"hits": 0, "misses": 0}


def _traced_smoke(name: str, seed: int):
    with traced() as tracer:
        outcome = WORKLOADS[name](seed, True)
    metrics = layer_metrics(tracer, 1.0, _POOL, _POOL)
    return outcome, {key: metrics[key] for key in COUNTS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_keep_the_digest(name):
    untraced = WORKLOADS[name](3, True)
    first, first_counts = _traced_smoke(name, 3)
    second, second_counts = _traced_smoke(name, 3)
    assert digest(first) == digest(second) == digest(untraced)
    assert first_counts == second_counts
    assert first_counts["sim.events"] > 0
    assert first_counts["net.messages"] > 0
    assert first_counts["grid.builds"] == len(untraced.cells)
    assert untraced.completed == untraced.submitted
    assert not untraced.problems


def test_tracing_restores_every_patched_attribute():
    from repro.grid.builder import Grid
    from repro.net.transport import Network
    from repro.scenarios import engine
    from repro.sim.core import Environment

    before = (
        dict(vars(Environment)),
        dict(vars(Network)),
        dict(vars(Grid)),
        engine.build_confined_cluster,
    )
    with traced():
        assert vars(Environment)["process"] is not before[0]["process"]
    with setup_timer():
        pass
    after = (dict(vars(Environment)), dict(vars(Network)), dict(vars(Grid)),
             engine.build_confined_cluster)
    assert after == before


def test_paced_pass_keeps_the_digest_and_leaves_probes_out_of_spans():
    untraced = WORKLOADS["backlog"](3, True)
    handler = signal.getsignal(signal.SIGALRM)
    pacer = Pacer()
    with setup_timer(around=pacer.timed), pacer:
        paced = WORKLOADS["backlog"](3, True)
    assert digest(paced) == digest(untraced)
    assert pacer.timed_host > 0 and pacer.timed_paced > 0 and pacer.scale() > 0
    assert signal.getsignal(signal.SIGALRM) == handler

    # A probe inside an open traced span counts as its child, not its self time.
    with traced() as tracer, Pacer(on_probe=tracer.exclude) as pacer:
        tracer._stack.append(0.0)
        pacer._sample(signal.SIGALRM, None)
        assert tracer._stack.pop() == pacer.samples[-1]


def test_workload_seeds_are_stable_and_distinct():
    assert derive(1, "fig7", 3) == derive(1, "fig7", 3)
    assert len(set(derive(1, "fig7", 3))) == 3
    assert derive(1, "fig7") != derive(2, "fig7")


def test_default_and_held_out_seeds_have_recorded_outputs():
    record = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    for name in WORKLOADS:
        assert record["completion_ratio"][name] == 1.0
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            assert str(seed) in record["digests"][name]


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
