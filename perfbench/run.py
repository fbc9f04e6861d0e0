#!/usr/bin/env python3
"""Whole-workload benchmark of the RPC-V simulator.

One run measures one workload (see ``workloads.py``) in this process::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's pass is repeated for ``--seconds`` (at
least twice; a pass that would overrun the budget is not started) with
tracing off, and the run reports the
end-to-end metrics: medians over the passes for host times, the process's
peak RSS, and the deterministic completion ratio.  Host times are paced:
read at one reference host speed, sampled while the pass runs (see
``pace.py``), because the shared host's own speed drifts by up to 2x.
With ``--trace 1`` the run makes one untraced reference pass, then traced
passes while they fit in ``--seconds`` (at least one), and reports the
per-layer metrics: self-time medians, exact work counts from the first
traced pass, and the tracing overhead against the reference pass.

Every pass is checked: all passes of a run must produce one output digest
(sha256 over the rows and per-cell makespan/submitted/completed), equal to
the digest recorded in ``digests.json`` when the seed has one, and the
completion ratio must equal the recorded one.  The traced passes must
reproduce the untraced digest and the same counts.  The last line of
standard output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a failed check prints ``"correct": false`` and exits 1.

Other modes::

    python3 perfbench/run.py --steadiness 10 --seconds 25   # all workloads, interleaved
    python3 perfbench/run.py --steadiness 5 --same-seed      # host noise alone
    python3 perfbench/run.py --record-digests 0-40,9001     # refresh digests.json

``--steadiness 1`` runs every workload once and fails when any check does.
Metric names, units, directions and bounds come from ``BENCHMARK.json``;
``catalogue.py`` adds each metric's layer, boundary and targets.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

if not __package__:  # run as a script: make this package importable
    sys.path.insert(0, str(ROOT))

from perfbench.catalogue import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.pace import Pacer  # noqa: E402
from perfbench.tracing import LAYERS, setup_timer, traced  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

#: untraced passes per run, at least (a median and a determinism cross-check).
MIN_PASSES = 2


def _import_program() -> None:
    """Put the simulator's source on the path; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def load_record() -> dict[str, Any]:
    return json.loads(DIGESTS.read_text())


def check_outcomes(
    workload: str, seed: int, outcomes: list, record: dict[str, Any]
) -> list[str]:
    """Problems with a run's passes (empty when every check holds)."""
    problems: list[str] = []
    for outcome in outcomes:
        problems.extend(outcome.problems)
    digests = {digest(outcome) for outcome in outcomes}
    if len(digests) != 1:
        problems.append(f"{workload}: passes disagree on the output digest {sorted(digests)}")
    recorded = record["digests"].get(workload, {}).get(str(seed))
    found = next(iter(digests))
    if recorded is not None and found != recorded:
        problems.append(f"{workload} seed {seed}: digest {found} != recorded {recorded}")
    expected = record["completion_ratio"][workload]
    for outcome in outcomes:
        ratio = outcome.completed / outcome.submitted
        if ratio != expected:
            problems.append(
                f"{workload}: completion_ratio {ratio} != recorded {expected}"
            )
            break
    print(
        f"perfbench: {workload} seed {seed} digest {found} "
        f"({'recorded' if recorded is not None else 'no record for this seed'})",
        file=sys.stderr,
    )
    return problems


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def untraced_pass(workload, seed: int) -> tuple[float, float, Any]:
    """One paced pass with only the set-up timer: ``(wall_s, setup_s, outcome)``.

    Set-up calls are paced on their own (``Pacer.timed``), the rest of the
    pass at its sampled average speed.
    """
    gc.collect()
    pacer = Pacer()
    with setup_timer(around=pacer.timed), pacer:
        started = time.perf_counter()
        outcome = workload(seed, False)
        wall = time.perf_counter() - started - pacer.spent
    scale = pacer.scale()
    setup = pacer.timed_host
    print(
        f"perfbench: pass {wall:.4f} s host, {setup:.6f} s set-up, speed scale "
        f"{scale:.4f} over {len(pacer.samples)} probes",
        file=sys.stderr,
    )
    return (wall - setup) * scale, pacer.timed_paced, outcome


def traced_pass(workload, seed: int) -> tuple[float, dict[str, float], Any]:
    """One traced pass: ``(paced traced wall, per-layer metrics, outcome)``.

    Self times and shares are in host seconds, probes left out.  The pass's
    heaviest spans go to standard error for diagnosis.
    """
    from repro.net.message import default_pool

    gc.collect()
    pool_before = default_pool().stats()
    with traced() as tracer, Pacer(on_probe=tracer.exclude) as pacer:
        started = time.perf_counter()
        outcome = workload(seed, False)
        wall = time.perf_counter() - started - pacer.spent
    scale = pacer.scale()
    pool_after = default_pool().stats()
    heaviest = sorted(tracer.acc.items(), key=lambda item: -item[1][0])[:12]
    for name, (seconds, calls, _) in heaviest:
        print(f"perfbench: span {name}: {seconds:.4f} s self, {calls} calls", file=sys.stderr)
    metrics = layer_metrics(tracer, wall, pool_before, pool_after)
    metrics["sim_makespan_s"] = outcome.makespan
    return wall * scale, metrics, outcome


def layer_metrics(tracer, wall: float, pool_before: dict, pool_after: dict) -> dict[str, float]:

    groups = tracer.group_totals()
    counters = tracer.counters

    def self_s(*names: str) -> float:
        return sum(groups.get(name, (0.0,))[0] for name in names)

    def calls(*names: str) -> int:
        return sum(groups.get(name, (0.0, 0))[1] for name in names)

    def tally(name: str) -> float:
        return groups.get(name, (0.0, 0, 0))[2]

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(numerator: float, denominator: float, empty: float) -> float:
        return numerator / denominator if denominator else empty

    events = count("kernel.events")
    sim_self = self_s("sim.run", "sim.handler")
    acquires = (pool_after["hits"] + pool_after["misses"]) - (
        pool_before["hits"] + pool_before["misses"]
    )
    commits = count("coordinator.quorum_commits")
    metrics = {
        "sim.self_s": sim_self,
        "sim.events": events,
        "sim.ns_per_event": ratio(sim_self * 1e9, events, 0.0),
        "sim.wheel_flushes": count("kernel.wheel_flushes"),
        "net.send_s": self_s("net.send"),
        "net.deliver_s": self_s("net.handler"),
        "net.messages": count("net.sent"),
        "net.bytes_sent": count("net.bytes_sent"),
        "net.dropped": sum(v for k, v in counters.items() if k.startswith("net.dropped.")),
        "net.pool_hit_rate": ratio(pool_after["hits"] - pool_before["hits"], acquires, 0.0),
        "core.handler_s": self_s("core.handler"),
        "core.codec_s": self_s("core.codec"),
        "core.codec_calls": calls("core.codec"),
        "core.repl.build_s": self_s("core.repl.build"),
        "core.repl.merge_s": self_s("core.repl.merge"),
        "core.repl.rounds": count("coordinator.replications"),
        "core.repl.bytes": tally("core.repl.build"),
        "core.index_s": self_s("core.index"),
        "core.index.notes": tracer.calls("core.index:TaskIndex.note"),
        "core.client.pending_scan_s": self_s("core.client.pending_scan"),
        "core.client.pending_scans": calls("core.client.pending_scan"),
        "core.client.sync_s": self_s("core.client.sync"),
        "core.useful_exec_ratio": ratio(
            count("coordinator.results"), count("server.tasks_executed"), 1.0
        ),
        "core.upload_retries": count("server.result_upload_retries"),
        "policies.pick_s": self_s("policies.pick"),
        "policies.decisions": sum(
            acc[1] for name, acc in tracer.acc.items()
            if name.startswith("policies.pick:") and name.endswith(".pick")
        ),
        "policies.reschedule_s": self_s("policies.reschedule"),
        "policies.rescheduled": tally("policies.reschedule"),
        "policies.quorum_commit_ratio": ratio(
            commits, commits + count("coordinator.quorum_aborts"), 1.0
        ),
        "detect.heard_s": self_s("detect.heard"),
        "detect.beat_s": self_s("detect.beat"),
        "detect.heartbeats": tally("detect.beat"),
        "detect.wrong_suspicion_ratio": ratio(
            count("detect.wrong_suspicions"), count("detect.suspicions"), 0.0
        ),
        "msglog.self_s": self_s("msglog.api"),
        "msglog.records": tracer.calls("msglog.api:MessageLog.append"),
        "nodes.db_s": self_s("nodes.db"),
        "nodes.db_ops": calls("nodes.db"),
        "nodes.faults_injected": sum(
            v for k, v in counters.items() if k.startswith("faults.")
        ),
        "crowd.table_s": self_s("crowd.table"),
        "crowd.batches": count("crowd.batches_sent"),
        "crowd.resends": count("crowd.batch_resends"),
        "grid.build_s": self_s("grid.build"),
        "grid.start_s": self_s("grid.start"),
        "grid.builds": calls("grid.build"),
    }
    attributed = 0.0
    for layer in (*LAYERS, "other"):
        layer_self = sum(
            seconds for name, (seconds, _, _) in groups.items()
            if name.split(".", 1)[0] == layer
        )
        metrics[f"share.{layer}"] = layer_self / wall
        attributed += layer_self
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - attributed
    return metrics


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _is_count(metric) -> bool:
    return metric.unit in ("count", "bytes")


def layer_values(
    name: str, reference_wall: float, reference, traced_runs: list
) -> tuple[dict, list[str]]:
    """Per-layer metrics of a run's traced passes, and the problems found.

    Times are medians over the passes; counts come from the first pass and
    must repeat exactly in every other one.  Every traced pass must
    reproduce the untraced reference digest.
    """
    problems = []
    if any(digest(outcome) != digest(reference) for _, _, outcome in traced_runs):
        problems.append(f"{name}: a traced pass changed the output digest")
    first = traced_runs[0][1]
    for _, other, _ in traced_runs[1:]:
        differing = [m.name for m in PER_LAYER if _is_count(m) and other[m.name] != first[m.name]]
        if differing:
            problems.append(f"{name}: traced passes disagree on counts {differing}")
            break
    values = {}
    for metric in PER_LAYER:
        if metric.name == "trace.overhead_ratio":
            walls = [wall for wall, _, _ in traced_runs]
            values[metric.name] = statistics.median(walls) / reference_wall
        elif _is_count(metric):
            values[metric.name] = first[metric.name]
        else:
            values[metric.name] = statistics.median(run[1][metric.name] for run in traced_runs)
    return values, problems


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    """Measure one workload; returns the result object and whether it is correct."""
    workload = WORKLOADS[name]
    # Warm-up at smoke scale: lazy imports, registries and caches fill here.
    workload(seed, True)

    started = time.perf_counter()
    passes = [untraced_pass(workload, seed)]
    traced_runs = []
    # Stop before a pass that would overrun the budget (the last pass's host
    # time predicts the next one's), but make at least one traced pass, or
    # MIN_PASSES untraced ones.
    last = time.perf_counter() - started
    while True:
        now = time.perf_counter() - started
        if (traced_runs if trace else len(passes) >= MIN_PASSES) and now + last > seconds:
            break
        if trace:
            traced_runs.append(traced_pass(workload, seed))
        else:
            passes.append(untraced_pass(workload, seed))
        last = time.perf_counter() - started - now
    outcomes = [outcome for _, _, outcome in passes]
    reference = outcomes[0]
    problems = check_outcomes(name, seed, outcomes, load_record())

    if trace:
        values, traced_problems = layer_values(
            name, passes[0][0] + passes[0][1], reference, traced_runs
        )
        problems += traced_problems
        units = {m.name: m.unit for m in PER_LAYER}
        runs = len(traced_runs)
    else:
        values = {
            "wall_s": statistics.median(wall for wall, _, _ in passes),
            "setup_s": statistics.median(setup for _, setup, _ in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completion_ratio": reference.completed / reference.submitted,
        }
        units = {m.name: m.unit for m in END_TO_END}
        runs = len(passes)

    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    for key, value in values.items():
        print(f"perfbench: {name} {key} = {value:.6g} {units[key]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": reference.submitted * runs,
        "failed": (reference.submitted - reference.completed) * runs,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    return result, not problems


# ---------------------------------------------------------------------------
# Steadiness and digest recording
# ---------------------------------------------------------------------------


def steadiness(reps: int, first_seed: int, seconds: float, same_seed: bool) -> int:
    """Run every workload ``reps`` times, interleaved, one process per run.

    Repetition ``i`` uses seed ``first_seed + i``, as a benchmark round varies
    the seed between runs, so the spreads mix input variation with host
    noise; with ``same_seed`` every repetition uses ``first_seed`` and the
    spreads are host noise alone.
    """
    names = list(WORKLOADS)
    samples: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    failures = 0
    for rep in range(reps):
        seed = first_seed if same_seed else first_seed + rep
        order = names[rep % len(names):] + names[: rep % len(names)]
        for name in order:
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=900, cwd=ROOT
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or result is None or not result["correct"]:
                failures += 1
                print(f"rep {rep} {name}: FAILED (exit {done.returncode})\n{done.stderr}")
                continue
            for key, metric in result["metrics"].items():
                samples[name].setdefault(key, []).append(metric["value"])
            print(
                f"rep {rep} seed {seed} {name}: "
                + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                flush=True,
            )
    bounds = {m.name: (m.unit, m.bound) for m in END_TO_END}
    print(f"\n{'workload':<12} {'metric':<17} {'unit':<9} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        for key, values in samples[name].items():
            unit, bound = bounds[key]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            flag = "" if spread < bound / 3 else "  > bound/3"
            print(f"{name:<12} {key:<17} {unit:<9} {len(values):>3} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}{flag}")
    return 1 if failures else 0


def record_digests(seeds: list[int]) -> int:
    """Record each workload's digest for ``seeds`` in ``digests.json``."""
    record = load_record()
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            outcome = workload(seed, False)
            ratio = outcome.completed / outcome.submitted
            if outcome.problems or ratio != record["completion_ratio"][name]:
                print(f"{name} seed {seed}: not recorded: {outcome.problems} ratio {ratio}")
                return 1
            record["digests"].setdefault(name, {})[str(seed)] = digest(outcome)
            print(f"{name} seed {seed}: {record['digests'][name][str(seed)]}", flush=True)
    for name in record["digests"]:
        record["digests"][name] = dict(
            sorted(record["digests"][name].items(), key=lambda item: int(item[0]))
        )
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def _seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="REPS")
    parser.add_argument("--same-seed", action="store_true",
                        help="steadiness: every repetition uses --seed")
    parser.add_argument("--record-digests", metavar="SEEDS")
    args = parser.parse_args(argv)

    _import_program()

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.steadiness:
        return steadiness(args.steadiness, seed, args.seconds, args.same_seed)
    if args.record_digests:
        return record_digests(_seed_list(args.record_digests))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, correct = run_once(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
