"""Span tracing around the simulator's layer boundaries, from outside ``src/``.

The benchmark measures end-to-end numbers with tracing off.  A traced pass
installs wrappers around the public functions of each layer — the kernel
drain loop, process resumes, scheduled callbacks, the transport, the
protocol codecs, replication, the task index, the scheduler, the failure
detector, the message log, the database model, the crowd table and grid
set-up — and records, per span name, how often it ran and its *self time*:
span duration minus the part covered by nested spans.  Spans are aggregated
in memory as they close (one accumulator per name), so a pass with millions
of resumes keeps a bounded footprint.

Every wrapper is a pure pass-through: arguments, return values and
exceptions are untouched, so a traced pass simulates exactly what an
untraced one does (the benchmark checks this through the output digest).
:func:`traced` restores every patched attribute on exit.

Span names are ``"<group>:<qualified name>"``.  The group's first dotted
segment is the layer (``sim``, ``net``, ``core``, ``policies``, ``detect``,
``msglog``, ``nodes``, ``crowd``, ``grid``, ``other``); process resumes and
callbacks are attributed to the layer whose package defines the generator or
callback (group ``"<layer>.handler"``).
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "Tracer", "layer_of_code", "setup_timer", "traced"]

#: the simulator's layers, named after the packages under ``src/repro``.
LAYERS = ("sim", "net", "core", "policies", "detect", "msglog", "nodes", "crowd", "grid")

#: packages folded into another layer (``platform`` is the grid's component
#: plumbing); anything else under ``repro`` is reported as ``other``.
_PACKAGE_LAYER = {name: name for name in LAYERS}
_PACKAGE_LAYER["platform"] = "grid"


def layer_of_code(code: Any) -> str:
    """The layer whose package defines ``code`` (a code object), or ``other``."""
    filename = getattr(code, "co_filename", "").replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker < 0:
        return "other"
    package = filename[marker + len("/repro/"):].split("/", 1)[0]
    return _PACKAGE_LAYER.get(package, "other")


def _span(acc: list, stack: list[float], fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` as one span: add its self time and one call to ``acc``."""
    stack.append(0.0)
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - start
        acc[0] += elapsed - stack.pop()
        acc[1] += 1
        if stack:
            stack[-1] += elapsed


class Tracer:
    """Per-span-name accumulators plus the stack of open spans.

    ``acc[name]`` is ``[self_seconds, calls, tally]``; ``tally`` sums a
    per-call quantity taken from the return value (bytes built, heart-beats
    sent, tasks re-queued) where the span was installed with one.
    """

    def __init__(self) -> None:
        self.acc: dict[str, list] = {}
        #: monitor counters and kernel counts summed over every stopped grid.
        self.counters: dict[str, float] = {}
        #: child time covered so far by each open span, innermost last.
        self._stack: list[float] = []
        self._handler_acc: dict[Any, list] = {}

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the program did not spend out of the open span."""
        if self._stack:
            self._stack[-1] += seconds

    def accumulator(self, name: str) -> list:
        acc = self.acc.get(name)
        if acc is None:
            acc = self.acc[name] = [0.0, 0, 0]
        return acc

    def harvest(self, grid: Any) -> None:
        """Add one finished grid's monitor counters and kernel counts."""
        counters = self.counters
        queue = grid.env.queue_stats()
        for name, value in (
            *grid.monitor.counters.items(),
            ("kernel.events", queue["events_processed"]),
            ("kernel.wheel_flushes", queue["wheel_flushes"]),
        ):
            counters[name] = counters.get(name, 0) + value

    # ------------------------------------------------------------- wrappers
    def wrap(
        self, name: str, fn: Callable, tally: Callable[[Any], float] | None = None
    ) -> Callable:
        """A pass-through wrapper recording one span per call of ``fn``."""
        acc = self.accumulator(name)
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            # One span per resume of the generator the call returns.
            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> "TracedGenerator":
                return TracedGenerator(fn(*args, **kwargs), acc, stack)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = _span(acc, stack, fn, *args, **kwargs)
            if tally is not None:
                acc[2] += tally(result)
            return result

        return wrapper

    def handler_accumulator(self, target: Any) -> list:
        """Accumulator of the ``<layer>.handler`` span for a generator/callback."""
        code = getattr(target, "gi_code", None)
        if code is None:
            func = getattr(target, "__func__", target)
            func = getattr(func, "func", func)  # functools.partial
            code = getattr(func, "__code__", None)
        acc = self._handler_acc.get(code)
        if acc is None:
            layer = layer_of_code(code)
            acc = self._handler_acc[code] = self.accumulator(f"{layer}.handler:resume")
        return acc

    def traced_callback(self, fn: Callable[[Any], None]) -> Callable[[Any], None]:
        """A scheduled callback wrapped in its layer's handler span."""
        acc = self.handler_accumulator(fn)
        stack = self._stack
        return lambda arg: _span(acc, stack, fn, arg)

    def traced_process(self, generator: Any) -> "TracedGenerator":
        """A process body whose resumes are spans of its layer's handler."""
        return TracedGenerator(generator, self.handler_accumulator(generator), self._stack)

    # ------------------------------------------------------------ summaries
    def group_totals(self) -> dict[str, tuple[float, int, float]]:
        """``group -> (self seconds, calls, tally)`` summed over its spans."""
        totals: dict[str, list] = {}
        for name, (seconds, calls, tally) in self.acc.items():
            group = name.split(":", 1)[0]
            total = totals.setdefault(group, [0.0, 0, 0])
            total[0] += seconds
            total[1] += calls
            total[2] += tally
        return {group: tuple(values) for group, values in totals.items()}

    def calls(self, name: str) -> int:
        acc = self.acc.get(name)
        return acc[1] if acc is not None else 0


class TracedGenerator:
    """Generator proxy: each ``send``/``throw``/``next`` is one span (and call).

    Works both as a process body (the kernel calls ``send``/``throw``) and
    under ``yield from`` (which delegates through the same methods).
    """

    def __init__(self, generator: Any, acc: list, stack: list[float]) -> None:
        self._generator = generator
        self._acc = acc
        self._stack = stack
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value: Any) -> Any:
        return _span(self._acc, self._stack, self._generator.send, value)

    def throw(self, *args: Any) -> Any:
        return _span(self._acc, self._stack, self._generator.throw, *args)

    def __next__(self) -> Any:
        return _span(self._acc, self._stack, self._generator.send, None)

    def __iter__(self) -> "TracedGenerator":
        return self

    def close(self) -> None:
        self._generator.close()


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, module: Any, name: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function in every module that imported it."""
        original = getattr(module, name)
        wrapper = wrapper_for(original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self.set(loaded, key, wrapper)

    def methods(
        self,
        cls: type,
        names: tuple[str, ...] | None,
        wrapper_for: Callable[[str, Callable], Callable],
    ) -> None:
        """Wrap ``names`` (``None``: every public one) on ``cls`` and subclasses."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            for attr, value in list(vars(klass).items()):
                if names is None:
                    if attr.startswith("_"):
                        continue
                elif attr not in names:
                    continue
                qualified = f"{klass.__name__}.{attr}"
                if isinstance(value, property):
                    wrapped = property(wrapper_for(qualified, value.fget), value.fset)
                elif isinstance(value, classmethod):
                    wrapped = classmethod(wrapper_for(qualified, value.__func__))
                elif isinstance(value, staticmethod):
                    wrapped = staticmethod(wrapper_for(qualified, value.__func__))
                elif inspect.isfunction(value):
                    wrapped = wrapper_for(qualified, value)
                else:
                    continue
                self.set(klass, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _without_gc(fn: Callable) -> Callable:
    """``fn`` with the cyclic garbage collector paused, as ``timeit`` does.

    Otherwise a full collection of the heap the simulation left behind
    (about 0.1 s on ``fig7``) lands inside one grid build or another by
    chance and dominates the set-up time.  Paused here, it runs in the
    simulation that follows, so ``setup_s + wall_s`` still counts it.
    """

    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return call


def _setup_spans(
    tracer: Tracer, patches: _Patches, around: Callable[[Callable], Callable]
) -> None:
    """Grid set-up spans: ``build_grid`` and ``Grid.start``, collector paused.

    ``around`` wraps each set-up function outside the collector pause.
    """
    import repro.grid.builder as builder

    patches.function(
        builder,
        "build_grid",
        lambda fn: tracer.wrap("grid.build:build_grid", around(_without_gc(fn))),
    )
    patches.methods(
        builder.Grid,
        ("start",),
        lambda q, fn: tracer.wrap(f"grid.start:{q}", around(_without_gc(fn))),
    )


def _harvest_on_stop(tracer: Tracer, patches: _Patches) -> None:
    """Read each grid's counters when it stops (the grids are not kept)."""
    from repro.grid.builder import Grid

    stop = Grid.__dict__["stop"]

    def stop_and_harvest(grid) -> None:
        stop(grid)
        tracer.harvest(grid)

    patches.set(Grid, "stop", stop_and_harvest)


def _layer_spans(tracer: Tracer, patches: _Patches) -> None:
    """Every other layer boundary (installed for traced passes only)."""
    from repro.core import protocol, replication
    from repro.core.client import ClientComponent
    from repro.core.taskindex import TaskIndex
    from repro.crowd.table import CrowdTable
    from repro.detect.detector import FailureDetector
    from repro.detect.heartbeat import HeartbeatEmitter
    from repro.msglog.log import MessageLog
    from repro.net.transport import Network
    from repro.nodes.database import Database
    from repro.policies.scheduling import SchedulerPolicy
    from repro.sim.core import Environment

    def group(name: str, tally: Callable[[Any], float] | None = None):
        return lambda q, fn: tracer.wrap(f"{name}:{q}", fn, tally)

    # sim: the drain loop; resumes and callbacks become child spans.
    patches.methods(Environment, ("run",), group("sim.run"))
    env_process = Environment.__dict__["process"]
    env_call_at = Environment.__dict__["call_at"]
    env_call_at_cancellable = Environment.__dict__["call_at_cancellable"]
    env_call_periodic = Environment.__dict__["call_periodic"]

    def process(env, generator, name=None):
        return env_process(env, tracer.traced_process(generator), name=name)

    def call_at(env, when, fn, arg=None):
        return env_call_at(env, when, tracer.traced_callback(fn), arg)

    def call_at_cancellable(env, when, fn, arg=None):
        return env_call_at_cancellable(env, when, tracer.traced_callback(fn), arg)

    def call_periodic(env, interval, fn, arg=None, **kwargs):
        return env_call_periodic(env, interval, tracer.traced_callback(fn), arg, **kwargs)

    patches.set(Environment, "process", process)
    patches.set(Environment, "call_at", call_at)
    patches.set(Environment, "call_at_cancellable", call_at_cancellable)
    patches.set(Environment, "call_periodic", call_periodic)

    patches.methods(Network, ("send",), group("net.send"))

    codec_names = ("to_payload", "from_payload", "to_replica_entry", "from_replica_entry")
    for cls in (
        protocol.CallDescription,
        protocol.ResultRecord,
        protocol.TaskRecord,
        replication.ReplicaState,
    ):
        patches.methods(cls, codec_names, group("core.codec"))
    patches.function(
        replication,
        "build_state",
        lambda fn: tracer.wrap("core.repl.build:build_state", fn, lambda s: s.size_bytes),
    )
    patches.function(
        replication, "merge_state", lambda fn: tracer.wrap("core.repl.merge:merge_state", fn)
    )
    patches.methods(TaskIndex, None, group("core.index"))
    patches.methods(ClientComponent, ("pending_handles",), group("core.client.pending_scan"))
    patches.methods(ClientComponent, ("synchronize",), group("core.client.sync"))

    patches.methods(SchedulerPolicy, ("pick", "choose_indexed", "choose"), group("policies.pick"))
    patches.methods(
        SchedulerPolicy,
        ("reschedule_for_suspected_server",),
        group("policies.reschedule", len),
    )

    patches.methods(FailureDetector, ("heard_from", "is_suspected"), group("detect.heard"))
    patches.methods(HeartbeatEmitter, ("beat_now",), group("detect.beat", int))

    patches.methods(MessageLog, None, group("msglog.api"))
    patches.methods(Database, ("charge_write", "charge_read", "charge_scan"), group("nodes.db"))
    patches.methods(CrowdTable, None, group("crowd.table"))


@contextmanager
def setup_timer(
    around: Callable[[Callable], Callable] = lambda fn: fn,
) -> Iterator[Tracer]:
    """Only the grid set-up spans, each wrapped in ``around`` (see ``_setup_spans``)."""
    tracer, patches = Tracer(), _Patches()
    try:
        _setup_spans(tracer, patches, around)
        yield tracer
    finally:
        patches.undo()


@contextmanager
def traced() -> Iterator[Tracer]:
    """Every layer span (set-up included), removed again on exit."""
    tracer, patches = Tracer(), _Patches()
    try:
        _setup_spans(tracer, patches, lambda fn: fn)
        _harvest_on_stop(tracer, patches)
        _layer_spans(tracer, patches)
        yield tracer
    finally:
        patches.undo()
