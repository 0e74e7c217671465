"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions and methods of the ``repro`` package at
their call sites (module and class attributes), so nothing under
``src/`` changes.  Every wrapped call opens a span with a name, a
start, an end and a parent span; spans of one campaign run or proof
item share a group id.  All spans are aggregated per name (calls,
total time, time covered by direct children); the first ``keep`` span
records are also kept verbatim and written out when the benchmark
ends.  A span's self time is its duration minus the time its direct
children cover; children of a single-threaded call stack nest and never
overlap, so the subtraction is exact.

Only the thread that created the tracer records: pool result-handler
threads pass straight through to the wrapped function.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Span stack plus per-name aggregates and plain counters."""

    def __init__(self, keep: int = 50_000, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.keep = keep
        #: name -> [calls, total seconds, seconds covered by direct children]
        self.stats: Dict[str, List[float]] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: collections.Counter = collections.Counter()
        #: Kept span records: [name, start, end, parent index or -1, group].
        self.spans: List[list] = []
        self.dropped = 0
        self.group = 0
        #: Distinct explorer states seen through the traced digest.
        self.states: set = set()
        self._stack: List[list] = []  # [kept index or -1, child seconds]
        self._thread = threading.get_ident()

    # -- span primitives ------------------------------------------------------

    def enter(self, name: str, new_group: bool = False) -> list:
        """Open a span; returns the frame :meth:`leave` closes."""
        if new_group:
            self.group += 1
        start = self.clock()
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append([name, start, None, parent, self.group])
        else:
            self.dropped += 1
        frame = [index, 0.0, name, start]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]!r} closed out of order")
        index, child_s, name, start = frame
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += child_s
        if index >= 0:
            self.spans[index][2] = end
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrappers -------------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        new_group: bool = False,
        wrap_kwargs: Sequence[str] = (),
        kwargs_span: str = "",
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``on_result(tracer, args, kwargs, result)`` runs after each
        call.  Callables passed in ``wrap_kwargs`` are themselves
        wrapped in spans named ``kwargs_span`` (callbacks handed to the
        traced function).
        """
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            for key in wrap_kwargs:
                if kwargs.get(key) is not None:
                    kwargs[key] = tracer.span(kwargs_span, kwargs[key])
            frame = tracer.enter(name, new_group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls under ``name`` (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- read-out -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        if name not in self.stats:
            return 0.0
        _, total, child = self.stats[name]
        return total - child

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write aggregates, counters and the kept span records."""
        doc = {
            "aggregates": {
                name: {"calls": int(c), "total_s": t, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["name", "start", "end", "parent", "group"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- the layer table -----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped call site: ``module`` + ``attr`` (``Class.method`` or a
    module-level function), recorded as span or counter ``name``."""

    name: str
    module: str
    attr: str
    count_only: bool = False
    on_result: Optional[Callable] = None
    new_group: bool = False
    wrap_kwargs: Tuple[str, ...] = ()
    kwargs_span: str = ""


def _count_delivered(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["sim.step.delivered"] += 1


def _count_cache_hit(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["parallel.cache.hits"] += 1


def _note_state(tracer: Tracer, args, kwargs, result) -> None:
    """Collect the explorer's dedup key: the world digest plus the
    operation records, the pair two explored states must share to be
    the same state."""
    world = args[0]
    ops = tuple(
        (op.op_id, op.kind, op.value, op.invoke_step, op.response_step)
        for op in world.operations
    )
    tracer.states.add((result, ops))


#: Every layer boundary the traced run times.  Names are the per-layer
#: metric prefixes of BENCHMARK.json.  ``new_group`` marks the calls
#: that start one campaign run or one proof item.
TARGETS: Tuple[Target, ...] = (
    # sim
    Target("sim.step", "repro.sim.network", "World.step", on_result=_count_delivered),
    Target("sim.enabled", "repro.sim.network", "World.enabled_channels"),
    Target("sim.select", "repro.sim.scheduler", "Scheduler.select"),
    Target("sim.deliver", "repro.sim.network", "World.deliver"),
    Target("sim.fork", "repro.sim.network", "World.fork"),
    Target("sim.digest", "repro.sim.snapshot", "world_digest", on_result=_note_state),
    Target("sim.messages", "repro.sim.network", "World.enqueue_message", count_only=True),
    Target("sim.actions", "repro.sim.network", "World.invoke_write", count_only=True),
    Target("sim.actions", "repro.sim.network", "World.invoke_read", count_only=True),
    Target("sim.actions", "repro.sim.network", "World.crash", count_only=True),
    Target("sim.actions", "repro.sim.network", "World.recover", count_only=True),
    # faults
    Target("faults.allows", "repro.faults.adversary", "ChannelAdversary.allows"),
    Target("faults.fate", "repro.faults.adversary", "ChannelAdversary.fate"),
    Target("faults.watchdog", "repro.faults.watchdog", "LivenessWatchdog.tick"),
    Target("faults.driver", "repro.faults.campaign", "run_chaos_workload", new_group=True),
    # registers
    Target("registers.handler", "repro.sim.process", "Process.on_message"),
    Target("registers.build", "repro.registers.catalog", "build_client_system"),
    # coding
    Target("coding.encode", "repro.coding.reed_solomon", "ReedSolomonCode.encode"),
    Target("coding.encode", "repro.coding.reed_solomon", "ReedSolomonCode.encode_symbol"),
    Target("coding.decode", "repro.coding.reed_solomon", "ReedSolomonCode.decode"),
    # consistency
    Target("consistency.check", "repro.consistency.atomicity", "check_atomicity"),
    Target("consistency.check", "repro.consistency.regularity", "check_regular"),
    # verification
    Target("verification.explore", "repro.verification.explore", "ScheduleExplorer.explore", new_group=True),
    # lowerbound
    Target("lowerbound.construct", "repro.lowerbound.theorem_b1", "run_theorem_b1_experiment", new_group=True),
    Target("lowerbound.construct", "repro.lowerbound.theorem41", "run_theorem41_experiment", new_group=True),
    Target("lowerbound.construct", "repro.lowerbound.theorem65", "run_theorem65_experiment", new_group=True),
    Target("lowerbound.construct", "repro.lowerbound.executions", "construct_two_write_execution"),
    Target("lowerbound.critical", "repro.lowerbound.critical", "find_critical_pair"),
    Target("lowerbound.probe", "repro.lowerbound.valency", "probe_read_value"),
    Target("lowerbound.probe", "repro.lowerbound.valency65", "probe_with_release"),
    # campaign result path
    Target("campaign.encode", "repro.faults.campaign", "ChaosRunResult.to_cache_dict"),
    Target("campaign.decode", "repro.faults.campaign", "ChaosRunResult.from_cache_dict"),
    Target("campaign.key", "repro.faults.campaign", "campaign_task_key"),
    Target("campaign.report", "repro.faults.campaign", "CampaignReport.to_json_dict"),
    # parallel (parent side)
    Target(
        "parallel.supervise", "repro.parallel.supervisor", "run_supervised",
        wrap_kwargs=("on_result", "on_complete", "quarantine"),
        kwargs_span="parallel.callback",
    ),
    # The supervisor blocks on a threading.Event while workers run.
    Target("parallel.wait", "threading", "Event.wait"),
    Target("parallel.codec", "repro.parallel.codec", "PayloadCodec.train"),
    Target("parallel.codec", "repro.parallel.codec", "PayloadCodec.decode"),
    Target("parallel.cache.get", "repro.parallel.cache", "RunCache.get", on_result=_count_cache_hit),
    Target("parallel.cache.put", "repro.parallel.cache", "RunCache.put"),
    Target("parallel.journal.record", "repro.parallel.journal", "CampaignJournal.record"),
)


class Installation:
    """The patches one :func:`install` made, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def set(self, holder: object, attr: str, value: object) -> None:
        self.patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def restore(self) -> None:
        for holder, attr, original in reversed(self.patches):
            setattr(holder, attr, original)
        self.patches.clear()


def _subclasses(cls: type) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.count_only:
        return tracer.counter(target.name, fn)
    return tracer.span(
        target.name, fn, target.on_result, target.new_group,
        target.wrap_kwargs, target.kwargs_span,
    )


def install(tracer: Tracer) -> Installation:
    """Wrap every target at every call site that refers to it.

    A module-level function is replaced in every loaded ``repro``
    module whose namespace holds the same function object, so a name
    imported with ``from ... import`` is traced where it is called.  A
    method is replaced on its class and on every subclass that defines
    its own version.  A target the code no longer has is recorded in
    ``missing`` and skipped.
    """
    done = Installation()
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            done.missing.append(f"{target.module}.{target.attr}")
            continue
        if "." in target.attr:
            cls_name, method = target.attr.split(".", 1)
            base = getattr(module, cls_name, None)
            if not isinstance(base, type) or not hasattr(base, method):
                done.missing.append(f"{target.module}.{target.attr}")
                continue
            for cls in _subclasses(base):
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    done.set(cls, method, classmethod(_wrap(tracer, target, raw.__func__)))
                elif isinstance(raw, staticmethod):
                    done.set(cls, method, staticmethod(_wrap(tracer, target, raw.__func__)))
                elif inspect.isfunction(raw):
                    done.set(cls, method, _wrap(tracer, target, raw))
            continue
        original = getattr(module, target.attr, None)
        if not callable(original):
            done.missing.append(f"{target.module}.{target.attr}")
            continue
        wrapped = _wrap(tracer, target, original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and loaded is not None:
                if loaded.__dict__.get(target.attr) is original:
                    done.set(loaded, target.attr, wrapped)
    return done
