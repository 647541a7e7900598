"""Span tracing around the public calls into each layer of ``repro``.

The benchmark never edits the program: :func:`install` replaces methods on
the program's classes with thin wrappers, at class level and before any
``Simulation`` or server object exists.  Objects that hoist bound methods
in their constructors (``TransactionEngine.__post_init__`` keeps
``metrics.record_service_decision`` and ``lending.note_transaction``) then
hoist the wrappers.  Calls that bypass a method entirely are not seen: the
engine reads the ROCQ memo dict ``_reputation_cache`` directly, so
``rocq.reputation`` counts memo misses only.

Each wrapped call records one span (name, start, end, parent, run id) in a
per-thread buffer.  Spans stay in memory until :meth:`Tracer.write`; a
layer's self time is its spans' durations minus the time of their child
spans.  Spans of one run share a run id: a simulation repetition sets it
explicitly, in the server every root span (an HTTP request or a submitted
run's thread) starts a new one.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import threading
import time
from array import array
from collections import Counter

#: Span name -> (module, class names or None for every class the module
#: defines, method names).  Span names are the per-layer metric prefixes.
LAYERS = [
    ("sim.run", "repro.sim.engine", ["Simulation"], ["setup", "run"]),
    ("sim.queue", "repro.sim.event_queue", None, ["schedule", "pop", "next_time"]),
    ("sim.execute", "repro.sim.transactions", ["TransactionEngine"], ["execute"]),
    ("rocq.submit", "repro.rocq.store", ["ReputationStore"],
     ["submit_report_batch", "submit_report"]),
    ("rocq.reputation", "repro.rocq.store", ["ReputationStore"], ["global_reputation"]),
    ("rocq.membership", "repro.rocq.store", ["ReputationStore"],
     ["membership_changed", "invalidate_assignments"]),
    ("rocq.adjust", "repro.rocq.store", ["ReputationStore"],
     ["apply_adjustment", "set_reputation"]),
    ("overlay.ring", "repro.overlay.ring", ["ChordRing"], ["join", "leave"]),
    ("overlay.lookup", "repro.overlay.assignment", ["ScoreManagerAssignment"],
     ["assignment_details", "managers_for"]),
    ("reputation.submit", "repro.reputation.adapters", ["LogReputationBackend"],
     ["submit_report_batch", "submit_report", "apply_adjustment"]),
    ("reputation.query", "repro.reputation.adapters", ["LogReputationBackend"],
     ["global_reputation"]),
    ("reputation.rebuild", "repro.reputation.eigentrust", None, ["score_table"]),
    ("core.admission", "repro.core.admission", ["AdmissionController"],
     ["request_admission", "resolve", "grant_initial_standing"]),
    ("core.lending", "repro.core.lending", ["LendingManager"],
     ["lend", "note_transaction", "settle", "sanction"]),
    ("topology.sample", "repro.topology.base", None,
     ["sample_respondent", "sample_introducer"]),
    ("topology.update", "repro.topology.scale_free", None, ["add_member", "remove_member"]),
    ("peers.update", "repro.peers.population", ["Population"],
     ["admit", "reject", "depart"]),
    ("peers.count", "repro.peers.population", ["Population"],
     ["count_active", "active_cooperative_flags"]),
    ("metrics.sample", "repro.metrics.collector", ["MetricsCollector"], ["sample"]),
    ("metrics.record", "repro.metrics.collector", ["MetricsCollector"],
     ["record_arrival", "record_admission", "record_refusal",
      "record_service_decision", "record_transaction_outcome", "record_audit"]),
    ("adversary.act", "repro.adversary.strategies", None, ["act"]),
    ("storage.checkpoint", "repro.storage.persistence", ["BackendPersistence"],
     ["checkpoint"]),
    ("storage.read", "repro.storage.sqlite", None, ["get_peer", "list_peers"]),
    ("api.run", "repro.api.handle", ["RunHandle"], ["_run"]),
    ("api.submit", "repro.api.server", ["ReputationServer"], ["_submit"]),
]

#: Counts kept beside the spans: (count name, module, class, method, how
#: much one call adds).  Error responses all pass through ``_HttpError``.
COUNTS = [
    ("sim.events", "repro.sim.event_queue", None, "pop", lambda args: 1),
    ("rocq.reports", "repro.rocq.store", ["ReputationStore"], "submit_report_batch",
     lambda args: len(args[1])),
    ("api.errors", "repro.api.server", ["_HttpError"], "__init__", lambda args: 1),
]

#: Every span name, in table order (the per-layer metric prefixes).
SPAN_NAMES = list(dict.fromkeys(name for name, *_ in LAYERS))
COUNT_NAMES = [name for name, *_ in COUNTS]


class _Buffer:
    """The spans one thread recorded, as parallel arrays."""

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.stack: list[int] = []


class Tracer:
    """In-memory span and count recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self.counts: Counter = Counter()
        #: Run id given to root spans; ``None`` starts a new id per root.
        self.run_id: int | None = None
        self._next_run = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        #: Number of methods :func:`install` wrapped.
        self.wrapped = 0
        #: Boundaries :func:`install` found no method for.
        self.missing: list[str] = []

    def _buffer(self) -> _Buffer:
        buffer = _Buffer(threading.current_thread().name)
        self._local.buffer = buffer
        with self._lock:
            self._buffers.append(buffer)
        return buffer

    def _root_run(self) -> int:
        if self.run_id is not None:
            return self.run_id
        with self._lock:
            self._next_run += 1
            return self._next_run

    def span_wrapper(self, name: str, function):
        name_id = self.names.index(name)
        local = self._local
        clock = time.perf_counter_ns
        new_buffer = self._buffer
        root_run = self._root_run

        @functools.wraps(function)
        def traced(*args, **kwargs):
            try:
                buffer = local.buffer
            except AttributeError:
                buffer = new_buffer()
            stack = buffer.stack
            index = len(buffer.start)
            if stack:
                parent = stack[-1]
                run = buffer.run[parent]
            else:
                parent = -1
                run = root_run()
            buffer.name.append(name_id)
            buffer.parent.append(parent)
            buffer.run.append(run)
            buffer.end.append(0)
            stack.append(index)
            buffer.start.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                stack.pop()

        return traced

    def count_wrapper(self, name: str, amount, function):
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += amount(args)
            return function(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------ #
    # Results                                                              #
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, tuple[int, int]]:
        """Span name -> (self nanoseconds, number of spans), closed spans only."""
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for buffer in self._buffers:
            start, end, parent, name = buffer.start, buffer.end, buffer.parent, buffer.name
            children = [0] * len(start)
            for index in range(len(start)):
                if end[index] and parent[index] >= 0:
                    children[parent[index]] += end[index] - start[index]
            for index in range(len(start)):
                if end[index]:
                    self_ns[name[index]] += end[index] - start[index] - children[index]
                    calls[name[index]] += 1
        return {
            span: (self_ns[index], calls[index]) for index, span in enumerate(self.names)
        }

    def write(self, path: str) -> int:
        """Write every span as gzip'd CSV; returns the number written."""
        written = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,run,thread\n")
            for buffer in self._buffers:
                offset = written
                for index in range(len(buffer.start)):
                    parent = buffer.parent[index]
                    out.write(
                        f"{offset + index},{self.names[buffer.name[index]]},"
                        f"{buffer.start[index]},{buffer.end[index]},"
                        f"{offset + parent if parent >= 0 else -1},"
                        f"{buffer.run[index]},{buffer.thread}\n"
                    )
                written += len(buffer.start)
        return written


def _targets(module_name: str, class_names, method: str):
    """(class, function) pairs defining ``method`` in ``module_name``.

    A module or class that a later refactor removed yields no pair;
    :func:`install` records that in ``Tracer.missing``.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if class_names is None:
        classes = [
            value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module_name
        ]
    else:
        classes = [getattr(module, name) for name in class_names if hasattr(module, name)]
    found = []
    for cls in classes:
        function = cls.__dict__.get(method)
        if inspect.isfunction(function) and not getattr(
            function, "__isabstractmethod__", False
        ):
            found.append((cls, function))
    return found


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary in ``LAYERS`` and ``COUNTS`` with ``tracer``.

    A boundary that wraps no method (its module, class or method was renamed
    or removed) is listed in ``tracer.missing``; the benchmark fails a traced
    run that has any, since its metrics would silently read 0.
    """
    boundaries = [(count, module_name, class_names, [method], amount)
                  for count, module_name, class_names, method, amount in COUNTS]
    boundaries += [(span, module_name, class_names, methods, None)
                   for span, module_name, class_names, methods in LAYERS]
    for name, module_name, class_names, methods, amount in boundaries:
        for method in methods:
            targets = _targets(module_name, class_names, method)
            if not targets:
                where = ",".join(class_names) if class_names else "*"
                tracer.missing.append(f"{name}: {module_name}.{where}.{method}")
            for cls, function in targets:
                wrapper = (tracer.span_wrapper(name, function) if amount is None
                           else tracer.count_wrapper(name, amount, function))
                setattr(cls, method, wrapper)
                tracer.wrapped += 1
    return tracer


def layer_metrics(
    summary: dict[str, tuple[int, int]], counts: Counter, transactions: int
) -> dict[str, float]:
    """Per-layer metric values (seconds, exact counts and per-tx ratios)."""
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        self_ns, calls = summary.get(span, (0, 0))
        prefix = "sim.self" if span == "sim.run" else span
        values[f"{prefix}_s"] = self_ns / 1e9
        if span != "sim.run":
            values[f"{span}_n"] = calls
    for name in COUNT_NAMES:
        values[f"{name}_n"] = counts.get(name, 0)
    values["sim.tx_n"] = transactions
    values["rocq.misses_per_tx"] = (
        values["rocq.reputation_n"] / transactions if transactions else 0.0
    )
    queries = values["reputation.query_n"]
    values["reputation.rebuilds_per_query"] = (
        values["reputation.rebuild_n"] / queries if queries else 0.0
    )
    for name in [key for key in values if key.endswith("_n") and key != "sim.tx_n"]:
        values[f"{name[:-2]}_per_tx"] = values[name] / transactions if transactions else 0.0
    return values
