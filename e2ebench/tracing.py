"""The layer ledger, traced from outside the system.

``install`` replaces each layer's **public** boundary callable — every
reference to it in the loaded ``repro.*`` modules, or the class attribute
for a method — with a wrapper that records an in-memory span.  Nothing under
``src/`` is edited.  A layer's self time is its spans' duration minus the
part their child spans cover, so the layers and ``unattributed`` (the self
time of the root spans the benchmark opens around the public entry points)
add up to the traced wall exactly.  A boundary that no longer exists is
listed as ``absent`` and its time falls to its parent: later changes may
delete a layer, and they cannot edit this directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

UNATTRIBUTED = "unattributed"

#: (layer, span name, module, attribute, kind).  ``gen`` boundaries are
#: generators, timed per resumption: the consumer's work between two
#: ``next()`` calls belongs to the consumer.
BOUNDARIES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("core.parser", "parse_program", "repro.core.parser", "parse_program", "call"),
    ("core.wardedness", "analyse_program", "repro.core.wardedness", "analyse_program", "call"),
    ("core.harmful_joins", "eliminate_harmful_joins", "repro.core.harmful_joins", "eliminate_harmful_joins", "call"),
    ("core.transform", "normalize_for_chase", "repro.core.transform", "normalize_for_chase", "call"),
    ("engine.plan", "compile_plan", "repro.engine.plan", "compile_plan", "call"),
    ("engine.plan", "compile_join_plans", "repro.engine.plan", "compile_join_plans", "call"),
    ("engine.scheduler", "schedule", "repro.engine.scheduler", "RoundRobinScheduler.schedule", "call"),
    ("engine.annotations", "collect_bindings", "repro.engine.annotations", "collect_bindings", "call"),
    ("engine.annotations", "load_bound_facts", "repro.engine.annotations", "load_bound_facts", "call"),
    ("storage.datasources", "scan", "repro.storage.datasources", "DataSource.scan", "gen"),
    ("storage.datasources", "write_rows", "repro.storage.datasources", "DataSource.write_rows", "call"),
    ("core.chase", "chase_run", "repro.core.chase", "ChaseEngine.run", "call"),
    ("core.chase", "continue_rounds", "repro.core.chase", "ChaseEngine.continue_rounds", "call"),
    ("engine.joins", "matches", "repro.engine.joins", "CompiledRuleExecutor.matches", "gen"),
    ("core.termination", "check_termination", "repro.engine.wrappers", "TerminationWrapper.check_termination", "call"),
    ("core.termination", "admit", "repro.core.termination", "TerminationStrategy.admit", "call"),
    ("core.fact_store", "add", "repro.core.fact_store", "FactStore.add", "call"),
    ("core.fact_store", "remove", "repro.core.fact_store", "FactStore.remove", "call"),
    ("core.query", "extract_answers", "repro.core.query", "extract_answers", "call"),
    ("engine.annotations", "write_output_bindings", "repro.engine.annotations", "write_output_bindings", "call"),
    ("engine.pipeline", "first_answer", "repro.engine.pipeline", "PipelineExecutor.first_answer", "call"),
    ("engine.pipeline", "run_to_completion", "repro.engine.pipeline", "PipelineExecutor.run_to_completion", "call"),
    ("engine.incremental", "upsert", "repro.engine.incremental", "ResidentReasoner.upsert", "call"),
    ("engine.incremental", "retract", "repro.engine.incremental", "ResidentReasoner.retract", "call"),
    ("engine.incremental", "ensure_settled", "repro.engine.incremental", "ResidentReasoner.ensure_settled", "call"),
    ("engine.service", "service_query", "repro.engine.service", "ReasoningService.query", "call"),
)


class Tracer:
    """Spans in memory, self times kept as the spans close."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: name and layer per boundary index; root spans append theirs.
        self.names: List[Tuple[str, str]] = [(b[1], b[0]) for b in BOUNDARIES]
        #: one ``[boundary, start, end, parent span]`` per span, in open order.
        self.spans: List[List[float]] = []
        self.absent: List[str] = []
        self._stack: List[List[float]] = []  # open spans: [span index, child seconds]
        self.self_s: List[float] = [0.0] * len(BOUNDARIES)
        self.calls: List[int] = [0] * len(BOUNDARIES)
        #: truthy returns of a call boundary, items yielded by a generator one.
        self.useful: List[int] = [0] * len(BOUNDARIES)

    # ------------------------------------------------------------- recording
    def _open(self, boundary: int) -> List[float]:
        stack = self._stack
        frame = [len(self.spans), 0.0]
        self.spans.append([boundary, 0.0, 0.0, stack[-1][0] if stack else -1])
        stack.append(frame)
        return frame

    def _close(self, frame: List[float], start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        span = self.spans[frame[0]]
        span[1], span[2] = start, end
        duration = end - start
        if stack:
            stack[-1][1] += duration
        boundary = span[0]
        self.self_s[boundary] += duration - frame[1]
        self.calls[boundary] += 1

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A span the benchmark opens itself around a public entry point."""
        if (name, UNATTRIBUTED) not in self.names:
            self.names.append((name, UNATTRIBUTED))
            for counter in (self.self_s, self.calls, self.useful):
                counter.append(0)
        frame = self._open(self.names.index((name, UNATTRIBUTED)))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _wrap_call(self, boundary: int, function: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._open(boundary)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if result:
                self.useful[boundary] += 1
            return result

        return traced

    def _wrap_generator(self, boundary: int, function: Callable) -> Callable:
        clock = time.perf_counter
        done = object()

        @functools.wraps(function)
        def traced(*args, **kwargs):
            inner = function(*args, **kwargs)
            try:
                while True:
                    frame = self._open(boundary)
                    start = clock()
                    try:
                        item = next(inner, done)
                    finally:
                        self._close(frame, start, clock())
                    if item is done:
                        return
                    self.useful[boundary] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Swap every boundary for its wrapper; note the ones that are gone."""
        for boundary, (_layer, name, module_name, attribute, kind) in enumerate(BOUNDARIES):
            wrap = self._wrap_generator if kind == "gen" else self._wrap_call
            owner_name, _, leaf = attribute.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if owner_name:
                # The class and every subclass that overrides the method.
                classes, work = [], [owner]
                while work:
                    klass = work.pop()
                    classes.append(klass)
                    work.extend(klass.__subclasses__())
                for klass in classes:
                    if leaf in vars(klass):
                        setattr(klass, leaf, wrap(boundary, vars(klass)[leaf]))
            else:
                wrapped = wrap(boundary, original)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not loaded_name.startswith("repro"):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)

    # --------------------------------------------------------------- reading
    def ledger(self) -> Dict[str, object]:
        """Self seconds, calls and useful outcomes per boundary and per layer."""
        boundaries: Dict[str, Dict[str, object]] = {}
        layers: Dict[str, float] = {}
        for (name, layer), seconds, calls, useful in zip(
            self.names, self.self_s, self.calls, self.useful
        ):
            entry = boundaries.setdefault(
                name, {"layer": layer, "self_s": 0.0, "calls": 0, "useful": 0}
            )
            entry["self_s"] += seconds
            entry["calls"] += calls
            entry["useful"] += useful
            layers[layer] = layers.get(layer, 0.0) + seconds
        wall = sum(
            span[2] - span[1] for span in self.spans if span[3] == -1
        )
        return {
            "run_id": self.run_id,
            "wall_s": wall,
            "layers_s": layers,
            "boundaries": boundaries,
            "absent": list(self.absent),
            "spans": len(self.spans),
        }

    def write(self, path: Path) -> None:
        """Write the spans out: one ``[name, layer, start, end, parent]`` each."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id, "absent": self.absent}) + "\n")
            names = self.names
            for span in self.spans:
                name, layer = names[span[0]]
                out.write(json.dumps([name, layer, span[1], span[2], span[3]]) + "\n")
