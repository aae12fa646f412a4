"""Span tracing for reasoning runs.

A :class:`Tracer` records a tree of :class:`Span` objects describing one
reasoning run: ``run`` at the root, ``rewrite`` / ``load`` / ``chase`` /
``answers`` phases below it, per-round ``round`` spans, per-rule ``rule``
spans, and ``source-scan`` / ``source-retry`` spans for external
datasources.  Spans carry wall-clock bounds (``time.perf_counter``),
structured ``attrs`` and integer/float ``counters`` (facts matched /
derived / deduped, resident high-water, ...).

Design constraints, in priority order:

* **Zero overhead when off.**  Production call sites hold a
  ``tracer`` reference that defaults to ``None`` and guard every
  instrumentation block with ``if tracer is not None`` — the untraced
  path executes no telemetry code at all and results stay bit-identical.
* **Zero dependencies.**  Standard library only, like the rest of the
  package.
* **Durable records.**  A span serialises to a plain dict
  (:meth:`Span.to_record`, one JSONL line) and back
  (:meth:`Span.from_record`, used by :mod:`repro.obs.export`).

The module-global *active tracer* (:func:`activate` / :func:`get_tracer`)
mirrors ``testing/faults.py``: lazily-evaluated datasource scan generators
outlive the phase span that first pulled them, so they look up the active
tracer at iteration time instead of threading a parameter through every
record-manager layer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from .metrics import MetricsRegistry

clock = time.perf_counter

#: Span kinds emitted by the built-in instrumentation, root-most first.
SPAN_KINDS = (
    "run",
    "rewrite",
    "load",
    "chase",
    "answers",
    "round",
    "rule",
    "source-scan",
    "source-retry",
    "governor-stop",
)


@dataclass
class Span:
    """One timed, attributed interval in a reasoning run."""

    kind: str
    name: str
    span_id: int
    parent_id: Optional[int] = None
    t_start: float = 0.0
    t_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        """Wall-clock seconds covered by the span (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def bump(self, counter: str, amount: Union[int, float] = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def to_record(self) -> Dict[str, Any]:
        """Plain-dict form — picklable, JSON-serialisable, id-free enough
        to be re-parented by :meth:`Tracer.adopt` in another process."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.counters:
            record["counters"] = dict(self.counters)
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            kind=record["kind"],
            name=record["name"],
            span_id=record.get("span_id", 0),
            parent_id=record.get("parent_id"),
            t_start=record.get("t_start", 0.0),
            t_end=record.get("t_end"),
            attrs=dict(record.get("attrs", {})),
            counters=dict(record.get("counters", {})),
            status=record.get("status", "ok"),
            error=record.get("error"),
        )


class TraceSink:
    """Destination for completed spans.  Subclass and override :meth:`emit`."""

    def emit(self, span: Span) -> None:
        raise NotImplementedError

    def finalize(self, tracer: "Tracer") -> None:
        """Called once from :meth:`Tracer.finish` before :meth:`close`."""

    def close(self) -> None:
        pass


class RingBufferSink(TraceSink):
    """In-memory sink holding the most recent ``max_spans`` completed spans."""

    def __init__(self, max_spans: int = 16384) -> None:
        self.max_spans = max_spans
        self.spans: deque = deque(maxlen=max_spans)
        self.dropped = 0

    def emit(self, span: Span) -> None:
        if len(self.spans) == self.max_spans:
            self.dropped += 1
        self.spans.append(span)


class JsonlTraceSink(TraceSink):
    """Appends one JSON object per completed span to ``path``.

    The file starts with a ``{"type": "meta", ...}`` line and ends (on
    :meth:`finalize`) with a ``{"type": "metrics", ...}`` snapshot of the
    tracer's registry, so :func:`repro.obs.export.load_jsonl` can restore
    both spans and metrics.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self._write({"type": "meta", "format": "repro-trace", "version": 1})

    def _write(self, obj: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(obj, sort_keys=True, default=str))
        self._handle.write("\n")

    def emit(self, span: Span) -> None:
        record = span.to_record()
        record["type"] = "span"
        self._write(record)

    def finalize(self, tracer: "Tracer") -> None:
        self._write({"type": "metrics", "metrics": tracer.metrics.as_dict()})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class Tracer:
    """Builds the span tree for one reasoning run.

    Spans are delivered to every sink when they *end*; the internal
    :class:`RingBufferSink` always receives them so :meth:`spans` and
    ``run_report()`` work regardless of the extra sink configured.
    Parenting is stack-based: :meth:`begin` parents the new span under
    the innermost open span unless an explicit ``parent`` is given.

    A single lock guards id allocation and emission — the chase only
    touches the tracer from its own thread, but lazily pulled datasource
    scans may interleave, and correctness here is worth a cheap
    uncontended lock.
    """

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        *,
        max_spans: int = 16384,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.memory = RingBufferSink(max_spans)
        self.sinks: List[TraceSink] = [self.memory]
        if sink is not None:
            self.sinks.append(sink)
        self.root: Optional[Span] = None
        self._stack: List[Span] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._finished = False

    # -- span lifecycle ----------------------------------------------------
    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def begin(
        self,
        kind: str,
        name: str,
        *,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span and push it on the parenting stack."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            kind=kind,
            name=name,
            span_id=self._allocate_id(),
            parent_id=parent.span_id if parent is not None else None,
            t_start=clock(),
            attrs={key: value for key, value in attrs.items() if value is not None},
        )
        if self.root is None:
            self.root = span
        self._stack.append(span)
        return span

    def end(
        self,
        span: Span,
        *,
        status: Optional[str] = None,
        error: Optional[str] = None,
    ) -> Span:
        """Close ``span``, pop it (and any forgotten children) off the stack,
        and deliver it to the sinks."""
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.t_end = clock()
            self._emit(top)
        span.t_end = clock()
        if status is not None:
            span.status = status
        if error is not None:
            span.error = error
            if status is None:
                span.status = "error"
        self._emit(span)
        return span

    def unwind(self, span: Span) -> None:
        """Close open descendants of ``span`` without closing ``span`` itself
        (used after an :class:`ExecutionStopped` unwound the round loop)."""
        while self._stack and self._stack[-1] is not span:
            top = self._stack.pop()
            top.t_end = clock()
            self._emit(top)

    @contextmanager
    def span(self, kind: str, name: str, **attrs: Any) -> Iterator[Span]:
        opened = self.begin(kind, name, **attrs)
        try:
            yield opened
        except BaseException as exc:
            self.end(opened, status="error", error=repr(exc))
            raise
        else:
            self.end(opened)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def emit(
        self,
        kind: str,
        name: str,
        t_start: float,
        t_end: float,
        *,
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, Union[int, float]]] = None,
        status: str = "ok",
        error: Optional[str] = None,
    ) -> Span:
        """Record an already-completed interval (no stack interaction)."""
        if parent is None:
            parent = self.current() or self.root
        span = Span(
            kind=kind,
            name=name,
            span_id=self._allocate_id(),
            parent_id=parent.span_id if parent is not None else None,
            t_start=t_start,
            t_end=t_end,
            attrs=dict(attrs or {}),
            counters=dict(counters or {}),
            status=status,
            error=error,
        )
        self._emit(span)
        return span

    def _emit(self, span: Span) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.emit(span)

    # -- run lifecycle -----------------------------------------------------
    def finish(self) -> None:
        """Close any still-open spans, flush metrics, and close sinks.

        Idempotent; called by the reasoner when a run (or stream) completes.
        """
        if self._finished:
            return
        self._finished = True
        while self._stack:
            top = self._stack.pop()
            top.t_end = clock()
            self._emit(top)
        for sink in self.sinks:
            sink.finalize(self)
            sink.close()

    # -- inspection --------------------------------------------------------
    def spans(self, kind: Optional[str] = None) -> List[Span]:
        """Completed spans, sorted by start time."""
        collected = sorted(self.memory.spans, key=lambda s: (s.t_start, s.span_id))
        if kind is None:
            return collected
        return [span for span in collected if span.kind == kind]

    def children_of(self, span: Span) -> List[Span]:
        return [child for child in self.spans() if child.parent_id == span.span_id]


def as_tracer(value: Any) -> Optional[Tracer]:
    """Coerce a ``reason(trace=...)`` argument into a tracer (or ``None``).

    ``None``/``False`` → tracing off; ``True`` → in-memory tracer;
    a :class:`Tracer` is passed through; a path writes JSONL there (the
    in-memory ring buffer stays active so ``run_report()`` still works).
    """
    if value is None or value is False:
        return None
    if value is True:
        return Tracer()
    if isinstance(value, Tracer):
        return value
    if isinstance(value, (str, Path)):
        return Tracer(sink=JsonlTraceSink(value))
    raise TypeError(f"trace= expects None, bool, Tracer, or path; got {value!r}")


# -- module-global active tracer (faults.py pattern) -----------------------

_ACTIVE: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The tracer active for the current run, if any (datasource hooks)."""
    return _ACTIVE


@contextmanager
def activate(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Make ``tracer`` the active tracer for the block; re-entrant, and a
    no-op when ``tracer`` is ``None`` *and* nothing was active before."""
    global _ACTIVE
    previous = _ACTIVE
    if tracer is not None:
        _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


__all__: Sequence[str] = (
    "SPAN_KINDS",
    "Span",
    "TraceSink",
    "RingBufferSink",
    "JsonlTraceSink",
    "Tracer",
    "as_tracer",
    "activate",
    "get_tracer",
    "clock",
)
