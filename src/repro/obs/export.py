"""Trace export / import: JSONL round-trip and Chrome/Perfetto JSON.

JSONL is the durable on-disk format (one object per line: a ``meta``
header, ``span`` records, a final ``metrics`` snapshot — see
:class:`repro.obs.trace.JsonlTraceSink`).  :func:`load_jsonl` restores it
for ``tools/trace_view.py`` and for tests.

:func:`to_perfetto` converts spans into the Trace Event Format consumed
by ``chrome://tracing`` and https://ui.perfetto.dev — complete ("ph":
"X") events with microsecond timestamps rebased to the earliest span.
All spans share one track.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .trace import Span, Tracer


@dataclass
class TraceDump:
    """A trace restored from disk: spans plus the final metrics snapshot."""

    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def roots(self) -> List[Span]:
        ids = {span.span_id for span in self.spans}
        return [
            span
            for span in self.spans
            if span.parent_id is None or span.parent_id not in ids
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [child for child in self.spans if child.parent_id == span.span_id]


def load_jsonl(path: Union[str, Path]) -> TraceDump:
    """Parse a JSONL trace file written by :class:`JsonlTraceSink`."""
    dump = TraceDump()
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "span":
                dump.spans.append(Span.from_record(record))
            elif kind == "metrics":
                dump.metrics = record.get("metrics", {})
            elif kind == "meta":
                dump.meta = record
    dump.spans.sort(key=lambda span: (span.t_start, span.span_id))
    return dump


def _spans_of(source: Union[Tracer, TraceDump, Iterable[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return source.spans()
    if isinstance(source, TraceDump):
        return list(source.spans)
    return list(source)


def to_perfetto(
    source: Union[Tracer, TraceDump, Iterable[Span]],
    *,
    process_name: str = "repro-reasoner",
) -> Dict[str, Any]:
    """Build a Chrome Trace Event Format document from spans."""
    spans = _spans_of(source)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(span.t_start for span in spans)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        end = span.t_end if span.t_end is not None else span.t_start
        args: Dict[str, Any] = dict(span.attrs)
        args.update(span.counters)
        args["status"] = span.status
        if span.error:
            args["error"] = span.error
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": f"{span.kind}:{span.name}" if span.kind not in span.name else span.name,
                "cat": span.kind,
                "ts": (span.t_start - t0) * 1e6,
                "dur": max(end - span.t_start, 0.0) * 1e6,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(
    source: Union[Tracer, TraceDump, Iterable[Span]],
    path: Union[str, Path],
    *,
    process_name: str = "repro-reasoner",
) -> Path:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    destination = Path(path)
    document = to_perfetto(source, process_name=process_name)
    destination.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return destination


__all__ = ("TraceDump", "load_jsonl", "to_perfetto", "write_perfetto")
