"""Human-readable summaries of a traced reasoning run.

:func:`render_report` is what ``ReasoningResult.run_report()`` returns: a
plain-text digest (phases, top rules by time and by derivations, round
table, source table) computed from the run's spans.  All aggregation
helpers also accept a :class:`repro.obs.export.TraceDump`, so
``tools/trace_view.py`` reuses them on traces loaded back from JSONL.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .export import TraceDump
from .trace import Span, Tracer

SpanSource = Union[Tracer, TraceDump, Iterable[Span]]


def _spans(source: SpanSource) -> List[Span]:
    if isinstance(source, Tracer):
        return source.spans()
    if isinstance(source, TraceDump):
        return list(source.spans)
    return list(source)


def aggregate_rules(source: SpanSource) -> Dict[str, Dict[str, Any]]:
    """Per-rule totals across all rounds: fires, candidates, deduped, seconds."""
    totals: Dict[str, Dict[str, Any]] = {}
    for span in _spans(source):
        if span.kind != "rule":
            continue
        label = str(span.attrs.get("rule", span.name))
        entry = totals.setdefault(
            label,
            {"rule": label, "fires": 0, "candidates": 0, "deduped": 0, "seconds": 0.0},
        )
        entry["fires"] += span.counters.get("fires", 0)
        entry["candidates"] += span.counters.get("candidates", 0)
        entry["deduped"] += span.counters.get("deduped", 0)
        entry["seconds"] += span.duration
    return totals


def top_rules(
    source: SpanSource,
    limit: int = 5,
    *,
    by: str = "seconds",
) -> List[Dict[str, Any]]:
    """The ``limit`` busiest rules ordered by ``seconds`` or ``fires``."""
    entries = sorted(
        aggregate_rules(source).values(),
        key=lambda entry: (entry[by], entry["fires"]),
        reverse=True,
    )
    return entries[:limit]


def round_rows(source: SpanSource) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for span in _spans(source):
        if span.kind != "round":
            continue
        rows.append(
            {
                "round": span.attrs.get("round", len(rows) + 1),
                "delta_in": span.counters.get("delta_in", 0),
                "derived": span.counters.get("derived", 0),
                "resident_facts": span.counters.get("resident_facts", 0),
                "seconds": span.duration,
            }
        )
    rows.sort(key=lambda row: row["round"])
    return rows


def source_rows(source: SpanSource) -> List[Dict[str, Any]]:
    by_predicate: Dict[str, Dict[str, Any]] = {}
    for span in _spans(source):
        if span.kind == "source-scan":
            predicate = str(span.attrs.get("predicate", span.name))
            entry = by_predicate.setdefault(
                predicate,
                {
                    "predicate": predicate,
                    "scans": 0,
                    "cache_served": 0,
                    "rows_emitted": 0,
                    "retries": 0,
                    "seconds": 0.0,
                },
            )
            entry["scans"] += 1
            if span.attrs.get("cache_served"):
                entry["cache_served"] += 1
            entry["rows_emitted"] += span.counters.get("rows_emitted", 0)
            entry["seconds"] += span.duration
        elif span.kind == "source-retry":
            predicate = str(span.attrs.get("predicate", span.name))
            entry = by_predicate.setdefault(
                predicate,
                {
                    "predicate": predicate,
                    "scans": 0,
                    "cache_served": 0,
                    "rows_emitted": 0,
                    "retries": 0,
                    "seconds": 0.0,
                },
            )
            entry["retries"] += 1
    return sorted(by_predicate.values(), key=lambda row: row["predicate"])


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    table = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in table:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in table:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


PHASES = ("rewrite", "load", "chase", "answers")


def _phase_line(seconds: Mapping[str, float]) -> Optional[str]:
    """``phases:`` line from name → seconds: the lifecycle phases in order,
    then whatever else ``timings`` carries (``first_answer``, ``total``)."""
    keys = [kind for kind in PHASES if kind in seconds]
    keys += sorted(key for key in seconds if key not in PHASES)
    parts = [f"{key}={seconds[key]:.4f}s" for key in keys]
    return "phases: " + " ".join(parts) if parts else None


def render_trace(source: SpanSource, *, limit: int = 5) -> str:
    """Text report from spans alone (no ``ReasoningResult`` required)."""
    spans = _spans(source)
    lines: List[str] = []
    roots = [span for span in spans if span.kind == "run"]
    if roots:
        root = roots[0]
        header = [f"executor={root.attrs.get('executor', '?')}"]
        if "status" in root.attrs:
            header.append(f"status={root.attrs['status']}")
        header.append(f"wall={root.duration:.4f}s")
        for counter in ("facts", "derived", "rounds", "peak_resident_facts"):
            if counter in root.counters:
                header.append(f"{counter}={root.counters[counter]}")
        lines.append("== reasoning run report ==")
        lines.append(" ".join(header))
    else:
        lines.append("== reasoning run report (partial trace) ==")
    seconds: Dict[str, float] = {}
    for span in spans:
        if span.kind in PHASES:
            seconds[span.kind] = seconds.get(span.kind, 0.0) + span.duration
    phase = _phase_line(seconds)
    if phase:
        lines.append(phase)

    rules = top_rules(spans, limit=limit, by="seconds")
    if rules:
        lines.append("")
        lines.append(f"top {len(rules)} rules by time:")
        lines.extend(
            _format_table(
                ("rule", "fires", "candidates", "deduped", "seconds"),
                [
                    (r["rule"], r["fires"], r["candidates"], r["deduped"], r["seconds"])
                    for r in rules
                ],
            )
        )
        by_fires = top_rules(spans, limit=limit, by="fires")
        if [r["rule"] for r in by_fires] != [r["rule"] for r in rules]:
            lines.append("")
            lines.append(f"top {len(by_fires)} rules by derivations:")
            lines.extend(
                _format_table(
                    ("rule", "fires", "seconds"),
                    [(r["rule"], r["fires"], r["seconds"]) for r in by_fires],
                )
            )

    rounds = round_rows(spans)
    if rounds:
        lines.append("")
        lines.append("rounds:")
        lines.extend(
            _format_table(
                ("round", "delta_in", "derived", "resident", "seconds"),
                [
                    (r["round"], r["delta_in"], r["derived"], r["resident_facts"], r["seconds"])
                    for r in rounds
                ],
            )
        )

    sources = source_rows(spans)
    if sources:
        lines.append("")
        lines.append("sources:")
        lines.extend(
            _format_table(
                ("predicate", "scans", "cached", "rows", "retries", "seconds"),
                [
                    (
                        s["predicate"],
                        s["scans"],
                        s["cache_served"],
                        s["rows_emitted"],
                        s["retries"],
                        s["seconds"],
                    )
                    for s in sources
                ],
            )
        )

    errors = [span for span in spans if span.status == "error"]
    if errors:
        lines.append("")
        lines.append(f"errors ({len(errors)}):")
        for span in errors[:limit]:
            lines.append(f"  [{span.kind}] {span.name}: {span.error or 'error'}")
    return "\n".join(lines)


def render_report(result: Any, *, limit: int = 5) -> str:
    """Report for a ``ReasoningResult``; degrades to stats/timings when the
    run was not traced."""
    tracer = getattr(result, "trace", None)
    if tracer is not None:
        return render_trace(tracer, limit=limit)
    lines = ["== reasoning run report (untraced) =="]
    stats = result.stats() if callable(getattr(result, "stats", None)) else {}
    header = []
    for key in ("executor", "status", "facts", "derived_facts", "rounds"):
        if key in stats:
            header.append(f"{key}={stats[key]}")
    if header:
        lines.append(" ".join(header))
    # ``timings`` holds the same per-phase measurements a trace's spans do.
    phase = _phase_line(getattr(result, "timings", None) or {})
    if phase:
        lines.append(phase)
    lines.append("(re-run with trace=True for per-rule / per-round detail)")
    return "\n".join(lines)


__all__ = (
    "aggregate_rules",
    "top_rules",
    "round_rows",
    "source_rows",
    "render_trace",
    "render_report",
)
