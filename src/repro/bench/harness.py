"""Scenario runner used by all benchmarks (one per paper table/figure).

The harness runs a :class:`~repro.workloads.scenario.Scenario` end to end on
one of the engines and returns a :class:`BenchmarkRow` with the elapsed time
and output sizes.  Engines:

``vadalog``
    The full system: logic optimizer + warded termination strategy
    (Algorithm 1).
``vadalog-trivial``
    The same system with the trivial global isomorphism-check strategy
    (the Section 6.6 ablation).
``restricted-chase``
    The restricted-chase baseline (Graal / LLunatic / PDQ style).
``skolem-chase``
    The unrestricted Skolem-chase baseline (DLV / RDFox style).
``recursive-sql``
    The recursive-CTE baseline (PostgreSQL / MySQL / Oracle style); only for
    existential-free programs.
``graph-bfs``
    The graph-traversal baseline (Neo4J style); only for the PSC reachability
    shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..baselines.graph_engine import GraphTraversalEngine
from ..baselines.restricted_chase import RestrictedChaseEngine
from ..baselines.skolem_chase import SkolemChaseEngine
from ..baselines.sql_recursion import RecursiveSqlEngine
from ..core.limits import STATUS_COMPLETE, ExecutionBudget
from ..engine.reasoner import VadalogReasoner
from ..workloads.scenario import Scenario

ENGINES = (
    "vadalog",
    "vadalog-trivial",
    "restricted-chase",
    "skolem-chase",
    "recursive-sql",
    "graph-bfs",
)


@dataclass
class BenchmarkRow:
    """One measurement: a scenario run on one engine."""

    scenario: str
    engine: str
    elapsed_seconds: float
    output_facts: int
    total_facts: int
    params: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        data = {
            "scenario": self.scenario,
            "engine": self.engine,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "output_facts": self.output_facts,
            "total_facts": self.total_facts,
        }
        data.update(self.params)
        data.update(self.extra)
        return data


def _run_vadalog(scenario: Scenario, strategy: str) -> BenchmarkRow:
    started = time.perf_counter()
    reasoner = VadalogReasoner(scenario.program.copy(), strategy=strategy)
    result = reasoner.reason(
        database=scenario.database,
        outputs=scenario.outputs,
        budget=ExecutionBudget(max_rounds=5000),
    )
    elapsed = time.perf_counter() - started
    if result.status != STATUS_COMPLETE:
        # A budget stop is a partial run: never record it as a (fast) row.
        raise RuntimeError(
            f"{scenario.name}: vadalog run ended {result.status} ({result.stop_reason})"
        )
    output_facts = sum(len(result.answers.facts(p)) for p in scenario.outputs)
    return BenchmarkRow(
        scenario=scenario.name,
        engine="vadalog" if strategy == "warded" else "vadalog-trivial",
        elapsed_seconds=elapsed,
        output_facts=output_facts,
        total_facts=len(result.chase.store),
        params=dict(scenario.params),
        extra={
            "chase_steps": result.chase.chase_steps,
            "isomorphism_checks": result.chase.strategy.stats.isomorphism_checks,
            "stored_facts": result.chase.strategy.stats.stored_facts,
        },
    )


def _run_restricted(scenario: Scenario) -> BenchmarkRow:
    engine = RestrictedChaseEngine(scenario.program.copy(), max_rounds=5000)
    started = time.perf_counter()
    result = engine.run(scenario.database.facts())
    elapsed = time.perf_counter() - started
    output_facts = sum(len(result.facts(p)) for p in scenario.outputs)
    return BenchmarkRow(
        scenario=scenario.name,
        engine="restricted-chase",
        elapsed_seconds=elapsed,
        output_facts=output_facts,
        total_facts=len(result.store),
        params=dict(scenario.params),
        extra={"homomorphism_checks": result.homomorphism_checks},
    )


def _run_skolem(scenario: Scenario) -> BenchmarkRow:
    engine = SkolemChaseEngine(scenario.program.copy(), max_rounds=5000)
    started = time.perf_counter()
    result = engine.run(scenario.database.facts())
    elapsed = time.perf_counter() - started
    output_facts = sum(len(result.facts(p)) for p in scenario.outputs)
    return BenchmarkRow(
        scenario=scenario.name,
        engine="skolem-chase",
        elapsed_seconds=elapsed,
        output_facts=output_facts,
        total_facts=len(result.store),
        params=dict(scenario.params),
        extra={"grounded_instances": getattr(result, "grounded_instances", 0)},
    )


def _run_sql(scenario: Scenario) -> BenchmarkRow:
    engine = RecursiveSqlEngine(scenario.program.copy(), max_rounds=5000)
    started = time.perf_counter()
    result = engine.run(scenario.database.facts())
    elapsed = time.perf_counter() - started
    output_facts = sum(len(result.facts(p)) for p in scenario.outputs)
    return BenchmarkRow(
        scenario=scenario.name,
        engine="recursive-sql",
        elapsed_seconds=elapsed,
        output_facts=output_facts,
        total_facts=len(result.store),
        params=dict(scenario.params),
    )


def _run_graph(scenario: Scenario) -> BenchmarkRow:
    """Graph-BFS baseline for the PSC-shaped scenarios (Control + KeyPerson)."""
    control = [tuple(r) for r in scenario.database.relation("Control").tuples]
    key_persons = [tuple(r) for r in scenario.database.relation("KeyPerson").tuples]
    started = time.perf_counter()
    engine = GraphTraversalEngine(control)
    result = engine.propagate_labels(key_persons)
    elapsed = time.perf_counter() - started
    return BenchmarkRow(
        scenario=scenario.name,
        engine="graph-bfs",
        elapsed_seconds=elapsed,
        output_facts=len(result.derived_pairs),
        total_facts=len(result.derived_pairs),
        params=dict(scenario.params),
        extra={"visited_edges": result.visited_edges},
    )


def run_scenario(scenario: Scenario, engine: str = "vadalog") -> BenchmarkRow:
    """Run one scenario on one engine and return its measurement row."""
    if engine == "vadalog":
        return _run_vadalog(scenario, "warded")
    if engine == "vadalog-trivial":
        return _run_vadalog(scenario, "trivial-isomorphism")
    if engine == "restricted-chase":
        return _run_restricted(scenario)
    if engine == "skolem-chase":
        return _run_skolem(scenario)
    if engine == "recursive-sql":
        return _run_sql(scenario)
    if engine == "graph-bfs":
        return _run_graph(scenario)
    raise ValueError(f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")


def run_sweep(
    scenarios: Sequence[Scenario], engines: Sequence[str] = ("vadalog",)
) -> List[BenchmarkRow]:
    """Run every scenario on every engine (the generic sweep used by figures)."""
    rows: List[BenchmarkRow] = []
    for scenario in scenarios:
        for engine in engines:
            rows.append(run_scenario(scenario, engine))
    return rows
