"""Scaling-curve sweeps along the parametric iWarded knob axes.

The paper's evaluation (Section 6.1, Figures 6/8) sweeps *generated
scenario families* along controlled axes instead of timing a handful of
fixed programs.  This module does the same over the parametric generator of
:mod:`repro.workloads.iwarded`: every :class:`SweepAxis` varies one knob
(recursion chain depth, existential density, predicate arity, join fan-in,
fact-set size) while the others stay at the sweep defaults, and
:func:`run_sweep` measures each grid point on the requested executors —
wall-clock, derived facts and peak-resident facts per step — producing the
*curves* that ``tools/check_bench.py --scaling-curves`` gates.

Every measured point is **answer-checked**: the reference executor
(``naive``) materialises the same grid point once and each measured
executor must reproduce its ground answers exactly and its null-answer
*pattern set* per output predicate — the same contract the executor
differentials enforce for recursive-existential scenarios, where
derivation order may retain different (homomorphically equivalent,
pattern-identical) null witnesses.

Two grid scales exist: the ``full`` grid is the nightly-marked test of
``tests/test_scenario_lab.py``; the ``smoke`` grid is small enough for the
per-PR CI gate and the tier-1 smoke test, and its curve points are
committed to ``benchmarks/baseline_smoke.json`` for the gate.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.isomorphism import pattern_key
from .iwarded import parametric_scenario
from .scenario import Scenario

#: Executors a sweep measures unless told otherwise, at both scales.
SWEEP_EXECUTORS: Tuple[str, ...] = ("compiled", "streaming")
#: The answer-check reference executor.
REFERENCE_EXECUTOR = "naive"

#: ``facts_per_predicate`` used on the axes that do not sweep the fact-set
#: size themselves.
FULL_SWEEP_FACTS = 20
SMOKE_SWEEP_FACTS = 6


@dataclass(frozen=True)
class SweepAxis:
    """One knob axis of the sweep grid.

    ``knob`` is the :func:`repro.workloads.iwarded.parametric_config`
    keyword the axis varies; ``full`` and ``smoke`` are its grid values at
    the two scales (always >= 4 points, the acceptance floor).
    """

    name: str
    knob: str
    full: Tuple[object, ...]
    smoke: Tuple[object, ...]

    def values(self, smoke: bool) -> Tuple[object, ...]:
        return self.smoke if smoke else self.full


#: The sweep grid: one axis per generator knob.
SWEEP_AXES: Tuple[SweepAxis, ...] = (
    SweepAxis("recursion-depth", "recursion_depth", (1, 2, 4, 6), (1, 2, 3, 4)),
    SweepAxis(
        "existential-density",
        "existential_density",
        (0.0, 0.25, 0.5, 1.0),
        (0.0, 0.25, 0.5, 1.0),
    ),
    SweepAxis("arity", "arity", (2, 3, 4, 5), (2, 3, 4, 5)),
    SweepAxis("join-fanin", "join_fanin", (2, 3, 4, 5), (2, 3, 4, 5)),
    SweepAxis("fact-size", "facts_per_predicate", (10, 20, 40, 80), (4, 6, 8, 10)),
)


def axis_by_name(name: str) -> SweepAxis:
    for axis in SWEEP_AXES:
        if axis.name == name:
            return axis
    raise ValueError(
        f"unknown sweep axis {name!r}; known axes: "
        f"{', '.join(a.name for a in SWEEP_AXES)}"
    )


def grid_scenario(axis: SweepAxis, value: object, smoke: bool = False) -> Scenario:
    """The scenario of one grid point: ``axis.knob = value``, rest default."""
    knobs: Dict[str, object] = {
        "facts_per_predicate": SMOKE_SWEEP_FACTS if smoke else FULL_SWEEP_FACTS
    }
    knobs[axis.knob] = value
    return parametric_scenario(**knobs)


def _answer_signature(result, outputs: Sequence[str]) -> Dict[str, object]:
    """Executor-comparable answer digest: exact ground facts + null patterns."""
    signature: Dict[str, object] = {}
    for predicate in outputs:
        facts = result.answers.facts_by_predicate.get(predicate, [])
        ground = frozenset(f for f in facts if not f.has_nulls)
        patterns = frozenset(pattern_key(f) for f in facts if f.has_nulls)
        signature[predicate] = (ground, patterns)
    return signature


def _reason(scenario: Scenario, executor: str):
    from ..engine.reasoner import VadalogReasoner

    reasoner = VadalogReasoner(scenario.program.copy(), executor=executor)
    return reasoner.reason(database=scenario.database, outputs=scenario.outputs)


class SweepAnswerMismatch(AssertionError):
    """A measured executor disagreed with the reference on a grid point."""


def run_axis(
    axis: SweepAxis,
    executors: Sequence[str],
    smoke: bool = False,
    measure_runs: int = 1,
) -> List[Dict[str, object]]:
    """Measure one axis: every grid value on every executor.

    Returns one point-row per (value, executor) with the curve metrics.
    Every (value, executor) result is compared to one reference
    (:data:`REFERENCE_EXECUTOR`) run of the same grid point; a mismatch
    raises :class:`SweepAnswerMismatch` — a sweep that cannot vouch for its
    answers must not produce curves.
    """
    points: List[Dict[str, object]] = []
    for value in axis.values(smoke):
        scenario = grid_scenario(axis, value, smoke=smoke)
        reference = _answer_signature(
            _reason(scenario, REFERENCE_EXECUTOR), scenario.outputs
        )
        for executor in executors:
            samples: List[float] = []
            result = None
            for _ in range(max(1, measure_runs)):
                started = time.perf_counter()
                result = _reason(scenario, executor)
                samples.append(time.perf_counter() - started)
            if _answer_signature(result, scenario.outputs) != reference:
                raise SweepAnswerMismatch(
                    f"sweep point {axis.name}={value} [{executor}] disagrees "
                    f"with the {REFERENCE_EXECUTOR} reference"
                )
            points.append(
                {
                    "axis": axis.name,
                    "knob": axis.knob,
                    "value": value,
                    "scenario": scenario.name,
                    "rules": len(scenario.program.rules),
                    "db_facts": len(scenario.database),
                    "executor": executor,
                    "elapsed_seconds": round(statistics.median(samples), 4),
                    "total_facts": len(result.chase.store),
                    "derived_facts": len(result.chase.derived_facts()),
                    "rounds": result.chase.rounds,
                    "peak_resident_facts": result.chase.peak_resident_facts,
                    "answers": len(result.answers),
                    "answer_checked": True,
                }
            )
    return points


def run_sweep(
    executors: Sequence[str] = SWEEP_EXECUTORS,
    smoke: bool = False,
    axes: Optional[Sequence[str]] = None,
    measure_runs: int = 1,
) -> Dict[str, object]:
    """Run the grid sweep and return the curve section.

    The result maps every axis to its curve points (see :func:`run_axis`)
    plus enough context (grid values, executors, reference) for
    ``tools/check_bench.py --scaling-curves`` to re-derive expectations.
    """
    selected = (
        [axis_by_name(name) for name in axes]
        if axes is not None
        else list(SWEEP_AXES)
    )
    curves: Dict[str, object] = {}
    for axis in selected:
        curves[axis.name] = {
            "knob": axis.knob,
            "values": list(axis.values(smoke)),
            "points": run_axis(
                axis,
                executors,
                smoke=smoke,
                measure_runs=measure_runs,
            ),
        }
    return {
        "mode": "smoke" if smoke else "full",
        "executors": list(executors),
        "answer_reference": REFERENCE_EXECUTOR,
        "facts_per_predicate_default": SMOKE_SWEEP_FACTS if smoke else FULL_SWEEP_FACTS,
        "axes": curves,
    }
