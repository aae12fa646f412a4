"""The slot-machine join (Section 4, "Slot machine join").

The join technique of the paper is an indexed nested-loop join over a set of
iterators, one per joined predicate, enhanced with **dynamic in-memory
indexing**: hash indexes keyed by the join attributes are built as they are
needed, and probes go through them.  With hash indexes the cost of the join
tends to the number of facts of the first predicate.

:class:`CompiledRuleExecutor` is that join: the indexes are the fact store's
per-position dictionaries (:meth:`~repro.core.fact_store.FactStore.index`),
each built on its first probe and maintained by every insert from then on,
and the iterators are the steps of a compiled
:class:`~repro.engine.plan.RuleJoinPlan`.  Section 4 compiles the access
plan into an executable pipeline; here that goes down to the interpreter's
level.  Each plan is rendered into Python source — one generator function
in which every seed plan is a nest of ``for`` loops, every positional check
and slot write a line of straight code and every slot a local variable —
and compiled once per rule shape (:func:`~repro.core.rules.rule_shape`,
carried as ``plan.shape``): the rule with its predicate names, constants and
conditions taken out.  Those reach the kernel as a positional tuple, one
entry per occurrence, so the source holds no program text and rules of one
shape share one function; two shapes that render the same source share it
too.  A seed plan longer than :data:`MAX_NESTING` atoms continues in a
further function of the same source, so no function nests more blocks than
CPython allows.

A seed plan whose seed is not empty first binds what it probes, once: the
index of every probed position (the positions of the step's constants and
already-bound variables) and the dedup map of every head predicate
(:meth:`~repro.core.fact_store.FactStore.rows`).  Both are the store's live
objects, so a fact the fire path admits while the kernel is suspended is
seen by the remaining probes.

At the leaf of a rule with head templates and no existential, the kernel
tests the head rows against the store and drops a match whose heads are
all present, counting them as candidate facts; every other match goes to
:meth:`~repro.core.chase.ChaseEngine.fire_slots`.
"""

from __future__ import annotations

import linecache
import threading
import zlib
from typing import Callable, Dict, Iterator, List, Tuple

from .plan import HEAD_SLOT

#: Most kernel shapes kept compiled; the oldest is dropped first.  A
#: dropped shape's executors keep their function.
MAX_KERNELS = 256

#: Most body atoms one generated function nests a ``for`` loop for.
#: CPython refuses more than 20 statically nested blocks in one function,
#: so a longer body carries on in a further function, under ``yield from``.
MAX_NESTING = 16

_kernels: Dict[tuple, Tuple[Callable, str]] = {}
_kernels_lock = threading.Lock()


class CompiledRuleExecutor:
    """Executes a compiled :class:`~repro.engine.plan.RuleJoinPlan` against a store.

    This is the slot-machine join, on the chase hot path of every executor:
    the seed step scans (or index-probes) the current semi-naive delta,
    every further step probes the store's per-position indexes —
    choosing the most selective bound position, i.e. the smallest bucket —
    and variable bindings live in the kernel's local variables.
    ``source`` is the kernel's Python source, shared by every rule of the
    same shape; tracebacks show its lines under a ``<kernel:…>`` file name.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self._values = kernel_values(plan)
        self._kernel, self.source = _kernel_for(plan)

    def matches(
        self, store, round_index: int, *, result, tick=None, seed_lists=None
    ) -> Iterator[Tuple[List, List]]:
        """Enumerate the full body matches over the current delta.

        Yields a ``(slots, used_facts)`` pair per match that must fire: the
        slot values indexed like ``plan.variables`` and the matched facts in
        textual body order.  Atoms textually before the seed only match
        facts of earlier rounds (the standard semi-naive decomposition
        avoiding duplicate joins across seed choices).  ``tick``, when
        given, is called once per full match, dropped ones included; a
        dropped match adds its heads to ``result.candidate_facts``.

        ``store`` is the live :class:`~repro.core.fact_store.FactStore`: a
        fact the chase admits while this generator is suspended is probed
        by the remaining candidates of the same round.  ``seed_lists``, when
        given, supplies the seed candidates externally (one sequence per
        seed plan, aligned with ``plan.seed_plans``): the DRed rederivation
        round passes one seed atom's facts this way (a predicate's whole
        extent, or the facts that can join a deleted head), bypassing the
        store's own delta lookup while every positional check still runs
        per candidate.
        """
        return self._kernel(self._values, store, round_index, result, tick, seed_lists)


def _drops_duplicates(plan) -> bool:
    """True when a match whose head rows are all stored can be dropped unfired."""
    return plan.head_templates is not None and not plan.existentials


def kernel_values(plan) -> tuple:
    """The values the plan's kernel unpacks, one per occurrence.

    The head predicates and ground head terms of a rule that drops
    duplicates, then the predicates, constants and pushed conditions of
    every step, in the order the rendered kernel unpacks them.  Equal values
    are never merged: the plan's rule shape alone decides the source.
    """
    values: List[object] = []
    if _drops_duplicates(plan):
        for predicate, entries in plan.head_templates:
            values.append(predicate)
            values += [payload for kind, payload in entries if kind != HEAD_SLOT]
    for seed_plan in plan.seed_plans:
        for step in (seed_plan.seed,) + seed_plan.probes:
            values.append(step.predicate)
            values += [term for _, term in step.const_checks]
            values += step.conditions
    return tuple(values)


def render_kernel(plan) -> str:
    """The kernel's source: the plan's enumeration as straight-line code."""
    names: List[str] = []  # k0, k1, ...: the values, in kernel_values' order
    uses = set()
    kernel: List[str] = []
    functions = [("kernel", "", kernel)]  # (name, extra parameters, body)
    body = kernel

    def emit(depth: int, text: str) -> None:
        body.append("    " * depth + text)

    def value() -> str:
        names.append(f"k{len(names)}")
        return names[-1]

    tests = []  # one membership test per head row
    heads = []  # binds each head predicate's dedup map
    if _drops_duplicates(plan):
        for number, (_predicate, entries) in enumerate(plan.head_templates):
            heads.append(f"r{number} = store.rows({value()})")
            row = [f"s{p}" if k == HEAD_SLOT else value() for k, p in entries]
            tests.append(f"({', '.join(row)}{',' * (len(row) == 1)}) in r{number}")
    for index, seed_plan in enumerate(plan.seed_plans):
        seed = seed_plan.seed
        steps = (seed,) + seed_plan.probes
        # What the seed plan probes is bound once, when its seed is not
        # empty, and handed to each further function: the head dedup maps
        # and one index x<level>_<position> per probed position.
        binds = list(heads)
        shared = [f"r{number}" for number in range(len(heads))]
        shared += [
            f"x{level}_{pos}"
            for level, step in enumerate(steps)
            if level
            for pos, _ in step.const_checks + step.bound_checks
        ]
        bound = set()
        matched: List[str] = []  # the fact locals bound so far
        body, depth = kernel, 1
        for level, step in enumerate(steps):
            if level and not level % MAX_NESTING:
                # Carry on in a fresh function: its locals are passed in.
                name = f"kernel_{index}_{level}"
                args = ", ".join([f"s{slot}" for slot in sorted(bound)] + matched + shared)
                call = f"{name}(K, store, round_index, result, tick, seed_lists, {args})"
                emit(depth, f"yield from {call}")
                body, depth = [], 1
                functions.append((name, f", {args}", body))
            predicate = value()
            consts = [(pos, value()) for pos, _ in step.const_checks]
            candidates = f"c{level}"
            if not level:
                emit(1, f"# seed plan {index}: atom {seed.atom_index}")
                emit(1, "if seed_lists is None:")
                if consts:
                    first_pos, first = consts[0]
                    emit(2, f"c0 = store.delta_candidates({predicate}, {first_pos}, {first})")
                    for pos, name in consts[1:]:
                        emit(2, f"b = store.delta_candidates({predicate}, {pos}, {name})")
                        emit(2, "if len(b) < len(c0):")
                        emit(3, "c0 = b")
                else:
                    emit(2, f"c0 = store.delta_facts({predicate})")
                emit(1, "else:")
                emit(2, f"c0 = seed_lists[{index}]")
                if shared:
                    emit(1, "if c0:")
                    depth, binding_at = 2, len(kernel)
            elif consts or step.bound_checks:
                # The most selective bucket: an absent key empties it, and a
                # bucket of at most one fact ends the search.
                keys = consts + [(pos, f"s{slot}") for pos, slot in step.bound_checks]
                for pos, _ in keys:
                    binds.append(f"x{level}_{pos} = store.index({predicate}, {pos})")
                (pos, key), rest = keys[0], keys[1:]
                emit(depth, f"{candidates} = x{level}_{pos}.get({key}, ())")
                for pos, key in rest:
                    emit(depth, f"if len({candidates}) > 1:")
                    emit(depth + 1, f"b = x{level}_{pos}.get({key}, ())")
                    emit(depth + 1, f"if len(b) < len({candidates}):")
                    emit(depth + 2, f"{candidates} = b")
            else:
                emit(depth, f"{candidates} = store.by_predicate({predicate})")
            fact, terms = f"f{step.atom_index}", f"t{step.atom_index}"
            matched.append(fact)
            emit(depth, f"for {fact} in {candidates}:")
            depth += 1
            if level and step.atom_index < seed.atom_index:
                uses.add("rget")
                emit(depth, f"if rget({fact}, 0) >= round_index:")
                emit(depth + 1, "continue")
            emit(depth, f"{terms} = {fact}[1]")
            pairs = [(f"{terms}[{pos}]", name) for pos, name in consts]
            pairs += [(f"{terms}[{pos}]", f"s{slot}") for pos, slot in step.bound_checks]
            pairs += [(f"{terms}[{pos}]", f"{terms}[{p0}]") for pos, p0 in step.same_checks]
            checks = [f"len({terms}) != {step.arity}"]
            checks += [f"{a} is not {b}" for a, b in pairs]
            emit(depth, f"if {' or '.join(checks)}:")
            emit(depth + 1, "continue")
            for pos, slot in step.writes:
                emit(depth, f"s{slot} = {terms}[{pos}]")
                bound.add(slot)
            if step.conditions:
                uses.add("slots")
                for slot in sorted(bound):
                    emit(depth, f"slots[{slot}] = s{slot}")
                for _ in step.conditions:
                    emit(depth, f"if not {value()}.holds(slots):")
                    emit(depth + 1, "continue")
        emit(depth, "if tick is not None:")
        emit(depth + 1, "tick()")
        if tests:
            emit(depth, f"if {' and '.join(tests)}:")
            emit(depth + 1, f"result.candidate_facts += {len(tests)}")
            emit(depth + 1, "continue")
        slots = ", ".join(f"s{i}" for i in range(len(plan.variables)))
        facts = ", ".join(f"f{i}" for i in range(plan.body_length))
        emit(depth, f"yield [{slots}], [{facts}]")
        if shared:
            kernel[binding_at:binding_at] = [f"        {line}" for line in binds]
    if not plan.seed_plans:
        kernel.append("    yield from ()")
    prologue = [f"    {', '.join(names)}, = K"] if names else []
    prologue += [
        f"    {line}"
        for use, line in (
            ("rget", "rget = store._round_of.get"),
            ("slots", f"slots = [None] * {len(plan.variables)}"),
        )
        if use in uses
    ]
    source: List[str] = []
    for name, params, lines in functions:
        source.append(f"def {name}(K, store, round_index, result, tick, seed_lists{params}):")
        source += prologue + lines
    return "\n".join(source) + "\n"


def _kernel_for(plan) -> Tuple[Callable, str]:
    """The compiled kernel of the plan's rule shape and its source, rendered
    on first use; a shape whose source an earlier shape already rendered
    shares that shape's function."""
    entry = _kernels.get(plan.shape)
    if entry is not None:
        return entry
    source = render_kernel(plan)
    with _kernels_lock:
        entry = next((known for known in _kernels.values() if known[1] == source), None)
    if entry is None:
        filename = f"<kernel:{zlib.crc32(source.encode()):08x}>"
        namespace: Dict[str, object] = {}
        exec(compile(source, filename, "exec"), namespace)
        entry = (namespace["kernel"], source)
    with _kernels_lock:
        entry = _kernels.setdefault(plan.shape, entry)
        filename = entry[0].__code__.co_filename
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        while len(_kernels) > MAX_KERNELS:
            dropped, _ = _kernels.pop(next(iter(_kernels)))
            if all(kept is not dropped for kept, _ in _kernels.values()):
                linecache.cache.pop(dropped.__code__.co_filename, None)
    return entry
