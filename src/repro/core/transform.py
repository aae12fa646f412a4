"""Logic-optimizer rewritings applied before compiling a program (Section 4).

The paper's logic optimizer performs *elementary* rewritings (multiple-head
elimination, redundancy elimination) and *complex* ones (harmful-join
elimination, in :mod:`repro.core.harmful_joins`).  This module implements the
elementary rewritings plus the normalisation assumed by Algorithm 1, namely
that **existential quantification appears only in linear rules** (Section
3.4: "the second [condition is achieved] with an elementary logic
transformation").

All rewritings preserve the reasoning task: the rewritten program computes
the same facts for the original predicates (auxiliary predicates introduced
by the rewriting use a reserved ``_aux`` prefix and are excluded from
outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .atoms import Atom, Fact
from .rules import Program, Rule, rule_shape
from .terms import Variable

AUX_PREFIX = "_aux_"
"""Prefix of auxiliary predicates introduced by rewritings."""


def is_auxiliary_predicate(name: str) -> bool:
    """True for predicates introduced by the logic optimizer."""
    return name.startswith(AUX_PREFIX)


class _AuxNames:
    """Fresh auxiliary predicate names, clear of every name in ``program``
    (read at the first request: most programs need none)."""

    def __init__(self, program: Program) -> None:
        self._program = program
        self._used: Optional[Set[str]] = None

    def fresh(self, base: str) -> str:
        if self._used is None:
            self._used = {p.name for p in self._program.predicates()}
        candidate = f"{AUX_PREFIX}{base}"
        counter = 0
        while candidate in self._used:
            counter += 1
            candidate = f"{AUX_PREFIX}{base}_{counter}"
        self._used.add(candidate)
        return candidate


def split_multiple_heads(program: Program) -> Program:
    """Rewrite rules with several head atoms into single-head rules.

    When the head atoms share existentially quantified variables the split
    must preserve the *joint* witnesses: an auxiliary atom collecting every
    head variable is produced by the original body, and each original head
    atom is derived from the auxiliary atom by a linear rule.  Without shared
    existentials the rule is simply split into one rule per head atom.
    """
    rewritten = program.copy()
    rewritten.rules = []
    aux_names = _AuxNames(program)
    for rule in program.rules:
        if len(rule.head) == 1:
            rewritten.add_rule(rule)
            continue
        existentials = set(rule.existential_variables())
        shared = _existentials_shared_between_heads(rule, existentials)
        if not shared:
            for index, head_atom in enumerate(rule.head):
                rewritten.add_rule(
                    Rule(
                        body=rule.body,
                        head=(head_atom,),
                        conditions=rule.conditions,
                        assignments=rule.assignments,
                        aggregate=rule.aggregate,
                        label=f"{rule.label or 'rule'}_h{index + 1}",
                    )
                )
            continue
        aux_name = aux_names.fresh(f"{rule.label or 'rule'}_head")
        head_variables = tuple(rule.head_variables())
        aux_atom = Atom(aux_name, head_variables)
        rewritten.add_rule(
            Rule(
                body=rule.body,
                head=(aux_atom,),
                conditions=rule.conditions,
                assignments=rule.assignments,
                aggregate=rule.aggregate,
                label=f"{rule.label or 'rule'}_aux",
            )
        )
        for index, head_atom in enumerate(rule.head):
            rewritten.add_rule(
                Rule(
                    body=(aux_atom,),
                    head=(head_atom,),
                    label=f"{rule.label or 'rule'}_h{index + 1}",
                )
            )
    return rewritten


def _existentials_shared_between_heads(rule: Rule, existentials: set) -> set:
    """Existential variables occurring in more than one head atom."""
    counts: Dict[Variable, int] = {}
    for atom in rule.head:
        for variable in set(atom.variables()):
            if variable in existentials:
                counts[variable] = counts.get(variable, 0) + 1
    return {v for v, count in counts.items() if count > 1}


def isolate_existentials(program: Program) -> Program:
    """Ensure existential quantification appears only in linear rules.

    Every non-linear rule with existentials ``φ(x̄, ȳ) → ∃z̄ H(x̄, z̄)`` is
    split into ``φ(x̄, ȳ) → Aux(x̄)`` (no existentials, same body) followed by
    the linear rule ``Aux(x̄) → ∃z̄ H(x̄, z̄)``.  Rules that are already linear
    or existential-free pass through unchanged.
    """
    rewritten = program.copy()
    rewritten.rules = []
    aux_names = _AuxNames(program)
    for rule in program.rules:
        if rule.is_linear() or not rule.has_existentials():
            rewritten.add_rule(rule)
            continue
        frontier = tuple(
            v
            for v in rule.head_variables()
            if v not in set(rule.existential_variables())
        )
        aux_name = aux_names.fresh(f"{rule.label or 'rule'}_exist")
        aux_atom = Atom(aux_name, frontier)
        rewritten.add_rule(
            Rule(
                body=rule.body,
                head=(aux_atom,),
                conditions=rule.conditions,
                assignments=rule.assignments,
                aggregate=rule.aggregate,
                label=f"{rule.label or 'rule'}_body",
            )
        )
        rewritten.add_rule(
            Rule(
                body=(aux_atom,),
                head=rule.head,
                label=f"{rule.label or 'rule'}_exists",
            )
        )
    return rewritten


def remove_duplicate_rules(program: Program) -> Program:
    """Drop rules that are identical up to variable renaming.

    A rule is keyed by its :func:`~repro.core.rules.rule_shape`, its
    predicates and constants in occurrence order (constants compared as the
    matcher compares them), and the text of each condition, assignment and
    aggregate with the shape numbers of the variables it reads: two rules
    of one key map onto each other by the bijection of their numberings.
    """
    rewritten = program.copy()
    rewritten.rules = []
    seen: set = set()
    for rule in program.rules:
        shape, numbering, _ = rule_shape(rule)
        key = [shape]
        for atom in (*rule.body, *rule.head):
            key.append(atom.predicate)
            key += [term for term in atom.terms if not isinstance(term, Variable)]
        computations = [*rule.conditions, *rule.assignments]
        if rule.aggregate is not None:
            computations.append(rule.aggregate)
        if computations:
            number = dict(zip(numbering, range(len(numbering))))
            key += [(str(c), tuple([number[v] for v in c.variables()])) for c in computations]
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        rewritten.rules.append(rule)
    return rewritten


def normalize_for_chase(program: Program) -> Program:
    """Full elementary normalisation pipeline used by the reasoner.

    1. remove duplicate rules;
    2. split multiple heads;
    3. isolate existential quantification into linear rules.
    """
    return isolate_existentials(split_multiple_heads(remove_duplicate_rules(program)))


# --------------------------------------------------------------------------
# Uniform view of the answer-preserving transforms (translation validation)
# --------------------------------------------------------------------------


@dataclass
class TransformApplication:
    """One optimizer pass applied to a (normalised) program, in plain data.

    The translation-validation oracle (:mod:`repro.verify`) compares
    ``program`` + ``seeds`` + ``edb_filters`` against the input program over
    all bounded databases, so every transform must express its effect in
    these three fields: a rewritten rule set, extra ground facts added to
    each run's database (magic seeds), and per-source row filters in the
    serialisable ``(position, op, value)`` triple form of
    :func:`repro.engine.plan.pushdown_constraint_spec`.
    """

    name: str
    program: Program
    seeds: Tuple[Fact, ...] = ()
    edb_filters: Dict[str, Tuple[Tuple[int, str, object], ...]] = field(
        default_factory=dict
    )
    changed: bool = False
    detail: str = ""


#: Transform names accepted by :func:`apply_transform` (the ``-unsound``
#: variant is a deliberately broken magic rewriting for oracle self-tests).
TRANSFORMS = ("magic", "slice", "pushdown", "magic-unsound")


def apply_transform(
    program: Program, query: Atom, name: str, analysis=None
) -> TransformApplication:
    """Apply one answer-preserving transform and describe it in plain data.

    ``program`` must already be normalised (:func:`normalize_for_chase`);
    ``query`` is the point query driving magic/slicing and naming the
    answer predicate for pushdown.  Engine-layer passes are imported lazily
    to keep :mod:`repro.core` import-light.
    """
    if name == "magic" or name == "magic-unsound":
        from .magic import rewrite_with_magic, unsound_variant

        result = rewrite_with_magic(program, query, analysis)
        if name == "magic-unsound":
            result = unsound_variant(result)
        return TransformApplication(
            name=name,
            program=result.program,
            seeds=tuple(result.seeds),
            changed=result.changed,
            detail=result.reason or f"{result.magic_rules} demand rules",
        )
    if name == "slice":
        from ..engine.plan import backward_slice

        _, rules = backward_slice(program, [query.predicate])
        sliced = program.copy()
        sliced.rules = list(rules)
        return TransformApplication(
            name=name,
            program=sliced,
            changed=len(rules) != len(program.rules),
            detail=f"kept {len(rules)}/{len(program.rules)} rules",
        )
    if name == "pushdown":
        from ..engine.plan import pushdown_constraint_spec

        spec = pushdown_constraint_spec(
            program, sorted(program.edb_predicates()), [query.predicate]
        )
        return TransformApplication(
            name=name,
            program=program,
            edb_filters=dict(spec),
            changed=bool(spec),
            detail=f"pushdown on {sorted(spec)}" if spec else "no pushdown applies",
        )
    raise ValueError(f"unknown transform {name!r}; use one of {', '.join(TRANSFORMS)}")
