"""Query-driven magic-set rewriting, existential-safe for warded programs.

The paper's logic optimizer (Section 4) rewrites a program *before* it is
compiled; this module adds the classic query-driven rewriting missing from
the elementary passes of :mod:`repro.core.transform`: **magic sets** with
binding-pattern (adornment) propagation, in the spirit of the
streaming-architecture rewritings of Baldazzi et al. (arXiv:2311.12236).
Given a query atom such as ``Control("f0", Y)`` the rewriting

1. computes, per intensional predicate reachable from the query, the set of
   argument positions that arrive **bound** (one global adornment per
   predicate — when several occurrences demand different patterns the meet,
   i.e. the intersection of their bound positions, is used, which is always
   sound);
2. adds a **magic guard** ``_aux_magic_p_<adornment>(bound args)`` in front
   of every rule body defining a demanded predicate, so the rule only fires
   for bindings some consumer actually asked for;
3. derives the magic (demand) facts through **magic rules** following the
   textual sideways-information-passing order of each body, seeded by the
   ``_aux_magic_*`` **EDB facts** carrying the query constants;
4. drops every rule outside the backward slice of the query (the same
   relevance pruning the streaming pipeline applies per predicate —
   :func:`repro.engine.plan.backward_slice` — now shared by *all*
   executors, with the magic guards adding binding-level pruning on top).

Existential safety (Warded Datalog±)
------------------------------------

Plain magic sets are only correct for Datalog.  Under existential rules a
magic guard can cut derivations that certain answers depend on (a pruned
fact may be the ward-side witness that lets a later rule export a labelled
null), and a guard joined on a dangerous variable would destroy the ward.
The rewriting is made *existential-safe* by construction:

* an adornment position is only considered bound when it is an
  **unaffected** position (:func:`repro.core.wardedness.affected_positions`)
  — affected positions may host labelled nulls, so guards never constrain
  them and magic predicates provably contain ground constants only;
* sideways information passing only treats a variable as bound when it
  occurs at an unaffected position of an earlier body atom, which keeps
  every magic *rule* head ground as well;
* a rule **falls back to its unrewritten form** whenever a guard could cut
  its head or its ward: rules with existential quantification (guarding the
  linear rules produced by ``isolate_existentials`` would re-introduce
  joins around existentials, breaking the Algorithm-1 normal form) and
  multi-head rules are never guarded, and adornment positions where any
  defining rule carries a computed (assignment/aggregate) or non-harmless
  head term are weakened away for *all* rules of that predicate.  A
  fallback rule over-computes its predicate, which preserves every certain
  answer (the derived-fact set is monotone in the rule set);
* predicates scanned by negative constraints or EGDs (and everything they
  depend on) are demanded with the all-free adornment, i.e. computed in
  full, mirroring the hidden drain sinks of the streaming pipeline;
* programs using ``Dom`` active-domain guards are not rewritten at all:
  pruning a derivation would shrink the active domain itself (the same veto
  :func:`repro.engine.plan.compile_source_pushdowns` applies).

Because guard variables are harmless in every guarded rule (a variable at
an unaffected head position always has an unaffected body occurrence),
adding the guard atom changes neither the rule's ward nor its variable
roles: a warded program stays warded and Algorithm 1's termination
guarantee carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .atoms import Atom, Fact, Position
from .rules import Program, Rule
from .terms import Constant, Variable
from .transform import AUX_PREFIX
from .wardedness import ProgramAnalysis, VariableRole, analyse_program

MAGIC_PREFIX = f"{AUX_PREFIX}magic_"
"""Prefix of the demand predicates introduced by the rewriting."""

REWRITES = ("magic", "none")
"""Accepted values of the reasoner's ``rewrite=`` knob."""


class MagicRewriteError(Exception):
    """Internal invariant violation; callers fall back to the unrewritten run."""


def is_magic_predicate(name: str) -> bool:
    """True for the ``_aux_magic_*`` demand predicates."""
    return name.startswith(MAGIC_PREFIX)


def magic_predicate_name(predicate: str, bound: FrozenSet[int], arity: int) -> str:
    """Name of the demand predicate for ``predicate`` under an adornment.

    The adornment is rendered in the classic ``b``/``f`` notation so the
    rewritten program stays readable in ``explain()`` output and tests.
    """
    adornment = "".join("b" if i in bound else "f" for i in range(arity))
    return f"{MAGIC_PREFIX}{predicate}_{adornment}"


@dataclass
class MagicRewriteResult:
    """Outcome of one magic-set rewriting.

    ``program`` is the rewritten program (magic rules first, then the
    guarded/fallback rules of the backward slice); ``seeds`` are the
    ``_aux_magic_*`` EDB facts that must be added to the database of every
    run.  When ``changed`` is false the rewriting declined (``reason`` says
    why) and ``program`` is the input program unchanged.
    """

    program: Program
    query: Atom
    seeds: List[Fact] = field(default_factory=list)
    #: Final per-predicate adornments (bound position sets), for predicates
    #: that actually received a guard.
    adornments: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    guarded_rules: int = 0
    fallback_rules: int = 0
    magic_rules: int = 0
    pruned_rules: int = 0
    changed: bool = False
    reason: str = ""

    def stats(self) -> Dict[str, object]:
        return {
            "magic_changed": self.changed,
            "magic_guarded_rules": self.guarded_rules,
            "magic_fallback_rules": self.fallback_rules,
            "magic_demand_rules": self.magic_rules,
            "magic_pruned_rules": self.pruned_rules,
            "magic_seeds": len(self.seeds),
            "magic_bound_positions": {
                predicate: sorted(bound)
                for predicate, bound in sorted(self.adornments.items())
            },
            **({"magic_skip_reason": self.reason} if self.reason else {}),
        }


def _unchanged(program: Program, query: Atom, reason: str) -> MagicRewriteResult:
    return MagicRewriteResult(program=program, query=query, changed=False, reason=reason)


def _rule_static_guardable(rule: Rule) -> bool:
    """Structural per-rule check: may this rule carry a magic guard at all?"""
    return len(rule.head) == 1 and not rule.has_existentials()


def _rule_safe_positions(rule: Rule, analysis: ProgramAnalysis) -> Set[int]:
    """Head positions of ``rule`` a guard may bind without cutting the ward.

    A position is safe when the head term there is a ground constant or a
    *harmless* body variable; computed (assignment/aggregate) variables and
    harmful/dangerous ones are excluded, so the guard atom shares only
    harmless variables with every other body atom.
    """
    try:
        roles = analysis.analysis_for(rule).roles
    except KeyError:
        roles = {}
    head = rule.head[0]
    safe: Set[int] = set()
    for index, term in enumerate(head.terms):
        if isinstance(term, Constant):
            safe.add(index)
        elif isinstance(term, Variable) and roles.get(term) is VariableRole.HARMLESS:
            safe.add(index)
    return safe


def _guard_atom(rule: Rule, bound: FrozenSet[int]) -> Atom:
    head = rule.head[0]
    terms = tuple(head.terms[i] for i in sorted(bound))
    return Atom(magic_predicate_name(head.predicate, bound, head.arity), terms)


def _sip_walk(
    rule: Rule,
    guarded: bool,
    bound: FrozenSet[int],
    affected: FrozenSet[Position],
    idb: Set[str],
) -> Iterator[Tuple[Atom, Optional[Set[int]], Set[Variable], List[Atom]]]:
    """Yield ``(atom, demand, bound_vars_before, prefix_before)`` per body atom.

    Implements the textual sideways-information-passing order: a variable
    counts as bound when it is a guard variable or occurs at an unaffected
    position of an earlier relational body atom (never at an affected one —
    affected positions may carry labelled nulls at runtime, and magic facts
    must stay ground).  ``demand`` is the set of positions of ``atom`` that
    arrive bound (``None`` for extensional atoms, which need no demand).
    """
    bound_vars: Set[Variable] = set()
    if guarded:
        head = rule.head[0]
        for index in sorted(bound):
            term = head.terms[index]
            if isinstance(term, Variable):
                bound_vars.add(term)
    prefix: List[Atom] = []
    for atom in rule.relational_body:
        demand: Optional[Set[int]] = None
        if atom.predicate in idb:
            demand = {
                i
                for i, term in enumerate(atom.terms)
                if isinstance(term, Constant)
                or (isinstance(term, Variable) and term in bound_vars)
            }
        yield atom, demand, set(bound_vars), list(prefix)
        for i, term in enumerate(atom.terms):
            if isinstance(term, Variable) and Position(atom.predicate, i) not in affected:
                bound_vars.add(term)
        prefix.append(atom)


def _solve_adornments(
    relevant_rules: List[Rule],
    query: Atom,
    affected: FrozenSet[Position],
    idb: Set[str],
    analysis: ProgramAnalysis,
    full_predicates: Set[str],
) -> Dict[str, FrozenSet[int]]:
    """Greatest fixpoint of the per-predicate bound-position sets.

    Starts from the *top* — for every demanded predicate, the unaffected
    head positions that are guard-safe in each of its structurally
    guardable defining rules — pinned to the query's constant positions for
    the query predicate and to the all-free adornment for predicates that
    constraints/EGDs scan in full.  Each pass recomputes every demand under
    the current state and meets them by intersection; the demand operator
    is monotone in the state, so the sets only shrink and the iteration
    converges to the greatest safe adornment assignment.
    """
    rules_defining: Dict[str, List[Rule]] = {}
    for rule in relevant_rules:
        for name in rule.head_predicate_names():
            rules_defining.setdefault(name, []).append(rule)

    def top_of(predicate: str) -> FrozenSet[int]:
        defining = rules_defining.get(predicate, [])
        guardable = [r for r in defining if _rule_static_guardable(r)]
        if not guardable:
            return frozenset()
        safe = set.intersection(
            *(_rule_safe_positions(r, analysis) for r in guardable)
        )
        return frozenset(
            i for i in safe if Position(predicate, i) not in affected
        )

    query_bound = frozenset(
        i for i, t in enumerate(query.terms) if not isinstance(t, Variable)
    )

    demanded = {name for name in rules_defining if name in idb}
    state: Dict[str, FrozenSet[int]] = {}
    for predicate in demanded:
        top = top_of(predicate)
        if predicate in full_predicates:
            top = frozenset()
        if predicate == query.predicate:
            top &= query_bound
        state[predicate] = top

    while True:
        demands: Dict[str, List[FrozenSet[int]]] = {
            predicate: [] for predicate in state
        }
        if query.predicate in demands:
            demands[query.predicate].append(state[query.predicate] & query_bound)
        for rule in relevant_rules:
            head_pred = rule.head[0].predicate if len(rule.head) == 1 else None
            bound = state.get(head_pred, frozenset()) if head_pred else frozenset()
            guarded = bool(bound) and _rule_static_guardable(rule)
            for atom, demand, _vars, _prefix in _sip_walk(
                rule, guarded, bound, affected, idb
            ):
                if demand is None or atom.predicate not in demands:
                    continue
                demands[atom.predicate].append(frozenset(demand))
        new_state: Dict[str, FrozenSet[int]] = {}
        for predicate, sets in demands.items():
            if sets:
                met = frozenset.intersection(*sets)
            else:
                met = frozenset()
            new_state[predicate] = state[predicate] & met
        if new_state == state:
            return state
        state = new_state


def rewrite_with_magic(
    program: Program,
    query: Atom,
    analysis: Optional[ProgramAnalysis] = None,
) -> MagicRewriteResult:
    """Rewrite ``program`` for a point query, preserving certain answers.

    ``query`` is an atom over the program's vocabulary whose constant
    arguments are the bound positions (``Control("f0", Y)`` asks for the
    companies controlled by ``f0``).  The result's ``program`` must be run
    together with the result's ``seeds``; answers are read from the query's
    own predicate, exactly as in the original program.

    The rewriting declines (``changed=False``) when there is nothing it can
    soundly do: ``Dom``-guarded programs, extensional or unknown query
    predicates, and queries where no rule ends up guarded and no rule ends
    up pruned.
    """
    analysis = analysis if analysis is not None else analyse_program(program)
    if any(rule.dom_guards for rule in program.rules):
        return _unchanged(
            program, query, "Dom active-domain guards disable query pruning"
        )
    idb = program.idb_predicates()
    if query.predicate not in idb:
        return _unchanged(program, query, "query predicate is extensional")

    affected = analysis.affected
    # Constraint/EGD-scanned predicates — and, transitively, everything that
    # derives them — must be materialised in full for the deferred checks.
    from ..engine.plan import backward_slice

    constraint_preds = program.constraint_predicates()
    full_predicates, _ = backward_slice(program, sorted(constraint_preds))
    full_predicates |= constraint_preds

    # Relevance pruning: only rules that can reach the query predicate or a
    # constraint/EGD-scanned predicate survive.
    targets = [query.predicate] + sorted(constraint_preds - {query.predicate})
    _, relevant_rules = backward_slice(program, targets)

    state = _solve_adornments(
        relevant_rules, query, affected, idb, analysis, full_predicates
    )

    result = MagicRewriteResult(
        program=program,
        query=query,
        adornments={p: b for p, b in state.items() if b},
        pruned_rules=len(program.rules) - len(relevant_rules),
    )

    seen_magic: Set[Tuple] = set()
    magic_rules: List[Rule] = []
    seeds: Dict[Fact, None] = {}

    def emit_demands(rule: Rule, guarded: bool, bound: FrozenSet[int]) -> None:
        """Emit magic rules/seeds for the demanded IDB atoms of one body."""
        guard = _guard_atom(rule, bound) if guarded else None
        for atom, demand, bound_vars, prefix in _sip_walk(
            rule, guarded, bound, affected, idb
        ):
            if demand is None:
                continue
            target_bound = state.get(atom.predicate, frozenset())
            if not target_bound:
                continue  # demanded in full; no magic predicate exists
            head_terms = tuple(atom.terms[i] for i in sorted(target_bound))
            if any(
                isinstance(t, Variable) and t not in bound_vars for t in head_terms
            ):
                # The fixpoint guarantees the final adornment is below every
                # occurrence demand; an unbound head variable here would
                # under-demand the predicate and lose answers.
                raise MagicRewriteError(
                    f"unbound demand variable for {atom.predicate} in rule "
                    f"{rule.label or rule}"
                )
            magic_head = Atom(
                magic_predicate_name(atom.predicate, target_bound, atom.arity),
                head_terms,
            )
            body: List[Atom] = ([guard] if guard is not None else []) + prefix
            if not body:
                seeds[Fact(magic_head.predicate, magic_head.terms)] = None
                continue
            if magic_head in body:
                continue  # trivial self-demand: derives nothing new
            key = (
                magic_head.predicate,
                magic_head.terms,
                tuple((a.predicate, a.terms) for a in body),
            )
            if key in seen_magic:
                continue
            seen_magic.add(key)
            magic_rules.append(
                Rule(
                    body=tuple(body),
                    head=(magic_head,),
                    label=f"{rule.label or 'rule'}_d{len(magic_rules) + 1}",
                )
            )

    rewritten_rules: List[Rule] = []
    for rule in relevant_rules:
        head_pred = rule.head[0].predicate if len(rule.head) == 1 else None
        bound = state.get(head_pred, frozenset()) if head_pred else frozenset()
        guarded = bool(bound) and _rule_static_guardable(rule)
        if guarded:
            guard = _guard_atom(rule, bound)
            rewritten_rules.append(
                Rule(
                    body=(guard,) + rule.body,
                    head=rule.head,
                    conditions=rule.conditions,
                    assignments=rule.assignments,
                    aggregate=rule.aggregate,
                    label=f"{rule.label or 'rule'}_m",
                )
            )
            result.guarded_rules += 1
        else:
            rewritten_rules.append(rule)
            if head_pred is None or head_pred in state:
                result.fallback_rules += 1
        emit_demands(rule, guarded, bound)

    # Seed the query demand itself (after the fixpoint the usable bound
    # positions of the query predicate may be smaller than the query's own
    # constant positions).
    query_bound = state.get(query.predicate, frozenset())
    if query_bound:
        seeds[
            Fact(
                magic_predicate_name(query.predicate, query_bound, query.arity),
                tuple(query.terms[i] for i in sorted(query_bound)),
            )
        ] = None

    if not result.guarded_rules and not result.pruned_rules:
        return _unchanged(
            program,
            query,
            "no rule is safely guardable and nothing is prunable for this query",
        )

    rewritten = program.copy()
    rewritten.rules = []
    for rule in magic_rules + rewritten_rules:
        rewritten.add_rule(rule)
    result.program = rewritten
    result.seeds = list(seeds)
    result.magic_rules = len(magic_rules)
    result.changed = True
    return result


def unsound_variant(result: MagicRewriteResult, drop: int = 1) -> MagicRewriteResult:
    """A deliberately broken rewriting, for translation-validation self-tests.

    Removes the last ``drop`` *non-seed* demand rules from the rewritten
    program.  Demand rules propagate relevance through rule bodies (the SIP
    pass of :func:`rewrite_with_magic`); dropping one under-approximates the
    demand set, so guarded rules stop firing for bindings the query can
    still observe and certain answers go missing — exactly the class of bug
    the :mod:`repro.verify` oracle exists to catch.  Used by the oracle
    self-test to prove the symbolic check finds real divergences; never
    called by the production rewrite path.

    Raises :class:`MagicRewriteError` when the rewriting has no demand rules
    to drop (nothing to break).
    """
    demand_labels = [
        rule.label
        for rule in result.program.rules
        if rule.head and is_magic_predicate(rule.head[0].predicate) and rule.body
    ]
    if not demand_labels:
        raise MagicRewriteError("rewriting has no demand rules to drop")
    dropped = set(demand_labels[-max(1, drop):])
    broken_program = result.program.copy()
    broken_program.rules = [
        rule for rule in result.program.rules if rule.label not in dropped
    ]
    broken = MagicRewriteResult(
        program=broken_program,
        query=result.query,
        seeds=list(result.seeds),
        adornments=dict(result.adornments),
        guarded_rules=result.guarded_rules,
        fallback_rules=result.fallback_rules,
        magic_rules=result.magic_rules - len(dropped),
        pruned_rules=result.pruned_rules,
        changed=True,
        reason=f"UNSOUND test variant: dropped demand rules {sorted(dropped)}",
    )
    return broken
