"""The resident incremental reasoner: a warm materialisation under updates.

Every ``reason()`` call chases from scratch; a long-lived service cannot
afford that (Section 5 of the paper assumes a resident reasoning core, and
the streaming-architectures line — Baldazzi et al., arXiv:2311.12236 —
sustains warded reasoning over changing inputs).  :class:`ResidentReasoner`
keeps one chase engine alive across calls — its result holds the fact
store, the fact → node map, the round count and the termination state —
and maintains the materialisation under extensional **upserts** and
**retractions**:

* **Upserts** run delta-seeded semi-naive rounds against the warm store:
  the new facts are stamped as the delta of a continuation round and the
  compiled rule executors (:class:`~repro.engine.joins.CompiledRuleExecutor`)
  evaluate exactly as they would mid-chase — the store's round stamps keep
  increasing monotonically across maintenance operations, so the
  before-seed probe restriction stays correct.  Monotonic aggregates stay
  incremental too: evaluator updates are idempotent per contributor, so new
  contributions accumulate onto the resident evaluators and the
  answer-extraction reduction yields the same final value per group as a
  from-scratch run.

* **Retractions** use provenance-backed **delete-and-rederive (DRed)**.
  The chase records one derivation per fact (the ``parents`` of its
  :class:`~repro.core.forests.ChaseNode`); a
  :class:`~repro.core.provenance.DerivationIndex` inverts those edges.
  *Overdeletion* removes the closure of the retracted facts over recorded
  derivations (skipping facts that are extensional themselves); every
  surviving fact keeps an intact recorded derivation, so overdeletion is
  sound.  *Rederivation* then runs one round over the rules whose head
  predicate lost facts, each fired from one body atom seeded with
  explicit facts (:meth:`~repro.core.chase.ChaseEngine.continue_rounds`),
  and continues semi-naive until the fixpoint returns:

  - *The full round* seeds a rule's first body atom with its whole
    extent.  It re-derives every fact of a deleted predicate that the
    survivors support in one step, whether the store held it before or
    not, and the semi-naive rounds after it derive whatever follows.
    That keeps it complete where the store is not closed under the
    rules: after a vertical prune of the warded strategy.  A vertical
    prune drops every fact beyond a stop-provenance — ground facts of
    linear and warded rules too — on the strength of an isomorphism check
    made in a tree whose root has the same pattern, possibly with other
    constants.  The pre-deletion store is then no fixpoint, and a fact a
    deletion exposes need not agree with any deleted fact on its
    constants; the full round derives it all the same, and the rounds
    after it regrow the path beyond it under the replayed strategy below,
    which never prunes vertically.
  - *Seeding from the deleted heads.*  While the store is closed under
    the rules — every fact derivable from it is stored or has a stored
    isomorphic twin — the facts the survivors support and the store lacks
    are deleted facts and their twins, so a rule needs only the matches
    that derive one.  Such a match binds the variables the head shares
    with a body atom to the deleted fact's terms there, and that atom is
    seeded with just its facts that agree with some deleted head on them,
    in store-slot order: among the atoms sharing a variable with every
    head atom that lost facts, the one whose candidates, estimated from
    position-index bucket sizes, are fewest.  A deleted head holding a
    null at a shared position rules its atom out (a twin may hold another
    null there), and a rule with no atom left takes the full extent.
  - *The gate.*  The reasoner records whether the warded strategy pruned
    vertically since the last materialisation, in the initial run or in
    an upsert's continuation rounds.  Once it has, the store is not known
    to be closed, and every retraction until the next materialisation
    runs the full round.

**One answer memo.**  A query is a filter over the warm store.  Per
``(predicates, certain)`` the reasoner memoises the extracted answer set,
the point-query index built over it and the key's *footprint*: the
backward slice of its predicates over the optimized program
(:func:`~repro.engine.plan.backward_slice`).  Everything a write changes
is derived from the facts it added to the store or removed from the
extensional set, so it touches exactly the entries whose footprint meets
those facts' predicates; a write that changes nothing touches nothing,
and a rebuild starts from an empty memo.  A touched entry is *patched*
with the write's delta when its extraction is its predicates' stored
extents as they are — no post directive, and no predicate of it holding
a null (nothing to deduplicate, nothing uncertain) or an aggregate
position (nothing to reduce).  Its answers and its index buckets lose
the facts the write removed (a retraction's overdeleted facts) and gain,
at the end, the facts it added (an upsert's chase, a retraction's
rederived facts); new facts take new slots, so the answers keep the
order of a full scan.  Every other touched entry is dropped.  The
service layer (:class:`~repro.engine.service.ReasoningService`) keeps no
cache of its own.

**Warded-null handling, honestly.** The termination strategy is stateful
(learned stop-provenances, per-tree isomorphism sets).  For upserts the
live strategy is reused: anything it prunes has an isomorphic counterpart
already in the store, so ground answers are exact and null-witness
*patterns* are preserved — the incremental materialisation may keep a
different multiset of isomorphic null witnesses than a from-scratch chase
(the same contract as the streaming executor).  After a
retraction the strategy is rebuilt by replaying the surviving nodes into a
:class:`~repro.core.termination.TrivialIsomorphismStrategy` (strategies
ignore ground inputs, so the replay walks only the predicates the store
counts null-bearing facts for) — correct for
harmless warded programs (Theorem 2) — rather than a fresh warded one.
The warded summary structure is unsound to re-learn mid-store: when
rederivation re-derives a *surviving* fact and prunes it as isomorphic, it
would record a stop-provenance asserting everything beyond that path is
already stored — true before the deletion, false after it — and that
stop-provenance would then vertically prune exactly the rederivations a
later upsert needs.  The trivial strategy's global isomorphism check has
no summary to poison: every prune has an isomorphic (pattern-identical)
twin in the store, so answers stay exact at ground level and
pattern-level for null witnesses.

**Fallbacks.** Monotone aggregate evaluators cannot subtract a
contribution, so retraction on a program with aggregate rules marks the
reasoner dirty and the next query rebuilds the materialisation from the
current extensional set (upserts on such programs stay incremental).  EGD
and negative-constraint checks are re-run lazily after maintenance (they
only record violations in this implementation — they never mutate the
store).
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from ..core.atoms import Atom, Fact
from ..core.chase import ChaseEngine, ChaseResult, RuleSeed
from ..core.fact_store import FactStore, StoreSnapshot
from ..core.forests import ChaseNode
from ..core.limits import STATUS_COMPLETE
from ..core.parser import parse_atom
from ..core.provenance import DerivationIndex
from ..core.query import AnswerSet
from ..core.rules import Program
from ..core.terms import Null, Term, Variable
from ..core.termination import TrivialIsomorphismStrategy, WardedTerminationStrategy
from .annotations import load_bound_facts
from .plan import backward_slice
from .reasoner import DatabaseLike, VadalogReasoner, _answer_step, _filter_answers

#: Executors able to maintain a warm store in-process (the streaming
#: executor's engine chases a per-run slice of the program, so there is no
#: whole-program materialisation to keep warm).
RESIDENT_EXECUTORS = ("compiled", "naive")


@lru_cache(maxsize=1024)
def _parse_query(text: str) -> Atom:
    """``parse_atom`` for point-query text, memoised: a service asks the same
    texts over and over, and parsing costs about as much as the memo hit it
    precedes.  Atoms are immutable, so callers can share one."""
    return parse_atom(text)


class ResidentError(RuntimeError):
    """The resident reasoner could not establish/maintain its materialisation."""


class ResidentReasoner:
    """A warm materialisation maintained under upserts and retractions.

    Typical usage::

        from repro import ResidentReasoner

        resident = ResidentReasoner('''
            @output("Reach").
            Reach(X, Y) :- Edge(X, Y).
            Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
        ''', database={"Edge": [("a", "b")]})
        resident.upsert({"Edge": [("b", "c")]})
        resident.query('Reach("a", Y)').tuples("Reach")
        resident.retract({"Edge": [("b", "c")]})

    After any sequence of maintenance operations, :meth:`query` answers are
    identical to a from-scratch ``reason()`` on the final database: ground
    answers exactly, null-witness answers at pattern level (see the module
    docstring for the warded-null contract).
    """

    def __init__(
        self,
        program: Union[Program, str, VadalogReasoner],
        database: DatabaseLike = None,
        strategy: str = "warded",
        executor: str = "compiled",
        chase_config=None,
        base_path: Optional[str] = None,
    ) -> None:
        if isinstance(program, VadalogReasoner):
            reasoner = program
            if reasoner.executor not in RESIDENT_EXECUTORS:
                raise ValueError(
                    f"resident maintenance needs one of {RESIDENT_EXECUTORS}, "
                    f"got a reasoner with executor={reasoner.executor!r}"
                )
            if not isinstance(reasoner._strategy_spec, (str, type(None))):
                raise ValueError(
                    "resident maintenance needs a named termination strategy; "
                    "the reasoner was built with a strategy instance"
                )
        else:
            if executor not in RESIDENT_EXECUTORS:
                raise ValueError(
                    f"unknown resident executor {executor!r}; use one of "
                    f"{', '.join(RESIDENT_EXECUTORS)}"
                )
            if not isinstance(strategy, str):
                raise ValueError(
                    "ResidentReasoner needs a named termination strategy: "
                    "retraction replays a *fresh* strategy instance, which a "
                    "shared instance cannot provide"
                )
            reasoner = VadalogReasoner(
                program,
                strategy=strategy,
                executor=executor,
                chase_config=chase_config,
                base_path=base_path,
            )
        self._reasoner = reasoner
        self._executor = reasoner.executor
        self._program_facts: Set[Fact] = set(reasoner.program.facts)
        self._has_aggregates = any(
            rule.aggregate is not None for rule in reasoner.program.rules
        )
        self._has_checks = bool(reasoner.program.egds or reasoner.program.constraints)
        bindings = reasoner._collect_bindings(tuple(reasoner._output_predicates(None)))
        self._post_directives = bindings.post_directives
        #: Monotone counter bumped by every upsert/retract (part of
        #: :attr:`epoch`, the snapshot freshness key).
        self.maintenance_epoch = 0
        self._stats: Dict[str, float] = {
            "upserts": 0,
            "retractions": 0,
            "facts_upserted": 0,
            "facts_retracted": 0,
            "overdeleted": 0,
            "rederived": 0,
            "restricted_seeds": 0,
            "full_seeds": 0,
            "full_rebuilds": 0,
            "maintenance_seconds": 0.0,
            "cache_hits": 0,
            "cache_misses": 0,
            "invalidations": 0,
            "patches": 0,
        }
        facts = list(VadalogReasoner._database_facts(database))
        facts.extend(load_bound_facts(bindings))
        #: The extensional facts, in load order: a materialisation loads
        #: them as ``reason()`` loads its database.
        self._edb: Dict[Fact, None] = dict.fromkeys([*facts, *reasoner.program.facts])
        self._dirty = False
        self._violations_stale = False
        self._materialise()

    # ------------------------------------------------------------ lifecycle
    def _materialise(self) -> None:
        """(Re)build the warm materialisation from the current extensional set."""
        reasoner = self._reasoner
        database = [f for f in self._edb if f not in self._program_facts]
        engine = ChaseEngine(
            reasoner.program,
            database,
            strategy=reasoner._make_strategy(),
            analysis=reasoner.analysis,
            config=reasoner.chase_config,
            executor=self._executor,
            join_plans=reasoner.join_plans or None,
        )
        # Retraction follows the recorded derivation of every fact.
        engine.keep_every_node()
        result = engine.run()
        if result.status != STATUS_COMPLETE:
            raise ResidentError(
                f"initial materialisation did not complete ({result.status}): "
                f"{result.stop_reason}"
            )
        #: The one owner of the materialisation's state (``result``).
        self._engine = engine
        self._derivations = DerivationIndex()
        # The node map, not ``result.nodes``: the view would make a node for
        # every extensional fact no step read, and it has nothing to record.
        self._record_derivations(result.node_of.values())
        #: Whether the store is closed under the rules: every fact derivable
        #: from it is stored or has a stored isomorphic twin.  A vertical
        #: prune of the warded strategy breaks that (it drops facts, ground
        #: ones too, on the strength of another tree with the same root
        #: pattern), and only a materialisation restores it; the module
        #: docstring has the argument.
        self._closed = True
        self._dirty = False
        self._violations_stale = False
        #: The answer memo: per (predicates, certain), the extracted answer
        #: set, the point-query index built over it on demand and the key's
        #: footprint (the backward slice of its predicates).  Distinct point
        #: queries on one predicate share an extraction (isomorphic dedup +
        #: aggregate reduction + post directives) and only pay an index
        #: probe; a write patches or drops the entries whose footprint it
        #: touches (:meth:`_refresh_memo`).
        self._memo: Dict[Tuple, Tuple[AnswerSet, Dict, FrozenSet[str]]] = {}

    def _record_derivations(self, nodes: Iterable[ChaseNode]) -> None:
        record = self._derivations.record
        for node in nodes:
            if node.parents:
                record(node.fact, [parent.fact for parent in node.parents])

    def _chase(
        self, delta: List[Fact], seeds: Optional[List[RuleSeed]] = None
    ) -> List[Fact]:
        """Continuation rounds from ``delta`` (or ``seeds``); records the new
        nodes' derivations and returns their facts in store-slot order."""
        node_of = self.result.node_of
        before = len(node_of)
        self._engine.continue_rounds(delta, seeds)
        # Derived nodes are appended to the insertion-ordered node map in the
        # order their facts entered the store.  So are the nodes of stored
        # extensional facts a derivation read for the first time: those
        # are no part of the write's delta.
        nodes = [n for n in islice(node_of.values(), before, None) if not n.is_input]
        self._record_derivations(nodes)
        return [node.fact for node in nodes]

    # ------------------------------------------------------------ inspection
    @property
    def program(self) -> Program:
        """The optimized program the materialisation is maintained for."""
        return self._reasoner.program

    @property
    def store(self) -> FactStore:
        return self._engine.result.store

    @property
    def result(self) -> ChaseResult:
        return self._engine.result

    @property
    def needs_settle(self) -> bool:
        """True when the next query must rebuild or re-check first."""
        return self._dirty or self._violations_stale

    @property
    def epoch(self) -> Tuple[int, int]:
        """(maintenance epoch, store mutation epoch) — snapshot freshness key."""
        return (self.maintenance_epoch, self.store.epoch)

    def snapshot(self) -> StoreSnapshot:
        """An epoch-guarded read view of the warm store (see PR 4 protocol)."""
        return self.store.snapshot()

    def stats(self) -> Dict[str, float]:
        data = dict(self._stats)
        data["resident_facts"] = len(self.store)
        data["edb_facts"] = len(self._edb)
        data["rounds"] = self.result.rounds
        data["dirty"] = self._dirty
        data["cached_answers"] = len(self._memo)
        return data

    # ------------------------------------------------------------- maintenance
    def upsert(self, facts: DatabaseLike) -> int:
        """Add extensional facts and re-derive their consequences.

        Returns the number of facts that actually entered the store (facts
        already present — extensional or derived — only gain extensional
        status).  Runs delta-seeded semi-naive continuation rounds; on a
        dirty reasoner the facts are staged and the next query's rebuild
        picks them up.
        """
        started = time.perf_counter()
        new_facts = [
            f for f in VadalogReasoner._database_facts(facts) if f not in self._edb
        ]
        self.maintenance_epoch += 1
        self._stats["upserts"] += 1
        self._edb.update(dict.fromkeys(new_facts))
        if self._dirty:
            return 0
        # A fact already derived only gains extensional status: no new node,
        # and no answer changes.  A key whose answers the chase below can
        # change holds the added facts' predicates in its footprint.
        added = self._engine.load_inputs(new_facts)
        if added:
            derived = self._chase(added)
            self._refresh_memo({fact.predicate for fact in added}, set(), added + derived)
        self._stats["facts_upserted"] += len(added)
        if self._has_checks:
            self._violations_stale = True
        self._stats["maintenance_seconds"] += time.perf_counter() - started
        return len(added)

    def retract(self, facts: DatabaseLike) -> int:
        """Retract extensional facts via delete-and-rederive.

        Only extensional facts can be retracted: retracting a *derived* fact
        raises ``ValueError`` (it would be re-derived immediately), facts
        the store never saw are ignored, and facts inlined in the program
        text are permanent.  The whole batch is validated before anything
        is applied — a rejected batch leaves the extensional set and the
        materialisation untouched.  Returns the number of facts removed
        from the extensional set.  On programs with aggregate rules the
        store cannot be maintained soundly under deletion (monotone
        accumulators cannot subtract), so the reasoner goes dirty and the
        next query rebuilds.
        """
        started = time.perf_counter()
        retracted: List[Fact] = []
        seen: Set[Fact] = set()
        for fact in VadalogReasoner._database_facts(facts):
            if fact in self._program_facts:
                raise ValueError(
                    f"{fact!r} is declared in the program text and cannot be retracted"
                )
            if fact in seen:
                continue
            seen.add(fact)
            if fact in self._edb:
                retracted.append(fact)
                continue
            if not self._dirty and fact in self.store:
                raise ValueError(
                    f"{fact!r} is derived, not extensional; only extensional "
                    "facts can be retracted"
                )
        # Batch validated: from here on the operation cannot fail, so the
        # extensional set and the materialisation move together.
        self.maintenance_epoch += 1
        self._stats["retractions"] += 1
        for fact in retracted:
            del self._edb[fact]
        self._stats["facts_retracted"] += len(retracted)
        changed = {fact.predicate for fact in retracted}
        if not retracted or self._dirty or self._has_aggregates:
            # No delta to patch the memo with: the dependent entries go.
            self._invalidate(changed)
            if retracted and self._has_aggregates:
                # Monotone aggregate evaluators cannot un-see a contribution.
                self._dirty = True
            self._stats["maintenance_seconds"] += time.perf_counter() - started
            return len(retracted)
        deleted, rederived = self._dred(retracted)
        self._refresh_memo(changed, deleted, rederived)
        if self._has_checks:
            self._violations_stale = True
        self._stats["maintenance_seconds"] += time.perf_counter() - started
        return len(retracted)

    def _invalidate(self, predicates: Set[str]) -> None:
        """Drop the memo entries whose footprint meets ``predicates``."""
        stale = [
            key for key, entry in self._memo.items() if not predicates.isdisjoint(entry[2])
        ]
        for key in stale:
            del self._memo[key]
        self._stats["invalidations"] += len(stale)

    def _refresh_memo(
        self, predicates: Set[str], removed: Iterable[Fact], added: List[Fact]
    ) -> None:
        """Patch or drop the memo entries whose footprint meets ``predicates``
        (see "One answer memo" in the module docstring) after a write that
        removed ``removed`` from the store and then added ``added``, in
        store-slot order."""
        store = self.store
        aggregated = {pred for pred, _ in self.result.aggregates.aggregated_positions()}
        removed_by: Dict[str, Set[Fact]] = {}
        for fact in removed:
            removed_by.setdefault(fact.predicate, set()).add(fact)
        added_by: Dict[str, List[Fact]] = {}
        for fact in added:
            added_by.setdefault(fact.predicate, []).append(fact)
        for key, (answers, index, footprint) in list(self._memo.items()):
            if predicates.isdisjoint(footprint):
                continue
            if self._post_directives or any(
                store.null_facts(p) or p in aggregated for p in key[0]
            ):
                del self._memo[key]
                self._stats["invalidations"] += 1
                continue
            patched = AnswerSet()
            for predicate, facts in answers.facts_by_predicate.items():
                gone = removed_by.get(predicate)
                new = added_by.get(predicate)
                if gone or new:
                    # A fresh list: callers may hold the entry's old answers.
                    facts = [f for f in facts if f not in gone] if gone else list(facts)
                    facts += new or ()
                patched.facts_by_predicate[predicate] = facts
            for (predicate, position), buckets in index.items():
                _patch_buckets(
                    buckets, position, removed_by.get(predicate), added_by.get(predicate, ())
                )
            self._memo[key] = (patched, index, footprint)
            self._stats["patches"] += 1

    def _dred(self, retracted: List[Fact]) -> Tuple[Dict[Fact, None], List[Fact]]:
        """Delete-and-rederive: overdeletion, removal, seeded rederivation.

        Returns the facts it removed from the store and the facts it added
        back, in store-slot order (the write's delta for the memo).
        """
        store = self.store
        node_of = self.result.node_of
        # -- overdeletion: closure over recorded derivations ------------------
        # Insertion-ordered (a dict, not a set): facts hash by their terms'
        # identities, so a set would remove and rederive in address order.
        deleted: Dict[Fact, None] = {}
        stack = [f for f in retracted if f in store]
        while stack:
            fact = stack.pop()
            if fact in deleted:
                continue
            deleted[fact] = None
            for child in self._derivations.children_of(fact):
                if child not in deleted and child not in self._edb and child in store:
                    stack.append(child)
        if not deleted:
            return deleted, []
        self._stats["overdeleted"] += len(deleted)
        # The gate of the seeded rederivation: read before the strategy goes.
        if self._engine.strategy.stats.vertical_prunes:
            self._closed = False
        # -- removal: store, node map, derivation index, fresh strategy -------
        parents: Set[Fact] = set()
        extensional = set(retracted)
        for fact in deleted:
            node = node_of.pop(fact, None)
            if node is None or node.is_input:
                # Only a retracted fact is deleted as an extensional one, and
                # one no derivation read has no node.
                if fact not in extensional:
                    raise KeyError(f"{fact!r} was deleted without a derived chase node")
                self.result.extensional_facts -= 1
            else:
                parents.update(parent.fact for parent in node.parents)
            store.remove(fact)
        self._derivations.unlink(deleted, parents.difference(deleted))
        self._derivations.forget(deleted)
        # Replay the survivors into a summary-free strategy: a fresh warded
        # strategy would re-learn stop-provenances over the mutilated store
        # and vertically prune rederivations of just-deleted facts (see the
        # module docstring); the global-isomorphism strategy is correct for
        # harmless warded programs and has no path summaries to poison.
        # Strategies ignore ground inputs, so only null-bearing facts replay.
        strategy = self._reasoner._make_strategy()
        if isinstance(strategy, WardedTerminationStrategy):
            strategy = TrivialIsomorphismStrategy()
        for predicate in store.null_predicates():
            for fact in store.by_predicate(predicate):
                if fact.has_nulls:
                    strategy.register_input(node_of[fact])
        self._engine.strategy = strategy
        self.result.strategy = strategy
        # -- rederivation: a round over the rules whose head lost facts -------
        lost: Dict[str, List[Fact]] = {}
        for fact in deleted:
            lost.setdefault(fact.predicate, []).append(fact)
        seeds = self._rederivation_seeds(lost)
        rederived = self._chase([], seeds) if seeds else []
        self._stats["rederived"] += len(rederived)
        return deleted, rederived

    def _rederivation_seeds(self, lost: Dict[str, List[Fact]]) -> List[RuleSeed]:
        """One seed per rule whose head predicate lost facts, in program order:
        from the deleted heads on a closed store, else the full extent (see
        the module docstring)."""
        store = self.store
        projections: Dict[Tuple, Optional[Set[Tuple[Term, ...]]]] = {}
        seeds: List[RuleSeed] = []
        for rule in self.program.rules:
            heads = [atom for atom in rule.head if atom.predicate in lost]
            body = rule.relational_body
            if not heads or not body:
                continue
            candidates = []
            if self._closed:
                for index, atom in enumerate(body):
                    probes = _seed_probes(atom, heads, lost, projections)
                    if probes is not None:
                        candidates.append((index, probes))
            if not candidates:
                self._stats["full_seeds"] += 1
                # Copied: the store's bucket grows as the round admits facts.
                seeds.append((rule, 0, list(store.by_predicate(body[0].predicate))))
                continue
            if len(candidates) > 1:
                candidates.sort(
                    key=lambda c: _probe_estimate(store, body[c[0]].predicate, c[1])
                )
            index, probes = candidates[0]
            self._stats["restricted_seeds"] += 1
            seeds.append((rule, index, _probe_facts(store, body[index].predicate, probes)))
        return seeds

    def ensure_settled(self) -> None:
        """Resolve deferred maintenance: full rebuild and/or violation re-check."""
        if self._dirty:
            self._stats["full_rebuilds"] += 1
            started = time.perf_counter()
            self._materialise()
            self._stats["maintenance_seconds"] += time.perf_counter() - started
        if self._violations_stale:
            self.result.violations = []
            self._engine.check_violations()
            self._violations_stale = False

    # ------------------------------------------------------------------ queries
    def query(
        self,
        query: Union[str, Atom, None] = None,
        outputs: Optional[Iterable[str]] = None,
        certain: bool = False,
        snapshot: Optional[StoreSnapshot] = None,
    ) -> AnswerSet:
        """Answer a point query (or extract the declared outputs) — no chase.

        The warm materialisation already holds the fixpoint, so a query is a
        filter over the store: the answer step ``reason()`` finishes with
        (isomorphic deduplication, aggregate reduction, post directives,
        query-atom filtering) without re-deriving anything.  ``snapshot``
        lets the service layer read through an epoch-guarded
        :class:`~repro.core.fact_store.StoreSnapshot` — the caller must have
        settled the reasoner first (:meth:`ensure_settled`).
        """
        if snapshot is None:
            self.ensure_settled()
            view = self.result
        else:
            if self.needs_settle:
                raise ResidentError(
                    "snapshot query on an unsettled reasoner; call "
                    "ensure_settled() under the writer lock first"
                )
            view = SimpleNamespace(store=snapshot, aggregates=self.result.aggregates)
        if query is not None:
            query_atom = _parse_query(query) if isinstance(query, str) else query
            predicates: List[str] = [query_atom.predicate]
        else:
            query_atom = None
            predicates = (
                list(outputs)
                if outputs is not None
                else self._reasoner._output_predicates(None)
            )
        key = (tuple(predicates), certain)
        entry = self._memo.get(key)
        if entry is None:
            self._stats["cache_misses"] += 1
            answers = _answer_step(view, key[0], certain, self._post_directives)
            footprint = frozenset(backward_slice(self.program, key[0])[0])
            entry = self._memo[key] = (answers, {}, footprint)
        else:
            self._stats["cache_hits"] += 1
        answers, index, _ = entry
        if query_atom is None:
            return answers
        return _filter_answers(answers, query_atom, index)

    def answers(
        self, outputs: Optional[Iterable[str]] = None, certain: bool = False
    ) -> AnswerSet:
        """All answers of the declared (or given) output predicates."""
        return self.query(outputs=outputs, certain=certain)

    def violations(self):
        """The EGD/constraint violations of the current materialisation."""
        self.ensure_settled()
        return list(self.result.violations)


#: What a seed atom's facts must meet to join the deleted facts of one head
#: atom: the atom positions of the variables the two share, and the terms
#: the deleted facts hold there, one row per distinct projection.
Probe = Tuple[Tuple[int, ...], Set[Tuple[Term, ...]]]


def _seed_probes(
    atom: Atom,
    heads: List[Atom],
    lost: Dict[str, List[Fact]],
    projections: Dict[Tuple, Optional[Set[Tuple[Term, ...]]]],
) -> Optional[List[Probe]]:
    """One probe per head atom for body ``atom``, or ``None`` when ``atom``
    shares no variable with one of ``heads`` or a deleted fact holds a null
    where it does.  ``projections`` memoises the deleted facts' projections
    per (predicate, arity, head positions) across atoms and rules."""
    first: Dict[Variable, int] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            first.setdefault(term, position)
    probes: List[Probe] = []
    for head in heads:
        shared: Dict[Variable, Tuple[int, int]] = {}
        for position, term in enumerate(head.terms):
            if isinstance(term, Variable) and term in first and term not in shared:
                shared[term] = (first[term], position)
        if not shared:
            return None
        of = tuple([position for _, position in shared.values()])
        key = (head.predicate, len(head.terms), of)
        if key not in projections:
            rows = {
                tuple([fact.terms[position] for position in of])
                for fact in lost[head.predicate]
                if len(fact.terms) == key[1]
            }
            if any(term.__class__ is Null for row in rows for term in row):
                rows = None
            projections[key] = rows
        rows = projections[key]
        if rows is None:
            return None
        probes.append((tuple([at for at, _ in shared.values()]), rows))
    return probes


def _probe_estimate(store: FactStore, predicate: str, probes: List[Probe]) -> int:
    """At most how many facts of ``predicate`` meet ``probes``: each row
    meets no more than its smallest position-index bucket holds."""
    return sum(
        min(
            len(store.position_candidates(predicate, at, term))
            for at, term in zip(positions, row)
        )
        for positions, rows in probes
        for row in rows
    )


def _probe_facts(store: FactStore, predicate: str, probes: List[Probe]) -> List[Fact]:
    """The facts of ``predicate`` that meet some probe row, in store-slot order."""
    found: Set[Fact] = set()
    for positions, rows in probes:
        for row in rows:
            pairs = list(zip(positions, row))
            bucket = min(
                (store.position_candidates(predicate, at, term) for at, term in pairs), key=len
            )
            if len(pairs) == 1:
                found.update(bucket)
                continue
            for fact in bucket:
                terms = fact.terms
                if all(terms[at] is term or terms[at] == term for at, term in pairs):
                    found.add(fact)
    return sorted(found, key=lambda fact: store.index_of_row(fact.predicate, fact.terms))


def _patch_buckets(
    buckets: Dict[Term, List[Fact]],
    position: int,
    gone: Optional[Set[Fact]],
    new: Iterable[Fact],
) -> None:
    """Patch one point-query index (``{term: [facts]}`` over ``position``,
    see :func:`~repro.engine.reasoner._filter_answers`) with a write's delta."""
    if gone:
        for term in {fact.terms[position] for fact in gone if position < len(fact.terms)}:
            bucket = buckets.get(term)
            if bucket is None:
                continue
            kept = [fact for fact in bucket if fact not in gone]
            if kept:
                buckets[term] = kept
            else:
                del buckets[term]
    for fact in new:
        if position < len(fact.terms):
            buckets.setdefault(fact.terms[position], []).append(fact)
