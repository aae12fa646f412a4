"""The resident incremental reasoner: a warm materialisation under updates.

Every ``reason()`` call chases from scratch; a long-lived service cannot
afford that (Section 5 of the paper assumes a resident reasoning core, and
the streaming-architectures line — Baldazzi et al., arXiv:2311.12236 —
sustains warded reasoning over changing inputs).  :class:`ResidentReasoner`
keeps the chase engine, its fact store, chase nodes and termination state
alive across calls and maintains the materialisation under extensional
**upserts** and **retractions**:

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
  sound.  *Rederivation* then runs one full evaluation round restricted to
  rules whose head predicate lost facts — complete because the pre-deletion
  store was a fixpoint, so the only facts newly derivable over the
  survivors are alternative derivations of deleted ones (isomorphism-pruned
  twins of deleted facts share their predicate, so they are covered too) —
  and continues semi-naive until the fixpoint returns.

**Warded-null handling, honestly.** The termination strategy is stateful
(learned stop-provenances, per-tree isomorphism sets).  For upserts the
live strategy is reused: anything it prunes has an isomorphic counterpart
already in the store, so ground answers are exact and null-witness
*patterns* are preserved — the incremental materialisation may keep a
different multiset of isomorphic null witnesses than a from-scratch chase
(the same contract as the streaming executor).  After a
retraction the strategy is rebuilt by replaying the surviving nodes into a
:class:`~repro.core.termination.TrivialIsomorphismStrategy` — correct for
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
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.atoms import Atom, Fact
from ..core.chase import ChaseEngine, ChaseResult
from ..core.fact_store import FactStore, StoreSnapshot
from ..core.forests import ChaseNode
from ..core.limits import STATUS_COMPLETE
from ..core.parser import parse_atom
from ..core.provenance import DerivationIndex
from ..core.query import AnswerSet
from ..core.rules import Program
from ..core.termination import TrivialIsomorphismStrategy, WardedTerminationStrategy
from .annotations import load_bound_facts
from .reasoner import DatabaseLike, VadalogReasoner, _answer_step

#: Executors able to maintain a warm store in-process (the streaming
#: executor owns its store per run).
RESIDENT_EXECUTORS = ("compiled", "naive")


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
        #: Monotone counter bumped by every upsert/retract — the service
        #: layer keys its cache invalidation and snapshot freshness on it.
        self.maintenance_epoch = 0
        self._stats: Dict[str, float] = {
            "upserts": 0,
            "retractions": 0,
            "facts_upserted": 0,
            "facts_retracted": 0,
            "overdeleted": 0,
            "rederived": 0,
            "full_rebuilds": 0,
            "maintenance_seconds": 0.0,
        }
        facts = list(VadalogReasoner._database_facts(database))
        facts.extend(load_bound_facts(bindings))
        self._edb: Set[Fact] = set(facts) | set(self._program_facts)
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
        result = engine.run()
        if result.status != STATUS_COMPLETE:
            raise ResidentError(
                f"initial materialisation did not complete ({result.status}): "
                f"{result.stop_reason}"
            )
        self._engine = engine
        self._result = result
        self._store: FactStore = result.store
        self._node_of: Dict[Fact, ChaseNode] = {n.fact: n for n in result.nodes}
        self._derivations = DerivationIndex()
        self._record_derivations(result.nodes)
        self._round = result.rounds
        self._dirty = False
        self._violations_stale = False
        #: Per-epoch cache of extracted (predicates, certain) answer sets,
        #: each with the point-query index built over it on demand: distinct
        #: point queries on the same predicate share one extraction
        #: (isomorphic dedup + aggregate reduction + post directives) and
        #: only pay an index probe.  Cleared on every write.
        self._extract_cache: Dict[Tuple, Tuple[AnswerSet, Dict]] = {}

    def _record_derivations(self, nodes: Iterable[ChaseNode]) -> None:
        record = self._derivations.record
        for node in nodes:
            if node.parents:
                record(node.fact, [parent.fact for parent in node.parents])

    # ------------------------------------------------------------ inspection
    @property
    def program(self) -> Program:
        """The optimized program the materialisation is maintained for."""
        return self._reasoner.program

    @property
    def store(self) -> FactStore:
        return self._store

    @property
    def result(self) -> ChaseResult:
        return self._result

    @property
    def needs_settle(self) -> bool:
        """True when the next query must rebuild or re-check first."""
        return self._dirty or self._violations_stale

    @property
    def epoch(self) -> Tuple[int, int]:
        """(maintenance epoch, store mutation epoch) — cache freshness key."""
        return (self.maintenance_epoch, self._store.epoch)

    def snapshot(self) -> StoreSnapshot:
        """An epoch-guarded read view of the warm store (see PR 4 protocol)."""
        return self._store.snapshot()

    def stats(self) -> Dict[str, float]:
        data = dict(self._stats)
        data["resident_facts"] = len(self._store)
        data["edb_facts"] = len(self._edb)
        data["rounds"] = self._round
        data["dirty"] = self._dirty
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
        self._extract_cache.clear()
        self._edb.update(new_facts)
        if self._dirty:
            return 0
        store = self._store
        # A fact already derived only gains extensional status: no new node.
        added = self._engine.load_inputs(
            new_facts, store, self._node_of, self._result, self._round
        )
        if added:
            before = len(self._result.nodes)
            self._engine.continue_rounds(
                store, self._node_of, added, self._result, self._round
            )
            self._round = self._result.rounds
            self._record_derivations(self._result.nodes[before:])
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
            if not self._dirty and fact in self._store:
                raise ValueError(
                    f"{fact!r} is derived, not extensional; only extensional "
                    "facts can be retracted"
                )
        # Batch validated: from here on the operation cannot fail, so the
        # extensional set and the materialisation move together.
        self.maintenance_epoch += 1
        self._stats["retractions"] += 1
        self._extract_cache.clear()
        self._edb.difference_update(retracted)
        self._stats["facts_retracted"] += len(retracted)
        if not retracted or self._dirty:
            self._stats["maintenance_seconds"] += time.perf_counter() - started
            return len(retracted)
        if self._has_aggregates:
            # Monotone aggregate evaluators cannot un-see a contribution.
            self._dirty = True
            self._stats["maintenance_seconds"] += time.perf_counter() - started
            return len(retracted)
        self._dred(retracted)
        if self._has_checks:
            self._violations_stale = True
        self._stats["maintenance_seconds"] += time.perf_counter() - started
        return len(retracted)

    def _dred(self, retracted: List[Fact]) -> None:
        """Delete-and-rederive: overdeletion, removal, restricted rederivation."""
        store = self._store
        node_of = self._node_of
        # -- overdeletion: closure over recorded derivations ------------------
        deleted: Set[Fact] = set()
        stack = [f for f in retracted if f in store]
        while stack:
            fact = stack.pop()
            if fact in deleted:
                continue
            deleted.add(fact)
            for child in self._derivations.children_of(fact):
                if child not in deleted and child not in self._edb and child in store:
                    stack.append(child)
        if not deleted:
            return
        self._stats["overdeleted"] += len(deleted)
        # -- removal: store, nodes, derivation index, fresh strategy ----------
        for fact in deleted:
            node = node_of.pop(fact, None)
            if node is not None and node.parents:
                self._derivations.unlink(fact, [p.fact for p in node.parents])
            store.remove(fact)
        self._derivations.forget(deleted)
        self._result.nodes = [n for n in self._result.nodes if n.fact not in deleted]
        # Replay the survivors into a summary-free strategy: a fresh warded
        # strategy would re-learn stop-provenances over the mutilated store
        # and vertically prune rederivations of just-deleted facts (see the
        # module docstring); the global-isomorphism strategy is correct for
        # harmless warded programs and has no path summaries to poison.
        strategy = self._reasoner._make_strategy()
        if isinstance(strategy, WardedTerminationStrategy):
            strategy = TrivialIsomorphismStrategy()
        for node in self._result.nodes:
            strategy.register_input(node)
        self._engine.strategy = strategy
        self._result.strategy = strategy
        # -- rederivation: full round restricted to the deleted predicates ----
        deleted_predicates = {f.predicate for f in deleted}
        rules = [
            rule
            for rule in self.program.rules
            if any(atom.predicate in deleted_predicates for atom in rule.head)
        ]
        before_facts = len(store)
        if rules:
            before = len(self._result.nodes)
            seed = [node_of[f] for f in store.facts()]
            self._engine.continue_rounds(
                store, node_of, seed, self._result, self._round, rules=rules
            )
            self._round = self._result.rounds
            self._record_derivations(self._result.nodes[before:])
        self._stats["rederived"] += len(store) - before_facts

    def ensure_settled(self) -> None:
        """Resolve deferred maintenance: full rebuild and/or violation re-check."""
        if self._dirty:
            self._stats["full_rebuilds"] += 1
            started = time.perf_counter()
            self._materialise()
            self._stats["maintenance_seconds"] += time.perf_counter() - started
        if self._violations_stale:
            self._result.violations = []
            self._engine.check_violations(self._result)
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
            view = self._result
        else:
            if self.needs_settle:
                raise ResidentError(
                    "snapshot query on an unsettled reasoner; call "
                    "ensure_settled() under the writer lock first"
                )
            view = SimpleNamespace(store=snapshot, aggregates=self._result.aggregates)
        if query is not None:
            query_atom = parse_atom(query) if isinstance(query, str) else query
            predicates: List[str] = [query_atom.predicate]
        else:
            query_atom = None
            predicates = (
                list(outputs)
                if outputs is not None
                else self._reasoner._output_predicates(None)
            )
        return _answer_step(
            view,
            predicates,
            certain,
            self._post_directives,
            query_atom,
            memo=self._extract_cache,
        )

    def answers(
        self, outputs: Optional[Iterable[str]] = None, certain: bool = False
    ) -> AnswerSet:
        """All answers of the declared (or given) output predicates."""
        return self.query(outputs=outputs, certain=certain)

    def violations(self):
        """The EGD/constraint violations of the current materialisation."""
        self.ensure_settled()
        return list(self._result.violations)
