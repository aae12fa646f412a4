"""Sharded parallel chase evaluation (PR 4).

The warded chase decomposes cleanly into independent units of work (cf. the
streaming architecture of Baldazzi et al., arXiv:2311.12236): within one
semi-naive round, every rule's matches are a function of the *previous*
round's delta and the store as it stood at round start — nothing a worker
derives is visible to another worker until the next round.  The parallel
executor exploits exactly that:

1. **Partition** — each rule's delta is hash-partitioned into N shards on
   the seed atom's join key (:func:`repro.engine.plan.seed_partition_positions`
   picks the key from seed-slot selectivity; :func:`shard_of` hashes it with
   a process-stable hash so shard assignment does not depend on
   ``PYTHONHASHSEED``).
2. **Match** — a ``concurrent.futures`` worker pool evaluates every rule's
   compiled :class:`~repro.engine.plan.RuleJoinPlan` per shard against a
   read-only :class:`~repro.core.fact_store.StoreSnapshot`.  The default
   ``threads`` backend shares the snapshot zero-copy (true parallelism on
   free-threaded CPython; on GIL builds it degrades to compiled-equivalent
   throughput).  The ``fork`` backend forks one process pool per batched
   delta round: children inherit the snapshot copy-on-write and return
   matches as tuples of *store fact indexes*, so only small integers cross
   the process boundary.
3. **Admit** — a single-writer admission stage on the driver thread replays
   the matches in deterministic (rule, shard) order through the standard
   chase fire paths: semi-naive dedup, fresh-null generation, forest
   metadata and the termination strategy's ``admit`` all run exactly as in
   the sequential executors, staging derived facts in a
   :class:`~repro.core.fact_store.WriteBatch` that commits at round end.

Rules carrying a monotonic aggregation are *not* sharded: their aggregate
evaluators are stateful and enumeration-order sensitive, so they are
evaluated on the driver against the live store, in program order,
interleaved with the admission stage — the same totally-ordered stream the
``compiled`` executor produces.  This keeps ``executor="parallel"``
answer-identical to ``compiled``: ground answers exactly, null-carrying
facts up to labelled-null isomorphism.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import zlib
from concurrent.futures import (
    BrokenExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.atoms import Fact
from ..core.chase import ChaseConfig, ChaseEngine, ChaseResult
from ..core.fact_store import FactStore
from ..core.forests import ChaseNode
from ..core.limits import ExecutionStopped
from ..core.rules import Program, Rule
from ..core.terms import Constant, Null, NullFactory, Term
from ..core.termination import TerminationStrategy
from ..core.wardedness import ProgramAnalysis
from ..testing.faults import fault_point
from .joins import CompiledRuleExecutor
from .plan import seed_partition_positions

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

PARALLEL_BACKENDS = ("threads", "fork")

_HASH_MULT = 1000003  # the classic CPython tuple-hash multiplier


def stable_term_hash(term: Term) -> int:
    """A hash of a ground term that is stable across processes and runs.

    Python's built-in ``hash`` of strings is salted per process
    (``PYTHONHASHSEED``), so it cannot decide shard membership: fork workers
    and the driver must agree on the partition, and two runs of the same
    program should shard — and therefore fire — identically.  Constants are
    hashed by a CRC of a type-tagged canonical encoding; labelled nulls by
    their (stable) integer ident.
    """
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, str):
            data = b"s" + value.encode("utf-8", "surrogatepass")
        elif isinstance(value, bool):
            data = b"b1" if value else b"b0"
        elif isinstance(value, int):
            data = b"i" + str(value).encode("ascii")
        elif isinstance(value, float):
            data = b"f" + repr(value).encode("ascii")
        else:
            data = b"o" + repr(value).encode("utf-8", "backslashreplace")
        return zlib.crc32(data)
    if isinstance(term, Null):
        return 0x9E3779B1 ^ term.ident
    raise TypeError(f"cannot shard on non-ground term {term!r}")


def shard_of(fact: Fact, positions: Tuple[int, ...], n_shards: int) -> int:
    """The shard a delta fact belongs to, hashing the given key positions.

    ``positions == ()`` means "no join key": the whole row is hashed, which
    spreads seeds evenly.  A position beyond the fact's arity contributes
    nothing (such a fact cannot match the seed step anyway — the executor's
    positional arity check rejects it in whatever shard it lands).
    """
    if n_shards <= 1:
        return 0
    terms = fact.terms
    h = 0
    if positions:
        for position in positions:
            if position < len(terms):
                h = (h * _HASH_MULT) ^ stable_term_hash(terms[position])
    else:
        for term in terms:
            h = (h * _HASH_MULT) ^ stable_term_hash(term)
    return h % n_shards


def partition_facts(
    facts: Iterable[Fact], n_shards: int, positions: Tuple[int, ...] = ()
) -> List[List[Fact]]:
    """Hash-partition ``facts`` into ``n_shards`` buckets (order-preserving)."""
    shards: List[List[Fact]] = [[] for _ in range(max(1, n_shards))]
    for fact in facts:
        shards[shard_of(fact, positions, n_shards)].append(fact)
    return shards


class RoundPartitioner:
    """Per-round shard assignment of the delta, memoized per (predicate, key).

    Different rules seeding from the same predicate with the same partition
    key share one partition pass.  ``seed_counts`` accumulates per *use*
    (once per rule seed plan requesting a partition, even when the
    partition itself came from the cache): each worker matches its shard
    once per requesting seed plan, so the per-use sum is the per-shard
    seed-matching workload that the shard-balance statistics on
    :attr:`~repro.engine.reasoner.ReasoningResult.shard_balance` are meant
    to expose.
    """

    def __init__(self, store, n_shards: int) -> None:
        self._store = store
        self.n_shards = n_shards
        self._cache: Dict[Tuple[str, Tuple[int, ...]], List[List[Fact]]] = {}
        self.seed_counts: List[int] = [0] * n_shards

    def shards_for(
        self, predicate: str, positions: Tuple[int, ...]
    ) -> List[List[Fact]]:
        key = (predicate, positions)
        shards = self._cache.get(key)
        if shards is None:
            delta = self._store.delta_facts(predicate)
            if self.n_shards == 1:
                shards = [list(delta)]
            else:
                shards = partition_facts(delta, self.n_shards, positions)
            self._cache[key] = shards
        for index, bucket in enumerate(shards):
            self.seed_counts[index] += len(bucket)
        return shards


# -- matching workers --------------------------------------------------------
#
# A worker receives the round's match specs — one (plan, per-seed-plan shard
# lists) entry per parallel rule, in program order — plus the read-only
# snapshot, and returns one list of matches per entry.  Thread workers
# return the matched facts directly; fork workers return store fact indexes
# (small ints) so results pickle cheaply and resolve to the parent's own
# ``Fact`` objects on decode.

#: Round state inherited by fork workers, keyed by a per-round token so
#: concurrent parallel runs in one process never observe each other's
#: state: each run inserts its entry before creating its pool (children
#: fork with the whole map and look up their own token) and deletes only
#: that entry once its results are collected.
_FORK_STATE: Dict[
    int, Tuple[List[Tuple[object, List[List[List[Fact]]]]], object, int, bool]
] = {}
_FORK_TOKENS = itertools.count()


def _match_entries(
    entries: Sequence[Tuple[object, List[List[List[Fact]]]]],
    reader,
    round_index: int,
    shard: int,
    encode: bool,
    traced: bool = False,
) -> Tuple[List[List[Tuple]], Optional[Dict[str, object]]]:
    """Match every spec's shard against the snapshot; one result list per spec.

    With ``traced`` set, the second element is a plain-dict span record
    (:meth:`repro.obs.Span.to_record` shape) timing the shard: live tracer
    objects cannot cross a fork, so workers report through picklable records
    the driver re-parents with ``Tracer.adopt`` before admission.  The
    ``perf_counter`` timestamps stay comparable across fork children
    (CLOCK_MONOTONIC is process-global on Linux).
    """
    fault_point("parallel.worker", shard=shard, round=round_index)
    t_start = time.perf_counter() if traced else 0.0
    results: List[List[Tuple]] = []
    total_matches = 0
    for plan, seed_shards in entries:
        # A fresh executor per (worker, rule): the schedule is derived from
        # the shared immutable plan, while the stats counters stay private
        # to the worker — no cross-thread races on the hot loop.
        executor = CompiledRuleExecutor(plan)
        seed_lists = [shards[shard] for shards in seed_shards]
        matched: List[Tuple] = []
        if encode:
            index_of = reader.index_of_row
            for _slots, used in executor.matches(reader, round_index, seed_lists=seed_lists):
                matched.append(tuple(index_of(f.predicate, f.terms) for f in used))
        else:
            for _slots, used in executor.matches(reader, round_index, seed_lists=seed_lists):
                matched.append(tuple(used))
        total_matches += len(matched)
        results.append(matched)
    record: Optional[Dict[str, object]] = None
    if traced:
        record = {
            "kind": "shard-match",
            "name": f"shard:{shard}",
            "span_id": 0,
            "t_start": t_start,
            "t_end": time.perf_counter(),
            "status": "ok",
            "attrs": {"shard": shard, "round": round_index, "pid": os.getpid()},
            "counters": {"matches": total_matches, "rules": len(entries)},
        }
    return results, record


def _fork_match_shard(
    task: Tuple[int, int]
) -> Tuple[List[List[Tuple[int, ...]]], Optional[Dict[str, object]]]:
    """Fork-pool entry point: match one shard against the inherited snapshot."""
    token, shard = task
    entries, reader, round_index, traced = _FORK_STATE[token]
    return _match_entries(entries, reader, round_index, shard, encode=True, traced=traced)


class ParallelChaseEngine(ChaseEngine):
    """Sharded parallel round evaluation on top of the compiled chase.

    Overrides :meth:`ChaseEngine._evaluate_round` with the three-stage
    partition / match / admit protocol described in the module docstring;
    everything else — input loading, termination, violation checks, firing
    semantics — is inherited unchanged from the sequential engine.
    """

    def __init__(
        self,
        program: Program,
        database: Iterable[Fact] = (),
        strategy: Optional[TerminationStrategy] = None,
        analysis: Optional[ProgramAnalysis] = None,
        null_factory: Optional[NullFactory] = None,
        config: Optional[ChaseConfig] = None,
        join_plans: Optional[Dict[int, object]] = None,
        parallelism: Optional[int] = None,
        backend: str = "threads",
        worker_timeout: Optional[float] = None,
        tracer=None,
    ) -> None:
        if backend not in PARALLEL_BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; use one of "
                f"{', '.join(PARALLEL_BACKENDS)}"
            )
        if backend == "fork" and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("the 'fork' backend is not available on this platform")
        if parallelism is None:
            parallelism = max(1, min(4, os.cpu_count() or 1))
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        super().__init__(
            program,
            database,
            strategy=strategy,
            analysis=analysis,
            null_factory=null_factory,
            config=config,
            executor="compiled",
            join_plans=join_plans,
            tracer=tracer,
        )
        self.executor = "parallel"
        self.parallelism = parallelism
        self.backend = backend
        #: Seconds to wait for one shard's match result before treating the
        #: worker as hung and triggering recovery; ``None`` waits forever.
        self.worker_timeout = worker_timeout
        self.shard_stats: List[Dict[str, object]] = []
        #: Per-run record of worker failures and how they were handled
        #: (``retry`` then ``sequential`` degradation), surfaced through
        #: ``extra_stats["parallel_recovery"]`` and ``ChaseResult.warnings``.
        self.recovery_log: List[Dict[str, object]] = []
        self._pending_warnings: List[str] = []
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._had_worker_timeout = False
        # Aggregate rules are enumeration-order sensitive (stateful
        # monotonic evaluators) and stay on the driver; everything else is
        # sharded.  Per parallel rule, precompute the partition key of each
        # seed plan and the slot-rebind recipe used to reconstruct the slot
        # array from a match's used facts.
        self._partition_positions: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._rebind: Dict[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]] = {}
        for rule in program.rules:
            if rule.aggregate is not None:
                continue
            plan = self._compiled[id(rule)].plan
            self._partition_positions[id(rule)] = tuple(
                seed_partition_positions(seed_plan) for seed_plan in plan.seed_plans
            )
            slot_of = plan.slot_of
            rebind = []
            for atom_index, atom in enumerate(rule.relational_body):
                writes = tuple(
                    (pos, slot_of[term])
                    for pos, term in enumerate(atom.terms)
                    if term in slot_of
                )
                rebind.append((atom_index, writes))
            self._rebind[id(rule)] = tuple(rebind)

    # ------------------------------------------------------------------ pools
    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.parallelism, thread_name_prefix="repro-chase"
            )
        return self._thread_pool

    def _shutdown_pool(self) -> None:
        if self._thread_pool is not None:
            # A thread that timed out may still be running its match; don't
            # block shutdown on it (threads cannot be killed cooperatively).
            self._thread_pool.shutdown(wait=not self._had_worker_timeout)
            self._thread_pool = None

    # -------------------------------------------------------------------- run
    def run(self) -> ChaseResult:
        self.shard_stats = []
        self.recovery_log = []
        self._pending_warnings = []
        try:
            result = super().run()
        finally:
            self._shutdown_pool()
        result.extra_stats["parallel_workers"] = self.parallelism
        result.extra_stats["parallel_backend"] = self.backend
        result.extra_stats["parallel_shard_balance"] = list(self.shard_stats)
        if self.recovery_log:
            result.extra_stats["parallel_recovery"] = list(self.recovery_log)
        return result

    def _record_recovery(self, round_index: int, shard: int, exc: BaseException, action: str) -> None:
        self.recovery_log.append(
            {
                "round": round_index,
                "shard": shard,
                "action": action,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        tracer = self.tracer
        if tracer is not None:
            now = time.perf_counter()
            tracer.emit(
                "worker-recovery",
                f"recovery:shard{shard}",
                now,
                now,
                attrs={"shard": shard, "round": round_index, "action": action},
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            tracer.metrics.counter("parallel.recoveries").inc()
        what = (
            "retrying the shard"
            if action == "retry"
            else "degrading the shard to sequential execution on the driver"
        )
        self._pending_warnings.append(
            f"parallel worker for shard {shard} in round {round_index} failed "
            f"with {type(exc).__name__}: {exc}; {what}"
        )

    # ------------------------------------------------------------- round loop
    def _evaluate_round(
        self,
        store: FactStore,
        node_of: Dict[Fact, ChaseNode],
        delta: List[ChaseNode],
        round_index: int,
        result: ChaseResult,
        rules: Optional[List[Rule]] = None,
    ) -> List[ChaseNode]:
        tracer = self.tracer
        round_rules = self.program.rules if rules is None else rules
        delta_facts = [node.fact for node in delta]
        store.begin_round(round_index, delta_facts)
        n_shards = self.parallelism

        # Stage 1: partition each parallel rule's delta by its seed join key.
        partition_span = None
        if tracer is not None:
            partition_span = tracer.begin(
                "partition", f"partition:{round_index}", round=round_index
            )
        partitioner = RoundPartitioner(store, n_shards)
        specs: List[Tuple[Rule, object, List[List[List[Fact]]]]] = []
        for rule in round_rules:
            if rule.aggregate is not None:
                continue
            plan = self._compiled[id(rule)].plan
            seed_shards = [
                partitioner.shards_for(seed_plan.seed.predicate, positions)
                for seed_plan, positions in zip(
                    plan.seed_plans, self._partition_positions[id(rule)]
                )
            ]
            specs.append((rule, plan, seed_shards))
        if tracer is not None:
            partition_span.counters["seed_facts"] = sum(partitioner.seed_counts)
            partition_span.counters["rules"] = len(specs)
            tracer.end(partition_span)

        # Stage 2: match every (rule, shard) on the worker pool against a
        # read-only snapshot of the store.
        per_shard, shard_records = self._match_phase(store, specs, round_index, n_shards)
        if tracer is not None and shard_records:
            # Merge the workers' picklable span records (fork-surviving)
            # under the current round span before admission begins.
            tracer.adopt(shard_records)
        if self._pending_warnings:
            result.warnings.extend(self._pending_warnings)
            self._pending_warnings.clear()

        # Stage 3: single-writer admission, in deterministic (rule, shard)
        # order, staging derived facts in a write batch.  Aggregate rules
        # are interleaved here, in program order, against the live store.
        admission_span = None
        if tracer is not None:
            admission_span = tracer.begin(
                "admission", f"admission:{round_index}", round=round_index
            )
        batch = store.write_batch()
        new_nodes: List[ChaseNode] = []
        match_counts = [0] * n_shards
        spec_index = 0
        try:
            for rule in round_rules:
                rule_span = None
                candidates_before = 0
                if tracer is not None:
                    label = rule.label or "rule"
                    rule_span = tracer.begin(
                        "rule", f"rule:{label}", rule=label, round=round_index
                    )
                    candidates_before = result.candidate_facts
                try:
                    if rule.aggregate is not None:
                        # Make staged facts visible to the live matcher first.
                        batch.apply()
                        produced = self._apply_rule(rule, store, node_of, {}, round_index, result)
                    else:
                        rule_matches = [per_shard[shard][spec_index] for shard in range(n_shards)]
                        spec_index += 1
                        produced = self._admit_rule(
                            rule, rule_matches, store, batch, node_of, round_index, result,
                            match_counts,
                        )
                except BaseException as exc:
                    if rule_span is not None:
                        tracer.end(rule_span, status="error", error=repr(exc))
                    raise
                if rule_span is not None:
                    fires = len(produced)
                    candidates = result.candidate_facts - candidates_before
                    rule_span.counters["fires"] = fires
                    rule_span.counters["candidates"] = candidates
                    rule_span.counters["deduped"] = candidates - fires
                    tracer.end(rule_span)
                new_nodes.extend(produced)
        except ExecutionStopped:
            # Commit what was admitted before the stop: result.nodes and
            # node_of already reference the staged facts, so the store must
            # contain them for the partial result to be consistent.
            batch.apply()
            raise
        batch.apply()
        if tracer is not None:
            admission_span.counters["matches"] = sum(match_counts)
            admission_span.counters["admitted"] = len(new_nodes)
            tracer.end(admission_span)

        seed_total = sum(partitioner.seed_counts)
        busiest = max(match_counts) if match_counts else 0
        mean = (sum(match_counts) / n_shards) if n_shards else 0.0
        self.shard_stats.append(
            {
                "round": round_index,
                "workers": n_shards,
                "seed_facts": list(partitioner.seed_counts),
                "matches": list(match_counts),
                "seed_total": seed_total,
                "imbalance": round(busiest / mean, 3) if mean > 0 else None,
            }
        )
        return new_nodes

    # --------------------------------------------------------------- matching
    def _match_phase(
        self,
        store: FactStore,
        specs: List[Tuple[Rule, object, List[List[List[Fact]]]]],
        round_index: int,
        n_shards: int,
    ) -> Tuple[List[List[List[Tuple]]], List[Dict[str, object]]]:
        """Run the matching stage; returns per-shard, per-spec match lists
        plus the workers' span records (empty when untraced)."""
        traced = self.tracer is not None
        entries = [(plan, seed_shards) for _rule, plan, seed_shards in specs]
        if not entries:
            return [[] for _ in range(n_shards)], []
        snapshot = store.snapshot()
        if n_shards == 1:
            try:
                matched, record = _match_entries(
                    entries, snapshot, round_index, 0, encode=False, traced=traced
                )
            except ExecutionStopped:
                raise
            except Exception as exc:
                # Same one-retry discipline as pooled shards; a second
                # failure on the driver is a genuine error and propagates.
                self._record_recovery(round_index, 0, exc, "retry")
                matched, record = _match_entries(
                    entries, snapshot, round_index, 0, encode=False, traced=traced
                )
            return [matched], [record] if record is not None else []
        if self.backend == "fork":
            return self._match_phase_fork(entries, snapshot, round_index, n_shards, traced)
        pool = self._ensure_thread_pool()
        futures = [
            pool.submit(_match_entries, entries, snapshot, round_index, shard, False, traced)
            for shard in range(n_shards)
        ]
        results: List[List[List[Tuple]]] = []
        records: List[Dict[str, object]] = []
        for shard, future in enumerate(futures):
            try:
                matched, record = future.result(timeout=self.worker_timeout)
            except ExecutionStopped:
                raise
            except Exception as exc:
                if isinstance(exc, (TimeoutError, FuturesTimeoutError)):
                    self._had_worker_timeout = True
                matched, record = self._recover_thread_shard(
                    pool, entries, snapshot, round_index, shard, exc, traced
                )
            results.append(matched)
            if record is not None:
                records.append(record)
        return results, records

    def _recover_thread_shard(
        self, pool, entries, reader, round_index: int, shard: int, exc: Exception,
        traced: bool,
    ) -> Tuple[List[List[Tuple]], Optional[Dict[str, object]]]:
        """Retry a failed/hung thread shard once, then degrade to the driver."""
        self._record_recovery(round_index, shard, exc, "retry")
        try:
            future = pool.submit(
                _match_entries, entries, reader, round_index, shard, False, traced
            )
            return future.result(timeout=self.worker_timeout)
        except ExecutionStopped:
            raise
        except Exception as retry_exc:
            if isinstance(retry_exc, (TimeoutError, FuturesTimeoutError)):
                self._had_worker_timeout = True
            self._record_recovery(round_index, shard, retry_exc, "sequential")
            # Last resort: run the shard on the driver.  A failure here is a
            # genuine error (same code, same inputs) and propagates.
            return _match_entries(
                entries, reader, round_index, shard, encode=False, traced=traced
            )

    def _match_phase_fork(
        self, entries, snapshot, round_index: int, n_shards: int, traced: bool
    ) -> Tuple[List[List[List[Tuple]]], List[Dict[str, object]]]:
        """One forked process pool per batched delta round.

        Children inherit the snapshot (and everything reachable from it)
        copy-on-write at pool start, so no program state is pickled out;
        results come back as tuples of store fact indexes and are resolved
        against the parent's facts in :meth:`_admit_rule`.  The pool is torn
        down on *every* exit path — including KeyboardInterrupt and crashed
        workers — so no child process is ever orphaned.
        """
        # Imported here: the process-pool machinery (multiprocessing queues,
        # connections) is only needed by this backend and costs every other
        # ``import repro`` ~5 % of its start-up time.
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        token = next(_FORK_TOKENS)
        _FORK_STATE[token] = (entries, snapshot, round_index, traced)
        pool = ProcessPoolExecutor(max_workers=n_shards, mp_context=context)
        clean_exit = False
        try:
            futures = [
                pool.submit(_fork_match_shard, (token, shard))
                for shard in range(n_shards)
            ]
            results: List[List[List[Tuple]]] = []
            records: List[Dict[str, object]] = []
            for shard, future in enumerate(futures):
                try:
                    matched, record = future.result(timeout=self.worker_timeout)
                except ExecutionStopped:
                    raise
                except Exception as exc:
                    matched, record = self._recover_fork_shard(
                        pool, token, entries, snapshot, round_index, shard, exc, traced
                    )
                results.append(matched)
                if record is not None:
                    records.append(record)
            clean_exit = True
            return results, records
        finally:
            self._shutdown_fork_pool(pool, force=not clean_exit)
            _FORK_STATE.pop(token, None)

    def _recover_fork_shard(
        self, pool, token: int, entries, reader, round_index: int, shard: int,
        exc: Exception, traced: bool,
    ) -> Tuple[List[List[Tuple]], Optional[Dict[str, object]]]:
        """Retry a crashed fork shard once, then degrade to the driver.

        Driver-side degradation keeps ``encode=True`` (the parent resolves
        ``index_of_row`` against its own snapshot), so the admission stage's
        fact-index decoding stays uniform across recovered and healthy shards.
        """
        self._record_recovery(round_index, shard, exc, "retry")
        if not isinstance(exc, BrokenExecutor):
            try:
                return pool.submit(_fork_match_shard, (token, shard)).result(
                    timeout=self.worker_timeout
                )
            except ExecutionStopped:
                raise
            except Exception as retry_exc:
                exc = retry_exc
        self._record_recovery(round_index, shard, exc, "sequential")
        return _match_entries(entries, reader, round_index, shard, encode=True, traced=traced)

    @staticmethod
    def _shutdown_fork_pool(pool: ProcessPoolExecutor, force: bool) -> None:
        """Shut a per-round fork pool down without leaving orphaned children.

        The clean path is an ordinary blocking shutdown.  The forced path
        (exception/KeyboardInterrupt unwinding the round) cancels pending
        work, terminates any child still alive and reaps it, escalating to
        SIGKILL if a child ignores SIGTERM.
        """
        if not force:
            pool.shutdown(wait=True)
            return
        processes = list(getattr(pool, "_processes", {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        finally:
            for proc in processes:
                if proc.is_alive():
                    proc.terminate()
            for proc in processes:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)

    # -------------------------------------------------------------- admission
    def _admit_rule(
        self,
        rule: Rule,
        rule_matches: List[List[Tuple]],
        store: FactStore,
        batch,
        node_of: Dict[Fact, ChaseNode],
        round_index: int,
        result: ChaseResult,
        match_counts: List[int],
    ) -> List[ChaseNode]:
        """Fire one rule's collected matches through :meth:`fire_slots`."""
        plan = self._compiled[id(rule)].plan
        rebind = self._rebind[id(rule)]
        n_slots = len(plan.variables)
        decode = self.backend == "fork" and self.parallelism > 1
        fact_at = store.fact_at
        produced: List[ChaseNode] = []
        fire = self.fire_slots
        governor = self._governor
        tick = governor.tick if governor is not None else None
        for shard, matches in enumerate(rule_matches):
            match_counts[shard] += len(matches)
            for used in matches:
                if tick is not None:
                    tick()
                used_facts = [fact_at(index) for index in used] if decode else used
                slots: List[Optional[Term]] = [None] * n_slots
                for atom_index, writes in rebind:
                    terms = used_facts[atom_index].terms
                    for pos, slot in writes:
                        slots[slot] = terms[pos]
                fire(
                    rule, plan, slots, used_facts,
                    store, node_of, round_index, result, produced,
                    sink=batch,
                )
        return produced
