"""Streaming pipeline: first answers before the model is materialised.

The streaming executor (``executor="streaming"``) feeds the chase's round
loop lazily instead of loading the whole database first: it reads its
sources in growing batches (1, 2, 4, … rows per source) and chases each
batch to fixpoint, so

1. ``first_answer()`` returns as soon as *one* answer exists — on a deep
   recursive closure that happens while only a handful of facts are
   resident;
2. ``iter_answers()`` streams answers lazily, reading a further batch only
   when the answers derived so far have all been handed out;
3. rules that cannot reach the requested output predicates are pruned and
   their sources never read (query-driven evaluation).

Run with:  python examples/streaming_pipeline.py
"""

from repro import VadalogReasoner

PROGRAM = """
% Reachability over a long supply chain (transitive closure).
Reach(X, Y) :- Delivers(X, Y).
Reach(X, Z) :- Reach(X, Y), Delivers(Y, Z).

% A second rule family the query never asks about: pruned by the pipeline.
Audit(X) :- AuditLog(X).

@output("Reach").
"""


def make_database(chain_length: int = 60):
    suppliers = [f"s{i}" for i in range(chain_length)]
    return {
        "Delivers": [(a, b) for a, b in zip(suppliers, suppliers[1:])],
        "AuditLog": [(s,) for s in suppliers],
    }


def main() -> None:
    reasoner = VadalogReasoner(PROGRAM, executor="streaming")
    database = make_database()

    # --- lazy: stop reading at the first answer -----------------------------
    lazy = reasoner.stream(database=database)
    first = lazy.first_answer()
    resident = len(lazy.chase.store)
    print(f"first answer: {first}")
    print(f"facts resident when it was produced: {resident}")

    # --- lazy: stream a few answers, then drain -----------------------------
    stream = lazy.iter_answers()
    print("next answers:")
    for _ in range(3):
        print("   ", next(stream))
    lazy.complete()  # load the rest, chase to the fixpoint, post-process
    print(f"answers after completion: {lazy.answers.count('Reach')}")
    print(f"facts materialised in total: {len(lazy.chase.store)}")
    print("time to first answer:", f"{lazy.timings['first_answer'] * 1000:.2f} ms",
          "of", f"{lazy.timings['chase'] * 1000:.2f} ms", "total chase time")

    # --- eager: same answers in one batch, plus the slice diagnostics --------
    result = reasoner.reason(database=database)
    stats = result.chase.stats()
    print()
    print("query-driven pruning:",
          stats["pipeline_pruned_rules"], "rule(s) and",
          stats["pipeline_pruned_sources"], "source(s) never entered the pipeline")
    print(f"eager run: {result.answers.count('Reach')} answers in",
          f"{stats['rounds']} rounds, {result.timings['chase'] * 1000:.2f} ms")


if __name__ == "__main__":
    main()
