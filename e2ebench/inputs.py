"""Seeded input generators: every workload becomes files before anything is timed.

The program under test receives only what is written here — Vadalog program
*text*, row files, a SQLite file, an operation stream — never generator
objects.

What ``--seed`` varies is what must not matter: the names of the constants.
The *shapes* — the iWarded programs, the databases, the ownership graph, the
service graph and its operation stream — are drawn once, at ``SHAPE_SEED``.
At sizes this engine chases in a second the shape decides the work: reseeding
only the database moved ``reason_s`` by 8 % (``iwarded.chase``), 10 %
(``rules.construct``), 17 % (``service.mixed``) and 24 % (``iwarded.stream``)
between the quartiles of ten seeds, and reseeding the program generator moved
set-up 2.6x; even the *order* of the same rows moved the streaming chase by
8 % of its facts (the termination check keeps whichever isomorphic witness it
meets first).  No regression bound survives that, so every seed runs
isomorphic inputs and the spread that remains is the measurement's own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import sqlite3
from pathlib import Path
from typing import Dict, List, Tuple

SHAPE_SEED = 11

#: name -> (executor, one-line reason).  The reason is the ``why`` of
#: BENCHMARK.json; ``test_e2e_bench.py`` keeps the two in step.
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "rules.construct": (
        "compiled",
        "300 rules over 6 facts per predicate: construction (plan, scheduler, "
        "wardedness, harmful joins) does the work and the chase does little",
    ),
    "iwarded.chase": (
        "compiled",
        "synthA with 32 facts per predicate: the chase (joins, termination, "
        "fact store) does the work and storage does nothing",
    ),
    "control.sqlite": (
        "compiled",
        "2 msum rules over 40000 companies bound from SQLite with writeback: "
        "storage and answers show, set-up and the termination layer are idle",
    ),
    "iwarded.stream": (
        "streaming",
        "synthA with 8 facts per predicate through the pull pipeline: shows a "
        "streaming fix and shows a compiled-only gain as no change",
    ),
    "service.mixed": (
        "compiled",
        "resident service, 100-node graph, update:query 1:10 with every 3rd "
        "update a retraction: continuation rounds, DRed and the answer cache",
    ),
}

#: Operations per ``service.mixed`` stream.  A fixed count, not a time
#: budget: the graph grows as the stream advances, so a faster system must
#: not be handed a longer (and costlier) stream than a slower one.
SERVICE_OPS = 440
SERVICE_NODES = 100
CONTROL_COMPANIES = 40_000

_LABEL = re.compile(r"^\[[^\]]*\]\s*")
_PREDICATE = re.compile(r"\b([A-Za-z_]\w*)\(")


def sha256_of(value: object) -> str:
    """Digest of a JSON-serialisable value in canonical form."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _iwarded_text(config_name: str, prefix: str = "") -> Tuple[str, List[str]]:
    """The pinned iWarded program as text, plus its extensional predicates.

    ``prefix`` renames every predicate, which makes a copy of the program
    that shares nothing with the original.
    """
    from repro.workloads import SCENARIO_CONFIGS, generate_iwarded

    config = dataclasses.replace(SCENARIO_CONFIGS[config_name], seed=SHAPE_SEED)
    program, database = generate_iwarded(config)
    lines = [f'@output("{prefix}{name}").' for name in sorted(program.outputs)]
    # ``str(rule)`` prefixes the label as ``[L0]``, which does not parse.
    lines += [
        _PREDICATE.sub(rf"{prefix}\1(", _LABEL.sub("", str(rule)))
        for rule in program.rules
    ]
    return "\n".join(lines) + "\n", [prefix + p for p in sorted(database.relations())]


def _uniform_rows(
    rng: random.Random, predicates: List[str], facts_per_predicate: int
) -> Dict[str, List[List[str]]]:
    """The iWarded database law: distinct uniform pairs over a small domain."""
    domain = max(10, facts_per_predicate // 2)
    rows: Dict[str, List[List[str]]] = {}
    for predicate in predicates:
        pairs = set()
        while len(pairs) < facts_per_predicate:
            pairs.add((f"c{rng.randrange(domain)}", f"c{rng.randrange(domain)}"))
        rows[predicate] = [list(pair) for pair in sorted(pairs)]
    return rows


def ownership_rows(n_companies: int, seed: int) -> List[Tuple[str, str, float]]:
    """Scale-free ownership graph ``Own(owner, owned, share)``.

    The directed scale-free model the paper learned from the European
    ownership graphs (alpha 0.71, beta 0.09, gamma 0.20), as in
    ``repro.workloads.generate_ownership_graph`` but picking by degree from
    a repeated-node list in O(1) — the library generator takes 23 s at this
    size, more than a whole benchmark run.  Shares are multiples of 1/1024,
    so every ``msum`` is exact whatever the order of summation and the
    ``> 0.5`` threshold cannot flip between the engine and the reference.
    """
    rng = random.Random(seed)
    by_in = [0, 1, 2]
    by_out = [0, 1, 2]
    edges = {(0, 1), (1, 2)}
    count = 3
    while count < n_companies:
        roll = rng.random()
        if roll < 0.71:
            source, target = count, rng.choice(by_in)
            count += 1
            by_in.append(source)
            by_out.append(source)
        elif roll < 0.80:
            source, target = rng.choice(by_out), rng.choice(by_in)
            if source == target:
                continue
        else:
            source, target = rng.choice(by_out), count
            count += 1
            by_in.append(target)
            by_out.append(target)
        if (source, target) not in edges:
            edges.add((source, target))
            by_out.append(source)
            by_in.append(target)
    incoming: Dict[int, List[int]] = {}
    for source, target in sorted(edges):
        incoming.setdefault(target, []).append(source)
    rows: List[Tuple[str, str, float]] = []
    for target in sorted(incoming):
        owners = incoming[target]
        if rng.random() < 0.55:
            # One majority owner; the minority stakes share the rest.
            majority = rng.choice(owners)
            minority = 384 // max(1, len(owners) - 1)
            for owner in owners:
                share = 640 if owner == majority else minority
                rows.append((f"f{owner}", f"f{target}", share / 1024))
        else:
            # No majority: control arises only by accumulating stakes.
            share = 920 // max(2, len(owners))
            for owner in owners:
                rows.append((f"f{owner}", f"f{target}", share / 1024))
    return rows


_QUOTED = re.compile(r'"([^"]+)"')


def _relabel(value: object, names: Dict[str, str]) -> object:
    """``value`` with every constant renamed (inside query atoms too)."""
    if isinstance(value, str):
        return names.get(value) or _QUOTED.sub(lambda m: f'"{names[m.group(1)]}"', value)
    if isinstance(value, (list, tuple)):
        return [_relabel(item, names) for item in value]
    if isinstance(value, dict):
        return {key: _relabel(item, names) for key, item in value.items()}
    return value


def build(workload: str, seed: int, directory: Path, scale: float = 1.0) -> Dict[str, object]:
    """Write ``workload``'s inputs for ``seed`` into ``directory``.

    The data is drawn once, at ``SHAPE_SEED``, and ``seed`` renames its
    constants by a random permutation (see the module docstring).  Returns
    the manifest (also written as ``manifest.json``): executor, output
    predicates and the sha256 of the program text, of the data before
    renaming and of the data as written.  ``scale`` shrinks the data for
    the benchmark's own tests only.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(SHAPE_SEED)
    base: object
    if workload == "rules.construct":
        # Three renamed copies of synthB: independent, so only the rule
        # count grows (the paper's Rule# scaling construction).
        blocks = [
            _iwarded_text("synthB", prefix=f"B{b}_")
            for b in range(3 if scale >= 1 else 1)
        ]
        text = "".join(block for block, _ in blocks)
        base = _uniform_rows(rng, [p for _, names in blocks for p in names], 6)
        constants = [f"c{i}" for i in range(10)]
    elif workload in ("iwarded.chase", "iwarded.stream"):
        text, predicates = _iwarded_text("synthA")
        per_predicate = 32 if workload == "iwarded.chase" else 8
        per_predicate = max(4, int(per_predicate * scale))
        base = _uniform_rows(rng, predicates, per_predicate)
        constants = [f"c{i}" for i in range(max(10, per_predicate // 2))]
    elif workload == "control.sqlite":
        from repro.workloads.companies import CONTROL_PROGRAM

        text = (
            '@bind("Own", "sqlite", "companies.db").\n'
            '@bind("Control", "sqlite", "companies.db").\n' + CONTROL_PROGRAM.lstrip()
        )
        companies = max(50, int(CONTROL_COMPANIES * scale))
        base = {"Own": ownership_rows(companies, SHAPE_SEED)}
        constants = [f"f{i}" for i in range(companies)]
    else:
        from repro.workloads import SERVICE_PROGRAM, service_operations, service_scenario

        text = SERVICE_PROGRAM.lstrip()
        scenario = service_scenario(n_nodes=SERVICE_NODES, seed=SHAPE_SEED)
        base = {
            name: [list(row) for row in scenario.database.relation(name).tuples]
            for name in sorted(scenario.database.relations())
        }
        base["ops"] = [
            [kind, payload]
            for kind, payload in service_operations(
                scenario,
                n_ops=max(22, int(SERVICE_OPS * scale)),
                update_ratio=(1, 10),
                retract_every=3,
                seed=SHAPE_SEED + 1,
            )
        ]
        constants = [f"n{i}" for i in range(SERVICE_NODES)]
    renamed = constants[:]
    random.Random(seed).shuffle(renamed)
    data = _relabel(base, dict(zip(constants, renamed)))
    if workload == "control.sqlite":
        with sqlite3.connect(str(directory / "companies.db")) as connection:
            connection.execute('CREATE TABLE "Own" ("c0", "c1", "c2")')
            connection.executemany('INSERT INTO "Own" VALUES (?, ?, ?)', data["Own"])
    else:
        rows = {name: table for name, table in data.items() if name != "ops"}
        (directory / "rows.json").write_text(json.dumps(rows), encoding="utf-8")
        if "ops" in data:
            (directory / "ops.json").write_text(json.dumps(data["ops"]), encoding="utf-8")
    (directory / "program.vada").write_text(text, encoding="utf-8")
    manifest = {
        "workload": workload,
        "seed": seed,
        "executor": WORKLOADS[workload][0],
        "outputs": sorted(set(re.findall(r'@output\("([^"]+)"\)', text))),
        "program_sha256": sha256_of(text),
        "shape_sha256": sha256_of(base),
        "data_sha256": sha256_of(data),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
