"""iWarded: a generator of synthetic warded scenarios (Section 6.1, Figure 6).

The paper's iWarded tool generates sets of warded rules controlling the
internals relevant to Warded Datalog±: the number of linear and non-linear
rules, how many of each are recursive, how many rules carry existential
quantification, and the mix of join kinds — harmless-harmless joins through
a ward, harmless-harmless joins without a ward, and harmful-harmful joins.

This module reproduces that generator — and, since PR 10, generalises it
into the full **parametric** iWarded family of arXiv:2103.08588.  Rules are
built over three predicate families:

* ``S_i`` — extensional "source" predicates whose positions are never
  affected;
* ``G_i`` — "ground" predicates whose positions are never affected;
* ``A_i`` — predicates whose last position is affected (it receives
  labelled nulls from existential rules and propagates them).

The eight scenario configurations of Figure 6 (synthA … synthH) are available
in :data:`SCENARIO_CONFIGS`; every scenario uses 100 rules and a common
multi-query that activates all of them, exactly as in the paper.  These
*classic* configurations keep generating bit-identical programs: the
parametric knobs (:class:`IWardedConfig` — ``arity``, ``recursion_depth``,
``existential_density``, ``join_fanin``, ``fact_skew``) switch to the
general construction only when moved off their classic defaults, so the
committed benchmark baselines and differential exemption sets stay valid.

Every generated program is warded **by construction and by check**: the
generator re-runs :func:`repro.core.wardedness.analyse_program` on its own
output and raises :class:`GenerationError` if the analysis disagrees.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.rules import Program, Rule
from ..core.terms import Variable
from ..core.wardedness import analyse_program
from ..storage.database import Database
from .scenario import Scenario


class GenerationError(Exception):
    """Raised when a generated program fails its own wardedness check."""


@dataclass(frozen=True)
class IWardedConfig:
    """One row of Figure 6, generalised with the parametric iWarded knobs.

    The first block of fields is the classic Figure-6 rule mix.  The second
    block is the parametric generalisation (PR 10): with every knob at its
    default the generator reproduces the classic construction bit-for-bit;
    any non-default knob value selects the general parametric construction.

    ``arity``
        width of every predicate (classic: hard-coded binary);
    ``recursion_depth``
        length of each linear-recursive cycle through the affected
        predicates (classic: single-rule recursion edges);
    ``existential_density``
        fraction of *linear* rules that are existential — overrides the
        absolute ``existential_rules`` budget when set;
    ``join_fanin``
        number of body atoms per join rule (classic: 2);
    ``fact_skew``
        Zipf-style skew of the generated EDB value distribution
        (0.0 = uniform; larger values concentrate the mass on few
        constants, raising the average join rate).
    """

    name: str
    linear_rules: int
    join_rules: int
    linear_recursive: int
    join_recursive: int
    existential_rules: int
    harmless_join_with_ward: int
    harmless_join_without_ward: int
    harmful_joins: int
    facts_per_predicate: int = 40
    seed: int = 7
    # -- parametric knobs (PR 10) -----------------------------------------
    arity: int = 2
    recursion_depth: int = 1
    existential_density: Optional[float] = None
    join_fanin: int = 2
    fact_skew: float = 0.0

    def __post_init__(self) -> None:
        counts = {
            "linear_rules": self.linear_rules,
            "join_rules": self.join_rules,
            "linear_recursive": self.linear_recursive,
            "join_recursive": self.join_recursive,
            "existential_rules": self.existential_rules,
            "harmless_join_with_ward": self.harmless_join_with_ward,
            "harmless_join_without_ward": self.harmless_join_without_ward,
            "harmful_joins": self.harmful_joins,
        }
        for field_name, value in counts.items():
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    f"IWardedConfig.{field_name} must be a non-negative "
                    f"integer, got {value!r}"
                )
        if not isinstance(self.facts_per_predicate, int) or self.facts_per_predicate < 1:
            raise ValueError(
                f"IWardedConfig.facts_per_predicate must be a positive "
                f"integer, got {self.facts_per_predicate!r}"
            )
        if not isinstance(self.arity, int) or self.arity < 2:
            raise ValueError(
                f"IWardedConfig.arity must be an integer >= 2, got {self.arity!r}"
            )
        if not isinstance(self.recursion_depth, int) or self.recursion_depth < 1:
            raise ValueError(
                f"IWardedConfig.recursion_depth must be an integer >= 1, "
                f"got {self.recursion_depth!r}"
            )
        if self.existential_density is not None and not (
            isinstance(self.existential_density, (int, float))
            and 0.0 <= self.existential_density <= 1.0
        ):
            raise ValueError(
                f"IWardedConfig.existential_density must be None or a "
                f"fraction in [0, 1], got {self.existential_density!r}"
            )
        if not isinstance(self.join_fanin, int) or self.join_fanin < 2:
            raise ValueError(
                f"IWardedConfig.join_fanin must be an integer >= 2, "
                f"got {self.join_fanin!r}"
            )
        if not isinstance(self.fact_skew, (int, float)) or self.fact_skew < 0:
            raise ValueError(
                f"IWardedConfig.fact_skew must be a non-negative number, "
                f"got {self.fact_skew!r}"
            )

    @property
    def total_rules(self) -> int:
        return self.linear_rules + self.join_rules

    @property
    def is_classic(self) -> bool:
        """True when every parametric knob sits at its classic default."""
        return (
            self.arity == 2
            and self.recursion_depth == 1
            and self.existential_density is None
            and self.join_fanin == 2
            and self.fact_skew == 0.0
        )


#: The eight scenarios of Figure 6 (columns in the same order as the paper).
SCENARIO_CONFIGS: Dict[str, IWardedConfig] = {
    "synthA": IWardedConfig("synthA", 90, 10, 27, 3, 20, 5, 4, 1),
    "synthB": IWardedConfig("synthB", 10, 90, 3, 27, 20, 45, 40, 5),
    "synthC": IWardedConfig("synthC", 30, 70, 9, 20, 40, 25, 20, 5),
    "synthD": IWardedConfig("synthD", 30, 70, 9, 20, 22, 10, 9, 1),
    "synthE": IWardedConfig("synthE", 30, 70, 15, 40, 20, 35, 29, 1),
    "synthF": IWardedConfig("synthF", 30, 70, 25, 20, 50, 35, 29, 1),
    "synthG": IWardedConfig("synthG", 30, 70, 9, 21, 30, 0, 10, 60),
    "synthH": IWardedConfig("synthH", 30, 70, 9, 21, 30, 0, 60, 10),
}


def _source_pred(index: int) -> str:
    return f"S{index}"


def _ground_pred(index: int) -> str:
    return f"G{index}"


def _affected_pred(index: int) -> str:
    return f"A{index}"


def generate_iwarded(config: IWardedConfig) -> Tuple[Program, Database]:
    """Generate a warded program and database for one iWarded configuration.

    The generator keeps the program warded by construction:

    * existential rules are linear (``S_i(x, y) → ∃z A_j(x, z)``);
    * joins through a ward look like ``A_i(x, p̂), S_j(x, y) → A_k(y, p̂)``
      (the ward ``A_i`` shares only the harmless ``x`` with ``S_j``);
    * joins without a ward involve only ground predicates
      (``G_i(x, y), G_j(y, z) → G_k(x, z)``);
    * harmful joins join two affected predicates on their affected position
      (``A_i(x, p̂), A_j(y, p̂) → G_k(x, y)``).

    Recursion is introduced by making the head predicate of a rule feed one of
    the rules that (transitively) produced its body predicate.

    Classic configurations (:attr:`IWardedConfig.is_classic`) run the
    original Figure-6 construction bit-for-bit; any non-default parametric
    knob switches to the general construction of
    :func:`_generate_parametric`.  Either way the result is validated with
    :func:`repro.core.wardedness.analyse_program` before it is returned
    (warded by construction *and* by check).
    """
    if config.is_classic:
        program, database = _generate_classic(config)
    else:
        program, database = _generate_parametric(config)
    analysis = analyse_program(program)
    if not analysis.is_warded:
        offenders = [
            a.rule.label or str(a.rule) for a in analysis.rule_analyses if not a.is_warded
        ]
        raise GenerationError(
            f"iWarded config {config.name!r} (seed {config.seed}) generated a "
            f"non-warded program; offending rules: {', '.join(offenders)}"
        )
    return program, database


def _generate_classic(config: IWardedConfig) -> Tuple[Program, Database]:
    """The original Figure-6 construction (binary predicates, 2-atom joins)."""
    rng = random.Random(config.seed)
    program = Program()

    n_source = max(5, config.existential_rules // 3)
    n_ground = max(6, config.join_rules // 8)
    n_affected = max(4, config.existential_rules // 3)

    source_preds = [_source_pred(i) for i in range(n_source)]
    ground_preds = [_ground_pred(i) for i in range(n_ground)]
    affected_preds = [_affected_pred(i) for i in range(n_affected)]

    x, y, z, p = Variable("X"), Variable("Y"), Variable("Z"), Variable("P")

    linear_budget = config.linear_rules
    join_budget = config.join_rules
    existential_budget = config.existential_rules
    ward_join_budget = config.harmless_join_with_ward
    plain_join_budget = config.harmless_join_without_ward
    harmful_budget = config.harmful_joins

    rules: List[Rule] = []

    # --- linear rules ------------------------------------------------------
    # Existential rules read only the EDB source predicates S_i, so the number
    # of labelled nulls the chase creates is bounded by the input size (the
    # paper's scenarios are likewise driven by the source instance).
    recursive_linear = 0
    for index in range(linear_budget):
        use_existential = existential_budget > 0 and index % 2 == 0
        if use_existential:
            source = rng.choice(source_preds)
            target = rng.choice(affected_preds)
            rules.append(
                Rule(
                    body=(Atom(source, (x, y)),),
                    head=(Atom(target, (x, p)),),
                    label=f"L{index}",
                )
            )
            existential_budget -= 1
        elif recursive_linear < config.linear_recursive and affected_preds:
            # A linear recursion through two affected predicates (a 2-cycle).
            first = rng.choice(affected_preds)
            second = rng.choice(affected_preds)
            rules.append(
                Rule(
                    body=(Atom(first, (x, p)),),
                    head=(Atom(second, (x, p)),),
                    label=f"L{index}",
                )
            )
            recursive_linear += 1
        else:
            source = rng.choice(source_preds + ground_preds)
            target = rng.choice(ground_preds)
            rules.append(
                Rule(
                    body=(Atom(source, (x, y)),),
                    head=(Atom(target, (y, x)),),
                    label=f"L{index}",
                )
            )

    # --- join rules ----------------------------------------------------------
    recursive_joins = 0
    for index in range(join_budget):
        label = f"J{index}"
        if ward_join_budget > 0 and affected_preds:
            # Harmless-harmless join through a ward: the dangerous variable P
            # stays inside the ward A_i, which shares only the harmless X with
            # the EDB side predicate.
            ward = rng.choice(affected_preds)
            side = rng.choice(source_preds)
            target = rng.choice(affected_preds)
            rules.append(
                Rule(
                    body=(Atom(ward, (x, p)), Atom(side, (x, y))),
                    head=(Atom(target, (y, p)),),
                    label=label,
                )
            )
            ward_join_budget -= 1
        elif harmful_budget > 0 and len(affected_preds) >= 2:
            first, second = rng.sample(affected_preds, 2)
            target = rng.choice(ground_preds)
            rules.append(
                Rule(
                    body=(Atom(first, (x, p)), Atom(second, (y, p))),
                    head=(Atom(target, (x, y)),),
                    label=label,
                )
            )
            harmful_budget -= 1
        else:
            first = rng.choice(source_preds + ground_preds)
            second = rng.choice(source_preds)
            if recursive_joins < config.join_recursive and first in ground_preds:
                target = first  # transitive-closure style recursion
                recursive_joins += 1
            else:
                target = rng.choice(ground_preds)
            rules.append(
                Rule(
                    body=(Atom(first, (x, y)), Atom(second, (y, z))),
                    head=(Atom(target, (x, z)),),
                    label=label,
                )
            )
            if plain_join_budget > 0:
                plain_join_budget -= 1

    for rule in rules:
        program.add_rule(rule)

    # Outputs: every ground predicate plus every affected predicate is queried,
    # matching the paper's "same set of (multi-)queries that activates all the
    # rules".
    program.outputs = set(ground_preds) | set(affected_preds)

    database = _generate_database(config, rng, source_preds + ground_preds)
    return program, database


def _generate_database(
    config: IWardedConfig, rng: random.Random, edb_preds: List[str]
) -> Database:
    """A uniform random EDB over the source/ground predicates (average join rate)."""
    database = Database()
    domain_size = max(10, config.facts_per_predicate // 2)
    for predicate in edb_preds:
        rows = set()
        while len(rows) < config.facts_per_predicate:
            rows.add((f"c{rng.randrange(domain_size)}", f"c{rng.randrange(domain_size)}"))
        database.add_tuples(predicate, sorted(rows))
    return database


# --------------------------------------------------------------------------
# The parametric construction (PR 10): arity, recursion depth, existential
# density, join fan-in and fact-set size with skew.
# --------------------------------------------------------------------------


def _generate_parametric(config: IWardedConfig) -> Tuple[Program, Database]:
    """The general iWarded construction driven by the parametric knobs.

    Predicates have ``config.arity`` positions; the last position of every
    ``A_i`` predicate is affected, all other positions (and all positions of
    ``S_i``/``G_i``) stay harmless.  Join rules carry ``config.join_fanin``
    body atoms chained on harmless variables, linear recursion runs in
    cycles of ``config.recursion_depth`` rules through the affected
    predicates, and the EDB values are drawn from a Zipf-style distribution
    with exponent ``config.fact_skew``.
    """
    rng = random.Random(config.seed)
    program = Program()
    arity = config.arity

    existential_budget = config.existential_rules
    if config.existential_density is not None:
        existential_budget = round(config.existential_density * config.linear_rules)
        existential_budget = min(existential_budget, config.linear_rules)

    n_source = max(5, existential_budget // 3 or 1)
    n_ground = max(6, config.join_rules // 8)
    n_affected = max(4, existential_budget // 3 or 1)

    source_preds = [_source_pred(i) for i in range(n_source)]
    ground_preds = [_ground_pred(i) for i in range(n_ground)]
    affected_preds = [_affected_pred(i) for i in range(n_affected)]

    #: Harmless variable tuple shared by single-atom rules: X0 … X{arity-2}.
    xs = tuple(Variable(f"X{i}") for i in range(arity - 1))
    last = Variable(f"X{arity - 1}")
    p = Variable("P")

    rules: List[Rule] = []

    def harmless_head_fill(pool: List[Variable], width: int) -> Tuple[Variable, ...]:
        """``width`` head terms drawn round-robin from harmless ``pool``."""
        return tuple(pool[i % len(pool)] for i in range(width))

    # --- linear rules -----------------------------------------------------
    # Existential rules are interleaved evenly across the linear budget so
    # any density in [0, 1] spreads them out instead of front-loading.
    existential_slots: set = set()
    if existential_budget > 0 and config.linear_rules > 0:
        stride = config.linear_rules / existential_budget
        existential_slots = {
            min(config.linear_rules - 1, int(i * stride))
            for i in range(existential_budget)
        }
    recursion_chain: List[str] = []
    recursive_linear = 0
    for index in range(config.linear_rules):
        label = f"L{index}"
        if index in existential_slots:
            # S_i(x0…x_{k-1}) → ∃Z A_j(x0…x_{k-2}, Z)
            source = rng.choice(source_preds)
            target = rng.choice(affected_preds)
            rules.append(
                Rule(
                    body=(Atom(source, xs + (last,)),),
                    head=(Atom(target, xs + (Variable("Z"),)),),
                    label=label,
                )
            )
        elif recursive_linear < config.linear_recursive:
            # Linear recursion in cycles of ``recursion_depth`` rules:
            # A_c0 → A_c1 → … → A_c{d-1} → A_c0.  The dangerous variable P
            # rides along in the affected last position.
            if not recursion_chain:
                depth = min(
                    config.recursion_depth,
                    config.linear_recursive - recursive_linear,
                )
                start = rng.randrange(len(affected_preds))
                cycle = [
                    affected_preds[(start + i) % len(affected_preds)]
                    for i in range(depth)
                ]
                recursion_chain = [cycle[-1]] + cycle  # closes back on itself
            body_pred = recursion_chain[0]
            head_pred = recursion_chain[1]
            recursion_chain = recursion_chain[1:] if len(recursion_chain) > 2 else []
            rules.append(
                Rule(
                    body=(Atom(body_pred, xs + (p,)),),
                    head=(Atom(head_pred, xs + (p,)),),
                    label=label,
                )
            )
            recursive_linear += 1
        else:
            # Plain linear rule: rotate the harmless variables.
            source = rng.choice(source_preds + ground_preds)
            target = rng.choice(ground_preds)
            all_vars = xs + (last,)
            rotated = all_vars[1:] + all_vars[:1]
            rules.append(
                Rule(
                    body=(Atom(source, all_vars),),
                    head=(Atom(target, rotated),),
                    label=label,
                )
            )

    # --- join rules -------------------------------------------------------
    ward_join_budget = config.harmless_join_with_ward
    plain_join_budget = config.harmless_join_without_ward
    harmful_budget = config.harmful_joins
    fanin = config.join_fanin
    recursive_joins = 0
    for index in range(config.join_rules):
        label = f"J{index}"
        if ward_join_budget > 0:
            # Ward join with fan-in: the ward A_w holds P and shares only
            # the harmless X0 with a chain of fanin-1 source atoms.
            ward = rng.choice(affected_preds)
            target = rng.choice(affected_preds)
            ward_vars = xs + (p,)
            body: List[Atom] = [Atom(ward, ward_vars)]
            link = xs[0]
            harmless_pool: List[Variable] = [link]
            for side_index in range(fanin - 1):
                side = rng.choice(source_preds)
                fresh = tuple(
                    Variable(f"S{side_index}_{j}") for j in range(arity - 1)
                )
                body.append(Atom(side, (link,) + fresh))
                harmless_pool.extend(fresh)
                link = fresh[-1]
            head_vars = harmless_head_fill(harmless_pool[1:] or [link], arity - 1)
            rules.append(
                Rule(
                    body=tuple(body),
                    head=(Atom(target, head_vars + (p,)),),
                    label=label,
                )
            )
            ward_join_budget -= 1
        elif harmful_budget > 0 and len(affected_preds) >= 2:
            # Harmful join: two affected predicates meet on P in their
            # affected positions; extra fan-in atoms stay harmless.
            first, second = rng.sample(affected_preds, 2)
            target = rng.choice(ground_preds)
            first_vars = tuple(Variable(f"F{j}") for j in range(arity - 1))
            second_vars = tuple(Variable(f"H{j}") for j in range(arity - 1))
            body = [Atom(first, first_vars + (p,)), Atom(second, second_vars + (p,))]
            harmless_pool = list(first_vars) + list(second_vars)
            link = first_vars[0]
            for side_index in range(fanin - 2):
                side = rng.choice(source_preds)
                fresh = tuple(
                    Variable(f"S{side_index}_{j}") for j in range(arity - 1)
                )
                body.append(Atom(side, (link,) + fresh))
                harmless_pool.extend(fresh)
                link = fresh[-1]
            rules.append(
                Rule(
                    body=tuple(body),
                    head=(Atom(target, harmless_head_fill(harmless_pool, arity)),),
                    label=label,
                )
            )
            harmful_budget -= 1
        else:
            # Plain (possibly recursive) join: a chain of ``fanin`` ground
            # atoms linked by their boundary variables.
            first = rng.choice(source_preds + ground_preds)
            chain_preds = [first] + [
                rng.choice(source_preds) for _ in range(fanin - 1)
            ]
            body = []
            harmless_pool = []
            link = None
            for chain_index, predicate in enumerate(chain_preds):
                fresh = tuple(
                    Variable(f"C{chain_index}_{j}")
                    for j in range(arity if chain_index == 0 else arity - 1)
                )
                atom_vars = fresh if chain_index == 0 else (link,) + fresh
                body.append(Atom(predicate, atom_vars))
                harmless_pool.extend(fresh)
                link = fresh[-1]
            if recursive_joins < config.join_recursive and first in ground_preds:
                target = first  # transitive-closure style recursion
                recursive_joins += 1
            else:
                target = rng.choice(ground_preds)
            head_vars = (harmless_pool[0], link) + tuple(
                harmless_pool[1 + j] for j in range(arity - 2)
            )
            rules.append(
                Rule(body=tuple(body), head=(Atom(target, head_vars),), label=label)
            )
            if plain_join_budget > 0:
                plain_join_budget -= 1

    for rule in rules:
        program.add_rule(rule)
    program.outputs = set(ground_preds) | set(affected_preds)

    database = _parametric_database(config, rng, source_preds + ground_preds)
    return program, database


def _parametric_database(
    config: IWardedConfig, rng: random.Random, edb_preds: List[str]
) -> Database:
    """A random EDB of ``facts_per_predicate`` rows per predicate.

    Values are drawn from a Zipf-style distribution: constant ``c_i`` is
    picked with probability proportional to ``uniform ** (1 + fact_skew)``
    — at skew 0 this is the uniform draw of the classic generator, larger
    skews concentrate the mass on the low-index constants (higher average
    join rate, mirroring the paper's "average/high join rate" instances).
    """
    database = Database()
    domain_size = max(10, config.facts_per_predicate // 2)
    skew = 1.0 + config.fact_skew

    def draw() -> str:
        return f"c{int(domain_size * (rng.random() ** skew))}"

    for predicate in edb_preds:
        rows = set()
        attempts = 0
        limit = config.facts_per_predicate * 50
        while len(rows) < config.facts_per_predicate and attempts < limit:
            rows.add(tuple(draw() for _ in range(config.arity)))
            attempts += 1
        database.add_tuples(predicate, sorted(rows))
    return database


def iwarded_scenario(name: str, facts_per_predicate: int | None = None) -> Scenario:
    """Build one of the Figure-6 scenarios (synthA … synthH).

    ``facts_per_predicate`` overrides the config's fact-set size through
    :func:`dataclasses.replace`, so the frozen config's own validation
    applies to the override (an invalid value raises ``ValueError``).
    """
    if name not in SCENARIO_CONFIGS:
        raise KeyError(f"unknown iWarded scenario {name!r}; known: {', '.join(SCENARIO_CONFIGS)}")
    config = SCENARIO_CONFIGS[name]
    if facts_per_predicate is not None:
        config = dataclasses.replace(config, facts_per_predicate=facts_per_predicate)
    program, database = generate_iwarded(config)
    return Scenario(
        name=name,
        program=program,
        database=database,
        outputs=tuple(sorted(program.outputs)),
        description=f"iWarded synthetic scenario {name} (Figure 6)",
        params={
            "linear_rules": config.linear_rules,
            "join_rules": config.join_rules,
            "existential_rules": config.existential_rules,
            "harmful_joins": config.harmful_joins,
            "facts_per_predicate": config.facts_per_predicate,
        },
    )


#: Base rule mix of the parametric family: a small SynthC-flavoured blend
#: of every rule kind, scaled down so knob sweeps stay laptop-sized.
PARAMETRIC_BASE = IWardedConfig(
    name="parametric",
    linear_rules=12,
    join_rules=8,
    linear_recursive=4,
    join_recursive=2,
    existential_rules=6,
    harmless_join_with_ward=3,
    harmless_join_without_ward=3,
    harmful_joins=2,
    facts_per_predicate=10,
    seed=7,
)


def parametric_config(
    *,
    arity: int = 2,
    recursion_depth: int = 2,
    existential_density: float | None = 0.5,
    join_fanin: int = 2,
    facts_per_predicate: int = 10,
    fact_skew: float = 0.0,
    seed: int = 7,
    base: IWardedConfig = PARAMETRIC_BASE,
) -> IWardedConfig:
    """An :class:`IWardedConfig` for one point of the parametric knob grid.

    The rule mix comes from ``base``; the keyword knobs position the point
    along the sweep axes.  Invalid knob values raise ``ValueError`` through
    the config's own validation.
    """
    name = (
        f"iwarded-par-d{recursion_depth}"
        f"-e{existential_density if existential_density is not None else 'n'}"
        f"-a{arity}-f{join_fanin}-n{facts_per_predicate}"
        f"-k{fact_skew}-s{seed}"
    )
    return dataclasses.replace(
        base,
        name=name,
        arity=arity,
        recursion_depth=recursion_depth,
        existential_density=existential_density,
        join_fanin=join_fanin,
        facts_per_predicate=facts_per_predicate,
        fact_skew=fact_skew,
        seed=seed,
    )


def parametric_scenario(config: IWardedConfig | None = None, **knobs) -> Scenario:
    """Build a scenario from one parametric grid point.

    Pass a ready :class:`IWardedConfig` or the keyword knobs of
    :func:`parametric_config`.  The generated program is warded by
    construction and re-checked by analysis (see :func:`generate_iwarded`).
    """
    if config is not None and knobs:
        raise ValueError("pass either a config or keyword knobs, not both")
    if config is None:
        config = parametric_config(**knobs)
    program, database = generate_iwarded(config)
    return Scenario(
        name=config.name,
        program=program,
        database=database,
        outputs=tuple(sorted(program.outputs)),
        description="parametric iWarded scenario (arXiv:2103.08588 knobs)",
        params={
            "arity": config.arity,
            "recursion_depth": config.recursion_depth,
            "existential_density": config.existential_density,
            "join_fanin": config.join_fanin,
            "facts_per_predicate": config.facts_per_predicate,
            "fact_skew": config.fact_skew,
            "seed": config.seed,
            "rules": config.total_rules,
        },
    )
