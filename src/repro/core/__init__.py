"""Core of the reproduction: the Vadalog language and the warded chase.

The sub-modules follow the structure of the paper:

* language model — :mod:`terms`, :mod:`atoms`, :mod:`rules`,
  :mod:`conditions`, :mod:`expressions`, :mod:`parser`;
* wardedness and rewritings — :mod:`wardedness`, :mod:`transform`,
  :mod:`harmful_joins`, :mod:`skolem`;
* chase and termination — :mod:`chase`, :mod:`termination`, :mod:`forests`,
  :mod:`provenance`, :mod:`isomorphism`, :mod:`fact_store`;
* features — :mod:`aggregates`, :mod:`query`.
"""

from .atoms import Atom, Fact, Position, Predicate, atom, fact
from .chase import ChaseConfig, ChaseEngine, ChaseResult, InconsistencyError, run_chase
from .conditions import AggregateSpec, Assignment, Comparison
from .limits import (
    RUN_STATUSES,
    STATUS_BUDGET,
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    CancellationToken,
    ExecutionBudget,
)
from .parser import (
    parse_program,
    parse_rule,
    parse_fact,
    parse_atom,
    unparse_program,
    VadalogSyntaxError,
)
from .magic import MagicRewriteResult, rewrite_with_magic
from .query import AnswerSet, Query, certain_answer, extract_answers, universal_answer
from .rules import (
    Annotation,
    EqualityConstraint,
    NegativeConstraint,
    Program,
    Rule,
)
from .terms import Constant, Null, NullFactory, Term, Variable
from .termination import (
    TerminationStrategy,
    TrivialIsomorphismStrategy,
    UnboundedStrategy,
    WardedTerminationStrategy,
    strategy_by_name,
)
from .wardedness import (
    ProgramAnalysis,
    RuleKind,
    VariableRole,
    analyse_program,
    is_harmless_warded,
    is_warded,
)

__all__ = [
    "Atom",
    "Fact",
    "Position",
    "Predicate",
    "atom",
    "fact",
    "ChaseConfig",
    "ChaseEngine",
    "ChaseResult",
    "InconsistencyError",
    "run_chase",
    "AggregateSpec",
    "Assignment",
    "Comparison",
    "RUN_STATUSES",
    "STATUS_BUDGET",
    "STATUS_CANCELLED",
    "STATUS_COMPLETE",
    "STATUS_DEADLINE",
    "CancellationToken",
    "ExecutionBudget",
    "parse_program",
    "parse_rule",
    "parse_fact",
    "parse_atom",
    "unparse_program",
    "VadalogSyntaxError",
    "MagicRewriteResult",
    "rewrite_with_magic",
    "AnswerSet",
    "Query",
    "certain_answer",
    "extract_answers",
    "universal_answer",
    "Annotation",
    "EqualityConstraint",
    "NegativeConstraint",
    "Program",
    "Rule",
    "Constant",
    "Null",
    "NullFactory",
    "Term",
    "Variable",
    "TerminationStrategy",
    "TrivialIsomorphismStrategy",
    "UnboundedStrategy",
    "WardedTerminationStrategy",
    "strategy_by_name",
    "ProgramAnalysis",
    "RuleKind",
    "VariableRole",
    "analyse_program",
    "is_harmless_warded",
    "is_warded",
]
