"""Pipeline architecture of the reproduction (Section 4 of the paper)."""

from .annotations import (
    BindingSet,
    PostDirective,
    collect_bindings,
    write_output_bindings,
)
from .joins import CompiledRuleExecutor
from .pipeline import PipelineExecutor
from .plan import (
    AtomStep,
    PlanNode,
    ReasoningAccessPlan,
    RuleJoinPlan,
    SeedJoinPlan,
    backward_slice,
    compile_join_plans,
    compile_plan,
    compile_source_pushdowns,
    compile_rule_join_plan,
)
from .incremental import ResidentError, ResidentReasoner
from .reasoner import ReasoningResult, VadalogReasoner, reason
from .service import ReasoningService, predicate_dependencies
from .record_managers import (
    DatabaseRecordManager,
    DataSourceRecordManager,
    FactsRecordManager,
    RecordManager,
    managers_for_database,
    managers_for_facts,
)
from .scheduler import RoundRobinScheduler, SchedulerReport
from .wrappers import TerminationWrapper, WrapperRegistry

__all__ = [
    "BindingSet",
    "PostDirective",
    "collect_bindings",
    "write_output_bindings",
    "CompiledRuleExecutor",
    "PipelineExecutor",
    "AtomStep",
    "PlanNode",
    "ReasoningAccessPlan",
    "RuleJoinPlan",
    "SeedJoinPlan",
    "backward_slice",
    "compile_source_pushdowns",
    "compile_join_plans",
    "compile_plan",
    "compile_rule_join_plan",
    "ReasoningResult",
    "ResidentError",
    "ResidentReasoner",
    "ReasoningService",
    "predicate_dependencies",
    "VadalogReasoner",
    "reason",
    "DatabaseRecordManager",
    "DataSourceRecordManager",
    "FactsRecordManager",
    "RecordManager",
    "managers_for_database",
    "managers_for_facts",
    "RoundRobinScheduler",
    "SchedulerReport",
    "TerminationWrapper",
    "WrapperRegistry",
]
