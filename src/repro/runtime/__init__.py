"""Runtime: reference kernels, the schedule interpreter (parity oracle),
and the compiled execution engine (lower once, execute many)."""

from .compiled import (
    CompiledProgram,
    LoweredKernel,
    LoweringError,
    PlanCache,
    compile_schedule,
    default_plan_cache,
    execute_compiled,
    lower_program,
    plan_key,
    schedule_fingerprint,
)
from .executor import ExecutionError, ScheduleExecutor, execute_schedule
from .kernels import (
    KernelError,
    evaluate_op,
    execute_graph_reference,
    random_feeds,
)

__all__ = [
    "CompiledProgram",
    "ExecutionError",
    "KernelError",
    "LoweredKernel",
    "LoweringError",
    "PlanCache",
    "ScheduleExecutor",
    "compile_schedule",
    "default_plan_cache",
    "evaluate_op",
    "execute_compiled",
    "execute_graph_reference",
    "execute_schedule",
    "lower_program",
    "plan_key",
    "random_feeds",
    "schedule_fingerprint",
]
