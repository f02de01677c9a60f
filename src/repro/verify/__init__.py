"""repro.verify: schedule auditor + N-way differential oracle.

One import surface for everything correctness-related:

* the **static auditor** re-checks every compiled kernel schedule against
  the paper's invariants (Alg. 1 checkRsrc, section 5.3 UTA completeness,
  section 5.4 memory placement, SMG structure, Table 3 slicing legality)
  — see :mod:`repro.core.verify`;
* the **differential oracle** runs a graph through the interpreter and the
  compiled engine against the unfused float64 reference with NaN-safe,
  dtype-aware tolerances, and shrinks fuzz failures to minimal JSON
  reproducers — see :mod:`repro.runtime.oracle`.
"""

from ..core.serialize import graph_from_dict, graph_to_dict
from ..core.verify import (
    AUDIT_CHECKS,
    SEEDED_MUTATIONS,
    AuditFinding,
    AuditReport,
    SelftestResult,
    audit_kernel,
    audit_model,
    audit_program,
    run_selftest,
)
from ..runtime.oracle import (
    DTYPE_TOLERANCES,
    EngineRun,
    OracleResult,
    differential_test,
    load_reproducer,
    nan_safe_max_abs_err,
    save_reproducer,
    shrink_graph,
    shrink_to_reproducer,
    tolerance_for,
)

__all__ = [
    "AUDIT_CHECKS",
    "SEEDED_MUTATIONS",
    "AuditFinding",
    "AuditReport",
    "SelftestResult",
    "audit_kernel",
    "audit_model",
    "audit_program",
    "run_selftest",
    "DTYPE_TOLERANCES",
    "EngineRun",
    "OracleResult",
    "differential_test",
    "graph_from_dict",
    "graph_to_dict",
    "load_reproducer",
    "nan_safe_max_abs_err",
    "save_reproducer",
    "shrink_graph",
    "shrink_to_reproducer",
    "tolerance_for",
]
