"""Static analysis of recorded write streams.

The analysis layer consumes a recorded ``io_log`` — no execution, no crash
states — and infers the *persistence mechanisms* the traced file system used:
journal commit protocols (a commit record persist-fencing a preceding group
of writes), checkpoint-generation shadow headers (A/B area ping-pong named
by a FUA superblock), log-structured segment appends under a monotonic
sequence tag, and N-way replicated metadata recovered newest-wins.  The
inferred :class:`MechanismReport` feeds the ``mechanism`` crash planner,
which collapses the drop/tear cross-product to a few representative states
per mechanism epoch, and the ``analyze`` CLI subcommand, which prints the
report without running any crash state.  Of the crash-testing layers only
:mod:`repro.crashmonkey.crashplan` imports this package: its
``MechanismPlanner.for_profile`` runs the audited analysis of one workload
and binds the plan to it.

A second pass — the cross-mechanism contract auditor in
:mod:`repro.analysis.audit` — re-checks every claim in the report against
the stream's actual fence/FUA edges and demotes violated claims, so the
planner falls back to exhaustive windows wherever a reasoner over-claimed.
"""

from .audit import actual_fence_edges, audit_report
from .mechanisms import (
    REPORT_SCHEMA,
    AnalysisCursor,
    AuditCheck,
    AuditVerdict,
    MechanismEvidence,
    MechanismReport,
    WriteClass,
    analyze_io_log,
    classify_write,
)
from .reasoners import LogStructuredWriteReasoner, ReplicatedMetadataReasoner

__all__ = [
    "REPORT_SCHEMA",
    "AnalysisCursor",
    "AuditCheck",
    "AuditVerdict",
    "LogStructuredWriteReasoner",
    "MechanismEvidence",
    "MechanismReport",
    "ReplicatedMetadataReasoner",
    "WriteClass",
    "actual_fence_edges",
    "analyze_io_log",
    "audit_report",
    "classify_write",
]
