"""Static analysis: ``repro lint``.

``python -m repro lint`` walks ``src/``, ``tools/`` and ``tests/`` and
enforces the repo-specific rule catalogue R001-R008 (DESIGN.md §11 and
§16) — the per-file determinism rules, the
cross-file contract checkers, and the interprocedural whole-program
rules R006 (shard isolation) / R007 (RNG provenance) built on the
call-graph + effect summaries in :mod:`repro.analysis.callgraph` and
:mod:`repro.analysis.effects`.  Exit codes are CLI-conventional: 0
clean, 1 findings, 2 internal error.
"""

from .callgraph import CallGraph, build_callgraph, get_callgraph
from .contracts import MessageSchemaRule, TopicContractRule
from .engine import (
    FileContext,
    Finding,
    LintError,
    LintResult,
    Project,
    Rule,
    UNUSED_SUPPRESSION_CODE,
    default_rules,
    load_project,
    run_lint,
)
from .flow import RngProvenanceRule, ShardIsolationRule
from .rules import NoFloatEqualityRule, NoSetIterationRule, NoWallClockRule

__all__ = [
    "CallGraph",
    "FileContext",
    "Finding",
    "LintError",
    "LintResult",
    "MessageSchemaRule",
    "NoFloatEqualityRule",
    "NoSetIterationRule",
    "NoWallClockRule",
    "Project",
    "RngProvenanceRule",
    "Rule",
    "ShardIsolationRule",
    "TopicContractRule",
    "UNUSED_SUPPRESSION_CODE",
    "build_callgraph",
    "default_rules",
    "get_callgraph",
    "load_project",
    "run_lint",
]
