"""Static analysis: ``repro lint``.

``python -m repro lint`` walks ``src/``, ``tools/`` and ``tests/`` and
enforces the repo-specific rule catalogue R001-R005, R007 and R008
(DESIGN.md §11): the per-file determinism rules, among them R007 (RNG
provenance), and the cross-file contract checkers.  There is no
whole-program rule; shard isolation is checked dynamically by
``test_shards_advance_as_if_alone`` and the same-seed replay tests.  Exit
codes are CLI-conventional: 0 clean, 1 findings, 2 internal error.
"""

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
from .rules import (
    NoFloatEqualityRule,
    NoSetIterationRule,
    NoWallClockRule,
    RngProvenanceRule,
)

__all__ = [
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
    "TopicContractRule",
    "UNUSED_SUPPRESSION_CODE",
    "default_rules",
    "load_project",
    "run_lint",
]
