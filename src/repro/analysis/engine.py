"""Engine of the ``repro lint`` determinism & contract linter.

The simulator only reproduces the paper's figures when a run is bit-for-bit
deterministic under its seed, and PRs 1-4 grew a surface of string-keyed
contracts (event-bus topics, control-message fields, guard ranges) that no
test checks mechanically.  This subsystem walks the tree's Python sources
once, parses each file to an AST, and applies pluggable :class:`Rule`
objects:

* **file rules** (``check_file``) see one :class:`FileContext` at a time —
  the determinism rules R001-R003 and R007 live here;
* **project rules** (``check_project``) see the whole :class:`Project` —
  the cross-file contract checkers R004-R005 live here.

Findings render as ``path:line: CODE message`` (or ``--json`` for CI) and
any finding can be suppressed on its line with ``# repro: noqa[RXXX]``
(comma-separated codes).  A file that fails to parse is an *internal*
error (:class:`LintError`, CLI exit code 2), never a silent skip.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "FileContext",
    "Finding",
    "LintError",
    "LintResult",
    "Project",
    "Rule",
    "UNUSED_SUPPRESSION_CODE",
    "default_rules",
    "load_project",
    "noqa_lines",
    "run_lint",
]

#: Repo-relative directories scanned by default.
SCAN_DIRS: Tuple[str, ...] = ("src", "tools", "tests")

#: Path fragments excluded from the walk.  ``tests/lint_fixtures`` holds
#: deliberately-violating snippets the linter's own tests feed in manually.
EXCLUDE_PARTS: Tuple[str, ...] = ("lint_fixtures", "__pycache__")

#: Documentation files project rules may cross-check (loaded when present).
DOC_FILES: Tuple[str, ...] = ("DESIGN.md", "README.md")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_\s,]+)\]")


class LintError(Exception):
    """Internal linter failure (unparsable file, missing root): exit code 2."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line."""

    path: str
    line: int
    code: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
        }


def noqa_lines(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> rule codes suppressed on that line."""
    out: Dict[int, FrozenSet[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(text)
        if m:
            codes = frozenset(c.strip() for c in m.group(1).split(",") if c.strip())
            if codes:
                out[i] = codes
    return out


class FileContext:
    """One scanned source file: path, text, AST, suppression map."""

    def __init__(self, rel_path: str, source: str, tree: Optional[ast.AST] = None) -> None:
        self.rel_path = rel_path.replace("\\", "/")
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)
        self.noqa = noqa_lines(source)

    def suppressed(self, line: int, code: str) -> bool:
        return code in self.noqa.get(line, frozenset())


class Project:
    """Everything a project rule may inspect: sources plus doc files."""

    def __init__(
        self,
        contexts: Sequence[FileContext],
        docs: Optional[Dict[str, str]] = None,
        root: Optional[Path] = None,
    ) -> None:
        self.files: Tuple[FileContext, ...] = tuple(contexts)
        self.docs: Dict[str, str] = dict(docs or {})
        self.root = root
        self._by_path = {ctx.rel_path: ctx for ctx in self.files}

    def file(self, rel_path: str) -> Optional[FileContext]:
        return self._by_path.get(rel_path)

    def doc(self, name: str) -> Optional[str]:
        return self.docs.get(name)


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` (stable, ``RXXX``), ``name`` and optionally
    ``paths`` — repo-relative prefixes the rule applies to (empty = every
    scanned file) — then override ``check_file`` and/or ``check_project``.
    Suppression and sorting are the engine's job; rules just yield
    :class:`Finding` objects.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"
    paths: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        return not self.paths or any(rel_path.startswith(p) for p in self.paths)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_scanned: int
    rules: Tuple[str, ...]
    #: Wall time spent inside each rule (plus the engine's ``R008``
    #: unused-suppression sweep), keyed by rule code.
    timings_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 2,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "counts": self.counts(),
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
            "findings": [f.to_json() for f in self.findings],
        }


def default_rules() -> List[Rule]:
    """The repo's rule catalogue, R001-R005 and R007 (DESIGN.md §11)."""
    from .contracts import MessageSchemaRule, TopicContractRule
    from .rules import (
        NoFloatEqualityRule,
        NoSetIterationRule,
        NoWallClockRule,
        RngProvenanceRule,
    )

    return [
        NoWallClockRule(),
        NoFloatEqualityRule(),
        NoSetIterationRule(),
        TopicContractRule(),
        MessageSchemaRule(),
        RngProvenanceRule(),
    ]


def iter_source_files(root: Path, subdirs: Sequence[str] = SCAN_DIRS) -> List[Path]:
    """Python files under ``root``'s scanned subdirectories, sorted."""
    out: List[Path] = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(part in EXCLUDE_PARTS for part in path.parts):
                continue
            out.append(path)
    return out


def load_project(root: str = ".", subdirs: Sequence[str] = SCAN_DIRS) -> Project:
    """Parse every scanned file under ``root`` into a :class:`Project`."""
    root_path = Path(root)
    if not root_path.is_dir():
        raise LintError(f"root {root!r} is not a directory")
    contexts: List[FileContext] = []
    for path in iter_source_files(root_path, subdirs):
        rel = path.relative_to(root_path).as_posix()
        try:
            source = path.read_text()
        except OSError as exc:
            raise LintError(f"{rel}: unreadable: {exc}") from exc
        try:
            contexts.append(FileContext(rel, source))
        except SyntaxError as exc:
            raise LintError(f"{rel}: syntax error: {exc}") from exc
    docs: Dict[str, str] = {}
    for name in DOC_FILES:
        doc_path = root_path / name
        if doc_path.is_file():
            docs[name] = doc_path.read_text()
    return Project(contexts, docs, root=root_path)


#: Engine-level code for unused ``# repro: noqa[RXXX]`` suppressions.  It
#: is not a :class:`Rule`: deciding whether a suppression is *used* needs
#: the post-filter view of every other rule's findings, so the engine owns
#: the sweep.  Only codes belonging to rules active in this run count —
#: a single-rule invocation can't judge another rule's suppressions.
UNUSED_SUPPRESSION_CODE = "R008"


def run_lint(
    root: str = ".",
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[Project] = None,
) -> LintResult:
    """Apply ``rules`` (default: :func:`default_rules`) and collect findings.

    ``# repro: noqa[RXXX]`` on a finding's line suppresses it, for file and
    project rules alike.  A suppression for an active rule that suppresses
    nothing is itself a finding (``R008``) so excuses can't outlive the code
    they excuse.  Findings come back sorted by path, line, code; per-rule
    wall time lands in :attr:`LintResult.timings_ms`.
    """
    if project is None:
        project = load_project(root)
    active = list(default_rules() if rules is None else rules)
    findings: List[Finding] = []
    timings: Dict[str, float] = {}
    for rule in active:
        t0 = perf_counter()
        for ctx in project.files:
            if rule.applies_to(ctx.rel_path):
                findings.extend(rule.check_file(ctx))
        findings.extend(rule.check_project(project))
        timings[rule.code] = timings.get(rule.code, 0.0) + (
            perf_counter() - t0) * 1000.0
    kept = []
    used: Set[Tuple[str, int, str]] = set()
    for f in findings:
        ctx = project.file(f.path)
        if ctx is not None and ctx.suppressed(f.line, f.code):
            used.add((f.path, f.line, f.code))
            continue
        kept.append(f)
    t0 = perf_counter()
    active_codes = {r.code for r in active}
    for ctx in project.files:
        for line, codes in ctx.noqa.items():
            for code in sorted(codes & active_codes):
                if (ctx.rel_path, line, code) in used:
                    continue
                f = Finding(
                    path=ctx.rel_path,
                    line=line,
                    code=UNUSED_SUPPRESSION_CODE,
                    message=(
                        f"unused suppression: noqa[{code}] excuses no "
                        f"{code} finding on this line — remove it"
                    ),
                )
                if not ctx.suppressed(line, UNUSED_SUPPRESSION_CODE):
                    kept.append(f)
    timings[UNUSED_SUPPRESSION_CODE] = (perf_counter() - t0) * 1000.0
    kept.sort()
    return LintResult(
        findings=kept,
        files_scanned=len(project.files),
        rules=tuple([r.code for r in active] + [UNUSED_SUPPRESSION_CODE]),
        timings_ms=timings,
    )
