"""Determinism rules R001-R003 and R007: per-file AST checks.

Each rule targets a reproducibility hazard specific to this repo (see
DESIGN.md §11 for the catalogue and the policy on suppressions):

R001
    No wall-clock or global-RNG calls inside ``src/repro/``.  All
    randomness must flow through the seeded
    :class:`~repro.simnet.rng.RngRegistry`; simulated time comes from the
    scheduler.  Artifact metadata that is wall-clock *by design* (run
    directory stamps, manifests) carries a ``repro: noqa[R001]`` comment.
R002
    No direct float ``==``/``!=`` against float literals in ``core/`` and
    ``metrics/`` math — exact comparison of computed floats is a latent
    platform/optimisation dependency.
R003
    No iteration directly over set values in algorithm code — Python set
    order is insertion-and-hash dependent, so any behaviour fed from a
    bare set walk is an ordering hazard for determinism.  Wrap in
    ``sorted(...)``.
R007
    RNG provenance inside ``src/repro/``: a ``default_rng`` seeded with a
    constant anywhere but ``simnet/rng.py`` (home of the sanctioned
    ``fallback_rng()``), one constructed with a constant or no seed inside
    a loop, a module-level RNG singleton, and any draw from such a
    singleton.  Derived-seed construction (``default_rng(seed)``,
    hash-derived streams) is the repo's sanctioned pattern and passes.
    This is the one check that fires on *newly written* code: a replay
    pin is captured after the bug, and a per-seed test may not exist.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .engine import FileContext, Finding, Rule

__all__ = [
    "NoFloatEqualityRule",
    "NoSetIterationRule",
    "NoWallClockRule",
    "RngProvenanceRule",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class NoWallClockRule(Rule):
    """R001: simulation code must not read wall-clock or global RNG state."""

    code = "R001"
    name = "no-wall-clock-or-global-rng"
    paths = ("src/repro/",)

    #: Dotted calls that read the wall clock.
    WALL_CLOCK = frozenset({
        "time.time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })
    #: ``time`` helpers that read the clock only when called without an
    #: explicit time argument.
    WALL_CLOCK_IF_ARGLESS = frozenset({"time.localtime", "time.gmtime"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        random_imports: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        findings.append(self._finding(
                            ctx, node,
                            "import of the global `random` module — fork a "
                            "seeded stream from simnet/rng.RngRegistry instead",
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        random_imports.add(alias.asname or alias.name)
                    findings.append(self._finding(
                        ctx, node,
                        "import from the global `random` module — fork a "
                        "seeded stream from simnet/rng.RngRegistry instead",
                    ))
            elif isinstance(node, ast.Call):
                msg = self._call_message(node, random_imports)
                if msg is not None:
                    findings.append(self._finding(ctx, node, msg))
        return findings

    def _call_message(self, node: ast.Call, random_imports: Set[str]) -> Optional[str]:
        if isinstance(node.func, ast.Name) and node.func.id in random_imports:
            return (f"call to global-RNG `{node.func.id}` (from random import) — "
                    "use a seeded simnet/rng stream")
        name = dotted_name(node.func)
        if name is None:
            return None
        if name in self.WALL_CLOCK:
            return (f"wall-clock call `{name}` — simulated time comes from the "
                    "scheduler; artifact metadata needs a `repro: noqa[R001]`")
        if name in self.WALL_CLOCK_IF_ARGLESS and not node.args and not node.keywords:
            return (f"argless `{name}` reads the wall clock — pass an explicit "
                    "time value or suppress for artifact metadata")
        if name == "time.strftime" and len(node.args) == 1:
            return ("`time.strftime` without a time tuple reads the wall "
                    "clock — pass an explicit value or suppress for artifact "
                    "metadata")
        if name.startswith("random."):
            return (f"global-RNG call `{name}` — fork a seeded stream from "
                    "simnet/rng.RngRegistry instead")
        if name.startswith(("np.random.", "numpy.random.")):
            tail = name.rsplit(".", 1)[1]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    return ("unseeded `default_rng()` draws OS entropy — pass "
                            "a seed or a simnet/rng stream")
                return None
            return (f"global numpy RNG call `{name}` — use a Generator forked "
                    "from simnet/rng.RngRegistry")
        return None

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(ctx.rel_path, getattr(node, "lineno", 1), self.code, message)


class NoFloatEqualityRule(Rule):
    """R002: no ``==``/``!=`` against float literals in core/metrics math."""

    code = "R002"
    name = "no-float-equality"
    paths = ("src/repro/core/", "src/repro/metrics/")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(_is_floatish(x) for x in (operands[i], operands[i + 1])):
                    findings.append(Finding(
                        ctx.rel_path, node.lineno, self.code,
                        "direct float equality — compare with a tolerance "
                        "(math.isclose / epsilon) or restructure the guard",
                    ))
        return findings


def _is_floatish(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"):
        return True
    return False


class NoSetIterationRule(Rule):
    """R003: no iteration directly over set values in algorithm code."""

    code = "R003"
    name = "no-set-iteration"
    paths = (
        "src/repro/core/",
        "src/repro/control/",
        "src/repro/simnet/",
        "src/repro/baselines/",
        "src/repro/multicast/",
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            iters: Iterator[Tuple[int, ast.AST]]
            if isinstance(node, ast.For):
                iters = iter([(node.lineno, node.iter)])
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters = iter([(g.iter.lineno, g.iter) for g in node.generators])
            else:
                continue
            for line, it in iters:
                if _is_set_expr(it):
                    findings.append(Finding(
                        ctx.rel_path, line, self.code,
                        "iteration over an unordered set — wrap in "
                        "`sorted(...)` so traversal order is deterministic",
                    ))
        return findings


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    return False


class RngProvenanceRule(Rule):
    """R007: every RNG in simulation code is seeded from its caller's seed."""

    code = "R007"
    name = "rng-provenance"
    paths = ("src/repro/",)

    #: The one file allowed to constant-seed: it *defines* the sanctioned
    #: ``fallback_rng()`` shim.
    RNG_HOME = "src/repro/simnet/rng.py"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if "default_rng" not in ctx.source:
            return ()
        findings: List[Finding] = []
        singletons: Set[str] = set()
        singleton_calls: Set[int] = set()
        for stmt in ast.iter_child_nodes(ctx.tree):
            if not (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    and _is_default_rng(stmt.value)):
                continue
            singleton_calls.add(id(stmt.value))
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for name in [t.id for t in targets if isinstance(t, ast.Name)]:
                singletons.add(name)
                findings.append(Finding(
                    ctx.rel_path, stmt.lineno, self.code,
                    f"module-level RNG singleton '{name}': its stream is "
                    "shared by every caller and every shard — fork a named "
                    "stream from RngRegistry instead",
                ))
        for call, in_loop in _default_rng_calls(ctx.tree):
            if id(call) in singleton_calls:
                continue
            seed = call.args[0] if call.args else next(
                (kw.value for kw in call.keywords if kw.arg == "seed"), None)
            constant = isinstance(seed, ast.Constant) or (
                isinstance(seed, ast.UnaryOp)
                and isinstance(seed.operand, ast.Constant))
            if constant and ctx.rel_path != self.RNG_HOME:
                findings.append(Finding(
                    ctx.rel_path, call.lineno, self.code,
                    "constant-seeded RNG construction: the stream is "
                    "identical on every call — derive the seed from the "
                    "caller's, fork a named stream from RngRegistry, or use "
                    "simnet.rng.fallback_rng() for a registry-less default",
                ))
            if in_loop and (constant or seed is None):
                findings.append(Finding(
                    ctx.rel_path, call.lineno, self.code,
                    "RNG constructed inside a loop: re-seeding per iteration "
                    "replays the same stream — hoist the construction (or "
                    "fork a per-iteration derived stream)",
                ))
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in singletons):
                findings.append(Finding(
                    ctx.rel_path, node.lineno, self.code,
                    f"draw '.{node.func.attr}()' from module-global RNG "
                    f"'{node.func.value.id}' — stream order depends on global "
                    "call order; fork a named stream from RngRegistry",
                ))
        return findings


def _is_default_rng(node: Optional[ast.AST]) -> bool:
    name = dotted_name(node.func) if isinstance(node, ast.Call) else None
    return name is not None and name.rsplit(".", 1)[-1] == "default_rng"


def _default_rng_calls(node: ast.AST, in_loop: bool = False) -> Iterator[Tuple[ast.Call, bool]]:
    """``(call, inside a loop?)`` for every ``default_rng(...)`` under ``node``;
    a nested ``def`` or ``lambda`` body runs when called, not per iteration."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _default_rng_calls(child)
            continue
        if isinstance(child, ast.Call) and _is_default_rng(child):
            yield child, in_loop
        yield from _default_rng_calls(
            child, in_loop or isinstance(child, (ast.For, ast.AsyncFor, ast.While)))
