"""Interprocedural rules: R006 shard isolation, R007 RNG provenance.

Both rules run over the whole-program call graph
(:mod:`repro.analysis.callgraph`) instead of one file at a time, because
the bugs they hunt only exist across call chains: a helper two frames
below ``DomainShard.run_to`` that appends to a module-level list couples
shards exactly like a direct write would, and an RNG that reaches algorithm
code through three parameters is only as deterministic as wherever it
was constructed.

**R006 (shard isolation).**  A shard's trajectory between barriers must
be a function of its own view, seed and delivered advice — never of which
sibling advanced before it — so any function *reachable* from the shard
entry points (``DomainShard.run_to`` and shard construction) must only
touch shard-local state.  That is also what keeps shard state
self-contained enough to advance anywhere.  Flagged:

* writes rooted at module-level names (direct, ``global``, or in-place
  mutation of a module-level container) and class-attribute writes;
* ``self`` writes inside methods of the shared control-plane classes
  (:data:`SHARED_TYPES`);
* writes through parameters annotated with a shared type.

Sanctioned merge points — functions that *do* write shared state but
are only ever invoked by the session between rounds — carry a
``# repro: shared-ok[R006]`` marker on their ``def`` line.  A marker on
a function the rule would not flag is itself a finding, so declarations
can't outlive the code they excuse (mirroring the engine's R008).

**R007 (RNG provenance).**  Every RNG that algorithm code draws from
must trace to :class:`repro.simnet.rng.RngRegistry` (``fork``), the
sanctioned ``fallback_rng()`` shim, or a parameter/attribute that was
filled from one.  Flagged: constant-seeded construction outside
``repro.simnet.rng``; constant/argless construction inside a loop
(re-seeding per iteration collapses the stream); module-level RNG
singletons; RNG objects stored on — or drawn from — cross-shard state
(:data:`SHARED_TYPES`); draws whose receiver resolves to a
module-global.  Derived-seed construction (``default_rng(seed)``,
hash-derived streams) is the repo's sanctioned pattern and passes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .callgraph import FunctionInfo, get_callgraph
from .engine import Finding, Project, Rule

__all__ = [
    "ENTRY_POINTS",
    "RngProvenanceRule",
    "SHARED_TYPES",
    "ShardIsolationRule",
]

#: Shard entry points: ``(class name or None, function name)``.
#: ``DomainShard.run_to`` is each shard's advance loop.  Shard
#: construction (``__init__``/``_build``) is not part of the advance, but
#: the callbacks it registers with the shard's scheduler execute inside
#: ``run_to`` — including it makes every scheduler-registered closure
#: reachable, which is the honest over-approximation of "code that may
#: run while a shard advances".
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("DomainShard", "run_to"),
    ("DomainShard", "__init__"),
    ("DomainShard", "_build"),
)

#: Classes whose instances are shared across shards.  Writing their state
#: (or storing/drawing RNGs on them) from shard-reachable code makes one
#: shard's trajectory depend on its siblings'.
SHARED_TYPES = frozenset({
    "FederationCoordinator",
    "FederatedSession",
    "InterDomainChannel",
})


def _shared_write_violations(
    fn: FunctionInfo,
) -> List[Tuple[int, str]]:
    """(line, message) pairs for every non-shard-local write in ``fn``."""
    out: List[Tuple[int, str]] = []
    for w in fn.effects.name_writes:
        target = w.root if not w.attr else f"{w.root}.{w.attr}"
        out.append((
            w.line,
            f"writes non-shard-local state: module-level/class name "
            f"'{target}' ({w.via})",
        ))
    if fn.class_name in SHARED_TYPES:
        for sw in fn.effects.self_writes:
            out.append((
                sw.line,
                f"writes shared {fn.class_name} state "
                f"'self.{sw.attr}' ({sw.via})",
            ))
    param_types = dict(fn.params)
    for pw in fn.effects.param_writes:
        ptype = param_types.get(pw.param)
        if ptype in SHARED_TYPES:
            out.append((
                pw.line,
                f"writes shared {ptype} state via parameter "
                f"'{pw.param}.{pw.attr}' ({pw.via})",
            ))
    return out


class ShardIsolationRule(Rule):
    """R006: no shared-state writes reachable from the shard entry points."""

    code = "R006"
    name = "shard-isolation"

    def check_project(self, project: Project) -> Iterable[Finding]:
        cg = get_callgraph(project)
        entries = cg.entry_points(ENTRY_POINTS)
        reachable, parents = cg.reachable(entries)
        findings: List[Finding] = []
        sanctioned_used: Set[str] = set()
        for fid in sorted(reachable):
            fn = cg.functions[fid]
            violations = _shared_write_violations(fn)
            if not violations:
                continue
            if fn.shared_ok:
                sanctioned_used.add(fid)
                continue
            blame = cg.blame_path(parents, fid)
            for line, msg in violations:
                findings.append(Finding(
                    path=fn.rel_path,
                    line=line,
                    code=self.code,
                    message=(
                        f"{msg} while reachable from a shard entry "
                        f"point [{blame}]; move the write to a "
                        f"between-rounds merge point or mark the "
                        f"function '# repro: shared-ok[R006]'"
                    ),
                ))
        # A shared-ok marker must excuse something: the function must be
        # shard-reachable AND have would-be violations.
        for fid in sorted(cg.functions):
            fn = cg.functions[fid]
            if not fn.shared_ok or fid in sanctioned_used:
                continue
            why = ("it is not reachable from a shard entry point"
                   if fid not in reachable
                   else "it writes no shared state")
            findings.append(Finding(
                path=fn.rel_path,
                line=fn.lineno,
                code=self.code,
                message=(
                    f"unused '# repro: shared-ok[R006]' declaration on "
                    f"'{fn.qual}': {why} — remove the marker"
                ),
            ))
        return findings


class RngProvenanceRule(Rule):
    """R007: every RNG in algorithm code traces to the registry."""

    code = "R007"
    name = "rng-provenance"

    #: The one module allowed to constant-seed: it *defines* the
    #: sanctioned ``fallback_rng()`` shim.
    RNG_HOME = "repro.simnet.rng"

    def check_project(self, project: Project) -> Iterable[Finding]:
        cg = get_callgraph(project)
        findings: List[Finding] = []
        rng_global_names: Dict[str, Set[str]] = {}
        for mod in cg.modules.values():
            names = {name for name, _ in mod.rng_globals}
            rng_global_names[mod.name] = names
            for name, line in mod.rng_globals:
                findings.append(Finding(
                    path=mod.rel_path,
                    line=line,
                    code=self.code,
                    message=(
                        f"module-level RNG singleton '{name}': its stream "
                        f"is shared by every caller and every shard — "
                        f"fork a named stream from RngRegistry instead"
                    ),
                ))
        for fid in sorted(cg.functions):
            fn = cg.functions[fid]
            findings.extend(self._check_function(fn, rng_global_names))
        return findings

    def _check_function(
        self,
        fn: FunctionInfo,
        rng_global_names: Dict[str, Set[str]],
    ) -> Iterable[Finding]:
        eff = fn.effects
        for c in eff.rng_constructs:
            if c.seed_kind == "constant" and fn.module != self.RNG_HOME:
                yield Finding(
                    path=fn.rel_path,
                    line=c.line,
                    code=self.code,
                    message=(
                        f"constant-seeded RNG construction "
                        f"'{c.callee}(...)' in '{fn.qual}': the stream "
                        f"is identical on every call — fork a named "
                        f"stream from RngRegistry, or use "
                        f"simnet.rng.fallback_rng() for a sanctioned "
                        f"registry-less default"
                    ),
                )
            if c.in_loop and c.seed_kind in ("constant", "none"):
                yield Finding(
                    path=fn.rel_path,
                    line=c.line,
                    code=self.code,
                    message=(
                        f"RNG constructed inside a loop in '{fn.qual}': "
                        f"re-seeding per iteration replays the same "
                        f"stream — hoist the construction (or fork a "
                        f"per-iteration derived stream)"
                    ),
                )
        if fn.class_name in SHARED_TYPES:
            for s in eff.rng_stores:
                yield Finding(
                    path=fn.rel_path,
                    line=s.line,
                    code=self.code,
                    message=(
                        f"RNG stored on cross-shard state: "
                        f"'self.{s.attr}' of shared {fn.class_name} — "
                        f"any shard drawing from it races its siblings; "
                        f"keep RNGs shard-local"
                    ),
                )
        for d in eff.rng_draws:
            shape = d.shape
            if shape[0] == "self" and fn.class_name in SHARED_TYPES:
                yield Finding(
                    path=fn.rel_path,
                    line=d.line,
                    code=self.code,
                    message=(
                        f"draw '.{d.method}()' from an RNG on shared "
                        f"{fn.class_name} state 'self.{shape[1]}' — "
                        f"the draw order depends on shard interleaving"
                    ),
                )
            elif shape[0] == "name":
                recv = shape[1]
                kind = eff.rng_locals.get(recv)
                if kind is not None:
                    continue  # fork/construct/fallback/param/selfattr chain
                if any(recv == p for p, _ in fn.params):
                    continue  # caller vouches for the parameter
                if recv in rng_global_names.get(fn.module, set()):
                    yield Finding(
                        path=fn.rel_path,
                        line=d.line,
                        code=self.code,
                        message=(
                            f"draw '.{d.method}()' from module-global "
                            f"RNG '{recv}' in '{fn.qual}' — stream order "
                            f"depends on global call order; fork a named "
                            f"stream from RngRegistry"
                        ),
                    )
                # otherwise: unresolved receiver (dict entry, comprehension
                # binding, …) — the same-seed replay diffs are the backstop.
