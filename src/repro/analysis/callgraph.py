"""Interprocedural call graph + effect summaries over ``src/repro``.

The whole-program rules (R006 shard isolation, R007 RNG provenance) need
to reason about what is *reachable* from the federation's shard entry
points and where state flows.  This module builds, from the
already-parsed :class:`~repro.analysis.engine.Project` ASTs:

* one :class:`FunctionInfo` per function/method (including nested
  functions — a closure handed to the scheduler runs eventually, so its
  definition is an edge from the encloser);
* one :class:`ClassInfo` per class, with light type inference for
  ``self`` attributes (constructor calls, annotations, and annotated
  helper-method return types);
* a conservative edge set: typed resolution first (``self`` methods,
  annotated parameters, inferred locals/attributes, imports — including
  relative imports), then a *name-based fallback* that links a dynamic
  ``x.m(...)`` receiver to every repo method named ``m``.  The fallback
  deliberately over-approximates; :data:`FALLBACK_SKIP` lists ubiquitous
  method names (container/str verbs, RNG draws) where it would link the
  whole repo into one blob and is therefore suppressed.  The shard-
  isolation oracle in ``tests/test_federation.py`` and the same-seed
  replay diffs are the dynamic backstop for what the fallback
  under-approximates.

The graph is built once per lint run and cached on the project
(:func:`get_callgraph`), so R006 and R007 share it — the whole pass must
keep full-repo lint under ~5 s.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .effects import FunctionEffects, bound_names, dotted, extract_effects
from .engine import FileContext, Project

__all__ = [
    "CallGraph",
    "ClassInfo",
    "FALLBACK_SKIP",
    "FunctionInfo",
    "ModuleInfo",
    "build_callgraph",
    "get_callgraph",
    "module_name",
]

#: Method names excluded from the name-based fallback resolution: they
#: are overwhelmingly builtin container/str verbs (or RNG draw methods)
#: and would otherwise glue unrelated classes into one reachable blob.
FALLBACK_SKIP = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "get", "items", "keys",
    "values", "copy", "sort", "reverse", "index", "count", "join",
    "split", "strip", "startswith", "endswith", "format", "encode",
    "decode", "read", "write", "close", "flush", "readline", "lower",
    "upper", "replace", "rstrip", "lstrip", "splitlines", "isdigit",
    "digest", "hexdigest", "total_seconds", "as_posix", "is_dir",
    "is_file", "exists", "mkdir", "resolve", "relative_to", "rglob",
    "random", "integers", "choice", "shuffle", "normal", "uniform",
    "exponential", "poisson", "standard_normal", "permutation", "zipf",
    "geometric", "binomial", "lognormal", "fork", "emit", "run",
    "dump", "dumps", "load", "loads", "search", "match", "findall",
    "group", "sub", "finditer", "fullmatch",
})

_SHARED_OK_MARK = "# repro: shared-ok[R006]"


def module_name(rel_path: str) -> str:
    """Dotted module name for a repo-relative source path."""
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name from an annotation (Optional[X] unwrapped)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base == "Optional":
            return _annotation_name(node.slice)
        return base
    return None


@dataclass
class FunctionInfo:
    """One function or method, with its effect summary."""

    fid: str                       # "<module>.<Class>.<name>" / "<module>.<name>"
    module: str
    rel_path: str
    name: str
    qual: str                      # "<Class>.<name>" or "<name>" (+nesting)
    class_name: Optional[str]
    lineno: int
    params: Tuple[Tuple[str, Optional[str]], ...]
    effects: FunctionEffects
    shared_ok: bool = False
    returns: Optional[str] = None  # annotated return type name


@dataclass
class ClassInfo:
    name: str
    module: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Dict[str, str] = field(default_factory=dict)   # name -> fid
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    rel_path: str
    imports: Dict[str, str] = field(default_factory=dict)       # alias -> module
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    module_names: Set[str] = field(default_factory=set)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, str] = field(default_factory=dict)     # bare name -> fid
    #: Module-level ``NAME = <rng construction>`` assignments.
    rng_globals: List[Tuple[str, int]] = field(default_factory=list)


class CallGraph:
    """Functions, classes, modules and a conservative edge relation."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.edges: Dict[str, Tuple[str, ...]] = {}

    # -- lookup helpers --------------------------------------------------
    def resolve_class(self, name: Optional[str]) -> Optional[ClassInfo]:
        """The unique repo class with this name, if unambiguous."""
        if name is None:
            return None
        candidates = self.classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def method_of(self, cls: ClassInfo, method: str,
                  _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Resolve ``method`` on ``cls`` or its repo base classes."""
        seen = _seen if _seen is not None else set()
        if cls.name in seen:
            return None
        seen.add(cls.name)
        fid = cls.methods.get(method)
        if fid is not None:
            return fid
        for base in cls.bases:
            base_cls = self.resolve_class(base)
            if base_cls is not None:
                fid = self.method_of(base_cls, method, seen)
                if fid is not None:
                    return fid
        return None

    def entry_points(self, specs: Sequence[Tuple[Optional[str], str]]) -> List[str]:
        """Function ids matching ``(class_name, method_name)`` specs.

        ``class_name`` of None matches module-level functions only.
        """
        out = []
        for fid in sorted(self.functions):
            fn = self.functions[fid]
            for cls, name in specs:
                if fn.name == name and fn.class_name == cls:
                    out.append(fid)
                    break
        return out

    def reachable(self, entries: Sequence[str]
                  ) -> Tuple[Set[str], Dict[str, Optional[str]]]:
        """BFS closure over edges; parents map renders blame paths."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for e in sorted(entries):
            if e in self.functions and e not in parents:
                parents[e] = None
                queue.append(e)
        i = 0
        while i < len(queue):
            fid = queue[i]
            i += 1
            for callee in self.edges.get(fid, ()):
                if callee not in parents:
                    parents[callee] = fid
                    queue.append(callee)
        return set(parents), parents

    def blame_path(self, parents: Dict[str, Optional[str]], fid: str,
                   limit: int = 5) -> str:
        """``entry → … → fid`` rendered short (for finding messages)."""
        chain: List[str] = []
        cur: Optional[str] = fid
        while cur is not None:
            chain.append(cur)
            cur = parents.get(cur)
        chain.reverse()
        short = [c.rsplit(".", 2)[-1] if c.count(".") < 2
                 else ".".join(c.rsplit(".", 2)[-2:]) for c in chain]
        if len(short) > limit:
            short = short[:2] + ["…"] + short[-(limit - 3):]
        return " → ".join(short)


# -- construction --------------------------------------------------------

def _params_of(fn: ast.AST) -> Tuple[Tuple[str, Optional[str]], ...]:
    args = fn.args  # type: ignore[attr-defined]
    all_args = list(getattr(args, "posonlyargs", [])) + list(args.args)
    out = [(a.arg, _annotation_name(a.annotation)) for a in all_args]
    for a in (args.vararg, args.kwarg):
        if a is not None:
            out.append((a.arg, None))
    out.extend((a.arg, _annotation_name(a.annotation)) for a in args.kwonlyargs)
    return tuple(out)


def _own_defs(fn: ast.AST) -> List[ast.AST]:
    """Function defs in ``fn``'s own scope (not inside deeper defs)."""
    out: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
            continue
        if isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda n: n.lineno)  # type: ignore[attr-defined]


def _resolve_relative(pkg_parts: List[str], module: Optional[str],
                      level: int) -> Optional[str]:
    """Absolute dotted module for a (possibly relative) import."""
    if level == 0:
        return module
    if level > len(pkg_parts):
        return None
    base = pkg_parts[: len(pkg_parts) - (level - 1)]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def _scan_module(cg: CallGraph, ctx: FileContext) -> None:
    mod = ModuleInfo(name=module_name(ctx.rel_path), rel_path=ctx.rel_path)
    source_lines = ctx.source.splitlines()
    # package parts for relative-import resolution: a module's imports are
    # relative to its containing package.
    pkg_parts = mod.name.split(".")
    if not ctx.rel_path.endswith("__init__.py"):
        pkg_parts = pkg_parts[:-1]

    def shared_ok(lineno: int) -> bool:
        if 1 <= lineno <= len(source_lines):
            return _SHARED_OK_MARK in source_lines[lineno - 1]
        return False

    def add_function(fn: ast.AST, qual_prefix: str,
                     class_name: Optional[str],
                     outer_locals: Tuple[str, ...] = ()) -> FunctionInfo:
        qual = f"{qual_prefix}{fn.name}"  # type: ignore[attr-defined]
        fid = f"{mod.name}.{qual}"
        params = _params_of(fn)
        info = FunctionInfo(
            fid=fid, module=mod.name, rel_path=ctx.rel_path,
            name=fn.name,  # type: ignore[attr-defined]
            qual=qual, class_name=class_name,
            lineno=fn.lineno,  # type: ignore[attr-defined]
            params=params,
            effects=extract_effects(
                fn, tuple(p for p, _ in params), outer_locals),
            shared_ok=shared_ok(fn.lineno),  # type: ignore[attr-defined]
            returns=_annotation_name(getattr(fn, "returns", None)),
        )
        cg.functions[fid] = info
        cg.methods_by_name.setdefault(fn.name, []).append(fid)  # type: ignore[attr-defined]
        return info

    def add_nested(parent: FunctionInfo, parent_node: ast.AST,
                   outer: Tuple[str, ...]) -> None:
        """Nested defs get a definition edge from their encloser.

        ``outer`` accumulates every enclosing function's bound names so
        the nested summary treats closure captures as locals.
        """
        for inner in _own_defs(parent_node):
            inner_info = add_function(inner, f"{parent.qual}.", None, outer)
            cg.edges[parent.fid] = tuple(sorted(
                set(cg.edges.get(parent.fid, ())) | {inner_info.fid}))
            inner_bound = bound_names(
                inner, tuple(p for p, _ in inner_info.params))
            add_nested(inner_info, inner,
                       tuple(sorted(set(outer) | set(inner_bound))))

    def scan_body(body: Sequence[ast.stmt], qual_prefix: str,
                  class_info: Optional[ClassInfo]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = add_function(
                    node, qual_prefix,
                    class_info.name if class_info is not None else None)
                if class_info is not None:
                    class_info.methods.setdefault(node.name, info.fid)
                add_nested(info, node,
                           bound_names(node, tuple(p for p, _ in info.params)))
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    name=node.name, module=mod.name, lineno=node.lineno,
                    bases=tuple(
                        b for b in (
                            _annotation_name(base) for base in node.bases
                        ) if b is not None
                    ),
                )
                mod.classes[node.name] = cls
                cg.classes_by_name.setdefault(node.name, []).append(cls)
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name):
                        t = _annotation_name(stmt.annotation)
                        if t is not None:
                            cls.attr_types.setdefault(stmt.target.id, t)
                scan_body(node.body, f"{node.name}.", cls)

    for node in ctx.tree.body:  # type: ignore[attr-defined]
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = alias.name
                mod.module_names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(list(pkg_parts), node.module, node.level)
            if target is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                mod.from_imports[local] = (target, alias.name)
                mod.module_names.add(local)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        mod.module_names.add(n.id)
            value = node.value
            if value is not None and isinstance(value, ast.Call):
                callee = dotted(value.func)
                if callee is not None and (
                        callee.endswith(".default_rng")
                        or callee == "default_rng"):
                    for t in targets:
                        if isinstance(t, ast.Name):
                            mod.rng_globals.append((t.id, node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            mod.module_names.add(node.name)

    scan_body(ctx.tree.body, "", None)  # type: ignore[attr-defined]
    for fname, fid in (
        (fn.name, fn.fid) for fn in cg.functions.values()
        if fn.module == mod.name and fn.class_name is None
        and "." not in fn.qual
    ):
        mod.functions[fname] = fid
    cg.modules[mod.name] = mod


def build_callgraph(project: Project) -> CallGraph:
    """Build the call graph over every ``src/repro`` file in the project."""
    cg = CallGraph()
    contexts = [ctx for ctx in project.files
                if ctx.rel_path.startswith("src/repro/")]
    for ctx in contexts:
        _scan_module(cg, ctx)
    _infer_attr_types(cg, contexts)
    _link(cg)
    return cg


def _infer_attr_types(cg: CallGraph, contexts: Sequence[FileContext]) -> None:
    """Second pass: ``self.a = ClassName(...)`` / annotated helpers."""
    for ctx in contexts:
        mod = cg.modules[module_name(ctx.rel_path)]
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = mod.classes.get(node.name)
            if cls is None:
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                value = stmt.value
                if value is None:
                    continue
                for t in targets:
                    if not (isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        continue
                    type_name = _value_type(value, cls, cg)
                    if type_name is not None:
                        cls.attr_types.setdefault(t.attr, type_name)


def _value_type(value: ast.AST, cls: ClassInfo,
                cg: CallGraph) -> Optional[str]:
    if isinstance(value, ast.Call):
        callee = dotted(value.func)
        if callee is None:
            return None
        tail = callee.split(".")[-1]
        if callee.startswith("self.") and callee.count(".") == 1:
            # annotated helper method: use its return type
            fid = cg.method_of(cls, tail)
            if fid is not None:
                return cg.functions[fid].returns
            return None
        if cg.classes_by_name.get(tail):
            return tail
    return None


def _link(cg: CallGraph) -> None:
    """Resolve every function's call refs into the edge relation."""
    for fid in sorted(cg.functions):
        fn = cg.functions[fid]
        mod = cg.modules[fn.module]
        own_cls = None
        if fn.class_name is not None:
            own_cls = mod.classes.get(fn.class_name)
        targets: Set[str] = set(cg.edges.get(fid, ()))
        param_types = dict(fn.params)
        for ref in fn.effects.calls:
            shape = ref.shape
            kind = shape[0]
            if kind in ("name", "ref"):
                targets.update(_resolve_name(cg, mod, shape[1]))
            elif kind in ("self", "selfref"):
                m = shape[1]
                if own_cls is not None:
                    hit = cg.method_of(own_cls, m)
                    if hit is not None:
                        targets.add(hit)
                        continue
                targets.update(_fallback(cg, m))
            elif kind == "selfattr":
                attr, m = shape[1], shape[2]
                type_name = (own_cls.attr_types.get(attr)
                             if own_cls is not None else None)
                targets.update(_resolve_typed(cg, type_name, m))
            elif kind == "obj":
                recv, m = shape[1], shape[2]
                type_name = param_types.get(recv)
                if type_name is None:
                    type_name = fn.effects.local_types.get(recv)
                if type_name is not None and cg.resolve_class(type_name):
                    targets.update(_resolve_typed(cg, type_name, m))
                elif recv in mod.classes:
                    hit = cg.method_of(mod.classes[recv], m)
                    targets.update([hit] if hit else [])
                elif recv in mod.from_imports:
                    imported_mod, orig = mod.from_imports[recv]
                    target_cls = None
                    if imported_mod in cg.modules:
                        target_cls = cg.modules[imported_mod].classes.get(orig)
                    if target_cls is not None:
                        hit = cg.method_of(target_cls, m)
                        targets.update([hit] if hit else [])
                    else:
                        targets.update(_fallback(cg, m))
                elif recv in mod.imports:
                    imported = mod.imports[recv]
                    if imported in cg.modules:
                        hit = cg.modules[imported].functions.get(m)
                        targets.update([hit] if hit else [])
                else:
                    targets.update(_fallback(cg, m))
            elif kind == "dyn":
                targets.update(_fallback(cg, shape[1]))
        targets.discard(fid)
        cg.edges[fid] = tuple(sorted(targets))


def _resolve_name(cg: CallGraph, mod: ModuleInfo, name: str) -> List[str]:
    out: List[str] = []
    if name in mod.functions:
        out.append(mod.functions[name])
    elif name in mod.classes:
        init = cg.method_of(mod.classes[name], "__init__")
        if init is not None:
            out.append(init)
    elif name in mod.from_imports:
        imported_mod, orig = mod.from_imports[name]
        target = cg.modules.get(imported_mod)
        if target is not None:
            if orig in target.functions:
                out.append(target.functions[orig])
            elif orig in target.classes:
                init = cg.method_of(target.classes[orig], "__init__")
                if init is not None:
                    out.append(init)
        else:
            # package re-export (``from ..federation import X``): search
            # the package's modules for the name.
            prefix = imported_mod + "."
            for mname in sorted(cg.modules):
                if not mname.startswith(prefix) and mname != imported_mod:
                    continue
                target = cg.modules[mname]
                if orig in target.functions:
                    out.append(target.functions[orig])
                elif orig in target.classes:
                    init = cg.method_of(target.classes[orig], "__init__")
                    if init is not None:
                        out.append(init)
    return out


def _resolve_typed(cg: CallGraph, type_name: Optional[str],
                   method: str) -> List[str]:
    cls = cg.resolve_class(type_name)
    if cls is not None:
        hit = cg.method_of(cls, method)
        if hit is not None:
            return [hit]
        return []  # typed receiver, unknown method: likely builtin/external
    return _fallback(cg, method)


def _fallback(cg: CallGraph, method: str) -> List[str]:
    if method in FALLBACK_SKIP or method.startswith("__"):
        return []
    return list(cg.methods_by_name.get(method, []))


def get_callgraph(project: Project) -> CallGraph:
    """The project's call graph, built once and cached across rules."""
    cache = getattr(project, "cache", None)
    if cache is None:
        return build_callgraph(project)
    cg = cache.get("callgraph")
    if cg is None:
        cg = build_callgraph(project)
        cache["callgraph"] = cg
    return cg
