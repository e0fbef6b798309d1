"""Determinism and contract rules that same-seed replay cannot catch.

A bug that makes two runs with one seed differ fails the replay tests or
``tests/test_hash_seed.py``.  These checks hold what replays identically
and is still wrong (DESIGN.md §11 has the trial that chose them):

* ``constant_seeds`` — an RNG seeded with a constant ignores the run's seed;
* ``float_equality`` — ``==``/``!=`` against a float in ``core/`` and
  ``metrics/`` math;
* ``topic_contract`` — emit sites, subscriptions, ``link.drop`` reasons and
  the DESIGN.md §10 table agree with ``TOPIC_REGISTRY``;
* ``guard_coverage`` — every field of a guarded control message has a guard
  rule or an explicit exemption;
* ``annotation_names`` — every name an annotation uses is bound in its
  module (``typing.get_type_hints`` raises ``NameError`` on one that is not;
  with postponed annotations nothing else ever evaluates them);
* ``unused_options`` — every keyword parameter of the agents' constructors
  and of ``Scenario.attach_controller``/``add_receiver`` is passed by some
  call under ``src/`` or ``bench/``; an option only tests set is a constant;
* ``function_level_imports`` — a function body imports no ``repro`` module:
  modules are the namespace and import at top level, so the import graph is
  what the module headers say; only optional paths import on use;
* ``write_only_state`` — every attribute a class under ``simnet/`` or
  ``media/`` assigns on ``self`` is read, by name, somewhere in ``src/``,
  ``bench/``, ``examples/`` or ``tools/``: a counter only tests read is one
  more store on the packet path.  ``WRITE_ONLY_EXEMPT`` names the drop
  tallies kept for their reason; each must still excuse a write;
* ``plan_application`` — ``FaultPlan.apply`` is called only inside
  ``experiments/scenario.py::run_plan``, so every fault experiment has one
  shape: apply the plan, attach the recorder, run;
* ``numpy_random`` — no code references ``numpy.random``/``np.random`` or
  calls ``default_rng``: every draw is a ``Pcg64``'s, so a run's streams
  are pinned against numpy releases and a build never loads numpy.

Each check takes parsed sources keyed by their path under ``src/repro/`` and
returns ``path:line message`` strings.  An exemption is a path in
``EXEMPT``; it must still excuse at least one hit.
"""

import ast
import builtins
import dataclasses
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.control import guard, messages
from repro.obs.bus import TOPIC_REGISTRY, render_topic_table, topic_is_known
from repro.simnet import link

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCH = ROOT / "bench"
#: Production code outside ``src/`` whose attribute reads count.
READER_DIRS = ("bench", "examples", "tools")

#: The message dataclasses, name -> field names.
MESSAGE_FIELDS = {
    name: {f.name for f in dataclasses.fields(cls)}
    for name, cls in vars(messages).items()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
}


@lru_cache(maxsize=None)
def sources():
    return {p.relative_to(SRC).as_posix(): ast.parse(p.read_text())
            for p in sorted(SRC.rglob("*.py"))}


@lru_cache(maxsize=None)
def bench_sources():
    return {f"bench/{p.name}": ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))}


@lru_cache(maxsize=None)
def reader_sources():
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text())
            for d in READER_DIRS for p in sorted((ROOT / d).glob("*.py"))
            if not p.name.startswith("test_")}


def parse(snippets):
    return {path: ast.parse(text) for path, text in snippets.items()}


def calls(trees):
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield path, node


def callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def line_of(tree, name):
    """Line of the module-level ``name: T = ...`` (1 if absent)."""
    return next((n.lineno for n in tree.body if isinstance(n, ast.AnnAssign)
                 and getattr(n.target, "id", None) == name), 1)


RNG_CONSTRUCTORS = {"Pcg64", "default_rng", "RandomState", "Random", "seed"}


def _constant_seed(call):
    seed = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "seed"), None)
    try:
        return seed is not None and ast.literal_eval(seed) is not None
    except (ValueError, TypeError):
        return False


def constant_seeds(trees):
    return [f"{path}:{call.lineno} `{callee(call)}` seeded with a constant ignores "
            "the run's seed — derive the seed with stream_seed(seed, name)"
            for path, call in calls(trees)
            if callee(call) in RNG_CONSTRUCTORS and _constant_seed(call)]


def _floatish(node):
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    return ((isinstance(node, ast.Constant) and isinstance(node.value, float))
            or (isinstance(node, ast.Call) and callee(node) == "float"))


def float_equality(trees):
    return [f"{path}:{node.lineno} float `==`/`!=` — compare with a tolerance"
            for path, tree in trees.items() if path.startswith(("core/", "metrics/"))
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for op, a, b in zip(node.ops, [node.left, *node.comparators], node.comparators)
            if isinstance(op, (ast.Eq, ast.NotEq)) and (_floatish(a) or _floatish(b))]


def _literal_topics(node):
    """``(text, is_prefix)`` for the literal topics an argument can carry;
    an f-string contributes its literal head as a family prefix."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [(node.value, False)]
    if isinstance(node, ast.IfExp):
        return _literal_topics(node.body) + _literal_topics(node.orelse)
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return [(head.value, True)]
    return []


def topic_contract(trees, design=None):
    hits, emitted = [], []
    for path, call in calls(trees):
        name, args = callee(call), call.args
        if name == "_emit_drop" and len(args) >= 2:
            reason = args[1]
            value = (reason.value if isinstance(reason, ast.Constant)
                     else getattr(link, getattr(reason, "id", ""), None))
            if value not in link.DROP_REASONS:
                hits.append(f"{path}:{call.lineno} link drop reason "
                            f"`{ast.unparse(reason)}` is not in DROP_REASONS")
            continue
        index = {"emit": 0, "subscribe": 0, "log_event": 1}.get(name)
        if index is None or len(args) <= index:
            continue
        for topic, is_prefix in _literal_topics(args[index]):
            if name == "subscribe":
                if topic == "*":
                    continue
                topic = topic[:-1] if topic.endswith(".*") else topic
            else:
                emitted.append((topic, is_prefix))
            if not topic_is_known(topic):
                hits.append(f"{path}:{call.lineno} topic `{topic}` is not in "
                            "TOPIC_REGISTRY (obs/bus.py)")
    registry_line = line_of(sources()["obs/bus.py"], "TOPIC_REGISTRY")
    for spec in TOPIC_REGISTRY:
        stem = spec.name[:-1] if spec.name.endswith(".*") else None
        if not any((spec.name.startswith(t) if prefix else t == spec.name)
                   or (stem and t.startswith(stem)) for t, prefix in emitted):
            hits.append(f"obs/bus.py:{registry_line} registry topic "
                        f"`{spec.name}` is never emitted")
    design = (ROOT / "DESIGN.md").read_text() if design is None else design
    table = re.search(r"<!-- topic-table:begin -->\n(.*?)\n<!-- topic-table:end -->",
                      design, re.S)
    if table is None or table.group(1) != render_topic_table():
        line = design[:table.start()].count("\n") + 1 if table else 1
        hits.append(f"DESIGN.md:{line} the §10 topic table differs from "
                    "TOPIC_REGISTRY; put this between the topic-table markers:\n"
                    + render_topic_table())
    return hits


def guard_coverage(trees, classes=MESSAGE_FIELDS, guarded=guard.GUARDED_FIELDS,
                   exempt=guard.GUARD_EXEMPT_FIELDS):
    tree = trees["control/guard.py"]
    where = f"control/guard.py:{line_of(tree, 'GUARDED_FIELDS')}"
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and getattr(node.value, "id", None) == "msg"}
    hits = []
    for cls in sorted(guarded.keys() | exempt.keys()):
        if cls not in classes:
            hits.append(f"{where} `{cls}` is not a dataclass in control/messages.py")
            continue
        g, e, fields = guarded.get(cls, set()), exempt.get(cls, set()), classes[cls]
        hits += [f"{where} `{cls}.{f}` is both guarded and exempt" for f in sorted(g & e)]
        hits += [f"{where} `{cls}.{f}` is declared but is not a field"
                 for f in sorted((g | e) - fields)]
        hits += [f"{where} `{cls}.{f}` has no guard rule — add it to GUARDED_FIELDS "
                 "or GUARD_EXEMPT_FIELDS" for f in sorted(fields - g - e)]
        hits += [f"{where} `{cls}.{f}` is guarded but never read as `msg.{f}`"
                 for f in sorted(g - reads)]
    return hits


def _module_names(tree):
    """Names bound at module level — imports (those under ``if
    TYPE_CHECKING:`` too), defs, classes, assignment targets — plus builtins."""
    names, todo = set(dir(builtins)), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names.update(n.id for n in ast.walk(node)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
            todo += [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
            todo += [c for h in getattr(node, "handlers", ()) for c in h.body]
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            yield from (arg.annotation for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                                   a.vararg, a.kwarg]
                        if arg is not None and arg.annotation is not None)
            if node.returns is not None:
                yield node.returns


def _annotation_names(annotation):
    """``(line, name)`` for each name in ``annotation``, quoted ones too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from ((node.lineno, n.id) for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))


def annotation_names(trees):
    hits = []
    for path, tree in trees.items():
        bound = _module_names(tree)
        hits += [f"{path}:{line} `{name}` in an annotation is not bound in the "
                 "module — import it" for annotation in _annotations(tree)
                 for line, name in _annotation_names(annotation) if name not in bound]
    return sorted(set(hits))


#: ``(path, class, method)`` whose keyword parameters must each be passed by
#: a call somewhere; calls name a constructor by its class.
OPTION_OWNERS = (
    ("control/agent.py", "ControllerAgent", "__init__"),
    ("control/agent.py", "ReceiverAgent", "__init__"),
    ("experiments/scenario.py", "Scenario", "attach_controller"),
    ("experiments/scenario.py", "Scenario", "add_receiver"),
    ("faults/plan.py", "FaultPlan", "apply"),
)


def _method(tree, cls, name):
    return next((f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
                 for f in c.body if isinstance(f, ast.FunctionDef) and f.name == name), None)


def _passed(call, params):
    """Parameter names ``call`` passes, by keyword or by position."""
    names = {k.arg for k in call.keywords if k.arg is not None}
    for arg, name in zip(call.args, params):
        if isinstance(arg, ast.Starred):
            break
        names.add(name)
    return names


def unused_options(trees, callers=None, owners=OPTION_OWNERS):
    callers = bench_sources() if callers is None else callers
    hits = []
    for path, cls, name in owners:
        func = _method(trees[path], cls, name) if path in trees else None
        if func is None:
            hits.append(f"{path}:1 `{cls}.{name}` not found")
            continue
        params = [a.arg for a in func.args.args[1:]]  # without self
        options = params[len(params) - len(func.args.defaults):]
        options += [a.arg for a in func.args.kwonlyargs]
        callee_name = cls if name == "__init__" else name
        passed = set().union(*(_passed(call, params)
                               for _, call in calls({**trees, **callers})
                               if callee(call) == callee_name))
        hits += [f"{path}:{func.lineno} `{cls}.{name}({option}=)` is passed by no "
                 "call under src/ or bench/ — make it a constant"
                 for option in options if option not in passed]
    return hits


def _repro_imports(func):
    """``(line, module)`` for each import of a ``repro`` module in ``func``."""
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.split(".")[0] == "repro":
                yield node.lineno, name
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name.split(".")[0] == "repro")


def function_level_imports(trees):
    return sorted({f"{path}:{line} function-level import of `{name}` — import it at "
                   "module top level" for path, tree in trees.items()
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for line, name in _repro_imports(func)})


#: Attribute names ``write_only_state`` lets a ``simnet/``/``media/`` class
#: write without a production reader, with the reason.
WRITE_ONLY_EXEMPT = {
    "no_route": "drop tally (NodeStats): fault evidence for the control "
                "ledger and the conservation oracle (ROADMAP 1(c), 3(b))",
}


def _read_names(trees):
    """Attribute names loaded anywhere in ``trees``, ``getattr(x, "name")``
    included; a store or an augmented assignment is not a read."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and callee(node) == "getattr"
                  and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def _self_writes(tree):
    """``(line, class, name)`` for each ``self.<name>`` a class body stores."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"):
                yield node.lineno, cls.name, node.attr


def write_only_state(trees, readers=None, exempt=WRITE_ONLY_EXEMPT):
    readers = reader_sources() if readers is None else readers
    read = _read_names({**trees, **readers})
    hits, excused = [], set()
    for path, tree in trees.items():
        if not path.startswith(("simnet/", "media/")):
            continue
        for line, cls, name in sorted(set(_self_writes(tree))):
            if name in read:
                continue
            if name in exempt:
                excused.add(name)
                continue
            hits.append(f"{path}:{line} `{cls}.{name}` is written but never read under "
                        "src/, bench/, examples/ or tools/ — delete it")
    hits += [f"tests/test_source_rules.py:1 WRITE_ONLY_EXEMPT `{name}` excuses no "
             "write — remove it" for name in sorted(set(exempt) - excused)]
    return hits


#: The one function that may apply a fault plan: ``(path, name)``.
PLAN_RUNNER = ("experiments/scenario.py", "run_plan")


def plan_application(trees):
    hits = []
    for path, tree in trees.items():
        runner = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and (path, func.name) == PLAN_RUNNER
                  for node in ast.walk(func)}
        hits += [f"{path}:{call.lineno} `{ast.unparse(call.func)}()` applies a fault plan "
                 "outside run_plan — run it through experiments/scenario.py::run_plan"
                 for call in ast.walk(tree) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Attribute) and call.func.attr == "apply"
                 and id(call) not in runner]
    return hits


def _numpy_random(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and ast.unparse(node.value) in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy" and any(a.name == "random" for a in node.names))
    return isinstance(node, ast.Call) and callee(node) == "default_rng"


def numpy_random(trees):
    return [f"{path}:{node.lineno} `{ast.unparse(node)}` draws from numpy.random — "
            "draw from a Pcg64 stream"
            for path, tree in trees.items() for node in ast.walk(tree) if _numpy_random(node)]


CHECKS = (constant_seeds, float_equality, topic_contract, guard_coverage, annotation_names,
          unused_options, function_level_imports, write_only_state, plan_application,
          numpy_random)

#: Check -> paths under src/repro/ whose hits are sanctioned.
EXEMPT = {
    # optional paths: `--plot`, the federated crowd point, a plan's injector
    function_level_imports: {"cli.py", "experiments/crowd.py", "federation/session.py"},
}


def unexcused(hits, exempt):
    """Hits outside ``exempt``, plus one line per exemption that excuses none."""
    hit_paths = {h.split(":", 1)[0] for h in hits}
    return ([h for h in hits if h.split(":", 1)[0] not in exempt]
            + [f"{p}: exemption excuses nothing — remove it"
               for p in sorted(exempt - hit_paths)])


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_the_source_obeys_the_rule(check):
    assert unexcused(check(sources()), EXEMPT.get(check, set())) == []


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_an_exemption_that_excuses_nothing_fails(check):
    exempt = EXEMPT.get(check, set()) | {"media/source.py"}
    assert unexcused(check(sources()), exempt) == [
        "media/source.py: exemption excuses nothing — remove it"]


BAD = {
    constant_seeds: (
        {"control/a.py": "rng = np.random.default_rng(7)\n"
                         "for i in range(3):\n    r = default_rng(seed=-1)\n"
                         "r = np.random.RandomState(7)\nnp.random.seed(3)\n"
                         "r = random.Random((1, 2))\nr = Pcg64(7)\n"}, {},
        ["a.py:1 `default_rng`", "a.py:3 `default_rng`", "a.py:4 `RandomState`",
         "a.py:5 `seed`", "a.py:6 `Random`", "a.py:7 `Pcg64`"]),
    float_equality: (
        {"core/a.py": "stop = loss == 0.0\nok = share == float(n)\n",
         "metrics/a.py": "ok = 1 < x != -1.5\n"}, {},
        ["core/a.py:1 ", "core/a.py:2 ", "metrics/a.py:1 "]),
    topic_contract: (
        {"simnet/a.py": "bus.emit('link.dorp', now)\n"
                        "rec.log_event(now, f'mystery.{k}', {})\n"
                        "bus.subscribe('recv.leaves', fn)\nbus.subscribe('nothing.*', fn)\n"
                        "self._emit_drop(pkt, 'overflow')\nself._emit_drop(pkt, DROP_LATE)\n"},
        {"design": "no topic-table markers"},
        ["a.py:1 topic `link.dorp`", "a.py:2 topic `mystery.`", "a.py:3 topic `recv.leaves`",
         "a.py:4 topic `nothing.`", "a.py:5 link drop reason `'overflow'`",
         "a.py:6 link drop reason `DROP_LATE`", "`workload.sample` is never emitted",
         "DESIGN.md:1 the §10 topic table differs", "| `ctrl.tick.end` |"]),
    guard_coverage: (
        {"control/guard.py": "def admit(msg):\n    return msg.loss_rate, msg.level\n"},
        {"classes": {"Report": {"loss_rate", "level", "t1", "priority"}},
         "guarded": {"Report": {"loss_rate", "level", "t1", "qos"}},
         "exempt": {"Report": {"level"}, "Rumour": {"x"}}},
        ["`Report.priority` has no guard rule", "`Report.qos` is declared but is not a field",
         "`Report.t1` is guarded but never read", "`Report.level` is both guarded and exempt",
         "`Rumour` is not a dataclass"]),
    annotation_names: (
        {"control/a.py": "from typing import Any, TYPE_CHECKING\n"
                         "if TYPE_CHECKING:\n    from .b import Node\n"
                         "def f(x: Iterable[Any], n: Node) -> 'Tuple[int]':\n"
                         "    from typing import Set\n"
                         "    def g(s: Set) -> None: ...\n"
                         "class C:\n    y: Deque[int]\n"}, {},
        ["a.py:4 `Iterable`", "a.py:4 `Tuple`", "a.py:6 `Set`", "a.py:8 `Deque`"]),
    unused_options: (
        {"control/a.py": "class Agent:\n"
                         "    def __init__(self, node, rate=1.0, *, cap=None, ttl=3):\n"
                         "        pass\n",
         "experiments/b.py": "Agent(n, 2.0)\nAgent(n, *args, ttl=1)\nAgent(**kw)\n"},
        {"callers": {}, "owners": (("control/a.py", "Agent", "__init__"),
                                   ("control/a.py", "Agent", "stop"))},
        ["control/a.py:2 `Agent.__init__(cap=)`", "control/a.py:1 `Agent.stop` not found"]),
    function_level_imports: (
        {"faults/a.py": "def f():\n    from ..experiments.membership import join_receiver\n"
                        "class C:\n    def g(self):\n        import repro.obs.run\n"
                        "        def h():\n            from repro import cli\n"}, {},
        ["a.py:2 function-level import of `..experiments.membership`",
         "a.py:5 function-level import of `repro.obs.run`",
         "a.py:7 function-level import of `repro`"]),
    write_only_state: (
        {"simnet/a.py": "class Q:\n    def __init__(self):\n        self.pushed = 0\n"
                        "        self.dropped = 0\n        self.size = 0\n"
                        "    def push(self, pkt):\n        self.pushed += 1\n"
                        "        return self.size\n",
         "core/b.py": "class C:\n    def __init__(self):\n        self.ticks = 0\n"},
        {"readers": parse({"bench/r.py": "print(getattr(q, 'dropped'))\n"}),
         "exempt": {"ghost": "excuses nothing"}},
        ["simnet/a.py:3 `Q.pushed` is written but never read",
         "simnet/a.py:7 `Q.pushed`", "`ghost` excuses no write"]),
    plan_application: (
        {"experiments/a.py": "def run_storm(sc, plan, duration):\n"
                             "    injector = plan.apply(sc)\n    sc.run(duration)\n",
         "experiments/b.py": "def run_plan(sc, plan):\n    return plan.apply(sc)\n",
         "experiments/scenario.py": "def run_plan(sc, duration, plan):\n"
                                    "    plan.apply(sc)\n"
                                    "def other(sc, plan):\n    FaultPlan().apply(sc)\n"},
        {},
        ["experiments/a.py:2 `plan.apply()` applies a fault plan outside run_plan",
         "experiments/b.py:2 `plan.apply()`", "experiments/scenario.py:4 `FaultPlan().apply()`"]),
    numpy_random: (
        {"workloads/a.py": "import numpy as np\nimport numpy.random\n"
                           "from numpy.random import default_rng\nfrom numpy import random\n"
                           "def f(seed):\n    \"Like ``np.random.default_rng(seed)``.\"\n"
                           "    rng = np.random.default_rng(seed)\n"
                           "    return default_rng(seed), numpy.random.Generator, rng.random()\n"},
        {},
        ["workloads/a.py:2 `import numpy.random`",
         "workloads/a.py:3 `from numpy.random import default_rng`",
         "workloads/a.py:4 `from numpy import random`",
         "workloads/a.py:7 `np.random` draws from numpy.random",
         "workloads/a.py:7 `np.random.default_rng(seed)`",
         "workloads/a.py:8 `default_rng(seed)`", "workloads/a.py:8 `numpy.random`"]),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_the_rule_fires_on_a_bad_snippet(check):
    snippets, kwargs, expected = BAD[check]
    hits = check(parse(snippets), **kwargs)
    assert [e for e in expected if not any(e in h for h in hits)] == [], hits
    assert all(re.match(r"[\w/.]+:\d+ ", h) for h in hits), hits


def test_annotation_names_count_type_checking_imports_and_builtins():
    snippet = ("from typing import TYPE_CHECKING\n"
               "if TYPE_CHECKING:\n    from .node import Node\n"
               "else:\n    Deque = list\n"
               "def f(n: Node, d: Deque, k: int) -> 'Node': ...\n")
    assert annotation_names(parse({"simnet/a.py": snippet})) == []


def test_float_equality_is_scoped_to_core_and_metrics():
    assert float_equality(parse({"simnet/a.py": "stop = loss == 0.0"})) == []


def test_numpy_random_reads_code_not_docstrings():
    snippet = ("def f(rng, seed):\n    \"Like ``np.random.default_rng(seed)``.\"\n"
               "    return rng.random(), Pcg64(seed).random()\n")
    assert numpy_random(parse({"workloads/a.py": snippet})) == []
