"""SCAR001 and SCAR006: lock discipline and lock order.

The concurrency-bearing classes (:class:`repro.api.session.Session`,
:class:`repro.service.scheduler.SchedulerService`) protect their mutable
bookkeeping with one mutex.  Both checkers read the lock facts
:func:`repro.analysis.graph.summarize` records in one visitor per
function: the ``with self.<lock>`` regions held at each node.

**SCAR001** proves each annotated field is only touched under its
lock.  The convention is declarative:

* an attribute assigned in ``__init__`` with a ``# guarded by: _lock``
  comment on its assignment is *guarded* -- every other access to
  ``self.<attr>`` in that class must sit inside a ``with self._lock:``
  block (the comment names the lock attribute, so ``# guarded by:
  _mutex`` works too);
* alternatively a module-level ``_GUARDED`` registry declares guarded
  names for every class in the module: a set/tuple/list of attribute
  names (lock defaults to ``_lock``) or a ``{attr: lock}`` dict;
* methods whose name ends in ``_locked`` are documented as
  "caller holds the lock" and are exempt, as is ``__init__`` itself
  (no other thread can hold a reference during construction).

Nested functions defined inside a method do *not* inherit the enclosing
lock context: a closure can outlive the ``with`` block that created it
(handed to a thread or callback), so guarded access inside one is
flagged.

**SCAR006** proves the locks themselves cannot deadlock.  From the
program model it builds a directed *lock-order graph*: an edge
``A -> B`` means some execution path acquires lock ``B`` while already
holding lock ``A`` -- either directly (nested ``with self._a: ...
with self._b:``) or through a call chain (a method of one class,
holding its lock, calls into another class whose methods take their
own lock; the callee's transitive lock closure seeds the edge).  A
cycle in that graph is a potential deadlock: two threads entering the
cycle from different points block each other forever.

Lock identities are per-class attributes (``module.Class.attr``),
seeded from ``threading.Lock()``/``RLock()``/``Condition()``
assignments in ``__init__`` and from the class's guards.  Self-edges
are reported only for non-reentrant ``Lock``s (an ``RLock`` may
legally re-enter); cross-lock cycles are reported regardless of
reentrancy -- reentrancy does not help when two threads hold one lock
each.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.analysis.core import Checker, Finding, register_checker
from repro.analysis.graph import call_key


@register_checker
class LockDisciplineChecker(Checker):
    code = "SCAR001"
    name = "lock-discipline"
    description = ("attributes declared `# guarded by: <lock>` (or in a "
                   "module-level _GUARDED registry) are only accessed "
                   "inside `with self.<lock>` blocks")

    def check_program(self, program: Any) -> Iterable[Finding]:
        findings: list[Finding] = []
        for summary in program.files:
            for breach in summary.unguarded:
                cls, _, method = breach["method"].rpartition(".")
                if method == "__init__" or method.endswith("_locked"):
                    continue
                attr, lock = breach["attr"], breach["lock"]
                findings.append(Finding(
                    code=self.code,
                    message=(f"`self.{attr}` is guarded by `{lock}` but "
                             f"{cls}.{method} touches it outside "
                             f"`with self.{lock}`"),
                    path=summary.path, line=breach["line"],
                    col=breach["col"]))
        return findings


#: An acquisition edge: (held lock id, acquired lock id) with the
#: source location and a human-readable route.
_Edge = tuple[str, str]


def _lock_order_edges(program: Any) -> dict[_Edge, dict[str, Any]]:
    """All held->acquired edges with one provenance site each."""
    closure = program.lock_closure()
    edges: dict[_Edge, dict[str, Any]] = {}

    def add(edge: _Edge, path: str, line: int, col: int,
            route: str) -> None:
        if edge not in edges:
            edges[edge] = {"path": path, "line": line, "col": col,
                           "route": route}

    for func_id, module, cls, facts in program.functions():
        if cls is None:
            continue
        locks = program.class_locks(module, cls)
        summary = program.summaries[module]

        def lock_of(attr: str) -> str | None:
            if attr in locks:
                return program.lock_id(module, cls, attr)
            return None

        for pair in facts.get("lock_pairs", ()):
            held = lock_of(pair["held"])
            acquired = lock_of(pair["acquired"])
            if held is None or acquired is None:
                continue
            add((held, acquired), summary.path, pair["line"],
                pair["col"],
                f"{func_id} nests `with self.{pair['acquired']}` "
                f"under `with self.{pair['held']}`")
        for locked in facts.get("locked_calls", ()):
            held = lock_of(locked["held"])
            if held is None:
                continue
            desc = locked["call"]
            target = program.resolve_call(module, cls, desc)
            if target is None:
                continue
            for acquired in sorted(closure.get(target, ())):
                add((held, acquired), summary.path, desc["line"],
                    desc["col"],
                    f"{func_id} holds self.{locked['held']} while "
                    f"calling {call_key(desc)}() -> {target}, which "
                    f"may acquire {acquired}")
    return edges


def _is_reentrant(program: Any, lock_id: str) -> bool:
    module, _, rest = lock_id.rpartition(".")
    module, _, cls = module.rpartition(".")
    return program.class_locks(module, cls).get(rest, True)


def _cycles(edges: dict[_Edge, dict[str, Any]]) -> list[list[str]]:
    """Strongly-connected components with >= 2 locks, as node lists."""
    graph: dict[str, set[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    # Tarjan, iterative.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Any]] = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
    return components


@register_checker
class LockOrderChecker(Checker):
    code = "SCAR006"
    name = "lock-order-deadlock"
    description = ("the inter-procedural lock-acquisition graph is "
                   "acyclic: no two locks are ever taken in opposite "
                   "orders, directly or through call chains")

    def check_program(self, program: Any) -> Iterable[Finding]:
        edges = _lock_order_edges(program)
        findings: list[Finding] = []
        # Self-deadlock: a plain Lock re-acquired along some path.
        for (held, acquired), site in sorted(edges.items()):
            if held == acquired \
                    and not _is_reentrant(program, held):
                findings.append(Finding(
                    code=self.code,
                    message=(f"non-reentrant lock {held} may be "
                             f"re-acquired while held: "
                             f"{site['route']}"),
                    path=site["path"], line=site["line"],
                    col=site["col"]))
        # Order cycles between distinct locks.
        for component in _cycles(edges):
            members = set(component)
            sites = sorted(
                (site["path"], site["line"], site["col"],
                 site["route"])
                for (held, acquired), site in edges.items()
                if held in members and acquired in members
                and held != acquired)
            if not sites:
                continue
            path, line, col, _ = sites[0]
            routes = "; ".join(route for _, _, _, route in sites[:3])
            findings.append(Finding(
                code=self.code,
                message=(f"lock-order cycle between "
                         f"{', '.join(component)}: {routes}"),
                path=path, line=line, col=col))
        return findings
