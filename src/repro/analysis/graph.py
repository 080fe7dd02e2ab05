"""The cross-module program model behind the whole-program checkers.

One pass over each file (:func:`summarize`) distills its AST into a
JSON-serializable :class:`FileSummary`: the module's imports, exports,
registry registrations, nondeterminism reads, class/function inventory
with lock guards, per-function lock regions, guarded-state accesses and
call sites, taint facts and wire-schema fragments.  It is the only
place a file is walked for facts; every program checker reads them.
Summaries are what the incremental cache persists -- a warm re-lint
rebuilds the whole-program view without re-parsing unchanged files.

:class:`ProgramModel` stitches the summaries together:

* the **import graph** (:meth:`FileSummary.project_imports`), which
  drives incremental invalidation -- a changed file dirties itself
  plus its direct importers;
* a **symbol table** (module-level defs, classes and methods,
  ``__all__`` exports, ``@register_*`` registrations);
* the **call graph**: dotted call paths resolved through import
  aliases, ``from``-imports (one re-export hop) and per-class
  attribute types to ``module:Qual.name`` function ids;
* the **lock-acquisition graph** consumed by SCAR006: which locks each
  function takes directly (``with self._lock:``), propagated through
  resolved calls to a transitive closure.

The model is deliberately static and conservative: dynamic dispatch,
monkey-patching and ``getattr`` strings resolve to nothing rather than
to wrong edges, so program checkers err on the quiet side.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.analysis.core import SourceFile

#: Bumped whenever summary extraction changes shape; cached entries
#: from another version are discarded wholesale.
SUMMARY_VERSION = 2

#: ``threading`` constructors whose instances count as locks.  The
#: reentrant ones may legally self-nest; plain ``Lock`` may not.
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition"})
_REENTRANT_CTORS = frozenset({"RLock", "Condition"})

#: ``# guarded by: <lock>`` on an ``__init__`` assignment (SCAR001).
_GUARD_COMMENT_RE = re.compile(r"#\s*guarded by:\s*(?P<lock>\w+)")

#: The lock a module-level ``_GUARDED`` name set implies.
_DEFAULT_LOCK = "_lock"


# -- call descriptors --------------------------------------------------------
#
# A call site is recorded as its dotted path plus whether the path is
# rooted at ``self``:  ``run(x)`` -> ["run"],  ``templates.build(...)``
# -> ["templates", "build"],  ``self._session.submit(...)`` ->
# ["_session", "submit"] with self_rooted=True.  JSON form:
# ``[path..., line, col, self_rooted]`` flattened into a dict.


def _call_path(func: ast.expr) -> tuple[list[str], bool] | None:
    """Dotted path of a call target (``None`` when not name-rooted)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        if node.id == "self":
            if not parts:
                return None
            return list(reversed(parts)), True
        parts.append(node.id)
        return list(reversed(parts)), False
    return None


def call_desc(node: ast.Call) -> dict[str, Any] | None:
    """JSON-able descriptor of one call site (``None`` = unresolvable)."""
    path = _call_path(node.func)
    if path is None:
        return None
    parts, self_rooted = path
    return {"path": parts, "self": self_rooted,
            "line": node.lineno, "col": node.col_offset}


def call_key(desc: dict[str, Any]) -> str:
    """Stable identity of a call target (ignores the call site)."""
    prefix = "self." if desc.get("self") else ""
    return prefix + ".".join(desc["path"])


# -- per-file summaries ------------------------------------------------------


@dataclass
class FileSummary:
    """Everything the program checkers need from one parsed file."""

    path: str
    module: str
    content_hash: str
    imports: dict[str, str] = field(default_factory=dict)
    from_imports: list[list[str]] = field(default_factory=list)
    constants: dict[str, str] = field(default_factory=dict)
    assigns: list[str] = field(default_factory=list)
    exports: list[str] = field(default_factory=list)
    exports_line: int = 0
    registrations: list[dict[str, Any]] = field(default_factory=list)
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    functions: dict[str, dict[str, Any]] = field(default_factory=dict)
    uses: list[list[str]] = field(default_factory=list)
    nondeterminism: list[dict[str, Any]] = field(default_factory=list)
    unguarded: list[dict[str, Any]] = field(default_factory=list)
    emitters: list[dict[str, Any]] = field(default_factory=list)
    noqa_lines: dict[str, list[str]] = field(default_factory=dict)
    hot_pragma: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path, "module": self.module,
            "content_hash": self.content_hash, "imports": self.imports,
            "from_imports": self.from_imports,
            "constants": self.constants, "assigns": self.assigns,
            "exports": self.exports,
            "exports_line": self.exports_line,
            "registrations": self.registrations, "classes": self.classes,
            "functions": self.functions, "uses": self.uses,
            "nondeterminism": self.nondeterminism,
            "unguarded": self.unguarded,
            "emitters": self.emitters, "noqa_lines": self.noqa_lines,
            "hot_pragma": self.hot_pragma,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FileSummary":
        return cls(**data)

    def project_imports(self, modules: set[str]) -> set[str]:
        """Modules of this project this file imports (direct deps)."""
        deps: set[str] = set()
        for target in self.imports.values():
            deps.update(_module_prefixes(target, modules))
        for entry in self.from_imports:
            target, name = entry[0], entry[1]
            deps.update(_module_prefixes(target, modules))
            if f"{target}.{name}" in modules:
                deps.add(f"{target}.{name}")
        deps.discard(self.module)
        return deps


def _module_prefixes(dotted: str, modules: set[str]) -> set[str]:
    """Project modules ``dotted`` resolves through (incl. packages)."""
    found = set()
    parts = dotted.split(".")
    for stop in range(1, len(parts) + 1):
        prefix = ".".join(parts[:stop])
        if prefix in modules:
            found.add(prefix)
    return found


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute module of a ``from . import x``-style import."""
    base = module.split(".")
    # level=1 strips the module's own name (package __init__ keeps it).
    trimmed = base[:len(base) - level] if level <= len(base) else []
    if target:
        trimmed.append(target)
    return ".".join(trimmed)


def _annotation_name(node: ast.expr | None) -> str | None:
    """Class name of a simple annotation (``T``, ``T | None``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_name(node.left)
                or _annotation_name(node.right))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations ("Session") are common under
        # `from __future__ import annotations`.
        return node.value if node.value.isidentifier() else None
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` attribute name, else ``None``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _const_str(node: ast.expr | None,
               constants: dict[str, str]) -> str | None:
    """A string constant, directly or through a module-level name."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


# -- nondeterminism sources (SCAR002 bans some, SCAR007 taints all) ----------

_TIMERS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_UUIDS = frozenset({"uuid1", "uuid4"})

#: Import bindings of one file: ``{bound name: (module, original attr
#: or None)}``.  ``import time`` binds ``time -> ("time", None)``;
#: ``from time import monotonic as mono`` binds ``mono -> ("time",
#: "monotonic")``.
Bindings = dict[str, tuple[str, str | None]]


def _source_kind(module: str, attrs: Sequence[str]) -> str | None:
    """What nondeterminism reading ``module.<attrs>`` yields, if any.

    ``"rng"``: the process-wide ``random`` functions (constructing a
    seeded ``random.Random`` is clean); ``"wall-clock"``:
    ``time.time``/``time_ns``, ``datetime.now``/``utcnow``/``today``;
    ``"timer"``: ``time.monotonic``/``perf_counter``/``process_time``;
    ``"urandom"``: ``os.urandom``; ``"uuid"``: ``uuid.uuid1``/``uuid4``.
    """
    if not attrs:
        return None
    head = attrs[0]
    if module == "random":
        return None if head == "Random" else "rng"
    if module == "time":
        if head in ("time", "time_ns"):
            return "wall-clock"
        return "timer" if head in _TIMERS else None
    if module == "datetime":
        return "wall-clock" if attrs[-1] in _DATETIME_NOW else None
    if module == "os":
        return "urandom" if head == "urandom" else None
    if module == "uuid":
        return "uuid" if head in _UUIDS else None
    return None


def source_read(path: Sequence[str],
                bindings: Bindings) -> tuple[str, str] | None:
    """``(kind, "module.attr")`` when a dotted name reads a source.

    ``path`` is rooted at an import binding (``["time", "time"]``,
    ``["datetime", "datetime", "now"]``); names bound any other way
    read nothing.
    """
    head = bindings.get(path[0])
    if head is None:
        return None
    module, original = head
    attrs = ([original] if original is not None else []) + list(path[1:])
    kind = _source_kind(module, attrs)
    return None if kind is None else (kind, f"{module}.{attrs[-1]}")


# -- extraction walkers ------------------------------------------------------

#: registrar name -> registry label (shared with SCAR005/SCAR009).
REGISTRARS: dict[str, str] = {
    "register_policy": "policy",
    "register_backend": "backend",
    "register_topology": "topology",
}


def _collect_walked(source: SourceFile, summary: FileSummary
                    ) -> tuple[Bindings, list[ast.ClassDef]]:
    """The one whole-tree walk: imports, registrations, attribute uses
    and nondeterminism sites.  Returns the file's import bindings
    (absolute imports, later bindings win) and every class, nested
    ones included."""
    bindings: Bindings = {}
    classes: list[ast.ClassDef] = []
    chains: list[tuple[tuple[str, ...], ast.Attribute]] = []
    seen: set[tuple[str, ...]] = set()
    sites = summary.nondeterminism

    def site(kind: str, what: str, node: ast.AST) -> None:
        sites.append({"kind": kind, "what": what, "line": node.lineno,
                      "col": node.col_offset})

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                summary.imports[bound] = target
                bindings[bound] = (target, None)
                if alias.asname is None and "." in alias.name:
                    # `import a.b` binds `a` but imports a.b: record
                    # the full target as a dependency-only edge.
                    summary.from_imports.append(
                        [alias.name.rsplit(".", 1)[0],
                         alias.name.rsplit(".", 1)[1], ""])
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                target = _resolve_relative(summary.module, node.level,
                                           node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.from_imports.append(
                    [target, alias.name, alias.asname or alias.name])
                if node.level:
                    continue
                bindings[alias.asname or alias.name] = (target, alias.name)
                kind = _source_kind(target, [alias.name])
                if kind is not None:
                    site(kind, f"from {target} import {alias.name}", node)
        elif isinstance(node, ast.Call):
            func = node.func
            registrar = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if registrar in REGISTRARS and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                summary.registrations.append(
                    {"registrar": registrar, "name": node.args[0].value,
                     "line": node.lineno, "col": node.col_offset})
        elif isinstance(node, ast.Attribute):
            parts: list[str] = [node.attr]
            inner = node.value
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if not isinstance(inner, ast.Name) or inner.id == "self":
                continue
            parts.append(inner.id)
            path = tuple(reversed(parts))
            chains.append((path, node))
            # Attribute loads rooted at import aliases are the
            # export-usage facts: ``wire.WIRE_VERSION`` is resolved
            # later, once the model knows the project's modules.
            if isinstance(node.ctx, ast.Load) and path not in seen:
                seen.add(path)
                summary.uses.append(list(path))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                and isinstance(node.iter, ast.Set):
            site("set-order", "comprehension"
                 if isinstance(node, ast.comprehension) else "iteration",
                 node.iter)
        elif isinstance(node, ast.ClassDef):
            classes.append(node)
    for path, node in chains:
        # Report the shortest source chain only: `random.choice` once,
        # not again as the owner of `random.choice.__doc__`.
        read = source_read(path, bindings)
        if read is not None and source_read(path[:-1], bindings) is None:
            site(read[0], read[1], node)
    return bindings, classes


def _guard_registry(value: ast.expr) -> dict[str, str]:
    """``{attr: lock}`` from a module-level ``_GUARDED`` value.

    A ``{attr: lock}`` dict, or a set/tuple/list of attribute names
    (bare or wrapped, ``frozenset({...})``) guarded by ``_lock``.
    """
    if isinstance(value, ast.Dict):
        return {key.value: lock.value
                for key, lock in zip(value.keys, value.values)
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(lock, ast.Constant)
                and isinstance(lock.value, str)}
    containers = value.args if isinstance(value, ast.Call) else [value]
    return {item.value: _DEFAULT_LOCK
            for container in containers
            if isinstance(container, (ast.Set, ast.Tuple, ast.List))
            for item in container.elts
            if isinstance(item, ast.Constant)
            and isinstance(item.value, str)}


def _collect_module_level(source: SourceFile,
                          summary: FileSummary) -> dict[str, str]:
    """Constants, ``__all__`` and the top-level symbol inventory.

    Returns the module's ``_GUARDED`` registry (``{attr: lock}``),
    which every class of the module inherits as guards.
    """
    guards: dict[str, str] = {}
    for node in source.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or value is None:
            continue
        for name in names:
            if name not in summary.assigns:
                summary.assigns.append(name)
        if isinstance(value, ast.Constant) \
                and isinstance(value.value, str):
            for name in names:
                summary.constants[name] = value.value
        if "__all__" in names and isinstance(value,
                                             (ast.List, ast.Tuple)):
            summary.exports = [
                item.value for item in value.elts
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)]
            summary.exports_line = node.lineno
        if "_GUARDED" in names:
            guards.update(_guard_registry(value))
    return guards


def _class_facts(source: SourceFile, cls: ast.ClassDef,
                 module_guards: dict[str, str]) -> dict[str, Any]:
    """What a class declares in ``__init__``, in one walk of it.

    * ``guards`` (SCAR001): ``{attr: lock}`` from the module's
      ``_GUARDED`` registry, overlaid by ``# guarded by: <lock>``
      comments on ``__init__`` assignments -- real comment tokens, so
      a docstring that mentions the syntax declares nothing;
    * ``locks`` (SCAR006): ``{lock attr: reentrant?}`` for attributes
      assigned ``threading.Lock()``/``RLock()``/``Condition()`` (bare
      or module-qualified), plus every lock a guard names
      (reentrancy unknown defaults to reentrant: the quiet side);
    * ``attr_types`` (call resolution): ``{self attr: class name as
      written}`` from ``self.x = Session(...)`` or ``self.x =
      session`` with the parameter annotated ``Session`` (optionally
      ``| None``).
    """
    guards = dict(module_guards)
    locks: dict[str, bool] = {}
    types: dict[str, str] = {}
    comments = source.comments()
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef) \
                or item.name != "__init__":
            continue
        params: dict[str, str] = {}
        args = item.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            name = _annotation_name(arg.annotation)
            if name is not None:
                params[arg.arg] = name
        for node in ast.walk(item):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            attrs = [a for a in map(_self_attr, targets) if a is not None]
            if not attrs:
                continue
            for line in range(node.lineno, node.end_lineno + 1):
                match = _GUARD_COMMENT_RE.search(comments.get(line, ""))
                if match is not None:
                    guards.update(dict.fromkeys(attrs, match["lock"]))
                    break
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            typename: str | None = None
            if isinstance(value, ast.Call):
                func = value.func
                ctor = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute)
                    else None)
                if ctor in _LOCK_CTORS:
                    locks.update(dict.fromkeys(
                        attrs, ctor in _REENTRANT_CTORS))
                if isinstance(func, ast.Name) and func.id[:1].isupper():
                    typename = func.id
            elif isinstance(value, ast.Name):
                typename = params.get(value.id)
            if typename is not None:
                types.update(dict.fromkeys(attrs, typename))
    for lock in guards.values():
        locks.setdefault(lock, True)
    return {"locks": locks, "guards": guards, "attr_types": types}


def _function_facts(func: ast.AST, taint_extractor: Callable | None,
                    bindings: Bindings, guards: dict[str, str],
                    breaches_only: bool = False) -> dict[str, Any]:
    """Call sites, lock regions, guard breaches and taint of a function.

    One visitor tracks the ``with self.<lock>`` regions held at each
    node.  ``unguarded`` lists ``self.<attr>`` accesses whose guard
    lock (``guards``, the class's) is not held there -- SCAR001's
    facts.  A nested function or lambda runs with no lock held (a
    closure can outlive the ``with`` that created it), and its calls
    and lock regions belong to no call-graph entry, so inside one --
    and with ``breaches_only``, for a method of a class that is not at
    module level -- only guard breaches are recorded.
    """
    calls: list[dict[str, Any]] = []
    acquires: list[dict[str, Any]] = []
    lock_pairs: list[dict[str, Any]] = []
    locked_calls: list[dict[str, Any]] = []
    unguarded: list[dict[str, Any]] = []

    def visit(node: ast.AST, held: tuple[str, ...], nested: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not func:
            if guards:  # nothing else to record inside a closure
                body = node.body if isinstance(node.body, list) \
                    else [node.body]
                for stmt in body:
                    visit(stmt, (), True)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken: list[str] = []
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None:
                    taken.append(attr)
                    if not nested:
                        acquires.append({"lock": attr,
                                         "line": node.lineno,
                                         "col": node.col_offset})
                        for holder in held:
                            lock_pairs.append(
                                {"held": holder, "acquired": attr,
                                 "line": node.lineno,
                                 "col": node.col_offset})
                visit(item.context_expr, held, nested)
            inner = held + tuple(taken)
            for stmt in node.body:
                visit(stmt, inner, nested)
            return
        if isinstance(node, ast.Call) and not nested:
            desc = call_desc(node)
            if desc is not None:
                calls.append(desc)
                for holder in held:
                    locked_calls.append({"held": holder, "call": desc})
        attr = _self_attr(node)
        if attr in guards and guards[attr] not in held:
            unguarded.append({"attr": attr, "lock": guards[attr],
                              "line": node.lineno,
                              "col": node.col_offset})
        for child in ast.iter_child_nodes(node):
            visit(child, held, nested)

    for stmt in func.body:
        visit(stmt, (), breaches_only)
    facts: dict[str, Any] = {
        "line": func.lineno, "col": func.col_offset,
        "calls": calls, "acquires": acquires,
        "lock_pairs": lock_pairs, "locked_calls": locked_calls,
        "unguarded": unguarded,
    }
    if taint_extractor is not None and not breaches_only:
        facts["taint"] = taint_extractor(func, bindings)
    return facts


def _collect_defs(source: SourceFile, summary: FileSummary,
                  taint_extractor: Callable | None, bindings: Bindings,
                  module_guards: dict[str, str],
                  classes: list[ast.ClassDef]) -> None:
    """Function and class facts.  Module-level definitions join the
    call graph; classes nested in a statement, function or class only
    contribute their guard breaches."""

    def facts_of(func: ast.AST, qualname: str, guards: dict[str, str],
                 breaches_only: bool = False) -> dict[str, Any]:
        facts = _function_facts(func, taint_extractor, bindings, guards,
                                breaches_only)
        summary.unguarded.extend({"method": qualname, **breach}
                                 for breach in facts.pop("unguarded"))
        return facts

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = facts_of(node, node.name, {})
        elif isinstance(node, ast.ClassDef):
            info = _class_facts(source, node, module_guards)
            methods: list[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    qualname = f"{node.name}.{item.name}"
                    summary.functions[qualname] = facts_of(
                        item, qualname, info["guards"])
            summary.classes[node.name] = {
                "line": node.lineno, "methods": methods, **info}
    for cls in classes:
        if cls in source.tree.body:
            continue  # module level, done above
        guards = _class_facts(source, cls, module_guards)["guards"]
        for item in cls.body:
            if guards and isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                facts_of(item, f"{cls.name}.{item.name}", guards,
                         breaches_only=True)


def _collect_emitters(source: SourceFile,
                      summary: FileSummary) -> None:
    """Wire-document emitters: dict literals carrying a ``"kind"`` key.

    Only kinds that resolve to a string constant count (``"kind":
    self.kind`` is a payload field, not a document kind).  The owning
    class (when the literal sits inside a method) links the emitter to
    its ``from_dict`` parser for the schema diff.
    """

    def scan(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                scan(child, node.name)
            return
        if isinstance(node, ast.Dict):
            kind: str | None = None
            fields: list[str] = []
            for key, value in zip(node.keys, node.values):
                name = _const_str(key, {})
                if name is None:
                    continue
                fields.append(name)
                if name == "kind":
                    kind = _const_str(value, summary.constants)
            if kind is not None:
                summary.emitters.append(
                    {"kind": kind, "fields": sorted(set(fields)),
                     "owner": owner, "line": node.lineno,
                     "col": node.col_offset})
        for child in ast.iter_child_nodes(node):
            scan(child, owner)

    for top in source.tree.body:
        scan(top, None)
    # from_dict parse keys, linked per class.
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) \
                    or item.name != "from_dict":
                continue
            params = [a.arg for a in item.args.args if a.arg != "cls"]
            if not params:
                continue
            data = params[0]
            parsed: set[str] = set()
            for inner in ast.walk(item):
                if isinstance(inner, ast.Subscript) \
                        and isinstance(inner.value, ast.Name) \
                        and inner.value.id == data:
                    name = _const_str(inner.slice, {})
                    if name is not None:
                        parsed.add(name)
                elif isinstance(inner, ast.Call) \
                        and isinstance(inner.func, ast.Attribute) \
                        and inner.func.attr == "get" \
                        and isinstance(inner.func.value, ast.Name) \
                        and inner.func.value.id == data \
                        and inner.args:
                    name = _const_str(inner.args[0], {})
                    if name is not None:
                        parsed.add(name)
            info = summary.classes.setdefault(node.name, {})
            info["parses"] = sorted(parsed)
            info["parses_line"] = item.lineno


def summarize(source: SourceFile,
              taint_extractor: Callable | None = None) -> FileSummary:
    """Distill one parsed source into its :class:`FileSummary`.

    ``taint_extractor(func, bindings)`` is injected by the runner (it
    lives in :mod:`repro.analysis.taint`) to keep this module free of
    the taint algebra; ``None`` skips taint facts (graph-only
    consumers).
    """
    summary = FileSummary(path=source.path, module=source.module,
                          content_hash=source.content_hash)
    bindings, classes = _collect_walked(source, summary)
    module_guards = _collect_module_level(source, summary)
    _collect_defs(source, summary, taint_extractor, bindings,
                  module_guards, classes)
    _collect_emitters(source, summary)
    summary.noqa_lines = {
        str(line): sorted(codes)
        for line, codes in source.noqa_directives().items()}
    summary.hot_pragma = source.has_hot_pragma()
    return summary


# -- the whole-program model -------------------------------------------------


class ProgramModel:
    """Cross-module view the program checkers run against.

    Built from per-file summaries (fresh or cache-loaded) plus a lazy
    source loader: ``program.source(module)`` parses a file on demand
    (SCAR004 reads three modules' ASTs), ``program.text(module)``
    returns raw text without parsing (registry-name greps).
    """

    def __init__(self, summaries: Sequence[FileSummary], root: Path,
                 load_source: Callable[[str], SourceFile] | None = None
                 ) -> None:
        self.root = Path(root)
        #: Every summary in lint order, including files whose module
        #: name another file shadows in ``summaries``.
        self.files: list[FileSummary] = list(summaries)
        self.summaries: dict[str, FileSummary] = {}
        for summary in summaries:
            self.summaries[summary.module] = summary
        self.modules: set[str] = set(self.summaries)
        self._sources: dict[str, SourceFile] = {}
        self._load = load_source
        self._lock_closure: dict[str, frozenset[str]] | None = None

    # -- sources ----------------------------------------------------------

    def source(self, module: str) -> SourceFile | None:
        """Parsed source of ``module`` (lazy; ``None`` when absent)."""
        if module in self._sources:
            return self._sources[module]
        summary = self.summaries.get(module)
        if summary is None:
            return None
        if self._load is not None:
            loaded = self._load(module)
        else:
            loaded = SourceFile.load(summary.path)
        self._sources[module] = loaded
        return loaded

    def preload(self, module: str, source: SourceFile) -> None:
        """Adopt an already-parsed source (fresh-analysis reuse)."""
        self._sources[module] = source

    def text(self, module: str) -> str | None:
        """Raw text of ``module`` without forcing a parse."""
        source = self.source(module)
        return None if source is None else source.text

    # -- symbol resolution -------------------------------------------------

    def resolve_export(self, module: str, name: str,
                       depth: int = 4) -> tuple[str, str] | None:
        """Chase ``name`` in ``module`` through re-export hops.

        Returns the defining ``(module, qualname)`` or ``None``.  One
        hop per ``from x import y`` level, bounded to stay cycle-safe.
        """
        summary = self.summaries.get(module)
        if summary is None or depth <= 0:
            return None
        if name in summary.functions or name in summary.classes:
            return module, name
        for target, orig, bound in summary.from_imports:
            if (bound or orig) != name:
                continue
            if f"{target}.{orig}" in self.modules:
                return None  # a module import, not a symbol
            resolved = self.resolve_export(target, orig, depth - 1)
            if resolved is not None:
                return resolved
        return None

    def canonical_symbol(self, module: str, name: str,
                         depth: int = 6) -> tuple[str, str | None]:
        """The defining ``(module, symbol)`` of a name, any-kind.

        Unlike :meth:`resolve_export` (functions/classes only, used
        for call resolution) this also treats module-level assignments
        as definitions and resolves submodule re-exports to
        ``(submodule, None)`` -- the identity SCAR009's liveness
        matching needs.  Unresolvable names canonicalize to
        themselves.
        """
        summary = self.summaries.get(module)
        if summary is None or depth <= 0:
            return module, name
        if name in summary.functions or name in summary.classes \
                or name in summary.assigns:
            return module, name
        for target, orig, bound in summary.from_imports:
            if (bound or orig) != name:
                continue
            if f"{target}.{orig}" in self.modules:
                return f"{target}.{orig}", None
            if target in self.modules:
                return self.canonical_symbol(target, orig, depth - 1)
            return target, orig  # external import, e.g. pathlib.Path
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}", None
        return module, name

    def _resolve_class(self, module: str,
                       typename: str) -> tuple[str, str] | None:
        """Find the defining module of a class named in ``module``."""
        resolved = self.resolve_export(module, typename)
        if resolved is not None:
            defining, qual = resolved
            summary = self.summaries.get(defining)
            if summary is not None and qual in summary.classes:
                return defining, qual
        return None

    def resolve_call(self, module: str, context_class: str | None,
                     desc: dict[str, Any]) -> str | None:
        """Resolve a call descriptor to a ``module:qualname`` id.

        Handles: ``self.m()`` (same class), ``self.attr.m()`` (via the
        class's attribute types), bare names (local defs, from-imports
        with one re-export hop), and ``alias.sub.f()`` dotted paths
        through import aliases and project submodules.  Constructor
        calls resolve to ``Class.__init__`` when it exists, else to the
        class marker ``module:Class``.
        """
        path = desc["path"]
        if desc.get("self"):
            if context_class is None:
                return None
            summary = self.summaries[module]
            cls = summary.classes.get(context_class, {})
            if len(path) == 1:
                qual = f"{context_class}.{path[0]}"
                if qual in summary.functions:
                    return f"{module}:{qual}"
                return None
            if len(path) == 2:
                typename = cls.get("attr_types", {}).get(path[0])
                if typename is None:
                    return None
                target = self._resolve_class(module, typename)
                if target is None:
                    return None
                t_module, t_class = target
                qual = f"{t_class}.{path[1]}"
                if qual in self.summaries[t_module].functions:
                    return f"{t_module}:{qual}"
            return None
        return self._resolve_dotted(module, path)

    def _resolve_dotted(self, module: str,
                        path: list[str]) -> str | None:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        head = path[0]
        # Local definition?
        if head in summary.functions and len(path) == 1:
            return f"{module}:{head}"
        if head in summary.classes:
            return self._class_target(module, head, path[1:])
        # From-import of a symbol (one re-export hop)?
        resolved = self.resolve_export(module, head)
        if resolved is not None:
            r_module, r_qual = resolved
            if r_module != module or r_qual != head:
                return self._qual_target(r_module, [r_qual] + path[1:])
        # Import alias / module path: walk into project submodules.
        target = summary.imports.get(head)
        if target is None:
            for t, orig, bound in summary.from_imports:
                if (bound or orig) == head \
                        and f"{t}.{orig}" in self.modules:
                    target = f"{t}.{orig}"
                    break
        if target is None:
            return None
        rest = list(path[1:])
        while rest and f"{target}.{rest[0]}" in self.modules:
            target = f"{target}.{rest[0]}"
            rest.pop(0)
        if not rest:
            return None
        return self._qual_target(target, rest)

    def _qual_target(self, module: str, path: list[str]) -> str | None:
        summary = self.summaries.get(module)
        if summary is None:
            return None
        head = path[0]
        if head in summary.classes:
            return self._class_target(module, head, path[1:])
        if head in summary.functions and len(path) == 1:
            return f"{module}:{head}"
        resolved = self.resolve_export(module, head)
        if resolved is not None and (resolved != (module, head)):
            return self._qual_target(resolved[0],
                                     [resolved[1]] + path[1:])
        return None

    def _class_target(self, module: str, cls: str,
                      rest: list[str]) -> str | None:
        summary = self.summaries[module]
        if not rest:
            init = f"{cls}.__init__"
            if init in summary.functions:
                return f"{module}:{init}"
            return f"{module}:{cls}"
        qual = f"{cls}.{rest[0]}"
        if len(rest) == 1 and qual in summary.functions:
            return f"{module}:{qual}"
        return None

    # -- function iteration ------------------------------------------------

    def functions(self) -> Iterator[tuple[str, str, str | None,
                                          dict[str, Any]]]:
        """Every function: ``(id, module, class or None, facts)``."""
        for module in sorted(self.summaries):
            summary = self.summaries[module]
            for qualname in sorted(summary.functions):
                cls = qualname.split(".")[0] if "." in qualname else None
                yield (f"{module}:{qualname}", module, cls,
                       summary.functions[qualname])

    # -- lock closure ------------------------------------------------------

    def lock_id(self, module: str, cls: str, attr: str) -> str:
        """Stable identity of one class's lock (``module.Class.attr``)."""
        return f"{module}.{cls}.{attr}"

    def class_locks(self, module: str, cls: str) -> dict[str, bool]:
        summary = self.summaries.get(module)
        if summary is None:
            return {}
        return summary.classes.get(cls, {}).get("locks", {})

    def lock_closure(self) -> dict[str, frozenset[str]]:
        """``function id -> locks it may acquire`` (transitive).

        Direct acquisitions are ``with self.<lock>:`` statements whose
        attribute is a declared lock of the function's class; closure
        propagates through resolved calls to a fixpoint.
        """
        if self._lock_closure is not None:
            return self._lock_closure
        direct: dict[str, set[str]] = {}
        edges: dict[str, set[str]] = {}
        for func_id, module, cls, facts in self.functions():
            locks = self.class_locks(module, cls) if cls else {}
            direct[func_id] = {
                self.lock_id(module, cls, entry["lock"])
                for entry in facts.get("acquires", ())
                if cls and entry["lock"] in locks}
            edges[func_id] = set()
            for desc in facts.get("calls", ()):
                target = self.resolve_call(module, cls, desc)
                if target is not None:
                    edges[func_id].add(target)
        closure = {f: set(locks) for f, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for func_id, callees in edges.items():
                mine = closure[func_id]
                before = len(mine)
                for callee in callees:
                    mine.update(closure.get(callee, ()))
                if len(mine) != before:
                    changed = True
        self._lock_closure = {f: frozenset(locks)
                              for f, locks in closure.items()}
        return self._lock_closure
