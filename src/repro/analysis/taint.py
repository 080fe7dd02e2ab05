"""SCAR002 and SCAR007: nondeterminism sources and where they flow.

The engine, the sweep layer, the scenario generator and the simulation
layer promise bit-identical results across reruns, worker counts and
processes (golden tests, resumable stores, the cross-replica cache and
the warm-vs-cold replay parity contract all gate on it).  Both checkers
read one source classifier (:func:`repro.analysis.graph.source_read`):
a read of the process-wide ``random`` functions (``rng``; seeded
``random.Random(seed)`` streams are the sanctioned alternative), of
the wall clock (``time.time``, ``datetime.now`` and friends), of a
timer (``time.monotonic``/``perf_counter``), ``os.urandom`` or
``uuid.uuid1``/``uuid4``.

* **SCAR002** bans, inside those modules, the ``rng`` and wall-clock
  reads (timers stay legal: they feed perf measurements documented as
  non-identity) and iterating a bare ``set`` literal, whose order
  follows per-process string-hash randomization.
* **SCAR007** closes the remaining hole -- nondeterminism produced
  elsewhere and handed in.  A value derived from any source kind is
  *tainted*; a call that passes a tainted argument into
  :mod:`repro.engine`, :mod:`repro.sweep`, :mod:`repro.sim` or
  :mod:`repro.workloads` is a finding at the call site.

The taint analysis is flow-insensitive within a function (a name once
tainted stays tainted) and propagates across functions through the
call graph: a function returning taint taints its callers' values, a
function forwarding a parameter propagates its callers' argument
taint one level.  Both checkers' facts are extracted once per file
(they ride in the cached :class:`~repro.analysis.graph.FileSummary`);
the taint fixpoint runs per lint over the whole-program model.
"""

from __future__ import annotations

import ast
from typing import Any, Iterable

from repro.analysis.core import (
    Checker,
    Finding,
    in_scope,
    register_checker,
)
from repro.analysis.graph import Bindings, call_desc, call_key, source_read

#: Modules where bit-identical results are gated (SCAR002).
DETERMINISM_PREFIXES = ("repro.engine", "repro.sweep",
                        "repro.workloads.generator", "repro.sim")

#: Module prefixes whose call sites are determinism *sinks* (SCAR007).
SINK_PREFIXES = ("repro.engine", "repro.sweep", "repro.sim",
                 "repro.workloads")


def _banned(site: dict[str, Any]) -> str | None:
    """SCAR002's message for one nondeterminism site (``None`` = legal)."""
    kind, what = site["kind"], site["what"]
    if kind == "set-order":
        return (f"{what} over a bare set literal is order-"
                f"nondeterministic (hash randomization); sort it or "
                f"use a tuple")
    if kind == "rng":
        verb = "pulls in" if what.startswith("from ") else "uses"
        return (f"`{what}` {verb} the process-wide RNG; use a seeded "
                f"random.Random stream")
    if kind == "wall-clock":
        return f"`{what}` reads the wall clock; results must not depend on it"
    return None


@register_checker
class DeterminismChecker(Checker):
    code = "SCAR002"
    name = "determinism"
    description = ("kernel/sweep paths must not use the module-level "
                   "random functions, wall-clock reads or bare-set-"
                   "literal iteration")

    def check_program(self, program: Any) -> Iterable[Finding]:
        findings: list[Finding] = []
        for summary in program.files:
            if not in_scope(summary.module, DETERMINISM_PREFIXES):
                continue
            for site in summary.nondeterminism:
                message = _banned(site)
                if message is not None:
                    findings.append(Finding(
                        code=self.code, message=message,
                        path=summary.path, line=site["line"],
                        col=site["col"]))
        return findings


# -- per-function extraction -------------------------------------------------
#
# Taint *atoms* (JSON-able, ride in FileSummary.functions[..]["taint"]):
#   ["src"]           -- directly derived from a nondeterminism read
#   ["param", name]   -- derived from parameter `name` (caller decides)
#   ["call", desc]    -- derived from this call's return value


def _atom_key(atom: list) -> str:
    if atom[0] == "call":
        return "call:" + call_key(atom[1])
    return ":".join(atom[:2])


class _FunctionTaint:
    """One pass over a function body collecting taint facts."""

    def __init__(self, bindings: Bindings, func: ast.AST) -> None:
        self.bindings = bindings
        self.func = func
        self.local: dict[str, list[list]] = {}
        self.ret: dict[str, list] = {}
        self.flows: list[dict[str, Any]] = []

    def _merge(self, *atom_sets: list[list]) -> list[list]:
        merged: dict[str, list] = {}
        for atoms in atom_sets:
            for atom in atoms:
                merged[_atom_key(atom)] = atom
        return list(merged.values())

    def atoms_of(self, node: ast.expr) -> list[list]:
        """Taint atoms a value expression may carry."""
        if isinstance(node, ast.Name):
            return self.local.get(node.id, [])
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, (ast.BinOp,)):
            return self._merge(self.atoms_of(node.left),
                               self.atoms_of(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.atoms_of(node.operand)
        if isinstance(node, ast.IfExp):
            return self._merge(self.atoms_of(node.body),
                               self.atoms_of(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._merge(*(self.atoms_of(e) for e in node.elts))
        if isinstance(node, ast.Starred):
            return self.atoms_of(node.value)
        if isinstance(node, ast.Subscript):
            return self.atoms_of(node.value)
        if isinstance(node, ast.Attribute):
            # `tainted.attr` stays tainted; module-attr reads like
            # `math.pi` root at a clean Name and resolve to [].
            return self.atoms_of(node.value)
        if isinstance(node, ast.Compare):
            return self._merge(self.atoms_of(node.left),
                               *(self.atoms_of(c)
                                 for c in node.comparators))
        if isinstance(node, ast.JoinedStr):
            parts = [v.value for v in node.values
                     if isinstance(v, ast.FormattedValue)]
            return self._merge(*(self.atoms_of(p) for p in parts))
        return []

    def _call_atoms(self, node: ast.Call) -> list[list]:
        desc = call_desc(node)
        arg_atom_sets = [self.atoms_of(arg) for arg in node.args]
        kw_atom_sets = [self.atoms_of(kw.value)
                        for kw in node.keywords]
        if desc is not None and not desc.get("self") \
                and source_read(desc["path"], self.bindings) is not None:
            return [["src"]]
        if desc is not None:
            args = [self._merge(atoms) for atoms in arg_atom_sets]
            if any(args) or any(kw_atom_sets):
                self.flows.append({
                    "call": desc,
                    "args": args,
                    "kw_tainted": bool(any(kw_atom_sets)),
                })
        result = self._merge(*arg_atom_sets, *kw_atom_sets)
        if desc is not None:
            result = self._merge(result, [["call", desc]])
        return result

    def run(self) -> dict[str, Any]:
        args = self.func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if arg.arg != "self":
                self.local[arg.arg] = [["param", arg.arg]]
        # Two sweeps give loop-carried taint a chance to settle.
        for _ in range(2):
            self._sweep(self.func)
        params = [a.arg for a in
                  (args.posonlyargs + args.args + args.kwonlyargs)
                  if a.arg != "self"]
        return {"params": params,
                "ret": sorted(self.ret.values(), key=_atom_key),
                "flows": self.flows}

    def _sweep(self, root: ast.AST) -> None:
        self.flows = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not root:
                return
            if isinstance(node, ast.Assign):
                atoms = self.atoms_of(node.value)
                for target in node.targets:
                    self._bind(target, atoms)
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                self._bind(node.target, self.atoms_of(node.value))
            elif isinstance(node, ast.AugAssign):
                atoms = self._merge(self.atoms_of(node.value),
                                    self.atoms_of(node.target))
                self._bind(node.target, atoms)
            elif isinstance(node, ast.For):
                self._bind(node.target, self.atoms_of(node.iter))
            elif isinstance(node, ast.Return) \
                    and node.value is not None:
                for atom in self.atoms_of(node.value):
                    self.ret[_atom_key(atom)] = atom
            elif isinstance(node, ast.Expr):
                self.atoms_of(node.value)  # record flows
            elif isinstance(node, (ast.If, ast.While)):
                self.atoms_of(node.test)
            for child in ast.iter_child_nodes(node):
                visit(child)

        body = root.body if isinstance(root.body, list) else [root.body]
        for stmt in body:
            visit(stmt)

    def _bind(self, target: ast.expr, atoms: list[list]) -> None:
        if isinstance(target, ast.Name):
            if atoms:
                self.local[target.id] = \
                    self._merge(self.local.get(target.id, []), atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, atoms)


def extract_taint(func: ast.AST, bindings: Bindings) -> dict[str, Any]:
    """The taint facts of one function (plugged into ``summarize``)."""
    return _FunctionTaint(bindings, func).run()


# -- the whole-program fixpoint ----------------------------------------------


@register_checker
class TaintFlowChecker(Checker):
    code = "SCAR007"
    name = "rng-taint-flow"
    description = ("no value derived from process-wide random / "
                   "wall-clock / os.urandom flows into repro.engine, "
                   "repro.sweep, repro.sim or repro.workloads call "
                   "sites; seeded Random(...) streams are clean")

    def check_program(self, program: Any) -> Iterable[Finding]:
        tainted_returns = self._tainted_returns(program)
        findings: list[Finding] = []
        for func_id, module, cls, facts in program.functions():
            taint = facts.get("taint")
            if taint is None:
                continue
            if in_scope(module, SINK_PREFIXES):
                # Inside the sink modules SCAR002 already polices
                # sources directly; flows between sink functions would
                # double-report every internal helper call.
                continue
            for flow in taint.get("flows", ()):
                finding = self._check_flow(
                    program, module, cls, flow, tainted_returns)
                if finding is not None:
                    findings.append(finding)
        return findings

    # A call's return is tainted when the callee (transitively)
    # returns something derived from a source.  Parameter-derived
    # returns are resolved at the call site, one level deep.

    def _tainted_returns(self, program: Any) -> set[str]:
        ret_atoms: dict[str, list] = {}
        for func_id, module, cls, facts in program.functions():
            taint = facts.get("taint")
            if taint is not None:
                ret_atoms[func_id] = [
                    (atom, module, cls) for atom in taint["ret"]]
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for func_id, atoms in ret_atoms.items():
                if func_id in tainted:
                    continue
                for atom, module, cls in atoms:
                    if atom[0] == "src":
                        tainted.add(func_id)
                        changed = True
                        break
                    if atom[0] == "call":
                        target = program.resolve_call(
                            module, cls, atom[1])
                        if target in tainted:
                            tainted.add(func_id)
                            changed = True
                            break
        return tainted

    def _atom_tainted(self, program: Any, module: str,
                      cls: str | None, atom: list,
                      tainted_returns: set[str]) -> bool:
        if atom[0] == "src":
            return True
        if atom[0] == "call":
            target = program.resolve_call(module, cls, atom[1])
            return target in tainted_returns
        return False  # param taint needs the caller's caller: 1 level

    def _check_flow(self, program: Any, module: str, cls: str | None,
                    flow: dict[str, Any],
                    tainted_returns: set[str]) -> Finding | None:
        desc = flow["call"]
        target = program.resolve_call(module, cls, desc)
        if target is None:
            return None
        target_module = target.partition(":")[0]
        if not in_scope(target_module, SINK_PREFIXES):
            return None
        hot_args = [
            index for index, atoms in enumerate(flow.get("args", ()))
            if any(self._atom_tainted(program, module, cls, atom,
                                      tainted_returns)
                   for atom in atoms)]
        if not hot_args:
            return None
        summary = program.summaries[module]
        arg_list = ", ".join(f"arg {i}" for i in hot_args)
        return Finding(
            code=self.code,
            message=(f"nondeterministic value ({arg_list}) flows into "
                     f"{target_module} via {call_key(desc)}(); derive "
                     f"it from a seeded random.Random stream instead"),
            path=summary.path, line=desc["line"], col=desc["col"])
