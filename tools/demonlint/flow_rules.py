"""Whole-program dataflow rules DML008-DML012.

These rules ride on the analyzer infrastructure introduced alongside
them: the project symbol table / call graph
(:mod:`tools.demonlint.graph`), the per-function CFG builder
(:mod:`tools.demonlint.cfg`), and the worklist solver
(:mod:`tools.demonlint.dataflow`).  Each rule encodes one invariant the
DEMON reproduction's correctness story depends on:

* **DML008** — checkpoint parity: run-state attributes of a class that
  defines ``state_dict``/``load_state_dict`` must be covered by *both*
  methods, or kill/restore equivalence silently drifts.
* **DML009** — phase-span discipline: every explicitly started
  :class:`~repro.storage.telemetry.PhaseSpan` is stopped on all CFG
  paths, and ``with telemetry.phase(...)`` bodies never re-enter the
  same phase name (directly or through the call graph), which would
  double-count seconds.
* **DML010** — frozen-array taint: values materialized by the TID-list
  stores (``writeable=False`` by construction) must not reach in-place
  mutation outside ``repro/storage`` and ``itemsets/kernels.py``.
* **DML011** — vault-key hygiene: every :class:`ModelVault` key is a
  literal-rooted tuple under a namespace registered via
  ``register_vault_namespace``, and no namespace is registered from
  two modules (the silent-overwrite hazard the session/GEMM
  cohabitation fix addressed).
* **DML012** — transitive purity: a ``pure_unless_cloned`` method (and
  everything it reaches through same-class calls) performs no strict
  attribute store rooted at ``self`` — maintainer state mutated per
  ``add_block`` leaks across GEMM's divergent model slots.  Mutating
  the *model argument* is licensed by the clone contract (DML002 and
  the runtime contracts govern callers), so only ``self`` is policed;
  method calls like ``self.telemetry.phase(...)`` and storage
  registration are the permitted side channels.

DML014-DML019 ride on the typestate/escape layers
(:mod:`tools.demonlint.typestate`, :mod:`tools.demonlint.escape`):

* **DML014** — backend/mmap handle lifecycle: a handle acquired from a
  backend factory must not be used after ``close()``/``destroy()``,
  its backing files must not be deleted while it is open, and on every
  return path it is either closed, ``with``-managed, or escapes to a
  longer-lived owner.
* **DML015** — chunk-view escape: arrays yielded by
  ``iter_chunks()``/``chunks()`` are views into buffers the backend
  can unmap; they must not be stored on ``self``, in globals, in
  caller-owned containers, or returned without an explicit copy
  sanitizer (``list(...)``, ``.copy()``, ``np.array``).
* **DML016** — streaming discipline: chunk loops must stream — no
  ``materialize()``/``as_array()``/``.tuples`` inside them outside
  ``storage/``+``datagen/``, and ``len(list(...iter_records()))`` is
  always ``num_records`` in disguise.  Tightens DML013 from "where"
  to "while iterating".
* **DML017** — worker payload safety: functions marked
  ``@worker_entry`` or shipped to a pool/executor must not capture
  unpicklable state (locks, open handles, telemetry registries, live
  backend handles) via bound ``self`` attributes, defaults, or module
  globals — under spawn each worker re-imports its own copy.
* **DML018** — exception atomicity: attributes named in a class's
  checkpoint ``state_dict`` must not be mutated in place when a raise
  is forward-reachable; clone-before-commit keeps a failed operation
  from corrupting the next checkpoint.
* **DML019** — compressed-column streaming: ``decode()``/``inflate()``
  /``to_array()`` inside a chunk-iteration loop re-inflates a full
  compressed column every iteration; hoist the decode or use the
  block's streaming read path (cold blocks already decode
  chunk-at-a-time).  The storage engine itself is exempt — its loops
  decode per-chunk blobs by construction.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from tools.demonlint.cfg import RAISE, RETURN, Block, block_statements, build_cfg
from tools.demonlint.core import ModuleInfo, Project, Rule, Violation, register
from tools.demonlint.dataflow import SetUnionAnalysis, solve
from tools.demonlint.escape import (
    escape_summaries,
    function_escapes,
    positional_params,
    resolve_call_target,
)
from tools.demonlint.graph import FunctionNode, ProjectGraph, module_dotted_name
from tools.demonlint.typestate import (
    Op,
    TypestateDriver,
    TypestateSpec,
    analyze,
    leaks,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

#: Method calls that structurally mutate a container attribute.
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "extend", "insert", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort",
    }
)


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"`` (one level only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _subscript_root(node: ast.expr) -> ast.expr:
    """Peel subscripts/attributes below the outermost store target."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _store_targets(stmt: ast.stmt) -> list[ast.expr]:
    """The store-context target expressions of one statement."""
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    else:
        return []
    flat: list[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    return flat


@dataclass(frozen=True)
class _Store:
    attr: str
    lineno: int
    col: int
    kind: str  # "assign" | "subscript" | "del"


def _strict_self_stores(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[_Store]:
    """Strict stores rooted at ``self``: assigns, subscript stores,
    augmented assigns, and deletes of ``self.X`` (at any subscript
    depth).  Plain method calls are *not* strict stores."""
    out: list[_Store] = []
    for node in ast.walk(func):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            continue
        for target in _store_targets(node):
            root = _subscript_root(target)
            attr = _self_attr(root)
            if attr is None:
                continue
            if isinstance(node, ast.Delete):
                kind = "del"
            elif isinstance(target, ast.Subscript):
                kind = "subscript"
            else:
                kind = "assign"
            out.append(_Store(attr, target.lineno, target.col_offset, kind))
    return out


def _mutator_call_attrs(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[_Store]:
    """``self.X.add(...)``-style structural mutations of ``self.X``."""
    out: list[_Store] = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in MUTATOR_METHODS:
            continue
        attr = _self_attr(node.func.value)
        if attr is not None:
            out.append(_Store(attr, node.lineno, node.col_offset, "call"))
    return out


def _self_attr_mentions(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every ``self.X`` attribute mentioned (read or written) in ``func``."""
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in func.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _class_closure(
    graph: ProjectGraph, start: FunctionNode
) -> list[FunctionNode]:
    """``start`` plus every same-class method reachable from it."""
    members = [start]
    for qualname in graph.transitive_callees(start.qualname):
        node = graph.functions.get(qualname)
        if node is not None and node.cls is start.cls:
            members.append(node)
    return members


def _functions_in(module: ModuleInfo) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# DML008 — checkpoint state parity
# ----------------------------------------------------------------------


@register
class CheckpointParity(Rule):
    """Run-state attributes must round-trip through both checkpoint methods."""

    rule_id = "DML008"
    title = "state_dict/load_state_dict must cover the same run-state attributes"

    _SKIP = ("__init__", "state_dict", "load_state_dict")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        graph: ProjectGraph = project.graph()
        mod_name = module_dotted_name(module.relpath)
        for cls_node in ast.walk(module.tree):
            if not isinstance(cls_node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in cls_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "state_dict" not in methods or "load_state_dict" not in methods:
                continue
            init = methods.get("__init__")
            if init is None:
                continue
            init_attrs = {s.attr for s in _strict_self_stores(init)}
            mutated: dict[str, _Store] = {}
            for name, fn in methods.items():
                if name in self._SKIP:
                    continue
                for store in _strict_self_stores(fn) + _mutator_call_attrs(fn):
                    mutated.setdefault(store.attr, store)
            run_state = sorted(init_attrs & set(mutated))
            save_set = self._mentions(graph, mod_name, cls_node, "state_dict")
            load_set = self._mentions(graph, mod_name, cls_node, "load_state_dict")
            for attr in run_state:
                in_save = attr in save_set
                in_load = attr in load_set
                if in_save and in_load:
                    continue
                where = mutated[attr]
                if not in_save and not in_load:
                    yield Violation(
                        module.relpath, cls_node.lineno, cls_node.col_offset,
                        self.rule_id,
                        f"{cls_node.name}.{attr} is run-state (mutated at line "
                        f"{where.lineno}) but appears in neither state_dict nor "
                        f"load_state_dict; a restored session silently drops it",
                    )
                else:
                    present, absent = (
                        ("state_dict", "load_state_dict")
                        if in_save
                        else ("load_state_dict", "state_dict")
                    )
                    anchor = methods[absent]
                    yield Violation(
                        module.relpath, anchor.lineno, anchor.col_offset,
                        self.rule_id,
                        f"{cls_node.name}.{attr} is run-state (mutated at line "
                        f"{where.lineno}) and appears in {present} but not "
                        f"{absent}; checkpoint round-trips will drift",
                    )

    def _mentions(
        self,
        graph: ProjectGraph,
        mod_name: str,
        cls_node: ast.ClassDef,
        method: str,
    ) -> set[str]:
        start = graph.functions.get(f"{mod_name}.{cls_node.name}.{method}")
        if start is None:
            return set()
        mentions: set[str] = set()
        for member in _class_closure(graph, start):
            mentions |= _self_attr_mentions(member.node)
        return mentions


# ----------------------------------------------------------------------
# DML009 — phase-span discipline
# ----------------------------------------------------------------------


def _phase_call(node: ast.expr) -> ast.Call | None:
    """The ``<telemetry>.phase(...)`` call inside ``node``, if that is
    what ``node`` is (optionally wrapped in a chained ``.start()``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "phase":
            return node
        if node.func.attr == "start" and isinstance(node.func.value, ast.Call):
            inner = node.func.value
            if (
                isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "phase"
            ):
                return inner
    return None


def _phase_literal(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


class _OpenSpans(SetUnionAnalysis):
    """May-analysis: which explicitly started span variables are open.

    Facts are frozensets of variable names; metadata (phase name and
    the opening line) is tracked flow-insensitively on the side.
    """

    def __init__(self) -> None:
        self.open_sites: dict[str, tuple[str | None, int]] = {}

    def transfer(self, block: Block, fact: frozenset) -> frozenset:
        open_vars = set(fact)
        for stmt in block_statements(block):
            self._statement(stmt, open_vars)
        return frozenset(open_vars)

    def _statement(self, stmt: ast.stmt, open_vars: set[str]) -> None:
        # stop() anywhere in the statement closes the span — including
        # inside a return expression or a dataclass-field assignment.
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stop"
                and isinstance(node.func.value, ast.Name)
            ):
                open_vars.discard(node.func.value.id)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                call = stmt.value
                phase = _phase_call(call) if isinstance(call, ast.expr) else None
                started = (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "start"
                )
                if phase is not None and started:
                    open_vars.add(target.id)
                    self.open_sites.setdefault(
                        target.id, (_phase_literal(phase), stmt.lineno)
                    )
                elif target.id in open_vars:
                    # Rebinding an open span loses the handle.
                    pass
        # ``v.start()`` as its own statement (span bound earlier).
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
                and isinstance(node.func.value, ast.Name)
            ):
                name = node.func.value.id
                if name in self.open_sites or _looks_like_span(name):
                    open_vars.add(name)
                    self.open_sites.setdefault(name, (None, node.lineno))


def _looks_like_span(name: str) -> bool:
    return "span" in name.lower()


@register
class PhaseSpanDiscipline(Rule):
    """Explicit spans close on every path; phase names never re-enter."""

    rule_id = "DML009"
    title = "telemetry phase spans must close on all paths and never re-enter"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if module.relpath.endswith("storage/telemetry.py"):
            return  # the span machinery itself
        graph: ProjectGraph = project.graph()
        all_phases = _interprocedural_phases(graph)
        mod_name = module_dotted_name(module.relpath)
        for func in _functions_in(module):
            yield from self._check_balance(module, func)
            yield from self._check_reentrancy(
                module, func, graph, all_phases, mod_name
            )

    # -- CFG balance of explicit start/stop spans -------------------------

    def _check_balance(
        self, module: ModuleInfo, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        if not any(_phase_call(n) for n in ast.walk(func) if isinstance(n, ast.Call)):
            return
        cfg = build_cfg(func)
        analysis = _OpenSpans()
        solution = solve(cfg, analysis)
        reported: set[tuple[str, int]] = set()
        for block in cfg.blocks.values():
            if block.terminator not in (RETURN, RAISE):
                continue
            for var in sorted(solution.at_exit(block.block_id)):
                phase_name, opened = analysis.open_sites.get(var, (None, 0))
                site = (var, opened)
                if site in reported:
                    continue
                reported.add(site)
                last = block.statements[-1] if block.statements else func
                label = f"'{phase_name}' " if phase_name else ""
                how = "a raise" if block.terminator == RAISE else "a return"
                yield Violation(
                    module.relpath, last.lineno, last.col_offset, self.rule_id,
                    f"phase span {label}started at line {opened} (variable "
                    f"'{var}') is still open on {how} path at line "
                    f"{last.lineno}; stop it on every path or use "
                    f"'with telemetry.phase(...)'",
                )

    # -- with-form re-entrancy --------------------------------------------

    def _check_reentrancy(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        graph: ProjectGraph,
        all_phases: dict[str, set[str]],
        mod_name: str,
    ) -> Iterator[Violation]:
        owner = self._qualname_of(func, module, mod_name, graph)
        violations: list[Violation] = []

        def visit(stmts: list[ast.stmt], stack: tuple[str, ...]) -> None:
            for stmt in stmts:
                local = stack
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        phase = _phase_call(item.context_expr)
                        if phase is None:
                            continue
                        name = _phase_literal(phase)
                        if name is None:
                            continue  # dynamic phase names are not tracked
                        if name in local:
                            violations.append(
                                Violation(
                                    module.relpath, stmt.lineno, stmt.col_offset,
                                    self.rule_id,
                                    f"phase '{name}' re-entered inside its own "
                                    f"span; nested spans of one name "
                                    f"double-count seconds",
                                )
                            )
                        local = local + (name,)
                if local:
                    self._check_calls(stmt, local, graph, all_phases, violations, module, owner)
                for child_stmts in _child_statement_lists(stmt):
                    visit(child_stmts, local)

        visit(list(func.body), ())
        yield from violations

    def _check_calls(
        self,
        stmt: ast.stmt,
        stack: tuple[str, ...],
        graph: ProjectGraph,
        all_phases: dict[str, set[str]],
        violations: list[Violation],
        module: ModuleInfo,
        owner: FunctionNode | None,
    ) -> None:
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # bodies are visited with their own stack
            for call in [c for c in ast.walk(node) if isinstance(c, ast.Call)]:
                target = self._resolve_call(call, graph, module, owner)
                if target is None:
                    continue
                opened = all_phases.get(target, set())
                for name in stack:
                    if name in opened:
                        violations.append(
                            Violation(
                                module.relpath, call.lineno, call.col_offset,
                                self.rule_id,
                                f"call re-enters phase '{name}' (via "
                                f"{target.rsplit('.', 1)[-1]}()) while its span "
                                f"is open; seconds would be double-counted",
                            )
                        )

    def _qualname_of(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module: ModuleInfo,
        mod_name: str,
        graph: ProjectGraph,
    ) -> FunctionNode | None:
        by_id = getattr(graph, "_demonlint_nodes_by_id", None)
        if by_id is None:
            by_id = {id(node.node): node for node in graph.functions.values()}
            graph._demonlint_nodes_by_id = by_id
        return by_id.get(id(func))

    def _resolve_call(
        self,
        call: ast.Call,
        graph: ProjectGraph,
        module: ModuleInfo,
        owner: FunctionNode | None,
    ) -> str | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and owner is not None
            and owner.cls is not None
        ):
            resolved = graph.resolve_method(owner.cls, func.attr)
            return resolved.qualname if resolved is not None else None
        dotted = module.resolve_call(func)
        if dotted is None:
            return None
        mod_name = module_dotted_name(module.relpath)
        for candidate in (dotted, f"{mod_name}.{dotted}"):
            if candidate in graph.functions:
                return candidate
        return None


def _child_statement_lists(stmt: ast.stmt) -> list[list[ast.stmt]]:
    lists: list[list[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, name, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            lists.append(value)
    for handler in getattr(stmt, "handlers", []):
        lists.append(handler.body)
    for case in getattr(stmt, "cases", []):
        lists.append(case.body)
    return lists


def _interprocedural_phases(graph: ProjectGraph) -> dict[str, set[str]]:
    """Literal phase names each function opens, directly or transitively."""
    cached = getattr(graph, "_demonlint_phase_sets", None)
    if cached is not None:
        return cached
    direct: dict[str, set[str]] = {}
    for qualname, node in graph.functions.items():
        names: set[str] = set()
        for call in [c for c in ast.walk(node.node) if isinstance(c, ast.Call)]:
            phase = _phase_call(call)
            if phase is not None:
                literal = _phase_literal(phase)
                if literal is not None:
                    names.add(literal)
        direct[qualname] = names
    combined: dict[str, set[str]] = {}
    for qualname in graph.functions:
        names = set(direct.get(qualname, ()))
        for callee in graph.transitive_callees(qualname):
            names |= direct.get(callee, set())
        combined[qualname] = names
    graph._demonlint_phase_sets = combined
    return combined


# ----------------------------------------------------------------------
# DML010 — frozen-array taint
# ----------------------------------------------------------------------

#: Attribute-call names whose results are frozen materialized arrays.
FROZEN_SOURCE_METHODS = frozenset({"fetch", "packed_rows"})
#: Project functions (dotted suffixes) returning frozen arrays.
FROZEN_SOURCE_FUNCTIONS = ("pack_rows",)
#: Calls that launder a frozen array into a private writable copy.
TAINT_SANITIZERS = frozenset({"copy", "astype", "tolist", "tobytes"})
#: ndarray methods that mutate in place.
ARRAY_MUTATORS = frozenset({"sort", "fill", "resize", "put", "itemset", "partition"})
#: Paths allowed to touch frozen internals (the stores themselves and
#: the kernels that build the packed representations).
FROZEN_ALLOWED_PARTS = ("repro/storage/",)
FROZEN_ALLOWED_SUFFIXES = ("itemsets/kernels.py",)


def _is_source_call(call: ast.Call, module: ModuleInfo, frozen_returners: set[str]) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in FROZEN_SOURCE_METHODS:
        return True
    dotted = module.resolve_call(func)
    if dotted is None:
        return False
    if any(
        dotted == name or dotted.endswith("." + name)
        for name in FROZEN_SOURCE_FUNCTIONS
    ):
        return True
    mod_name = module_dotted_name(module.relpath)
    return dotted in frozen_returners or f"{mod_name}.{dotted}" in frozen_returners


class _TaintScan:
    """Order-sensitive linear taint scan of one function body."""

    def __init__(
        self,
        module: ModuleInfo,
        graph: ProjectGraph,
        frozen_returners: set[str],
        param_mutators: dict[str, set[int]],
    ) -> None:
        self.module = module
        self.graph = graph
        self.frozen_returners = frozen_returners
        self.param_mutators = param_mutators
        self.tainted: set[str] = set()
        self.sinks: list[tuple[int, int, str]] = []

    # -- expression taint --------------------------------------------------

    def is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Call):
            if _is_source_call(node, self.module, self.frozen_returners):
                return True
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in TAINT_SANITIZERS:
                    return False
                return False
            dotted = self.module.resolve_call(func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] in (
                "asarray", "ascontiguousarray", "asanyarray",
            ):
                return any(self.is_tainted(arg) for arg in node.args)
            return False
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.is_tainted(e) for e in node.elts)
        return False

    # -- statements --------------------------------------------------------

    def run(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.statement(stmt)

    def statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        self._check_sinks(stmt)
        if isinstance(stmt, ast.Assign):
            tainted = self.is_tainted(stmt.value)
            for target in stmt.targets:
                self._bind(target, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.is_tainted(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.is_tainted(stmt.iter))
        for body in _child_statement_lists(stmt):
            self.run(body)

    def _bind(self, target: ast.expr, tainted: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tainted)
            return
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)

    # -- sinks -------------------------------------------------------------

    def _check_sinks(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._check_store_target(target, stmt)
        elif isinstance(stmt, ast.AugAssign):
            root = _subscript_root(stmt.target)
            if isinstance(stmt.target, ast.Subscript) and self.is_tainted(root):
                self._sink(stmt, f"augmented assignment into frozen array "
                                 f"'{_render(root)}'")
            elif isinstance(stmt.target, ast.Name) and self.is_tainted(stmt.target):
                self._sink(stmt, f"augmented assignment mutates frozen array "
                                 f"'{stmt.target.id}' in place")
        for call in [c for c in ast.walk(stmt) if isinstance(c, ast.Call)]:
            self._check_call_sinks(call)

    def _check_store_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store_target(elt, stmt)
            return
        if isinstance(target, ast.Subscript):
            root = _subscript_root(target)
            if self.is_tainted(root):
                self._sink(
                    stmt,
                    f"subscript store into frozen array '{_render(root)}'",
                )
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "writeable"
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "flags"
        ):
            owner = target.value.value
            value = getattr(stmt, "value", None)
            thawing = (
                isinstance(value, ast.Constant) and value.value is True
            )
            if thawing and self.is_tainted(owner):
                self._sink(
                    stmt,
                    f"'{_render(owner)}.flags.writeable = True' thaws a "
                    f"frozen materialized array",
                )

    def _check_call_sinks(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and self.is_tainted(func.value):
            if func.attr in ARRAY_MUTATORS:
                self._sink(
                    call,
                    f"'{_render(func.value)}.{func.attr}()' mutates a frozen "
                    f"array in place",
                )
            if func.attr == "setflags" and any(
                kw.arg == "write"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value
                for kw in call.keywords
            ):
                self._sink(call, f"'{_render(func.value)}.setflags(write=True)' "
                                 f"thaws a frozen array")
        for kw in call.keywords:
            if kw.arg == "out" and self.is_tainted(kw.value):
                self._sink(
                    call,
                    f"out={_render(kw.value)} writes into a frozen array",
                )
        # Interprocedural: passing a frozen array to a function that
        # mutates that positional parameter.
        target = self._resolve(call)
        if target is not None:
            mutated = self.param_mutators.get(target, set())
            for index, arg in enumerate(call.args):
                if index in mutated and self.is_tainted(arg):
                    self._sink(
                        call,
                        f"frozen array '{_render(arg)}' passed to "
                        f"{target.rsplit('.', 1)[-1]}(), which mutates that "
                        f"parameter in place",
                    )

    def _resolve(self, call: ast.Call) -> str | None:
        dotted = self.module.resolve_call(call.func)
        if dotted is None:
            return None
        mod_name = module_dotted_name(self.module.relpath)
        for candidate in (dotted, f"{mod_name}.{dotted}"):
            if candidate in self.graph.functions:
                return candidate
        return None

    def _sink(self, node: ast.stmt | ast.expr, message: str) -> None:
        self.sinks.append((node.lineno, node.col_offset, message))


def _render(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _frozen_returners(graph: ProjectGraph) -> set[str]:
    """Project functions whose return value carries frozen-array taint."""
    cached = getattr(graph, "_demonlint_frozen_returners", None)
    if cached is not None:
        return cached
    returners: set[str] = set()
    for _ in range(3):  # small fixpoint: wrappers of wrappers
        changed = False
        for qualname, node in graph.functions.items():
            if qualname in returners:
                continue
            scan = _TaintScan(node.module, graph, returners, {})
            scan.run(list(node.node.body))
            for ret in [
                n for n in ast.walk(node.node) if isinstance(n, ast.Return)
            ]:
                if ret.value is not None and scan.is_tainted(ret.value):
                    returners.add(qualname)
                    changed = True
                    break
        if not changed:
            break
    graph._demonlint_frozen_returners = returners
    return returners


def _param_mutators(graph: ProjectGraph) -> dict[str, set[int]]:
    """Positional parameters each project function mutates in place."""
    cached = getattr(graph, "_demonlint_param_mutators", None)
    if cached is not None:
        return cached
    result: dict[str, set[int]] = {}
    for qualname, node in graph.functions.items():
        args = node.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        offset = 1 if node.cls is not None and params[:1] == ["self"] else 0
        mutated: set[int] = set()
        for stmt in ast.walk(node.node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                for target in _store_targets(stmt):
                    if not isinstance(target, ast.Subscript):
                        continue
                    root = _subscript_root(target)
                    if isinstance(root, ast.Name) and root.id in params:
                        mutated.add(params.index(root.id) - offset)
            elif isinstance(stmt, ast.Call) and isinstance(stmt.func, ast.Attribute):
                recv = stmt.func.value
                if (
                    stmt.func.attr in ARRAY_MUTATORS
                    and isinstance(recv, ast.Name)
                    and recv.id in params
                ):
                    mutated.add(params.index(recv.id) - offset)
        result[qualname] = {i for i in mutated if i >= 0}
    graph._demonlint_param_mutators = result
    return result


@register
class FrozenArrayTaint(Rule):
    """Frozen materialized TID arrays never reach in-place mutation."""

    rule_id = "DML010"
    title = "frozen materialized arrays must not be mutated outside the stores"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        relpath = module.relpath.replace("\\", "/")
        if any(part in relpath for part in FROZEN_ALLOWED_PARTS):
            return
        if any(relpath.endswith(sfx) for sfx in FROZEN_ALLOWED_SUFFIXES):
            return
        graph: ProjectGraph = project.graph()
        frozen_returners = _frozen_returners(graph)
        param_mutators = _param_mutators(graph)
        scopes: list[list[ast.stmt]] = [
            [s for s in module.tree.body
             if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        ]
        scopes.extend(list(fn.body) for fn in _functions_in(module))
        for body in scopes:
            scan = _TaintScan(module, graph, frozen_returners, param_mutators)
            scan.run(body)
            for line, col, message in scan.sinks:
                yield Violation(
                    module.relpath, line, col, self.rule_id,
                    f"{message} (TID-list materializations are "
                    f"writeable=False shared state; .copy() first, or do "
                    f"this inside repro/storage or itemsets/kernels.py)",
                )


# ----------------------------------------------------------------------
# DML011 — vault-key hygiene
# ----------------------------------------------------------------------

VAULT_KEYED_METHODS = frozenset({"put", "get", "delete", "nbytes"})
REGISTER_FN = "register_vault_namespace"


def _registered_namespaces(
    graph: ProjectGraph,
) -> dict[str, list[tuple[str, int]]]:
    """namespace literal -> [(module relpath, line), ...] registrations."""
    cached = getattr(graph, "_demonlint_vault_namespaces", None)
    if cached is not None:
        return cached
    table: dict[str, list[tuple[str, int]]] = {}
    for module in graph.project.modules:
        for call in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        ]:
            dotted = module.resolve_call(call.func)
            if dotted is None or dotted.rsplit(".", 1)[-1] != REGISTER_FN:
                continue
            if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
                call.args[0].value, str
            ):
                table.setdefault(call.args[0].value, []).append(
                    (module.relpath, call.lineno)
                )
    graph._demonlint_vault_namespaces = table
    return table


class _VaultScope:
    """Vault-receiver and key resolution inside one function body."""

    def __init__(self, module: ModuleInfo, graph: ProjectGraph, body: list[ast.stmt]):
        self.module = module
        self.graph = graph
        self.vault_names: set[str] = set()
        self.trusted: set[str] = set()
        self.bindings: dict[str, list[ast.expr]] = {}
        self._scan(body)

    def _scan(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        self.bindings.setdefault(target.id, []).append(node.value)
                        if self._vaultish_value(node.value):
                            self.vault_names.add(target.id)
                        if self._trusted_value(node.value):
                            self.trusted.add(target.id)
                elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if "ModelVault" in _render(node.annotation):
                        self.vault_names.add(node.target.id)
                    if node.value is not None:
                        self.bindings.setdefault(node.target.id, []).append(node.value)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if isinstance(node.target, ast.Name) and self._trusted_value(
                        node.iter
                    ):
                        self.trusted.add(node.target.id)

    def add_params(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = func.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and "ModelVault" in _render(arg.annotation):
                self.vault_names.add(arg.arg)
            elif arg.arg.lower().endswith("vault"):
                self.vault_names.add(arg.arg)

    # -- receivers ---------------------------------------------------------

    def is_vault(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.vault_names or node.id.lower().endswith("vault")
        if isinstance(node, ast.Attribute):
            return node.attr.lower().endswith("vault")
        return False

    def _vaultish_value(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            dotted = self.module.resolve_call(node.func)
            return dotted is not None and dotted.rsplit(".", 1)[-1] == "ModelVault"
        if isinstance(node, ast.IfExp):
            return self._vaultish_value(node.body) or self._vaultish_value(node.orelse)
        return self.is_vault(node)

    def _trusted_value(self, node: ast.expr) -> bool:
        """Keys read back off a vault (``vault.keys()`` and friends)."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return self.is_vault(func.value)
            if isinstance(func, ast.Name) and func.id in ("list", "sorted", "set"):
                return bool(node.args) and self._trusted_value(node.args[0])
        if isinstance(node, ast.Name):
            return node.id in self.trusted
        if isinstance(node, ast.BinOp):
            return self._trusted_value(node.left) or self._trusted_value(node.right)
        return False

    # -- key resolution ----------------------------------------------------

    def resolve_key(self, node: ast.expr, depth: int = 0) -> tuple[str, str | None]:
        """Classify a key expression.

        Returns ``(verdict, namespace)`` where verdict is one of
        ``"ns"`` (literal-rooted tuple, namespace resolved),
        ``"trusted"`` (read back off a vault), ``"bad"`` (statically a
        non-tuple or non-literal root), or ``"unknown"``.
        """
        if depth > 6:
            return ("unknown", None)
        if isinstance(node, ast.Tuple):
            if not node.elts:
                return ("bad", None)
            ns = self._resolve_namespace(node.elts[0], self.module, depth)
            return ("ns", ns) if ns is not None else ("bad", None)
        if isinstance(node, ast.Constant):
            return ("bad", None)  # bare string/int keys are not tuples
        if isinstance(node, (ast.Set, ast.List, ast.Dict, ast.SetComp, ast.ListComp)):
            return ("bad", None)
        if isinstance(node, ast.Name):
            if node.id in self.trusted:
                return ("trusted", None)
            for value in self.bindings.get(node.id, []):
                verdict = self.resolve_key(value, depth + 1)
                if verdict[0] != "unknown":
                    return verdict
            mod_name = module_dotted_name(self.module.relpath)
            const = self.graph.constants.get(mod_name, {}).get(node.id)
            if const is not None:
                return self.resolve_key(const, depth + 1)
            return ("unknown", None)
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "frozenset"
                or isinstance(func, ast.Attribute)
                and func.attr == "frozenset"
            ):
                return ("bad", None)
            resolved = self._resolve_function(node)
            if resolved is not None:
                ns = self._function_return_namespace(resolved, depth)
                if ns is not None:
                    return ("ns", ns)
            return ("unknown", None)
        return ("unknown", None)

    def _resolve_namespace(
        self, node: ast.expr, module: ModuleInfo, depth: int
    ) -> str | None:
        if depth > 6:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Call):
            dotted = module.resolve_call(node.func)
            if (
                dotted is not None
                and dotted.rsplit(".", 1)[-1] == REGISTER_FN
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                return node.args[0].value
            return None
        if isinstance(node, ast.Name):
            local = self.bindings.get(node.id) if module is self.module else None
            for value in local or []:
                ns = self._resolve_namespace(value, module, depth + 1)
                if ns is not None:
                    return ns
            # Module constant, possibly imported from another module.
            dotted = module.imports.get(node.id)
            if dotted is not None and "." in dotted:
                target_mod, const_name = dotted.rsplit(".", 1)
                expr = self.graph.constants.get(target_mod, {}).get(const_name)
                target = self.graph.modules_by_name.get(target_mod)
                if expr is not None and target is not None:
                    return self._resolve_namespace(expr, target, depth + 1)
            mod_name = module_dotted_name(module.relpath)
            expr = self.graph.constants.get(mod_name, {}).get(node.id)
            if expr is not None:
                return self._resolve_namespace(expr, module, depth + 1)
            return None
        if isinstance(node, ast.Attribute):
            dotted = module.resolve_call(node)
            if dotted is not None and "." in dotted:
                target_mod, const_name = dotted.rsplit(".", 1)
                expr = self.graph.constants.get(target_mod, {}).get(const_name)
                target = self.graph.modules_by_name.get(target_mod)
                if expr is not None and target is not None:
                    return self._resolve_namespace(expr, target, depth + 1)
        return None

    def _resolve_function(self, call: ast.Call) -> FunctionNode | None:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            # Resolve self-method through any class of this module that
            # defines it (one module rarely has two same-named methods
            # with different key schemes).
            mod_name = module_dotted_name(self.module.relpath)
            for qualname, node in self.graph.functions.items():
                if (
                    node.cls is not None
                    and qualname.startswith(mod_name + ".")
                    and qualname.endswith("." + func.attr)
                ):
                    return node
            return None
        dotted = self.module.resolve_call(func)
        if dotted is None:
            return None
        mod_name = module_dotted_name(self.module.relpath)
        for candidate in (dotted, f"{mod_name}.{dotted}"):
            node = self.graph.functions.get(candidate)
            if node is not None:
                return node
        return None

    def _function_return_namespace(
        self, node: FunctionNode, depth: int
    ) -> str | None:
        namespaces: set[str] = set()
        for ret in [n for n in ast.walk(node.node) if isinstance(n, ast.Return)]:
            if not isinstance(ret.value, ast.Tuple) or not ret.value.elts:
                return None
            ns = self._resolve_namespace(ret.value.elts[0], node.module, depth + 1)
            if ns is None:
                return None
            namespaces.add(ns)
        return namespaces.pop() if len(namespaces) == 1 else None


@register
class VaultKeyHygiene(Rule):
    """Vault keys are literal-rooted tuples under a registered namespace."""

    rule_id = "DML011"
    title = "ModelVault keys must be literal-rooted tuples in a registered namespace"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if module.relpath.endswith("storage/persist.py"):
            return  # the vault implementation itself
        graph: ProjectGraph = project.graph()
        registered = _registered_namespaces(graph)

        # Cross-module collision: one namespace registered twice.
        for namespace, sites in sorted(registered.items()):
            modules = {path for path, _ in sites}
            if len(modules) > 1 and module.relpath == sorted(modules)[1]:
                first = sorted(modules)[0]
                line = next(ln for path, ln in sites if path == module.relpath)
                yield Violation(
                    module.relpath, line, 0, self.rule_id,
                    f"vault namespace '{namespace}' is already registered by "
                    f"{first}; two registrars can silently overwrite each "
                    f"other's entries",
                )

        scopes: list[tuple[list[ast.stmt], ast.FunctionDef | None]] = [
            (
                [
                    s
                    for s in module.tree.body
                    if not isinstance(
                        s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                ],
                None,
            )
        ]
        scopes.extend((list(fn.body), fn) for fn in _functions_in(module))
        for body, func in scopes:
            scope = _VaultScope(module, graph, body)
            if func is not None:
                scope.add_params(func)
            yield from self._check_scope(module, scope, body, registered)

    def _check_scope(
        self,
        module: ModuleInfo,
        scope: _VaultScope,
        body: list[ast.stmt],
        registered: dict[str, list[tuple[str, int]]],
    ) -> Iterator[Violation]:
        seen: set[tuple[int, int]] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                key: ast.expr | None = None
                op = ""
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in VAULT_KEYED_METHODS
                    and scope.is_vault(node.func.value)
                    and node.args
                ):
                    key, op = node.args[0], node.func.attr
                elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                    if isinstance(
                        node.ops[0], (ast.In, ast.NotIn)
                    ) and scope.is_vault(node.comparators[0]):
                        key, op = node.left, "in"
                if key is None:
                    continue
                site = (node.lineno, node.col_offset)
                if site in seen:
                    continue
                seen.add(site)
                verdict, namespace = scope.resolve_key(key)
                if verdict in ("trusted",):
                    continue
                if verdict == "ns":
                    assert namespace is not None
                    if namespace not in registered:
                        yield Violation(
                            module.relpath, node.lineno, node.col_offset,
                            self.rule_id,
                            f"vault {op} uses namespace '{namespace}', which "
                            f"is never registered via "
                            f"register_vault_namespace(); collisions with "
                            f"other tenants go undetected",
                        )
                    continue
                detail = (
                    "does not statically resolve to a tuple"
                    if verdict == "unknown"
                    else "is not a literal-rooted tuple"
                )
                yield Violation(
                    module.relpath, node.lineno, node.col_offset, self.rule_id,
                    f"vault {op} key '{_render(key)}' {detail}; use "
                    f"(<registered namespace>, ...) so session checkpoints "
                    f"and GEMM spills cannot silently overwrite each other",
                )


# ----------------------------------------------------------------------
# DML012 — transitive purity of pure_unless_cloned methods
# ----------------------------------------------------------------------


@register
class TransitivePurity(Rule):
    """``pure_unless_cloned`` methods never strict-store into ``self``."""

    rule_id = "DML012"
    title = "pure_unless_cloned methods must not write maintainer state"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        graph: ProjectGraph = project.graph()
        for qualname, node in sorted(graph.functions.items()):
            if node.module is not module or node.cls is None:
                continue
            if "pure_unless_cloned" not in _decorator_names(node.node):
                continue
            seen: set[tuple[str, int]] = set()
            for member in _class_closure(graph, node):
                for store in _strict_self_stores(member.node):
                    site = (store.attr, store.lineno)
                    if site in seen:
                        continue
                    seen.add(site)
                    via = (
                        ""
                        if member is node
                        else f" (reached via {member.node.name}())"
                    )
                    yield Violation(
                        module.relpath, store.lineno, store.col,
                        self.rule_id,
                        f"@pure_unless_cloned {node.node.name}() writes "
                        f"maintainer state 'self.{store.attr}'{via}; per-add "
                        f"state on self leaks across GEMM's divergent model "
                        f"slots — keep it on the model, in storage, or in a "
                        f"diagnostics side-channel",
                    )


# ----------------------------------------------------------------------
# Shared helpers for the typestate/escape rules (DML014-DML018)
# ----------------------------------------------------------------------


def _analysis_exempt(relpath: str, allowed_dirs: tuple[str, ...] = ()) -> bool:
    """Path gating shared by DML014-DML018.

    Fixture directories are always linted (that is what they are for);
    tests and examples are exempt; ``allowed_dirs`` marks subsystems
    the rule's invariant does not apply to (e.g. ``storage`` may hold
    raw views by construction).
    """
    parts = relpath.replace("\\", "/").split("/")
    if "fixtures" in parts:
        return False
    if any(part in ("tests", "examples") for part in parts):
        return True
    return any(d in parts[:-1] for d in allowed_dirs)


def _nodes_excluding_defs(stmts: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every AST node under ``stmts``, not descending into nested defs."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _base_name(node: ast.expr) -> str | None:
    """``backend.root`` / ``paths[0]`` -> the underlying local name."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _flat_target_names(target: ast.expr) -> list[str]:
    out: list[str] = []
    stack: list[ast.expr] = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return out


def _module_functions(
    graph: ProjectGraph, module: ModuleInfo
) -> Iterator[FunctionNode]:
    for _, node in sorted(graph.functions.items()):
        if node.module is module:
            yield node


# ----------------------------------------------------------------------
# DML014 — backend/mmap handle lifecycle
# ----------------------------------------------------------------------

#: Factory calls (matched on the trailing dotted component) whose
#: result is a backend handle the caller owns.
BACKEND_FACTORIES = frozenset(
    {"MmapBackend", "InMemoryBackend", "resolve_backend", "backend_from_spec"}
)
#: Methods on the handle itself that require it to be open.
BACKEND_USE_METHODS = frozenset({"ingest", "adopt"})
#: Methods on handles *derived* from a backend (blocks, block data)
#: that dereference the backend's buffers.
DERIVED_USE_METHODS = frozenset(
    {"iter_chunks", "iter_records", "chunks", "materialize", "as_array"}
)
#: Calls that delete files out from under an open handle.
FILE_DELETERS = frozenset(
    {"shutil.rmtree", "os.remove", "os.unlink", "os.rmdir"}
)

_BACKEND_SPEC = TypestateSpec(
    name="backend-handle",
    initial="open",
    transitions={
        ("open", "use"): "open",
        ("open", "open"): "open",
        ("open", "close"): "closed",
        ("closed", "close"): "closed",
        ("closed", "open"): "open",
        ("open", "destroy"): "destroyed",
        ("closed", "destroy"): "destroyed",
        ("closed", "delete_files"): "destroyed",
        ("destroyed", "close"): "destroyed",
        ("destroyed", "destroy"): "destroyed",
    },
    errors={
        ("closed", "use"): (
            "backend handle '{var}' is used after close(); reopen it with "
            "{var}.open() or move the access before close()",
            "closed",
        ),
        ("destroyed", "use"): (
            "backend handle '{var}' is used after destroy(); its backing "
            "files are gone",
            "destroyed",
        ),
        ("destroyed", "open"): (
            "backend handle '{var}' is reopened after destroy(); its "
            "backing files are gone",
            "destroyed",
        ),
        ("open", "delete_files"): (
            "files of backend '{var}' are deleted while the handle is "
            "still open; close() first so mmap views are released",
            "destroyed",
        ),
    },
    accepting=frozenset({"closed", "destroyed"}),
)


class _BackendDriver(TypestateDriver):
    """Syntax layer of DML014: factories, derived blocks, protocol ops."""

    spec = _BACKEND_SPEC

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module

    def acquires(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        dotted = self.module.resolve_call(value.func) or ""
        return dotted.split(".")[-1] in BACKEND_FACTORIES

    def derives(self, value: ast.expr) -> str | None:
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in BACKEND_USE_METHODS
            and isinstance(value.func.value, ast.Name)
        ):
            return value.func.value.id
        return None

    def ops(self, stmt: ast.stmt) -> list[Op]:
        out: list[Op] = []
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                receiver = func.value.id
                if (
                    func.attr in BACKEND_USE_METHODS
                    or func.attr in DERIVED_USE_METHODS
                ):
                    out.append(
                        Op(receiver, "use", node.lineno, node.col_offset)
                    )
                elif func.attr in ("close", "open", "destroy"):
                    out.append(
                        Op(receiver, func.attr, node.lineno, node.col_offset)
                    )
            dotted = self.module.resolve_call(func)
            if dotted in FILE_DELETERS and node.args:
                root = _base_name(node.args[0])
                if root is not None:
                    out.append(
                        Op(root, "delete_files", node.lineno, node.col_offset)
                    )
        return out


@register
class BackendLifecycle(Rule):
    """Typestate of backend handles: open -> closed -> destroyed."""

    rule_id = "DML014"
    title = "backend handles: no use-after-close, close before delete, close on all paths"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _analysis_exempt(module.relpath):
            return
        graph: ProjectGraph = project.graph()
        driver = _BackendDriver(module)
        summaries = escape_summaries(graph)
        consts = frozenset(
            graph.constants.get(module_dotted_name(module.relpath), ())
        )
        for fn in _module_functions(graph, module):
            result = analyze(fn.node, driver)
            for error in result.errors:
                yield Violation(
                    module.relpath, error.lineno, error.col, self.rule_id,
                    error.message,
                )
            if not result.acquire_sites:
                continue
            tracked = frozenset(result.acquire_sites)
            params = frozenset(positional_params(fn))
            # A handle that escapes (stored, returned, or passed on) is
            # someone else's to close; unknown-call arguments count as
            # escapes because suppressing a leak report is the safe
            # direction.
            escaping = frozenset(
                site.var
                for site in function_escapes(
                    fn.node,
                    tracked,
                    graph=graph,
                    fn=fn,
                    module_constants=consts,
                    summaries=summaries,
                    param_names=params,
                    unknown_call_args_escape=True,
                )
            )
            for leak in leaks(result, driver.spec, escaping=escaping):
                yield Violation(
                    module.relpath, leak.lineno, leak.col, self.rule_id,
                    f"backend handle '{leak.var}' is not closed on every "
                    f"return path; close()/destroy() it, use 'with', or "
                    f"hand it to a longer-lived owner",
                )


# ----------------------------------------------------------------------
# DML015 — chunk/view escape
# ----------------------------------------------------------------------

#: Iterator methods whose items are views into backend-owned buffers.
CHUNK_ITER_METHODS = frozenset({"iter_chunks", "chunks"})


def _chunk_loop_targets(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, int]:
    """Loop variables bound to chunk views, plus plain-name aliases."""
    targets: dict[str, int] = {}
    for node in _nodes_excluding_defs(func.body):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in CHUNK_ITER_METHODS
            ):
                for name in _flat_target_names(node.target):
                    targets.setdefault(name, node.lineno)
    changed = bool(targets)
    while changed:
        changed = False
        for node in _nodes_excluding_defs(func.body):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in targets
                and node.targets[0].id not in targets
            ):
                targets[node.targets[0].id] = node.lineno
                changed = True
    return targets


@register
class ChunkViewEscape(Rule):
    """Chunk views must not outlive the block that yielded them."""

    rule_id = "DML015"
    title = "chunk views must be copied before they outlive the chunk loop"

    _KIND_HINTS = {
        "self": "an attribute outlives the loop and the backend can unmap "
        "the buffer underneath it",
        "global": "a module global outlives every backend",
        "param": "the caller's container outlives the chunk loop",
        "return": "the caller receives a view into a buffer the backend "
        "can unmap",
        "arg": "the callee stores it somewhere persistent",
    }

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _analysis_exempt(module.relpath, ("storage", "datagen")):
            return
        graph: ProjectGraph = project.graph()
        summaries = escape_summaries(graph)
        consts = frozenset(
            graph.constants.get(module_dotted_name(module.relpath), ())
        )
        for fn in _module_functions(graph, module):
            chunk_vars = _chunk_loop_targets(fn.node)
            if not chunk_vars:
                continue
            params = frozenset(positional_params(fn))
            for site in function_escapes(
                fn.node,
                frozenset(chunk_vars),
                graph=graph,
                fn=fn,
                module_constants=consts,
                summaries=summaries,
                param_names=params,
            ):
                if site.kind == "yield":
                    continue  # re-yielding keeps the streaming contract
                hint = self._KIND_HINTS.get(site.kind, "")
                yield Violation(
                    module.relpath, site.lineno, site.col, self.rule_id,
                    f"chunk view '{site.var}' escapes its block: "
                    f"{site.detail} — {hint}; copy it first "
                    f"(list(...), .copy(), np.array) or keep it local",
                )


# ----------------------------------------------------------------------
# DML016 — streaming discipline inside chunk loops
# ----------------------------------------------------------------------

#: Methods that materialize a whole block at once.
MATERIALIZING_METHODS = frozenset({"materialize", "as_array"})
#: Record-level iterators (streaming when consumed lazily).
RECORD_ITER_METHODS = frozenset({"iter_records", "iter_chunks", "chunks"})
#: Attribute loads that pull the whole record set (DML013's set).
RAW_MATERIALIZING_ATTRS = frozenset({"tuples", "records"})


def _chunk_loops(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.For | ast.AsyncFor]:
    for node in _nodes_excluding_defs(func.body):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in RECORD_ITER_METHODS
            ):
                yield node


def _list_of_records(call: ast.Call) -> ast.Call | None:
    """``list(X.iter_records())`` -> the inner iterator call."""
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in ("list", "tuple", "sorted")
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Call)
        and isinstance(call.args[0].func, ast.Attribute)
        and call.args[0].func.attr in RECORD_ITER_METHODS
    ):
        return call.args[0]
    return None


@register
class StreamingDiscipline(Rule):
    """Chunk loops stream; they never re-materialize the block."""

    rule_id = "DML016"
    title = "no full materialization inside chunk loops"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _analysis_exempt(module.relpath, ("storage", "datagen")):
            return
        seen: set[tuple[int, int, str]] = set()

        def emit(node: ast.AST, message: str) -> Iterator[Violation]:
            site = (node.lineno, node.col_offset, message)
            if site not in seen:
                seen.add(site)
                yield Violation(
                    module.relpath, node.lineno, node.col_offset,
                    self.rule_id, message,
                )

        for func in _functions_in(module):
            for loop in _chunk_loops(func):
                iter_name = loop.iter.func.attr  # type: ignore[union-attr]
                for node in _nodes_excluding_defs(loop.body):
                    if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute
                    ):
                        if node.func.attr in MATERIALIZING_METHODS:
                            yield from emit(
                                node,
                                f"{node.func.attr}() inside a "
                                f"{iter_name}() loop materializes the "
                                f"whole block every iteration; hoist it "
                                f"or stream chunk-wise",
                            )
                    if isinstance(node, ast.Call):
                        inner = _list_of_records(node)
                        if inner is not None:
                            yield from emit(
                                node,
                                f"list({_render(inner)}) inside a "
                                f"{iter_name}() loop materializes every "
                                f"record per chunk; stream instead",
                            )
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and node.attr in RAW_MATERIALIZING_ATTRS
                    ):
                        yield from emit(
                            node,
                            f".{node.attr} inside a {iter_name}() loop "
                            f"pulls the whole record set while "
                            f"streaming it; use the chunk contents",
                        )
            # len(list(...iter_records())) anywhere is num_records in
            # disguise — it materializes the block just to count it.
            for node in _nodes_excluding_defs(func.body):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "len"
                    and len(node.args) == 1
                    and isinstance(node.args[0], ast.Call)
                ):
                    inner = _list_of_records(node.args[0])
                    if inner is not None:
                        yield from emit(
                            node,
                            f"len(list({_render(inner)})) materializes "
                            f"the whole block just to count it; use "
                            f"num_records",
                        )


# ----------------------------------------------------------------------
# DML017 — worker payload safety
# ----------------------------------------------------------------------

#: Pool/executor methods that ship their first argument to a worker.
#: ``run`` is ``repro.parallel.pool.WorkerPool.run(entry, payloads)``.
WORKER_SUBMIT_METHODS = frozenset(
    {"submit", "map", "starmap", "apply", "apply_async", "imap",
     "imap_unordered", "run"}
)
#: Factory calls whose results do not survive pickling (or, for the
#: registries, must not be shared across process boundaries).
UNPICKLABLE_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore",
     "BoundedSemaphore", "Barrier", "open", "socket",
     "Telemetry", "DiagnosticsLog", "IOStatsRegistry",
     "ProcessPoolExecutor", "ThreadPoolExecutor"}
)
#: Live backend handles: picklable in principle, wrong in practice —
#: each worker must rebuild from the spec.
BACKEND_HANDLE_FACTORIES = frozenset(
    {"MmapBackend", "InMemoryBackend", "resolve_backend",
     "backend_from_spec", "ambient_backend"}
)


def _unpicklable_factory(
    expr: ast.expr, module: ModuleInfo
) -> tuple[str, bool] | None:
    """``(factory name, is_backend)`` when ``expr`` builds unpicklable
    (or unshippable) state."""
    if not isinstance(expr, ast.Call):
        return None
    dotted = module.resolve_call(expr.func) or ""
    last = dotted.split(".")[-1]
    if last in UNPICKLABLE_FACTORIES:
        return last, False
    if last in BACKEND_HANDLE_FACTORIES:
        return last, True
    return None


def _pool_receiver(expr: ast.expr) -> bool:
    rendered = _render(expr).lower()
    return "pool" in rendered or "executor" in rendered


@register
class WorkerPayloadSafety(Rule):
    """Worker entry points must ship only picklable, process-local state."""

    rule_id = "DML017"
    title = "worker payloads must not capture unpicklable or shared state"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _analysis_exempt(module.relpath):
            return
        graph: ProjectGraph = project.graph()
        # Entries declared in this module via @worker_entry.
        for fn in _module_functions(graph, module):
            if "worker_entry" in _decorator_names(fn.node):
                yield from self._audit_entry(
                    module, graph, fn, fn.node.lineno, fn.node.col_offset
                )
        # Entries shipped from this module's submit sites.
        for fn in _module_functions(graph, module):
            yield from self._check_submit_sites(module, graph, fn)

    # -- submit-site handling ---------------------------------------------

    def _check_submit_sites(
        self, module: ModuleInfo, graph: ProjectGraph, fn: FunctionNode
    ) -> Iterator[Violation]:
        nested_defs = {
            node.name
            for stmt in fn.node.body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in _nodes_excluding_defs(fn.node.body):
            if not isinstance(node, ast.Call):
                continue
            entry_expr: ast.expr | None = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in WORKER_SUBMIT_METHODS
                and _pool_receiver(node.func.value)
                and node.args
            ):
                entry_expr = node.args[0]
            else:
                dotted = module.resolve_call(node.func) or ""
                if dotted.split(".")[-1] == "Process":
                    for keyword in node.keywords:
                        if keyword.arg == "target":
                            entry_expr = keyword.value
            if entry_expr is None:
                continue
            if isinstance(entry_expr, ast.Lambda):
                yield Violation(
                    module.relpath, node.lineno, node.col_offset,
                    self.rule_id,
                    "lambda worker payloads are not picklable under "
                    "spawn; use a module-level function",
                )
                continue
            if (
                isinstance(entry_expr, ast.Name)
                and entry_expr.id in nested_defs
            ):
                yield Violation(
                    module.relpath, node.lineno, node.col_offset,
                    self.rule_id,
                    f"nested function '{entry_expr.id}' is not picklable "
                    f"under spawn; move the worker entry to module level",
                )
                continue
            entry = self._resolve_entry(module, graph, fn, entry_expr)
            if entry is not None:
                yield from self._audit_entry(
                    module, graph, entry, node.lineno, node.col_offset
                )

    def _resolve_entry(
        self,
        module: ModuleInfo,
        graph: ProjectGraph,
        fn: FunctionNode,
        expr: ast.expr,
    ) -> FunctionNode | None:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and fn.cls is not None
        ):
            return graph.resolve_method(fn.cls, expr.attr)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            fake = ast.Call(func=expr, args=[], keywords=[])
            target = resolve_call_target(graph, fn, fake)
            if target is not None:
                return graph.functions.get(target)
        return None

    # -- entry auditing ----------------------------------------------------

    def _audit_entry(
        self,
        module: ModuleInfo,
        graph: ProjectGraph,
        entry: FunctionNode,
        lineno: int,
        col: int,
    ) -> Iterator[Violation]:
        reported: set[str] = set()

        def emit(symbol: str, message: str) -> Iterator[Violation]:
            key = f"{entry.qualname}:{symbol}"
            if key not in reported:
                reported.add(key)
                yield Violation(
                    module.relpath, lineno, col, self.rule_id, message
                )

        # Unpicklable default arguments evaluate once at import time
        # and ride along with the function object.
        args = entry.node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            found = _unpicklable_factory(default, entry.module)
            if found is not None:
                factory, _ = found
                yield from emit(
                    f"default:{default.lineno}",
                    f"worker entry {entry.node.name}() binds "
                    f"{factory}(...) as a default argument; it cannot "
                    f"cross the process boundary",
                )

        # A bound method ships its whole instance.
        if entry.is_method and entry.cls is not None:
            init = graph.resolve_method(entry.cls, "__init__")
            if init is not None:
                for stmt in ast.walk(init.node):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    found = _unpicklable_factory(stmt.value, init.module)
                    if found is None:
                        continue
                    factory, is_backend = found
                    for target in stmt.targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        hint = (
                            "pass backend.spec() and rebuild inside the "
                            "worker"
                            if is_backend
                            else "create it inside the worker instead"
                        )
                        yield from emit(
                            f"attr:{attr}",
                            f"worker entry {entry.cls.name}."
                            f"{entry.node.name}() ships self, and "
                            f"self.{attr} holds {factory}(...) from "
                            f"__init__; {hint}",
                        )

        # Module globals read by the entry (or anything it reaches)
        # that hold locks/handles/registries: under spawn every worker
        # re-imports its own copy, so the state is silently not shared.
        members = [entry] + [
            node
            for qualname in sorted(graph.transitive_callees(entry.qualname))
            if (node := graph.functions.get(qualname)) is not None
        ]
        for member in members:
            consts = graph.constants.get(
                module_dotted_name(member.module.relpath), {}
            )
            loaded = {
                n.id
                for n in _nodes_excluding_defs(member.node.body)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for name in sorted(loaded):
                if name not in consts:
                    continue
                found = _unpicklable_factory(consts[name], member.module)
                if found is None:
                    continue
                factory, _ = found
                via = (
                    ""
                    if member is entry
                    else f" (via {member.node.name}())"
                )
                yield from emit(
                    f"global:{name}",
                    f"worker entry {entry.node.name}() reads module "
                    f"global '{name}' = {factory}(...){via}; under "
                    f"spawn each worker gets its own copy, so the "
                    f"state is not shared — pass it explicitly or "
                    f"rebuild per worker",
                )


# ----------------------------------------------------------------------
# DML018 — exception atomicity of checkpointed state
# ----------------------------------------------------------------------


def _direct_raisers(graph: ProjectGraph) -> frozenset[str]:
    """Project functions whose own body contains an explicit ``raise``."""
    cached = getattr(graph, "_demonlint_raisers", None)
    if cached is not None:
        return cached
    raisers = frozenset(
        qualname
        for qualname, fn in graph.functions.items()
        if any(
            isinstance(node, ast.Raise)
            for node in _nodes_excluding_defs(fn.node.body)
        )
    )
    graph._demonlint_raisers = raisers
    return raisers


def _self_attr_classes(
    graph: ProjectGraph, cls_node: ast.ClassDef
) -> dict[str, list[ast.ClassDef]]:
    """Constructor-derived types of ``self.X`` attributes.

    ``self._engine = GEMM(...)`` in ``__init__`` types ``_engine`` as
    (possibly one of several) project classes, which lets
    ``self._engine.observe(...)`` resolve through each candidate class
    — enough to see that a method called *after* an in-place mutation
    can raise.
    """
    cache = getattr(graph, "_demonlint_attr_classes", None)
    if cache is None:
        cache = {}
        graph._demonlint_attr_classes = cache
    key = id(cls_node)
    if key in cache:
        return cache[key]
    types: dict[str, list[ast.ClassDef]] = {}
    init = graph.resolve_method(cls_node, "__init__")
    if init is not None:
        module = init.module
        for node in _nodes_excluding_defs(init.node.body):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            dotted = module.resolve_call(node.value.func) or ""
            name = dotted.split(".")[-1]
            if not name:
                continue
            resolved = graph.resolve_class(name, module)
            if resolved is None:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None and resolved not in types.setdefault(attr, []):
                    types[attr].append(resolved)
    cache[key] = types
    return types


def _inplace_mutations(
    stmt: ast.stmt, checkpointed: set[str]
) -> list[_Store]:
    """In-place mutations of checkpointed ``self`` attributes in one
    statement.  Plain rebinds (``self.x = new``) are the *commit* step
    of clone-before-commit and are allowed; subscript stores, augmented
    assigns, deletes, and structural mutator calls are not."""
    out: list[_Store] = []
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            for target in _store_targets(node):
                root = _subscript_root(target)
                attr = _self_attr(root)
                if attr is None or attr not in checkpointed:
                    continue
                if isinstance(node, ast.Delete):
                    kind = "del"
                elif isinstance(target, ast.Subscript):
                    kind = "subscript"
                elif isinstance(node, ast.AugAssign):
                    kind = "augassign"
                else:
                    continue  # plain rebind: the commit step
                out.append(_Store(attr, target.lineno, target.col_offset, kind))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and attr in checkpointed:
                out.append(_Store(attr, node.lineno, node.col_offset, "call"))
    return out


@register
class ExceptionAtomicity(Rule):
    """Checkpointed attributes are clone-before-commit on raise paths."""

    rule_id = "DML018"
    title = "checkpointed state must not be mutated in place before a reachable raise"

    _SKIP = ("__init__", "state_dict", "load_state_dict")

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _analysis_exempt(module.relpath):
            return
        graph: ProjectGraph = project.graph()
        raisers = _direct_raisers(graph)
        mod_name = module_dotted_name(module.relpath)
        for cls_node in ast.walk(module.tree):
            if not isinstance(cls_node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in cls_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "state_dict" not in methods:
                continue
            start = graph.functions.get(
                f"{mod_name}.{cls_node.name}.state_dict"
            )
            if start is None:
                continue
            checkpointed: set[str] = set()
            for member in _class_closure(graph, start):
                checkpointed |= _self_attr_mentions(member.node)
            if not checkpointed:
                continue
            for name, fn_node in sorted(methods.items()):
                if name in self._SKIP:
                    continue
                owner = graph.functions.get(
                    f"{mod_name}.{cls_node.name}.{name}"
                )
                attr_types = _self_attr_classes(graph, cls_node)
                yield from self._check_method(
                    module, cls_node, fn_node, owner, checkpointed,
                    graph, raisers, attr_types,
                )

    def _check_method(
        self,
        module: ModuleInfo,
        cls_node: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: FunctionNode | None,
        checkpointed: set[str],
        graph: ProjectGraph,
        raisers: frozenset[str],
        attr_types: dict[str, list[ast.ClassDef]],
    ) -> Iterator[Violation]:
        if not any(
            _inplace_mutations(stmt, checkpointed) for stmt in ast.walk(func)
            if isinstance(stmt, ast.stmt)
        ):
            return
        cfg = build_cfg(func)
        # Per block: mutation sites and raising statements, by index.
        mutations: dict[int, list[tuple[int, _Store]]] = {}
        raise_marks: dict[int, list[tuple[int, int]]] = {}
        for block in cfg.blocks.values():
            stmts = block_statements(block)
            for index, stmt in enumerate(stmts):
                for store in _inplace_mutations(stmt, checkpointed):
                    mutations.setdefault(block.block_id, []).append(
                        (index, store)
                    )
                raise_line = self._stmt_raise_line(
                    stmt, owner, graph, raisers, attr_types
                )
                if raise_line is not None:
                    raise_marks.setdefault(block.block_id, []).append(
                        (index, raise_line)
                    )
        if not mutations:
            return
        reported: set[tuple[str, int]] = set()
        for block_id, sites in sorted(mutations.items()):
            for index, store in sites:
                raise_line = self._reachable_raise(
                    cfg, block_id, index, raise_marks
                )
                if raise_line is None:
                    continue
                key = (store.attr, store.lineno)
                if key in reported:
                    continue
                reported.add(key)
                yield Violation(
                    module.relpath, store.lineno, store.col, self.rule_id,
                    f"'{cls_node.name}.{store.attr}' is checkpoint state "
                    f"(named in state_dict) but {func.name}() mutates it "
                    f"in place at line {store.lineno} with a raise "
                    f"reachable afterwards (line {raise_line}); "
                    f"clone-before-commit so a failed call cannot "
                    f"corrupt the next checkpoint",
                )

    def _stmt_raise_line(
        self,
        stmt: ast.stmt,
        owner: FunctionNode | None,
        graph: ProjectGraph,
        raisers: frozenset[str],
        attr_types: dict[str, list[ast.ClassDef]],
    ) -> int | None:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return node.lineno
            if not isinstance(node, ast.Call):
                continue
            if (
                owner is not None
                and resolve_call_target(graph, owner, node) in raisers
            ):
                return node.lineno
            # ``self.X.method(...)`` through the constructor-derived
            # type(s) of ``self.X``.
            func = node.func
            if isinstance(func, ast.Attribute):
                attr = _self_attr(func.value)
                if attr is not None:
                    for candidate in attr_types.get(attr, ()):
                        resolved = graph.resolve_method(candidate, func.attr)
                        if (
                            resolved is not None
                            and resolved.qualname in raisers
                        ):
                            return node.lineno
        return None

    def _reachable_raise(
        self,
        cfg,
        block_id: int,
        index: int,
        raise_marks: dict[int, list[tuple[int, int]]],
    ) -> int | None:
        # Same block, later statement.
        for mark_index, line in raise_marks.get(block_id, ()):
            if mark_index > index:
                return line
        # Any transitively reachable block with a raising statement.
        seen = {block_id}
        stack = list(cfg.blocks[block_id].successors)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            marks = raise_marks.get(current)
            if marks:
                return marks[0][1]
            stack.extend(cfg.blocks[current].successors)
        return None


# ----------------------------------------------------------------------
# DML019 — compressed-column streaming inside chunk loops
# ----------------------------------------------------------------------

#: Calls that inflate a full compressed column into memory at once.
DECODING_METHODS = frozenset({"decode", "inflate", "to_array"})


@register
class CompressedColumnStreaming(Rule):
    """Chunk loops must not re-inflate whole compressed columns."""

    rule_id = "DML019"
    title = "no full-column decode inside chunk loops"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        # The storage engine's own loops decode per-chunk blobs by
        # construction (that *is* the streaming read path).
        if _analysis_exempt(module.relpath, ("storage",)):
            return
        seen: set[tuple[int, int]] = set()
        for func in _functions_in(module):
            for loop in _chunk_loops(func):
                iter_name = loop.iter.func.attr  # type: ignore[union-attr]
                loop_vars = frozenset(_flat_target_names(loop.target))
                for node in _nodes_excluding_defs(loop.body):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in DECODING_METHODS
                    ):
                        continue
                    # Decoding something the loop itself yielded —
                    # as the receiver or as an argument — is per-chunk
                    # work, not a repeated full-column pass.
                    sources = [node.func.value, *node.args]
                    sources += [kw.value for kw in node.keywords]
                    if any(
                        _base_name(src) in loop_vars for src in sources
                    ):
                        continue
                    site = (node.lineno, node.col_offset)
                    if site in seen:
                        continue
                    seen.add(site)
                    yield Violation(
                        module.relpath, node.lineno, node.col_offset,
                        self.rule_id,
                        f"{node.func.attr}() inside a {iter_name}() loop "
                        f"re-inflates a full compressed column every "
                        f"iteration; hoist the decode before the loop or "
                        f"read through the block's streaming path (cold "
                        f"blocks already decode chunk-at-a-time)",
                    )
