"""The per-file demonlint rule set (DML001–DML007, DML013).

Each rule encodes one maintainer contract the DEMON paper states in
prose; ``docs/STATIC_ANALYSIS.md`` carries the section references and
the rationale in full.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.demonlint.core import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    Rule,
    Violation,
    register,
)

# ----------------------------------------------------------------------
# DML001 — maintainer interface completeness
# ----------------------------------------------------------------------

#: The abstract roots of the maintainer hierarchy (repro.core.maintainer).
MAINTAINER_ROOTS = {"IncrementalModelMaintainer", "DeletableModelMaintainer"}

#: Bases/metaclasses that mark a class as intentionally abstract.
ABSTRACT_MARKERS = {"ABC", "ABCMeta", "Protocol"}

#: ``A_M`` operations every concrete maintainer must provide, with the
#: paper-matching parameter names (``self`` implied).
REQUIRED_METHODS: dict[str, tuple[str, ...]] = {
    "empty_model": (),
    "build": ("blocks",),
    "add_block": ("model", "block"),
    "clone": ("model",),
}

#: Checked only when present / when the class claims deletability.
DELETABLE_METHODS: dict[str, tuple[str, ...]] = {
    "delete_block": ("model", "block"),
}


def _bare(name: str) -> str:
    return name.split(".")[-1]


def _reaches_root(
    info: ClassInfo, project: Project, roots: set[str], seen: set[int]
) -> bool:
    if id(info) in seen:
        return False
    seen.add(id(info))
    for base in info.bases:
        bare = _bare(base)
        if bare in roots:
            return True
        for parent in project.classes_by_name.get(bare, []):
            if _reaches_root(parent, project, roots, seen):
                return True
    return False


def _is_abstract(info: ClassInfo) -> bool:
    if any(_bare(b) in ABSTRACT_MARKERS for b in info.bases):
        return True
    return any(m.is_abstract for m in info.methods.values())


def _has_contract_anchor(info: ClassInfo) -> bool:
    return any(_bare(d) == "maintainer_contract" for d in info.decorators)


def _resolve_method(
    info: ClassInfo, name: str, project: Project, seen: set[int]
) -> FunctionInfo | None:
    """MRO-ish lookup of ``name`` through the statically known bases."""
    if id(info) in seen:
        return None
    seen.add(id(info))
    own = info.methods.get(name)
    if own is not None and not own.is_abstract:
        return own
    for base in info.bases:
        for parent in project.classes_by_name.get(_bare(base), []):
            found = _resolve_method(parent, name, project, seen)
            if found is not None:
                return found
    return None


def _signature_problem(fn: FunctionInfo, expected: tuple[str, ...]) -> str | None:
    params = fn.params if fn.is_static else fn.params[1:]
    defaults = fn.defaults_count
    required = tuple(params[: len(params) - defaults] if defaults else params)
    if required != expected:
        want = ", ".join(("self",) + expected)
        got = ", ".join(fn.params)
        return f"expected signature ({want}), got ({got})"
    return None


@register
class MaintainerInterfaceRule(Rule):
    """DML001: concrete ``A_M`` classes implement the paper's interface.

    GEMM (§3.2) requires exactly ``A_M(D, φ)`` (build), ``A_M(m, Dj)``
    (add_block), plus ``empty_model`` and ``clone`` for its bookkeeping.
    A concrete maintainer — any class reaching the abstract roots, or
    carrying the ``@maintainer_contract`` anchor — must implement all
    four with the canonical parameter names; deletable maintainers
    (§3.2.4) additionally implement ``delete_block``.
    """

    rule_id = "DML001"
    title = "incomplete or mis-signed IncrementalModelMaintainer subclass"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        for info in module.classes:
            anchored = _has_contract_anchor(info)
            inherits = _reaches_root(info, project, MAINTAINER_ROOTS, set())
            if not (anchored or inherits):
                continue
            if _is_abstract(info):
                continue
            requirements = dict(REQUIRED_METHODS)
            if _reaches_root(info, project, {"DeletableModelMaintainer"}, set()):
                requirements.update(DELETABLE_METHODS)
            for name, expected in requirements.items():
                fn = _resolve_method(info, name, project, set())
                if fn is None:
                    yield Violation(
                        path=module.relpath,
                        line=info.lineno,
                        col=info.col,
                        rule_id=self.rule_id,
                        message=(
                            f"maintainer {info.name} does not implement "
                            f"{name}() required by the A_M contract"
                        ),
                    )
                    continue
                problem = _signature_problem(fn, expected)
                if problem is not None:
                    line = fn.lineno if fn.name in info.methods else info.lineno
                    yield Violation(
                        path=module.relpath,
                        line=line,
                        col=info.col,
                        rule_id=self.rule_id,
                        message=f"{info.name}.{name}: {problem}",
                    )
            for name, expected in DELETABLE_METHODS.items():
                fn = info.methods.get(name)
                if fn is not None and name not in requirements:
                    problem = _signature_problem(fn, expected)
                    if problem is not None:
                        yield Violation(
                            path=module.relpath,
                            line=fn.lineno,
                            col=info.col,
                            rule_id=self.rule_id,
                            message=f"{info.name}.{name}: {problem}",
                        )


# ----------------------------------------------------------------------
# DML002 — clone-before-mutate discipline around add_block
# ----------------------------------------------------------------------

#: Methods that may mutate the model passed as their first argument.
CONSUMING_METHODS = {"add_block", "delete_block"}


def _consuming_call(node: ast.Call) -> str | None:
    """The consumed variable name, for ``*.add_block(name, ...)`` calls."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name not in CONSUMING_METHODS:
        return None
    if node.args and isinstance(node.args[0], ast.Name):
        return node.args[0].id
    return None


class _StatementFacts:
    """Reads, writes, and model consumptions inside one statement."""

    def __init__(self, nodes: list[ast.AST]):
        self.reads: list[ast.Name] = []
        self.writes: list[str] = []
        self.consumes: list[tuple[str, int]] = []
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        self.reads.append(node)
                    else:
                        self.writes.append(node.id)
                elif isinstance(node, ast.Call):
                    consumed = _consuming_call(node)
                    if consumed is not None:
                        self.consumes.append((consumed, node.lineno))


class _CloneBeforeMutate:
    """Linear abstract interpretation of one function body.

    Tracks which local names were passed to ``add_block``/``delete_block``
    (and therefore potentially mutated/retired); a later read of such a
    name is flagged unless the name was re-bound first.  Branches fork
    the consumed set and re-merge with a union; loop bodies are walked
    twice so loop-carried consumption (``add_block(m, b)`` without
    re-binding ``m``) is caught on the second pass.
    """

    def __init__(self, module: ModuleInfo, rule_id: str):
        self.module = module
        self.rule_id = rule_id
        self.violations: dict[tuple[int, int, str], Violation] = {}

    def check_function(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not any(
            isinstance(node, ast.Call) and _consuming_call(node) is not None
            for node in ast.walk(fn)
        ):
            return
        self._walk_body(fn.body, {})

    # -- statement dispatch --------------------------------------------

    def _walk_body(self, body: list[ast.stmt], consumed: dict[str, int]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, consumed)

    def _walk_stmt(self, stmt: ast.stmt, consumed: dict[str, int]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are checked as their own scope
        if isinstance(stmt, ast.If):
            self._apply([stmt.test], consumed)
            self._fork(stmt.body, stmt.orelse, consumed)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._apply([stmt.iter], consumed)
            for _ in range(2):  # second pass models the next iteration
                self._apply([stmt.target], consumed)
                self._walk_body(stmt.body, consumed)
            self._walk_body(stmt.orelse, consumed)
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                self._apply([stmt.test], consumed)
                self._walk_body(stmt.body, consumed)
            self._walk_body(stmt.orelse, consumed)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._apply(
                [item.context_expr for item in stmt.items]
                + [item.optional_vars for item in stmt.items if item.optional_vars],
                consumed,
            )
            self._walk_body(stmt.body, consumed)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, consumed)
            for handler in stmt.handlers:
                branch = dict(consumed)
                self._walk_body(handler.body, branch)
                consumed.update(branch)
            self._walk_body(stmt.orelse, consumed)
            self._walk_body(stmt.finalbody, consumed)
        else:
            self._apply([stmt], consumed)

    def _fork(
        self,
        body: list[ast.stmt],
        orelse: list[ast.stmt],
        consumed: dict[str, int],
    ) -> None:
        outcomes: list[dict[str, int]] = []
        for branch in (body, orelse):
            state = dict(consumed)
            self._walk_body(branch, state)
            outcomes.append(state)
        consumed.clear()
        for state in outcomes:  # union: consumed in either branch stays consumed
            consumed.update(state)

    # -- the core transfer function ------------------------------------

    def _apply(self, nodes: list[ast.AST], consumed: dict[str, int]) -> None:
        facts = _StatementFacts(nodes)
        for name_node in facts.reads:
            origin = consumed.get(name_node.id)
            if origin is not None:
                key = (name_node.lineno, name_node.col_offset, name_node.id)
                self.violations[key] = Violation(
                    path=self.module.relpath,
                    line=name_node.lineno,
                    col=name_node.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"model '{name_node.id}' may have been mutated by "
                        f"add_block at line {origin}; clone() before the "
                        f"update or re-bind the name (GEMM §3.2 keeps "
                        f"divergent copies alive)"
                    ),
                )
        for name, lineno in facts.consumes:
            consumed[name] = lineno
        for name in facts.writes:
            consumed.pop(name, None)


@register
class CloneBeforeMutateRule(Rule):
    """DML002: a model passed to ``add_block`` is dead until re-bound.

    ``A_M(m, Dj)`` may mutate ``m`` in place (maintainer.py contract);
    GEMM therefore clones any in-memory model feeding several slots
    before updating one of them.  Reading a name after it was passed to
    ``add_block``/``delete_block`` — without re-binding it to the call
    result or a fresh ``clone`` — aliases a possibly-mutated model.
    """

    rule_id = "DML002"
    title = "model reference read after being consumed by add_block"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        checker = _CloneBeforeMutate(module, self.rule_id)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checker.check_function(node)
        yield from checker.violations.values()


# ----------------------------------------------------------------------
# DML003 — BSS constructors take strict 0/1 bit literals
# ----------------------------------------------------------------------

BSS_CLASSES = {"WindowIndependentBSS", "WindowRelativeBSS"}


def _is_bss_constructor(module: ModuleInfo, node: ast.Call) -> str | None:
    resolved = module.resolve_call(node.func)
    if resolved is None:
        return None
    bare = resolved.split(".")[-1]
    return bare if bare in BSS_CLASSES else None


def _bad_bit(node: ast.expr) -> bool:
    """Whether a literal element is not a plain int 0 or 1."""
    if not isinstance(node, ast.Constant):
        return False  # dynamic values are the runtime validator's job
    value = node.value
    if isinstance(value, bool) or not isinstance(value, int):
        return True
    return value not in (0, 1)


@register
class StrictBitVectorRule(Rule):
    """DML003: BSS literals must be strict 0/1 bit vectors (§2.3).

    Definition 2.1 defines a block selection sequence as a bit sequence;
    bools, floats, and characters all coerce somewhere downstream of the
    projection/right-shift arithmetic and silently change which blocks a
    model is extracted from.  Literal arguments to the BSS constructors
    must therefore spell plain ints 0/1.
    """

    rule_id = "DML003"
    title = "non-bit literal passed to a BSS constructor"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            cls = _is_bss_constructor(module, node)
            if cls is None:
                continue
            bits_args: list[ast.expr] = []
            if node.args:
                bits_args.append(node.args[0])
            for kw in node.keywords:
                if kw.arg == "bits":
                    bits_args.append(kw.value)
                elif kw.arg == "default" and _bad_bit(kw.value):
                    yield Violation(
                        path=module.relpath,
                        line=kw.value.lineno,
                        col=kw.value.col_offset,
                        rule_id=self.rule_id,
                        message=f"{cls} default bit must be the int 0 or 1",
                    )
            for arg in bits_args:
                yield from self._check_bits(module, cls, arg)

    def _check_bits(
        self, module: ModuleInfo, cls: str, arg: ast.expr
    ) -> Iterator[Violation]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield Violation(
                path=module.relpath,
                line=arg.lineno,
                col=arg.col_offset,
                rule_id=self.rule_id,
                message=(
                    f"{cls} bits must be an iterable of ints 0/1, "
                    f"not a string literal"
                ),
            )
            return
        if not isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
            return
        for element in arg.elts:
            if _bad_bit(element):
                rendered = ast.unparse(element)
                yield Violation(
                    path=module.relpath,
                    line=element.lineno,
                    col=element.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"{cls} bits must be the ints 0 or 1, got {rendered} "
                        f"(bools/floats silently coerce, §2.3)"
                    ),
                )


# ----------------------------------------------------------------------
# DML004 — wall-clock calls only in the sanctioned timing modules
# ----------------------------------------------------------------------

WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Path suffixes (files) and directory names where wall-clock access is
#: sanctioned: the I/O-and-timing accounting module that owns the
#: ``Stopwatch`` all report plumbing goes through, and the benchmark
#: harnesses themselves.
ALLOWED_FILE_SUFFIXES = ("storage/iostats.py",)
ALLOWED_DIR_NAMES = ("benchmarks",)


def _wall_clock_allowed(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    if any(normalized.endswith(suffix) for suffix in ALLOWED_FILE_SUFFIXES):
        return True
    parts = normalized.split("/")
    return any(part in ALLOWED_DIR_NAMES for part in parts[:-1])


@register
class WallClockRule(Rule):
    """DML004: no ad-hoc wall-clock reads outside the metering layer.

    Algorithm 3.1 splits every window slide into the response-time
    critical update and off-line work; that split is only measurable if
    all timing flows through the instrumented report plumbing
    (``Stopwatch`` in ``storage/iostats.py``).  Stray ``time.time()``
    calls in maintainers skew the critical/off-line accounting that
    Figures 4–7 and the GEMM response-time experiments rely on.
    """

    rule_id = "DML004"
    title = "wall-clock call outside the sanctioned timing modules"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _wall_clock_allowed(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve_call(node.func)
            if resolved in WALL_CLOCK_CALLS:
                yield Violation(
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"{resolved}() outside storage/iostats.py or "
                        f"benchmarks/; time spans must go through "
                        f"repro.storage.iostats.Stopwatch so the "
                        f"critical-path/off-line split (§3.2.3) stays honest"
                    ),
                )


# ----------------------------------------------------------------------
# DML005 — general Python hygiene for an incremental-mining codebase
# ----------------------------------------------------------------------

MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_FACTORIES = {"list", "dict", "set", "defaultdict", "Counter", "OrderedDict"}
DICT_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "add", "discard", "remove"}
DICT_VIEWS = {"items", "keys", "values"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = node.func
        bare = name.attr if isinstance(name, ast.Attribute) else (
            name.id if isinstance(name, ast.Name) else ""
        )
        return bare in MUTABLE_FACTORIES
    return False


def _iter_target_expr(node: ast.expr) -> ast.expr | None:
    """The container a ``for`` loop iterates, for ``d`` or ``d.items()``."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in DICT_VIEWS
        and not node.args
    ):
        return node.func.value
    return None


def _expr_key(node: ast.expr) -> str | None:
    """Stable key for simple name/attribute chains (else None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _expr_key(node.value)
        return f"{inner}.{node.attr}" if inner is not None else None
    return None


@register
class HygieneRule(Rule):
    """DML005: mutable defaults, iteration-time mutation, bare except.

    Incremental maintainers are long-lived objects; a mutable default
    silently shares state between every model they ever touch, mutating
    a dict while iterating it corrupts the very count tables the border
    invariants depend on, and a bare ``except:`` swallows the
    ContractViolation errors the runtime contracts raise.
    """

    rule_id = "DML005"
    title = "mutable default / dict mutated during iteration / bare except"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(module, node)
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Violation(
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    message="bare 'except:' — name the exceptions to catch",
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop_mutation(module, node)

    def _check_defaults(
        self, module: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield Violation(
                    path=module.relpath,
                    line=default.lineno,
                    col=default.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        f"mutable default argument in {fn.name}() — "
                        f"use None and construct inside the function"
                    ),
                )

    def _check_loop_mutation(
        self, module: ModuleInfo, loop: ast.For | ast.AsyncFor
    ) -> Iterator[Violation]:
        container = _iter_target_expr(loop.iter)
        if container is None:
            return
        key = _expr_key(container)
        if key is None:
            return
        for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
            offender: ast.AST | None = None
            if isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if _expr_key(node.value) == key:
                    offender = node
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DICT_MUTATORS
                and _expr_key(node.func.value) == key
            ):
                offender = node
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and _expr_key(target.value) == key
                    ):
                        offender = target
            if offender is not None:
                yield Violation(
                    path=module.relpath,
                    line=getattr(offender, "lineno", loop.lineno),
                    col=getattr(offender, "col_offset", loop.col_offset),
                    rule_id=self.rule_id,
                    message=(
                        f"'{key}' is mutated while being iterated — "
                        f"iterate over list({key}) or collect changes first"
                    ),
                )


# ----------------------------------------------------------------------
# DML006 — TID-list intersections go through the kernel module
# ----------------------------------------------------------------------

#: The one module allowed to reference ``np.intersect1d``: the kernel
#: module that replaces it (its docstring cites the function it beats).
INTERSECT_ALLOWED_SUFFIXES = ("itemsets/kernels.py",)


def _intersect_allowed(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(normalized.endswith(s) for s in INTERSECT_ALLOWED_SUFFIXES)


@register
class IntersectKernelRule(Rule):
    """DML006: no raw ``np.intersect1d`` outside ``itemsets/kernels.py``.

    Every ECUT/ECUT+ intersection runs on *already sorted, duplicate
    free* TID arrays; ``np.intersect1d`` re-sorts its inputs on every
    call and cannot use the bitmap representation at all.  The adaptive
    kernels in ``repro.itemsets.kernels`` (galloping search, linear
    merge, bitmap AND) exist precisely to replace it, so any other use
    in ``src/repro`` silently bypasses kernel dispatch and the
    benchmarks' ablation story.
    """

    rule_id = "DML006"
    title = "np.intersect1d outside the intersection-kernel module"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _intersect_allowed(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve_call(node.func)
            if resolved == "numpy.intersect1d":
                yield Violation(
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=self.rule_id,
                    message=(
                        "np.intersect1d re-sorts its already-sorted inputs; "
                        "use repro.itemsets.kernels (intersect_pair / "
                        "intersect_many) so the adaptive "
                        "gallop/merge/bitmap dispatch stays in one place"
                    ),
                )


# ----------------------------------------------------------------------
# DML007 — timed spans go through the telemetry spine
# ----------------------------------------------------------------------

#: Fully-qualified names whose *construction* starts a raw timing span.
STOPWATCH_CONSTRUCTORS = {
    "Stopwatch",
    "repro.storage.iostats.Stopwatch",
}

#: Raw clock reads that bypass the spine the same way.
RAW_SPAN_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
}

#: Directory names where raw span timing stays sanctioned: the storage
#: layer (which owns ``Stopwatch`` and builds ``Telemetry`` on it) and
#: the benchmark harnesses.
SPAN_ALLOWED_DIR_NAMES = ("storage", "benchmarks")


def _raw_span_allowed(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    return any(part in SPAN_ALLOWED_DIR_NAMES for part in normalized.split("/")[:-1])


@register
class TelemetrySpineRule(Rule):
    """DML007: timed spans outside ``repro/storage/`` use the spine.

    Every subsystem phase (``borders.detection``, ``gemm.critical``,
    ``birch.phase1``, ...) reports into one :class:`Telemetry` spine so
    a :class:`MiningSession` can rebind components onto a shared
    instance and surface their cost through ``MonitorReport.telemetry``
    and the ``--json`` emitters.  Constructing a raw ``Stopwatch`` (or
    reading ``time.perf_counter`` directly) outside ``repro/storage/``
    creates a span that spine never sees — time it with
    ``telemetry.phase(name)`` instead.
    """

    rule_id = "DML007"
    title = "raw Stopwatch/perf_counter span outside the storage layer"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _raw_span_allowed(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve_call(node.func)
            if resolved in STOPWATCH_CONSTRUCTORS:
                detail = (
                    f"{resolved}() constructs a raw timing span invisible "
                    f"to the telemetry spine"
                )
            elif resolved in RAW_SPAN_CALLS:
                detail = f"{resolved}() reads the clock behind the spine's back"
            else:
                continue
            yield Violation(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message=(
                    f"{detail}; outside repro/storage/ time phases with "
                    f"repro.storage.telemetry.Telemetry.phase(...) so "
                    f"sessions can aggregate them"
                ),
            )


# ----------------------------------------------------------------------
# DML013 — raw record-list access stays behind the storage boundary
# ----------------------------------------------------------------------

#: Attribute names that expose a block's raw record list eagerly.
RAW_RECORD_ATTRS = {"tuples", "records"}

#: Directory names whose modules own record storage and may touch raw
#: record lists: the backend layer itself and the data generators that
#: produce records in the first place.
RAW_RECORD_ALLOWED_DIR_NAMES = ("storage", "datagen")


def _raw_records_allowed(relpath: str) -> bool:
    normalized = relpath.replace("\\", "/")
    dirs = normalized.split("/")[:-1]
    if any(part in RAW_RECORD_ALLOWED_DIR_NAMES for part in dirs):
        return True
    # Tests and examples may assert on materialized records, but the
    # deliberately-bad lint fixtures must still fire.
    if "fixtures" in dirs:
        return False
    return "tests" in dirs or "examples" in dirs


@register
class RawRecordAccessRule(Rule):
    """DML013: no ``.tuples`` / ``.records`` outside storage and datagen.

    The block backends (:mod:`repro.storage.engine`) exist so a dataset
    never has to fit in RAM: every consumer streams records through
    ``Block.iter_chunks()`` / ``Block.iter_records()`` and reads counts
    from ``Block.num_records``.  An eager ``.tuples`` (or ``.records``)
    read materializes the whole block regardless of backend, silently
    re-introducing the O(block) resident footprint the mmap backend was
    built to avoid — and it bypasses the chunk-read byte accounting the
    backend-equivalence suite asserts.  Only the storage layer itself
    and the data generators may touch raw record lists.
    """

    rule_id = "DML013"
    title = "raw record-list access outside storage/ and datagen/"

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        if _raw_records_allowed(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if node.attr not in RAW_RECORD_ATTRS:
                continue
            yield Violation(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                message=(
                    f".{node.attr} materializes the whole record list "
                    f"regardless of block backend; stream with "
                    f"Block.iter_chunks()/iter_records() (or read "
                    f"Block.num_records for counts) so blocks larger "
                    f"than memory stay out of RAM"
                ),
            )
