"""demonlint core: violations, the rule registry, and the project model.

demonlint is a whole-program AST linter for the DEMON reproduction.  It
parses every file under the given paths once, builds a light project
index (imports per module, classes with bases/decorators/method
signatures across all modules), and then runs each registered rule over
each module.  Rules are small classes registered with :func:`register`;
each yields :class:`Violation` records that the driver filters through
the per-file :class:`~tools.demonlint.suppressions.SuppressionIndex`.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from tools.demonlint.suppressions import SuppressionIndex

#: Pseudo-rule id used for files that fail to parse.
PARSE_ERROR = "DML000"


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: ``path:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass
class FunctionInfo:
    """Signature summary of one ``def`` as it appears in a class body."""

    name: str
    lineno: int
    params: list[str]
    defaults_count: int
    has_vararg: bool
    has_kwarg: bool
    is_abstract: bool
    is_static: bool

    @property
    def required_params(self) -> tuple[str, ...]:
        """Positional parameters without defaults, in order."""
        cut = len(self.params) - self.defaults_count
        return tuple(self.params[:cut])


@dataclass
class ClassInfo:
    """One class definition as seen by the linter."""

    name: str
    relpath: str
    lineno: int
    col: int
    bases: list[str]
    decorators: list[str]
    methods: dict[str, FunctionInfo]


@dataclass
class ModuleInfo:
    """One parsed source file plus its per-file lookup tables."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    imports: dict[str, str]
    classes: list[ClassInfo] = field(default_factory=list)

    def resolve_call(self, func: ast.expr) -> str | None:
        """Best-effort dotted name of a call target, import-resolved.

        ``time.perf_counter`` with ``import time`` resolves to
        ``"time.perf_counter"``; ``pc`` with ``from time import
        perf_counter as pc`` resolves the same way.  Returns ``None``
        for targets that are not simple name/attribute chains.
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class Project:
    """All modules of one lint run plus the cross-module class table."""

    modules: list[ModuleInfo]
    classes_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    _graph: object = field(default=None, repr=False, compare=False)

    def index(self) -> None:
        self.classes_by_name = {}
        for module in self.modules:
            for info in module.classes:
                self.classes_by_name.setdefault(info.name, []).append(info)

    def graph(self):
        """The whole-program symbol table / call graph, built on demand."""
        if self._graph is None:
            from tools.demonlint.graph import ProjectGraph

            self._graph = ProjectGraph.build(self)
        return self._graph


class Rule(ABC):
    """Base class for demonlint rules.

    Subclasses set ``rule_id`` / ``title`` and implement :meth:`check`,
    yielding violations for one module at a time (the whole
    :class:`Project` is available for cross-module lookups).
    """

    rule_id: str = ""
    title: str = ""

    @abstractmethod
    def check(self, module: ModuleInfo, project: Project) -> Iterator[Violation]:
        """Yield violations found in ``module``."""


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def registered_rules() -> dict[str, type[Rule]]:
    """The registry, keyed by rule id (import side effect fills it)."""
    import tools.demonlint.effect_rules  # noqa: F401  (registers on import)
    import tools.demonlint.flow_rules  # noqa: F401  (registers on import)
    import tools.demonlint.rules  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


# ----------------------------------------------------------------------
# Project construction
# ----------------------------------------------------------------------


def _dotted_name(node: ast.expr) -> str:
    """Render a decorator/base expression as a dotted name (best effort)."""
    if isinstance(node, ast.Subscript):  # Base[TModel, T] -> Base
        return _dotted_name(node.value)
    if isinstance(node, ast.Call):  # @decorator(...) -> decorator
        return _dotted_name(node.func)
    if isinstance(node, ast.Attribute):
        return f"{_dotted_name(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a`` in the namespace.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


def _function_info(node: ast.FunctionDef | ast.AsyncFunctionDef) -> FunctionInfo:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args]
    decorators = {_dotted_name(d).split(".")[-1] for d in node.decorator_list}
    return FunctionInfo(
        name=node.name,
        lineno=node.lineno,
        params=params,
        defaults_count=len(args.defaults),
        has_vararg=args.vararg is not None,
        has_kwarg=args.kwarg is not None,
        is_abstract="abstractmethod" in decorators,
        is_static="staticmethod" in decorators,
    )


def _collect_classes(module: ModuleInfo) -> list[ClassInfo]:
    found: list[ClassInfo] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: _function_info(item)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        found.append(
            ClassInfo(
                name=node.name,
                relpath=module.relpath,
                lineno=node.lineno,
                col=node.col_offset,
                bases=[_dotted_name(b) for b in node.bases],
                decorators=[_dotted_name(d) for d in node.decorator_list],
                methods=methods,
            )
        )
    return found


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand the given files/directories into a sorted list of .py files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.parts
                if "__pycache__" in parts or any(p.startswith(".") for p in parts):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def parse_module(path: Path, root: Path | None = None) -> ModuleInfo | Violation:
    """Parse one file; on a syntax error return a DML000 violation."""
    relpath = str(path)
    if root is not None:
        try:
            relpath = str(path.relative_to(root))
        except ValueError:
            relpath = str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Violation(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR,
            message=f"syntax error: {exc.msg}",
        )
    module = ModuleInfo(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=SuppressionIndex.from_source(source),
        imports=_collect_imports(tree),
    )
    module.classes = _collect_classes(module)
    return module


@dataclass
class LintResult:
    """Outcome of one demonlint run."""

    violations: list[Violation]
    suppressed: list[Violation]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _parse_all(
    files: list[Path],
    root: Path | None,
    cache: "object | None",
    sources: dict[Path, bytes],
) -> list[ModuleInfo | Violation]:
    """Parse every file, loading unchanged ones from the per-file cache."""
    def _rel(path: Path) -> str:
        if root is None:
            return str(path)
        try:
            return str(path.relative_to(root))
        except ValueError:
            return str(path)

    parsed: list[ModuleInfo | Violation] = []
    for path in files:
        key = None
        if cache is not None:
            key = cache.module_key(sources[path], _rel(path))
            cached = cache.load_module(key)
            if cached is not None:
                parsed.append(cached)
                continue
        module = parse_module(path, root=root)
        if key is not None:
            cache.store_module(key, module)
        parsed.append(module)
    return parsed


def run(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    respect_suppressions: bool = True,
    root: Path | None = None,
    cache: "object | None" = None,
) -> LintResult:
    """Lint ``paths`` and return all (kept and suppressed) violations.

    Args:
        paths: Files or directories to analyze.
        select: If given, only run rules whose id is in this set.
        ignore: Rule ids to skip entirely.
        respect_suppressions: When False, report even suppressed findings.
        root: Paths are reported relative to this directory (defaults to
            the current working directory when files live under it).
        cache: Optional :class:`~tools.demonlint.cache.AnalysisCache`;
            unchanged files skip parsing and an unchanged tree skips
            the whole run.
    """
    if root is None:
        root = Path.cwd()
    rules = registered_rules()
    selected = {r.upper() for r in select} if select else None
    ignored = {r.upper() for r in ignore} if ignore else set()
    active = [
        cls()
        for rule_id, cls in rules.items()
        if (selected is None or rule_id in selected) and rule_id not in ignored
    ]

    files = collect_files(paths)
    sources = {path: path.read_bytes() for path in files}

    run_key: str | None = None
    if cache is not None:
        from tools.demonlint.cache import file_digest

        relpaths = []
        for path in files:
            try:
                rel = str(path.relative_to(root))
            except ValueError:
                rel = str(path)
            relpaths.append(rel)
        run_key = cache.run_key(
            [
                (rel, file_digest(sources[path]))
                for rel, path in zip(relpaths, files)
            ],
            [rule.rule_id for rule in active],
            respect_suppressions,
        )
        hit = cache.load_result(run_key)
        if hit is not None:
            return hit

    modules: list[ModuleInfo] = []
    violations: list[Violation] = []
    for parsed in _parse_all(files, root, cache, sources):
        if isinstance(parsed, Violation):
            violations.append(parsed)
        else:
            modules.append(parsed)

    project = Project(modules=modules)
    project.index()

    kept: list[Violation] = list(violations)
    suppressed: list[Violation] = []
    for module in modules:
        for rule in active:
            for violation in rule.check(module, project):
                if respect_suppressions and module.suppressions.is_suppressed(
                    violation.rule_id, violation.line
                ):
                    suppressed.append(violation)
                else:
                    kept.append(violation)
    # Explicit (path, line, rule) ordering: the report does not depend
    # on which rule found what first.
    order = lambda v: (v.path, v.line, v.rule_id, v.col, v.message)  # noqa: E731
    result = LintResult(
        violations=sorted(set(kept), key=order),
        suppressed=sorted(set(suppressed), key=order),
        files_checked=len(modules),
    )
    if cache is not None and run_key is not None:
        cache.store_result(run_key, result)
    return result
