"""Runtime maintainer contracts — the dynamic half of demonlint.

The DEMON paper states the ``A_M`` conventions in prose: ``add_block``
may mutate its model so callers that still need the old model must
``clone`` first (GEMM §3.2 keeps ``w`` divergent copies of one model
alive), and every maintainer exposes exactly the four operations GEMM
is parameterized by.  ``tools/demonlint`` proves those contracts hold
statically (rules DML001/DML002); this module makes them fail fast at
run time too:

* :func:`maintainer_contract` — class decorator validating, at class
  creation, that the four ``A_M`` operations exist with the canonical
  signatures.  It also marks the class so demonlint recognizes
  structural maintainers that do not inherit from
  :class:`~repro.core.maintainer.IncrementalModelMaintainer`.
* :func:`pure_unless_cloned` — method decorator for
  ``add_block``/``delete_block``.  When contracts are *armed* (tests
  arm them; production leaves them disarmed for zero overhead) it
  tracks models whose identity was retired by a mutating update and
  raises :class:`ContractViolation` if such a stale model is fed back
  in without an intervening ``clone``.

Arm with :func:`arm` (the test suite does this in ``conftest.py``) or
by setting ``REPRO_CONTRACTS=1`` in the environment before import.
"""

from __future__ import annotations

import copy
import functools
import inspect
import os
import pickle
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any, TypeVar, overload


class ContractViolation(TypeError):
    """A maintainer broke one of the paper's ``A_M`` conventions."""


class SanitizerViolation(RuntimeError):
    """A runtime sanitizer caught a lifecycle/atomicity bug.

    Each sanitizer is the dynamic twin of a demonlint flow rule: chunk
    views poisoned after ``backend.close()`` correspond to DML014/015,
    :func:`worker_entry` payload pickling to DML017, and
    :func:`exception_atomic` checkpoint comparison to DML018.  The
    agreement suite asserts the static and dynamic verdicts line up on
    the same fixtures.
    """


_ARMED: bool = os.environ.get("REPRO_CONTRACTS", "") not in ("", "0", "false")


def arm() -> None:
    """Enable the runtime checks (cheap identity bookkeeping per call)."""
    global _ARMED
    _ARMED = True


def disarm() -> None:
    """Disable the runtime checks (the production default)."""
    global _ARMED
    _ARMED = False


def contracts_armed() -> bool:
    """Whether :func:`pure_unless_cloned` guards are currently active."""
    return _ARMED


_SANITIZERS: bool = os.environ.get("REPRO_SANITIZERS", "") not in (
    "", "0", "false",
)


def arm_sanitizers() -> None:
    """Enable the runtime sanitizers (chunk-view poisoning, worker
    payload pickling, checkpoint atomicity snapshots).

    Unlike :func:`arm`, sanitizers are not free when idle: armed
    backends wrap every yielded chunk and :func:`exception_atomic`
    deep-copies checkpoints, so they are meant for tests and debugging
    sessions, not production loops.
    """
    global _SANITIZERS
    _SANITIZERS = True


def disarm_sanitizers() -> None:
    """Disable the runtime sanitizers (the production default)."""
    global _SANITIZERS
    _SANITIZERS = False


def sanitizers_armed() -> bool:
    """Whether the runtime sanitizers are currently active."""
    return _SANITIZERS


@contextmanager
def exception_atomic(obj: Any, label: str | None = None) -> Iterator[Any]:
    """Assert ``obj``'s checkpointed state survives a failing body.

    The dynamic twin of demonlint DML018: on entry (armed only) the
    object's ``state_dict()`` is deep-copied; if the body raises and
    the live ``state_dict()`` no longer matches the snapshot, the
    original exception is chained into a :class:`SanitizerViolation` —
    the failed operation corrupted state the next checkpoint would
    persist.  Disarmed, the body runs bare.
    """
    if not _SANITIZERS:
        yield obj
        return
    name = label or type(obj).__name__
    before = copy.deepcopy(obj.state_dict())
    try:
        yield obj
    except SanitizerViolation:
        raise
    except BaseException as exc:
        if obj.state_dict() != before:
            raise SanitizerViolation(
                f"{name}.state_dict() changed across a raising operation "
                f"({type(exc).__name__}: {exc}); checkpointed state must "
                f"be clone-before-commit (DML018)"
            ) from exc
        raise


def worker_entry(fn: TMethod) -> TMethod:
    """Mark (and, armed, sanitize) a function shipped to worker processes.

    The ``__demonlint_worker_entry__`` tag lets the static pass
    (DML017) audit the function's transitive captures even when no
    submit site is visible.  When sanitizers are armed, each call
    round-trips its arguments through :mod:`pickle` first — the same
    boundary ``spawn`` workers cross — so an unpicklable payload fails
    loudly at the call site instead of deep inside a pool.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if _SANITIZERS:
            try:
                pickle.dumps((args, kwargs))
            except Exception as exc:
                raise SanitizerViolation(
                    f"worker entry {fn.__name__}() received a payload "
                    f"that cannot cross the process boundary "
                    f"({type(exc).__name__}: {exc}); pass picklable "
                    f"state and rebuild handles inside the worker "
                    f"(DML017)"
                ) from exc
        return fn(*args, **kwargs)

    wrapper.__demonlint_worker_entry__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Interleaving sanitizer: critical sections, ownership, write barrier
# ----------------------------------------------------------------------

TMethodVar = TypeVar("TMethodVar", bound=Callable[..., Any])

#: Labels of the critical sections the current thread of control has
#: entered, innermost last.  Maintained unconditionally (one list
#: append) so arming the sanitizers mid-region still sees the region.
_CRITICAL: list[str] = []

#: Depth of :func:`worker_scope` nesting in this process: > 0 while a
#: worker task body runs (including the ``workers=1`` inline path).
_WORKER_SCOPE: int = 0

#: Ownership tags for backend handles: handle -> (scope, claiming pid).
#: Weak so a tag never outlives (or pins) its handle; handles with
#: ``__slots__`` participate as long as they keep ``__weakref__``.
_OWNERS: "weakref.WeakKeyDictionary[Any, tuple[str, int]]" = (
    weakref.WeakKeyDictionary()
)


class _CriticalRegion:
    """One named wait-free region; context manager and decorator."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __enter__(self) -> "_CriticalRegion":
        _CRITICAL.append(self.label)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        _CRITICAL.pop()

    def __call__(self, fn: TMethodVar) -> TMethodVar:
        label = self.label

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            _CRITICAL.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                _CRITICAL.pop()

        wrapper.__demonlint_critical_section__ = label  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]


@overload
def critical_section(arg: str) -> _CriticalRegion: ...


@overload
def critical_section(arg: TMethodVar) -> TMethodVar: ...


def critical_section(arg: "str | Callable[..., Any]") -> Any:
    """Mark a wait-free region — the static anchor for demonlint DML024.

    Usable three ways::

        @critical_section                      # label = function name
        def _publish_tier(self): ...

        @critical_section("tier-map")          # explicit label
        def _publish_tier(self): ...

        with critical_section("tier-map"):     # statement form
            ...

    Inside a marked region, DML024 statically rejects reachable
    blocking operations (tier moves, compression, vault spill,
    executor waits), and :func:`blocking_call` raises at run time when
    the sanitizers are armed.  The marker itself does **not** take a
    lock — it names a region the author promises is wait-free so both
    halves of the toolchain can hold them to it.
    """
    if callable(arg):
        return _CriticalRegion(getattr(arg, "__name__", "critical"))(arg)
    return _CriticalRegion(str(arg))


def blocking_call(name: str) -> None:
    """Declare that the caller is about to block (the DML024 twin).

    Tier demotions/promotions, whole-column compression, and model
    spill call this before doing the slow work.  Disarmed it is one
    boolean test; armed it raises :class:`SanitizerViolation` when the
    declaration happens inside a :func:`critical_section` region —
    the dynamic counterpart of demonlint DML024.
    """
    if _SANITIZERS and _CRITICAL:
        raise SanitizerViolation(
            f"blocking operation {name}() entered inside critical "
            f"section '{_CRITICAL[-1]}'; tier moves, compression, and "
            f"spill must run outside wait-free regions (DML024)"
        )


@contextmanager
def worker_scope() -> Iterator[None]:
    """Mark the dynamic extent of one worker task body.

    :func:`repro.parallel.pool._run_task` wraps every task in this
    scope — including the ``workers=1`` inline path, which is how the
    tier-1 suite exercises the :func:`write_barrier` single-writer
    check without spawning subprocesses.
    """
    global _WORKER_SCOPE
    _WORKER_SCOPE += 1
    try:
        yield
    finally:
        _WORKER_SCOPE -= 1


def claim_ownership(handle: Any, scope: str | None = None) -> None:
    """Tag ``handle`` with its owning scope and pid (armed only).

    Backends claim themselves at construction: a handle built inside a
    :func:`worker_scope` is worker-owned (the worker rebuilt it from a
    spec — the sanctioned pattern), anything else is parent-owned.
    Un-weak-referenceable handles silently opt out, mirroring
    :class:`_IdentitySet`.
    """
    if not _SANITIZERS:
        return
    if scope is None:
        scope = "worker" if _WORKER_SCOPE else "parent"
    try:
        _OWNERS[handle] = (scope, os.getpid())
    except TypeError:
        pass


def ownership_of(handle: Any) -> tuple[str, int] | None:
    """The ``(scope, pid)`` tag of ``handle``, or ``None`` if untagged."""
    try:
        return _OWNERS.get(handle)
    except TypeError:
        return None


def write_barrier(handle: Any, operation: str) -> None:
    """Assert single-writer discipline before mutating ``handle``.

    The dynamic twin of demonlint DML020/DML021: a parent-owned handle
    must not be written from inside a worker task body (the mutation
    happens on a per-process copy and silently never reaches the
    parent), and no handle may be written from a process other than
    the one that claimed it (a forked child inheriting the parent's
    handle).  Disarmed, one boolean test.
    """
    if not _SANITIZERS:
        return
    tag = ownership_of(handle)
    if tag is None:
        return
    scope, owner_pid = tag
    if scope == "parent" and _WORKER_SCOPE:
        raise SanitizerViolation(
            f"{type(handle).__name__}.{operation}() mutates a "
            f"parent-owned handle inside a worker task body; the write "
            f"lands on the worker's copy and never reaches the parent "
            f"— ship a spec, rebuild in the worker, return deltas "
            f"(DML020, single-writer)"
        )
    if owner_pid != os.getpid():
        raise SanitizerViolation(
            f"{type(handle).__name__}.{operation}() mutates a handle "
            f"claimed by pid {owner_pid} from pid {os.getpid()}; a "
            f"forked process inherited a handle it does not own — "
            f"re-check os.getpid() and rebuild per process (DML021, "
            f"single-writer)"
        )


#: The paper's ``A_M`` interface: method name -> required parameter
#: names after ``self``.  Kept in sync with demonlint rule DML001.
REQUIRED_SIGNATURES: dict[str, tuple[str, ...]] = {
    "empty_model": (),
    "build": ("blocks",),
    "add_block": ("model", "block"),
    "clone": ("model",),
}

#: Present only on deletable maintainers (§3.2.4); validated when defined.
OPTIONAL_SIGNATURES: dict[str, tuple[str, ...]] = {
    "delete_block": ("model", "block"),
}

TClass = TypeVar("TClass", bound=type)
TMethod = TypeVar("TMethod", bound=Callable[..., Any])


def _required_positional(fn: Callable[..., Any]) -> tuple[str, ...]:
    signature = inspect.signature(fn)
    names = []
    for parameter in signature.parameters.values():
        if parameter.kind not in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            break
        if parameter.default is not inspect.Parameter.empty:
            break
        names.append(parameter.name)
    return tuple(names)


def _validate_method(cls: type, name: str, expected: tuple[str, ...]) -> None:
    fn = getattr(cls, name, None)
    if fn is None or not callable(fn):
        raise ContractViolation(
            f"{cls.__name__} does not implement {name}() required by the "
            f"A_M maintainer contract (paper §3.2)"
        )
    if getattr(fn, "__isabstractmethod__", False):
        raise ContractViolation(
            f"{cls.__name__}.{name} is still abstract; a concrete "
            f"maintainer must implement it"
        )
    required = _required_positional(fn)
    want = ("self",) + expected
    if required != want:
        raise ContractViolation(
            f"{cls.__name__}.{name} must accept ({', '.join(want)}); "
            f"required positional parameters are ({', '.join(required)})"
        )


def maintainer_contract(cls: TClass) -> TClass:
    """Class decorator: verify the ``A_M`` interface at class creation.

    Checks that ``empty_model``/``build``/``add_block``/``clone`` (and
    ``delete_block`` when present) exist, are concrete, and use the
    canonical parameter names — the same conditions demonlint rule
    DML001 proves statically, enforced here for maintainers constructed
    or monkey-patched at run time.  The decorated class is tagged with
    ``__demonlint_maintainer__`` so the static pass recognizes
    structural maintainers that bypass the ABC.
    """
    for name, expected in REQUIRED_SIGNATURES.items():
        _validate_method(cls, name, expected)
    for name, expected in OPTIONAL_SIGNATURES.items():
        if getattr(cls, name, None) is not None:
            _validate_method(cls, name, expected)
    cls.__demonlint_maintainer__ = True
    return cls


class _IdentitySet:
    """A weak set keyed by object identity (models may be unhashable)."""

    __slots__ = ("_refs",)

    def __init__(self) -> None:
        self._refs: dict[int, weakref.ref[Any]] = {}

    def add(self, obj: Any) -> None:
        key = id(obj)

        def _cleanup(_ref: weakref.ref[Any], refs: dict[int, weakref.ref[Any]] = self._refs, key: int = key) -> None:
            refs.pop(key, None)

        try:
            self._refs[key] = weakref.ref(obj, _cleanup)
        except TypeError:
            pass  # un-weakref-able models opt out of runtime tracking

    def __contains__(self, obj: Any) -> bool:
        ref = self._refs.get(id(obj))
        return ref is not None and ref() is obj


def _consumed_set(maintainer: Any) -> _IdentitySet:
    consumed = getattr(maintainer, "_demonlint_consumed", None)
    if consumed is None:
        consumed = _IdentitySet()
        try:
            maintainer._demonlint_consumed = consumed
        except AttributeError:
            pass  # slotted maintainer: fall back to per-call set
    return consumed


def pure_unless_cloned(method: TMethod) -> TMethod:
    """Guard a mutating ``A_M`` operation against stale-model reuse.

    ``A_M(m, Dj)`` may mutate and retire ``m``; a caller that passes a
    model to ``add_block`` and later feeds the *old* reference back in
    (instead of the returned model or a fresh ``clone``) has silently
    diverged from rebuild-from-scratch — the aliasing bug incremental
    maintainers are most prone to.  When contracts are armed, models
    retired by an update (the call returned a *different* object) are
    remembered per maintainer; reusing one raises
    :class:`ContractViolation`.  Disarmed, the wrapper is a single
    boolean check.
    """

    @functools.wraps(method)
    def wrapper(self: Any, model: Any, block: Any, *args: Any, **kwargs: Any) -> Any:
        if not _ARMED:
            return method(self, model, block, *args, **kwargs)
        consumed = _consumed_set(self)
        if model in consumed:
            raise ContractViolation(
                f"{type(self).__name__}.{method.__name__}: the "
                f"{type(model).__name__} passed in was already consumed by "
                f"a previous update; clone() the model before re-using it "
                f"(GEMM §3.2 keeps divergent copies alive)"
            )
        result = method(self, model, block, *args, **kwargs)
        if result is not model:
            consumed.add(model)
        return result

    wrapper.__demonlint_mutates__ = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
