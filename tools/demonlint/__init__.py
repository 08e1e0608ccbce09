"""demonlint — AST-based invariant checker for the DEMON reproduction.

Static rules (see ``docs/STATIC_ANALYSIS.md`` for the paper mapping):

* **DML001** — concrete ``IncrementalModelMaintainer`` subclasses
  implement ``empty_model``/``build``/``add_block``/``clone`` with the
  paper-matching signatures (§3.2).
* **DML002** — clone-before-mutate: a model reference passed to
  ``add_block`` is not read again unless a re-binding (or fresh
  ``clone``) dominates the read (§3.2's divergent model copies).
* **DML004** — no wall-clock reads outside ``storage/iostats.py`` and
  ``benchmarks/``; timing flows through ``Stopwatch`` so the
  critical-path/off-line split of Algorithm 3.1 stays measurable.
* **DML005** — no mutable default arguments, no dict mutation during
  iteration, no bare ``except:`` in ``src/repro``.
* **DML007** — no raw ``Stopwatch`` construction or ``perf_counter``
  reads outside ``repro/storage/`` and ``benchmarks/``; timed spans go
  through the ``Telemetry`` spine so sessions can aggregate them.
* **DML008–DML012** — whole-program flow rules (checkpoint parity,
  phase-span discipline, frozen-array taint, vault-key hygiene, and
  transitive purity); see :mod:`tools.demonlint.flow_rules`.
* **DML013** — raw record-list access (``.tuples``/``.records``) only
  inside ``repro/storage/`` and ``repro/datagen/``; algorithm code
  streams blocks via ``iter_chunks()``/``iter_records()`` so backends
  stay pluggable.

The runtime half lives in :mod:`repro.contracts` (decorators
``@maintainer_contract`` and ``@pure_unless_cloned``).
"""

from tools.demonlint.core import (
    LintResult,
    Rule,
    Violation,
    register,
    registered_rules,
    run,
)

__all__ = [
    "LintResult",
    "Rule",
    "Violation",
    "register",
    "registered_rules",
    "run",
]
