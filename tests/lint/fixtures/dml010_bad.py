"""DML010 fixture: mutating frozen materialized TID arrays."""
# demonlint: disable-file=all (bad fixture: linted with respect_suppressions=False by the rule tests; the disable keeps whole-tree CI runs clean)

import numpy as np


def subscript_store(store):
    tids = store.fetch(1, 2)
    tids[0] = 99
    return tids


def augmented_assign(store):
    rows = store.packed_rows([1, 2])
    rows += 1
    return rows


def inplace_mutator(store):
    rows = store.packed_rows([1, 2])
    rows.sort()
    return rows


def thaw_then_write(store):
    tids = store.fetch(1, 3)
    tids.setflags(write=True)
    return tids


def out_kwarg(store, other):
    tids = store.fetch(1, 2)
    np.add(tids, other, out=tids)
    return tids
