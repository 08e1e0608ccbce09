"""DML010 fixture: frozen arrays are read, or copied before writes."""

import numpy as np


def copy_then_mutate(store):
    tids = store.fetch(1, 2).copy()
    tids[0] = 99
    return tids


def read_only(store):
    rows = store.packed_rows([1, 2])
    return int(rows[0]) + int(rows[1])


def fresh_output(store, other):
    tids = store.fetch(1, 2)
    return np.add(tids, other)


def laundered_binding(store):
    rows = store.packed_rows([1, 2]).astype("int64")
    rows.sort()
    return rows
