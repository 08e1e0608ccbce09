"""DML006 fixture: intersections routed through the kernel module."""

from repro.itemsets.kernels import intersect_arrays, intersect_many


def count_via_kernels(a, b):
    return len(intersect_many([a, b]))


def intersect_via_kernels(a, b):
    return intersect_arrays(a, b)
