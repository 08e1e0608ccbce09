"""Cluster features (CFs) — the sufficient statistics behind BIRCH.

A cluster feature summarizes a set of ``N`` d-dimensional points as the
triple ``(N, LS, SS)`` where ``LS`` is the linear sum and ``SS`` the sum
of squared norms (Zhang et al. 1996).  CFs are *additive*: merging two
clusters adds their triples, which is what makes the CF-tree and the
BIRCH+ incremental maintenance of §3.1.2 possible.

From the triple alone one can compute the centroid, radius, diameter,
and the standard inter-cluster distance metrics D0–D4 of the BIRCH
paper; this module implements D0 (centroid Euclidean), D1 (centroid
Manhattan), D2 (average inter-cluster) and D4 (variance increase).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

#: A point is a fixed-length tuple of floats (hashable, block-storable).
Point = tuple[float, ...]


class ClusterFeature:
    """The additive ``(N, LS, SS)`` summary of a set of points."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int = 0, ls: np.ndarray | None = None, ss: float = 0.0):
        self.n = n
        self.ls = None if ls is None else np.asarray(ls, dtype=float)
        self.ss = float(ss)

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # An unpickled array carries its own float64 dtype instance, and
        # pickle memoizes dtypes by identity, so a model that crossed a
        # worker pipe would re-pickle to other bytes than the serial
        # run's.  astype() re-types onto the shared instance.
        _, slots = state
        ls = slots["ls"]
        self.n = slots["n"]
        self.ls = None if ls is None else ls.astype(np.float64)
        self.ss = slots["ss"]

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "ClusterFeature":
        """CF of a single point."""
        vec = np.asarray(point, dtype=float)
        return cls(1, vec.copy(), float(vec @ vec))

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "ClusterFeature":
        """CF of a collection of points."""
        cf = cls()
        for point in points:
            cf.add_point(point)
        return cf

    @property
    def dim(self) -> int | None:
        """Dimensionality, or ``None`` for the empty CF."""
        return None if self.ls is None else len(self.ls)

    def is_empty(self) -> bool:
        return self.n == 0

    def copy(self) -> "ClusterFeature":
        return ClusterFeature(self.n, None if self.ls is None else self.ls.copy(), self.ss)

    def add_point(self, point: Sequence[float]) -> None:
        """Absorb one point (in place)."""
        vec = np.asarray(point, dtype=float)
        if self.ls is None:
            self.ls = vec.copy()
        else:
            self.ls = self.ls + vec
        self.n += 1
        self.ss += float(vec @ vec)

    def merge(self, other: "ClusterFeature") -> None:
        """Absorb another CF (in place) — the additivity property."""
        if other.is_empty():
            return
        if self.ls is None:
            self.ls = other.ls.copy()
        else:
            self.ls = self.ls + other.ls
        self.n += other.n
        self.ss += other.ss

    def merged(self, other: "ClusterFeature") -> "ClusterFeature":
        """A new CF equal to the merge of the two operands."""
        result = self.copy()
        result.merge(other)
        return result

    def centroid(self) -> np.ndarray:
        """The cluster centroid ``LS / N``."""
        if self.is_empty():
            raise ValueError("empty cluster feature has no centroid")
        return self.ls / self.n

    def radius(self) -> float:
        """RMS distance of the member points from the centroid.

        ``R = sqrt(SS/N - ||LS/N||²)``, clamped at zero against
        floating-point jitter.
        """
        if self.is_empty():
            raise ValueError("empty cluster feature has no radius")
        centroid = self.ls / self.n
        value = self.ss / self.n - float(centroid @ centroid)
        return math.sqrt(max(value, 0.0))

    def diameter(self) -> float:
        """RMS pairwise distance between member points.

        ``D = sqrt((2N·SS - 2||LS||²) / (N(N-1)))``; zero for N < 2.
        """
        if self.n < 2:
            return 0.0
        value = (2.0 * self.n * self.ss - 2.0 * float(self.ls @ self.ls)) / (
            self.n * (self.n - 1)
        )
        return math.sqrt(max(value, 0.0))

    def __repr__(self) -> str:
        if self.is_empty():
            return "ClusterFeature(empty)"
        return f"ClusterFeature(n={self.n}, centroid={np.round(self.centroid(), 3)})"


def distance_d0(a: ClusterFeature, b: ClusterFeature) -> float:
    """D0: Euclidean distance between centroids."""
    diff = a.centroid() - b.centroid()
    return float(math.sqrt(diff @ diff))


def distance_d1(a: ClusterFeature, b: ClusterFeature) -> float:
    """D1: Manhattan distance between centroids."""
    return float(np.abs(a.centroid() - b.centroid()).sum())


def distance_d2(a: ClusterFeature, b: ClusterFeature) -> float:
    """D2: average inter-cluster distance.

    ``D2² = SSa/Na + SSb/Nb - 2·LSa·LSb/(Na·Nb)`` — derivable from the
    CF triples alone.
    """
    value = (
        a.ss / a.n
        + b.ss / b.n
        - 2.0 * float(a.ls @ b.ls) / (a.n * b.n)
    )
    return math.sqrt(max(value, 0.0))


def distance_d4(a: ClusterFeature, b: ClusterFeature) -> float:
    """D4: variance-increase distance (Ward-style merge cost).

    The increase in total within-cluster sum of squares caused by
    merging the two clusters: ``(Na·Nb)/(Na+Nb) · ||ca - cb||²``.
    """
    diff = a.centroid() - b.centroid()
    return float((a.n * b.n) / (a.n + b.n) * (diff @ diff))


#: Distance metrics by BIRCH-paper name.
DISTANCE_METRICS = {
    "d0": distance_d0,
    "d1": distance_d1,
    "d2": distance_d2,
    "d4": distance_d4,
}


def get_metric(name: str):
    """Look up a CF distance metric by name (``d0``/``d1``/``d2``/``d4``)."""
    try:
        return DISTANCE_METRICS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; choose from {sorted(DISTANCE_METRICS)}"
        ) from None
