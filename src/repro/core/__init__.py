"""DEMON core: block evolution, data span, BSS, GEMM, and the monitor."""

from repro.core.blocks import Block, Snapshot, make_block
from repro.core.bss import (
    WindowIndependentBSS,
    WindowRelativeBSS,
    bits_key,
    weekday_bss,
)
from repro.core.gemm import GEMM, GEMMUpdateReport
from repro.core.maintainer import (
    DeletableModelMaintainer,
    IncrementalModelMaintainer,
    UnrestrictedWindowMaintainer,
)
from repro.core.monitor import DemonMonitor
from repro.core.session import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    MiningSession,
    MonitorReport,
    checkpoint_key,
)
from repro.core.windows import BlockRange, MostRecentWindow, UnrestrictedWindow

__all__ = [
    "Block",
    "Snapshot",
    "make_block",
    "WindowIndependentBSS",
    "WindowRelativeBSS",
    "weekday_bss",
    "bits_key",
    "BlockRange",
    "UnrestrictedWindow",
    "MostRecentWindow",
    "IncrementalModelMaintainer",
    "DeletableModelMaintainer",
    "UnrestrictedWindowMaintainer",
    "GEMM",
    "GEMMUpdateReport",
    "DemonMonitor",
    "MonitorReport",
    "MiningSession",
    "CheckpointError",
    "CHECKPOINT_FORMAT",
    "checkpoint_key",
]
