"""Automatic block-selection-sequence discovery via compact sequences."""

from repro.patterns.compact import (
    CompactSequence,
    CompactSequenceMiner,
    PatternUpdateReport,
)
from repro.patterns.cyclic import (
    extract_cyclic,
    longest_cyclic_subsequence,
    period_of,
)

__all__ = [
    "CompactSequence",
    "CompactSequenceMiner",
    "PatternUpdateReport",
    "extract_cyclic",
    "longest_cyclic_subsequence",
    "period_of",
]
