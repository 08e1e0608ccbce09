"""Block selection sequences (paper §2.3) and their window operations.

A block selection sequence (BSS) is a bit sequence selecting which
blocks participate in the mined model:

* A **window-independent** BSS ``<b1, ..., bt, ...>`` assigns one bit to
  every block identifier; bit ``bi`` is fixed to block ``Di`` forever
  ("all blocks added on Mondays").
* A **window-relative** BSS ``<b1, ..., bw>`` assigns one bit to each
  *position* inside the most recent window of size ``w``; the selection
  moves with the window ("every other day within the past 30 days").

GEMM (§3.2) needs two derived sequences:

* the ``k``-**projection** of a window-independent BSS (§3.2.1): keep
  bits ``b_{k+1} .. b_w`` in place and zero the first ``k`` positions,
  describing the overlap of a future window with the current one;
* the ``k``-**right-shift** of a window-relative BSS (§3.2.2): slide the
  pattern forward by ``k`` blocks, zero-padding on the left and
  truncating what slides past position ``w``.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Iterable, Sequence


def _validate_bits(bits: Iterable[int]) -> tuple[int, ...]:
    """Validate a strict 0/1 bit vector (Definition 2.1, §2.3).

    Bits must be plain integers: bools and floats are rejected rather
    than coerced, because ``int(0.9) == 0`` and ``int(True) == 1``
    silently change which blocks a model is extracted from.
    """
    validated: list[int] = []
    for b in bits:
        if isinstance(b, bool) or not isinstance(b, numbers.Integral):
            raise TypeError(
                f"BSS bits must be plain ints 0 or 1, got {b!r} "
                f"({type(b).__name__}); bools/floats/strings are not bits"
            )
        value = int(b)
        if value not in (0, 1):
            raise ValueError(f"BSS bits must be 0 or 1, got {value}")
        validated.append(value)
    return tuple(validated)


class WindowIndependentBSS:
    """A window-independent block selection sequence.

    The sequence conceptually extends forever; it is represented by an
    explicit finite prefix plus a rule (default bit or a predicate on the
    block identifier) for positions beyond the prefix.

    Args:
        bits: Explicit prefix ``<b1, b2, ...>`` (1-based positions).
        default: Bit used for positions past the explicit prefix when no
            ``predicate`` is given.
        predicate: Optional rule mapping a block identifier to a bool;
            it overrides ``default`` beyond the prefix, which lets
            calendar selections ("every Monday") run unbounded.
    """

    def __init__(
        self,
        bits: Iterable[int] = (),
        default: int = 1,
        predicate: Callable[[int], bool] | None = None,
    ) -> None:
        self._bits = _validate_bits(bits)
        self._default = _validate_bits([default])[0]
        self._predicate = predicate

    @classmethod
    def select_all(cls) -> "WindowIndependentBSS":
        """The trivial BSS ``<1, 1, 1, ...>`` selecting every block."""
        return cls(default=1)

    @classmethod
    def from_predicate(cls, predicate: Callable[[int], bool]) -> "WindowIndependentBSS":
        """A BSS defined entirely by a predicate on block identifiers."""
        return cls(bits=(), predicate=predicate)

    def bit(self, block_id: int) -> int:
        """Return bit ``b_{block_id}`` (1-based)."""
        if block_id < 1:
            raise IndexError(f"block identifiers start at 1, got {block_id}")
        if block_id <= len(self._bits):
            return self._bits[block_id - 1]
        if self._predicate is not None:
            return 1 if self._predicate(block_id) else 0
        return self._default

    def selects(self, block_id: int) -> bool:
        """Whether block ``D_{block_id}`` participates in the model."""
        return self.bit(block_id) == 1

    def selected_ids(self, lo: int, hi: int) -> list[int]:
        """Identifiers of the selected blocks in ``D[lo, hi]`` inclusive."""
        return [i for i in range(lo, hi + 1) if self.selects(i)]

    def prefix(self, length: int) -> tuple[int, ...]:
        """The first ``length`` bits as an explicit tuple."""
        return tuple(self.bit(i) for i in range(1, length + 1))

    def project(self, t: int, k: int, w: int) -> tuple[int, ...]:
        """The ``k``-projected sequence ``b^w_k`` of §3.2.1.

        With the current window written as ``D[1, w]`` (the paper sets
        ``t = w`` without loss of generality), the projection keeps bits
        at positions ``k+1 .. w`` and zeroes positions ``1 .. k``.  For a
        general latest identifier ``t`` the window is ``D[t-w+1, t]``
        and the bit at window position ``i`` is the global bit
        ``b_{t-w+i}``.

        Args:
            t: Identifier of the latest block (window is D[t-w+1, t]).
            k: Number of leading positions to zero, ``0 <= k < w``.
            w: Window size.

        Returns:
            A length-``w`` tuple of bits.
        """
        if not 0 <= k < w:
            raise ValueError(f"projection requires 0 <= k < w, got k={k}, w={w}")
        if t < w:
            raise ValueError(f"projection assumes t >= w, got t={t}, w={w}")
        start = t - w  # global id of window position 1 is start + 1
        return tuple(
            0 if i <= k else self.bit(start + i) for i in range(1, w + 1)
        )

    def __repr__(self) -> str:
        shown = "".join(str(b) for b in self._bits) or "<rule>"
        return f"WindowIndependentBSS({shown}..., default={self._default})"


class WindowRelativeBSS:
    """A window-relative block selection sequence ``<b1, ..., bw>``.

    Position 1 refers to the *oldest* block in the most recent window
    and position ``w`` to the newest, matching Definition 2.1.
    """

    def __init__(self, bits: Iterable[int]) -> None:
        self._bits = _validate_bits(bits)
        if not self._bits:
            raise ValueError("a window-relative BSS needs at least one bit")

    @classmethod
    def select_all(cls, w: int) -> "WindowRelativeBSS":
        """The BSS ``<1, ..., 1>`` of length ``w``."""
        return cls([1] * w)

    @classmethod
    def every_kth(cls, w: int, k: int, offset: int = 0) -> "WindowRelativeBSS":
        """Select every ``k``-th position starting at ``offset`` (0-based).

        ``every_kth(28, 7)`` expresses "the same day of the week as the
        window start within the past 28 days" (paper §2.3, example 3).
        """
        if k < 1:
            raise ValueError(f"period must be >= 1, got {k}")
        return cls([1 if (i - offset) % k == 0 and i >= offset else 0 for i in range(w)])

    @property
    def w(self) -> int:
        """The window size this BSS is defined for."""
        return len(self._bits)

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    def bit(self, position: int) -> int:
        """Return bit ``b_position`` (1-based window position)."""
        if not 1 <= position <= self.w:
            raise IndexError(f"position {position} outside window of size {self.w}")
        return self._bits[position - 1]

    def selects(self, position: int) -> bool:
        """Whether the window position participates in the model."""
        return self.bit(position) == 1

    def selected_ids(self, window_start: int) -> list[int]:
        """Global block identifiers selected when the window starts there.

        Args:
            window_start: Identifier of the window's oldest block, i.e.
                the window is ``D[window_start, window_start + w - 1]``.
        """
        return [
            window_start + i for i in range(self.w) if self._bits[i] == 1
        ]

    def right_shift(self, k: int) -> tuple[int, ...]:
        """The ``k``-right-shifted sequence of §3.2.2.

        Slides the pattern forward by ``k`` positions, zero-pads the
        leftmost ``k`` bits, and truncates bits that slide past ``w``.
        """
        if not 0 <= k < self.w:
            raise ValueError(f"right-shift requires 0 <= k < w, got k={k}, w={self.w}")
        return tuple(
            0 if i <= k else self._bits[i - k - 1] for i in range(1, self.w + 1)
        )

    def __repr__(self) -> str:
        return f"WindowRelativeBSS({''.join(str(b) for b in self._bits)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowRelativeBSS):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)


def weekday_bss(weekday: int, block_weekday: Callable[[int], int]) -> WindowIndependentBSS:
    """A window-independent BSS selecting blocks added on one weekday.

    Args:
        weekday: Day of week to select, 0=Monday .. 6=Sunday.
        block_weekday: Maps a block identifier to its day of week.
    """
    if not 0 <= weekday <= 6:
        raise ValueError(f"weekday must be in 0..6, got {weekday}")
    return WindowIndependentBSS.from_predicate(
        lambda block_id: block_weekday(block_id) == weekday
    )


def bits_key(bits: Sequence[int]) -> tuple[int, ...]:
    """Canonical hashable key for a bit sequence.

    GEMM deduplicates models whose effective BSS bits are identical
    (paper §3.2.1: "some of the models simultaneously maintained might
    be identical"); this key is what the dedup map is indexed by.
    """
    return tuple(int(b) for b in bits)
