"""The generic incremental-maintainer interface (the paper's ``A_M``).

GEMM (§3.2) is parameterized by a class of models ``M`` and an
incremental model maintenance algorithm ``A_M`` for the unrestricted
window option.  ``A_M`` supports exactly two operations in the paper:

* ``A_M(D, φ)`` — build a model from a dataset (the base case), and
* ``A_M(m, Dj)`` — update model ``m`` with a newly added block ``Dj``.

:class:`IncrementalModelMaintainer` captures that contract plus the two
bookkeeping operations a generic driver needs (``empty_model`` for a
BSS that has selected nothing yet, and ``clone`` because GEMM evolves
several divergent copies of the same model), plus no-op
``register_block``/``release_block`` hooks that maintainers keeping
block storage override.  Model classes that are also maintainable under
block *deletion* (§3.2.4) additionally implement
:class:`DeletableModelMaintainer`, which enables the direct add+delete
alternative ``A^u_M`` that the paper compares GEMM against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import Any, Generic, TypeVar, cast

from repro.core.blocks import Block
from repro.core.bss import WindowIndependentBSS
from repro.storage.persist import load_model, save_model

TModel = TypeVar("TModel")
T = TypeVar("T")


class IncrementalModelMaintainer(ABC, Generic[TModel, T]):
    """Abstract incremental maintainer ``A_M`` for one class of models."""

    @abstractmethod
    def empty_model(self) -> TModel:
        """A model over the empty dataset (no blocks selected yet)."""

    @abstractmethod
    def build(self, blocks: Iterable[Block[T]]) -> TModel:
        """``A_M(D, φ)``: construct a model from scratch over ``blocks``."""

    @abstractmethod
    def add_block(self, model: TModel, block: Block[T]) -> TModel:
        """``A_M(m, Dj)``: update ``model`` with the new block.

        Implementations may mutate and return ``model``; callers that
        need the old model afterwards must :meth:`clone` first.
        """

    @abstractmethod
    def clone(self, model: TModel) -> TModel:
        """An independent deep copy of ``model``."""

    def register_block(self, block: Block[T], model: TModel | None = None) -> None:
        """Record an arriving block with the maintainer's storage, if any.

        GEMM registers every block of a run before any ``A_M`` call, so
        a block no final model selects still reaches the storage
        context.  ``model`` is the model the block's first ``A_M`` call
        uses.  The default keeps no storage and does nothing.
        """

    def release_block(self, block_id: int) -> None:
        """Free what :meth:`register_block` stored for an expired block.

        The session calls this once block ``block_id`` has slid out of
        the most recent window, after which no model can select it.
        Must be idempotent and safe for unknown block ids.  The default
        keeps no storage and does nothing.
        """


class DeletableModelMaintainer(IncrementalModelMaintainer[TModel, T]):
    """A maintainer whose models also support block deletion (§3.2.4)."""

    @abstractmethod
    def delete_block(self, model: TModel, block: Block[T]) -> TModel:
        """Update ``model`` to reflect removal of a previously added block."""


class UnrestrictedWindowMaintainer(Generic[TModel, T]):
    """UW-option driver: one model over all selected blocks so far (§3.1).

    Feeds every arriving block through a window-independent BSS: when
    the block's bit is 1 the model is updated via ``A_M``; when it is 0
    the current model simply carries over to the new snapshot.

    Args:
        maintainer: The incremental algorithm ``A_M``.
        bss: Window-independent block selection sequence; defaults to
            selecting every block.
    """

    def __init__(
        self,
        maintainer: IncrementalModelMaintainer[TModel, T],
        bss: WindowIndependentBSS | None = None,
    ) -> None:
        self.maintainer = maintainer
        self.bss = bss if bss is not None else WindowIndependentBSS.select_all()
        self._model = maintainer.empty_model()
        self._t = 0
        self._selected: list[int] = []

    @property
    def t(self) -> int:
        """Identifier of the latest observed block."""
        return self._t

    @property
    def model(self) -> TModel:
        """The current model ``m(D[1, t], b)``."""
        return self._model

    @property
    def selected_block_ids(self) -> list[int]:
        """Identifiers of the blocks the current model was extracted from."""
        return list(self._selected)

    def observe(self, block: Block[T]) -> TModel:
        """Process the arrival of the next block and return the new model."""
        expected = self._t + 1
        if block.block_id != expected:
            raise ValueError(
                f"systematic evolution requires block id {expected}, "
                f"got {block.block_id}"
            )
        self._t = block.block_id
        if self.bss.selects(block.block_id):
            self._model = self.maintainer.add_block(self._model, block)
            self._selected.append(block.block_id)
        return self._model

    # ------------------------------------------------------------------
    # Checkpointing (the session layer's engine contract)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Serializable snapshot: clock, selection, serialized model."""
        return {
            "t": self._t,
            "selected": list(self._selected),
            "model": save_model(self._model),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore the state saved by :meth:`state_dict`."""
        self._t = cast(int, state["t"])
        self._selected = list(cast("list[int]", state["selected"]))
        self._model = cast("TModel", load_model(cast(bytes, state["model"])))
