"""The four end-to-end workloads and their seeded record streams.

Every workload is a closed loop with one producer: block ``t + 1`` is
generated (clock paused) and ingested only after arrival ``t`` returned.
All blocks are fresh draws from Quest ``2M.20L.1I.*`` pattern pools, and
drift means the stream moves to another pool.  The transaction draws are
seeded from the run's ``--seed``, so the same seed always yields the same
records.

This module imports nothing from ``repro`` at module level, so ``run.py``
loads it without the library and can fail cleanly when ``src/`` is missing.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterator

#: Pattern pools.  ``2M.20L.1I`` fixes the item structure (20 items per
#: transaction, 1000 items); the pool name picks the pattern mix.
POOL_A = "2M.20L.1I.4pats.4plen"
POOL_B = "2M.20L.1I.8pats.4plen"
POOL_C = "2M.20L.1I.4pats.5plen"
POOL_D = "2M.20L.1I.2pats.6plen"


@dataclass(frozen=True)
class Workload:
    """One stream plus the session configuration that consumes it.

    Attributes:
        name: Workload name, as in ``BENCHMARK.json`` (which also says
            why each workload exists).
        blocks: Arrivals per episode.
        per_block: Transactions per block.
        minsup: BORDERS support threshold ``κ``.
        window: MRW window size in blocks; ``0`` is the unrestricted
            window.
        backend: ``"mmap"``, ``"tiered"`` or ``"memory"`` (plain
            in-memory blocks, no backend object).
        scheduler: ``"eager"`` or ``"deviation"``.
        workers: Process count handed to the session.
        vault: Whether GEMM spills its off-line models to a vault.
        read_every: A read (``current_model()``) follows every n-th
            ingest.
        checkpoint_on_read: Whether each read also checkpoints.
        pools: Pattern pools the stream cycles through.
        switch_every: Blocks drawn from one pool before the next.
        verify_at: Arrivals after which the served model is checked
            against a from-scratch Apriori over its selection.
    """

    name: str
    blocks: int
    per_block: int
    minsup: float
    window: int
    backend: str
    scheduler: str
    workers: int
    vault: bool
    read_every: int
    checkpoint_on_read: bool
    pools: tuple[str, ...]
    switch_every: int
    verify_at: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Workload":
        fields = dict(payload)
        fields["pools"] = tuple(fields["pools"])
        fields["verify_at"] = tuple(fields["verify_at"])
        return cls(**fields)

    def shrink(self, factor: int) -> "Workload":
        """The same shape with ``factor``× fewer blocks and transactions.

        Pool switches, reads and checks move to the matching positions
        of the shorter stream, so a shrunken run walks every code path
        of the full one.
        """
        return replace(
            self,
            blocks=max(self.blocks // factor, 1),
            per_block=max(self.per_block // factor, 1),
            read_every=max(self.read_every // factor, 1),
            switch_every=max(self.switch_every // factor, 1),
            verify_at=tuple(sorted({max(at // factor, 1) for at in self.verify_at})),
        )


MRW_EAGER = Workload(
    name="mrw-eager",
    blocks=24,
    per_block=2000,
    minsup=0.025,
    window=4,
    backend="mmap",
    scheduler="eager",
    workers=1,
    vault=False,
    read_every=1,
    checkpoint_on_read=False,
    pools=(POOL_A, POOL_B),
    switch_every=1,
    verify_at=(12, 24),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        MRW_EAGER,
        replace(
            MRW_EAGER,
            name="mrw-deferred",
            backend="tiered",
            scheduler="deviation",
            vault=True,
            read_every=12,
            checkpoint_on_read=True,
        ),
        Workload(
            name="uw-counting",
            blocks=8,
            per_block=10000,
            minsup=0.02,
            window=0,
            backend="memory",
            scheduler="eager",
            workers=1,
            vault=False,
            read_every=1,
            checkpoint_on_read=False,
            pools=(POOL_A, POOL_B, POOL_C, POOL_D),
            switch_every=2,
            verify_at=(4, 8),
        ),
        replace(
            MRW_EAGER,
            name="mrw-eager-2w",
            workers=2,
        ),
    )
}

#: Drift scheduler knobs for ``scheduler="deviation"``.
DEVIATION_THRESHOLD = 0.95
DEVIATION_MAX_PENDING = 8


def draw_seed(seed: int, pool: str) -> int:
    """The seed of one pool's transaction draws under a run seed."""
    return zlib.crc32(f"{seed}:{pool}".encode())


def pool_for(workload: Workload, block_id: int) -> str:
    """The pattern pool block ``block_id`` is drawn from."""
    turn = (block_id - 1) // workload.switch_every
    return workload.pools[turn % len(workload.pools)]


def record_stream(workload: Workload, seed: int) -> Iterator[list[tuple[int, ...]]]:
    """Yield the records of blocks ``1..workload.blocks``, in order.

    Each pool's patterns are built from a seed fixed by the pool's name:
    the pool is part of the workload, like a named dataset, and ``seed``
    picks the sample drawn from it.  ``QuestGenerator`` draws patterns and
    transactions from one RNG and has no way to reseed only the draws, so
    the draw RNG is replaced after the pool is built.  One generator per
    pool keeps drawing, so every block is a fresh draw.
    """
    from repro.datagen.quest import QuestGenerator, QuestParams

    generators: dict[str, Any] = {}
    for block_id in range(1, workload.blocks + 1):
        pool = pool_for(workload, block_id)
        generator = generators.get(pool)
        if generator is None:
            generator = QuestGenerator(
                QuestParams.from_name(pool), seed=zlib.crc32(pool.encode())
            )
            generator._rng = random.Random(draw_seed(seed, pool))
            generators[pool] = generator
        yield generator.transactions(workload.per_block)
