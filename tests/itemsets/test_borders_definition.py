"""BORDERS against the definition of its model, for every counter kind.

Detection and the Apriori levels of ``build`` count on the blocks'
TID-lists, whatever the update-phase counter.  These tests pin what
that path must produce: after ``build``, ``add_block`` and
``delete_block``, every tracked itemset's count (border members
included) is its support over the selected blocks' records by brute
force, and the model is the reference miner's, counts and item
universe included.  Detection charges exactly the new block's item
lists, scans no block-store records, and builds no prefix tree.
"""

from contextlib import contextmanager

import pytest

from repro.core.blocks import make_block
from repro.itemsets import prefix_tree
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext
from tests.conftest import random_transactions, transaction_blocks
from tests.itemsets.counting_oracle import oracle_io, reference_counts, store_io

MINSUP = 0.05
COUNTERS = ["ptscan", "ecut", "ecut+"]


def drifting_blocks():
    """Two blocks around one planted pattern, then one around another,
    so adding and deleting both promote and demote."""
    blocks = transaction_blocks(2, 200, seed=7)
    drifted = random_transactions(
        200, n_items=40, seed=9, planted=((20, 21, 22, 23), 0.5)
    )
    return blocks + [make_block(3, drifted)]


def assert_is_definition(model, blocks):
    """``model`` is Apriori's over its selected blocks, counts included,
    and every tracked count is a brute-force support."""
    selected = [b for b in blocks if b.block_id in model.selected_block_ids]
    tracked = model.tracked()
    assert tracked == reference_counts(selected, tracked, model.selected_block_ids)
    truth = mine_blocks(selected, model.minsup)
    assert model.frequent == truth.frequent
    assert model.border == truth.border
    assert model.n_transactions == truth.n_transactions
    assert model.items == {item for b in selected for t in b.tuples for item in t}


@pytest.mark.parametrize("counter", COUNTERS)
class TestAgainstDefinition:
    def test_build(self, counter):
        blocks = drifting_blocks()
        maintainer = BordersMaintainer(MINSUP, counter=counter)
        assert_is_definition(maintainer.build(blocks[:2]), blocks)

    def test_add_then_delete(self, counter):
        blocks = drifting_blocks()
        maintainer = BordersMaintainer(MINSUP, counter=counter)
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
            assert_is_definition(model, blocks)
        assert maintainer.last_stats.promotions > 0
        model = maintainer.delete_block(model, blocks[0])
        assert_is_definition(model, blocks)
        model = maintainer.delete_block(model, blocks[2])
        assert maintainer.last_stats.demotions > 0
        assert_is_definition(model, blocks)


@contextmanager
def no_prefix_tree():
    """Fail any prefix tree built inside the block."""

    def refuse(self, itemsets=()):
        raise AssertionError("a PrefixTree was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prefix_tree.PrefixTree, "__init__", refuse)
        yield


@pytest.mark.parametrize("counter", ["ecut", "ecut+"])
def test_maintenance_builds_no_prefix_tree(counter):
    blocks = drifting_blocks()
    maintainer = BordersMaintainer(MINSUP, counter=counter)
    with no_prefix_tree():
        model = maintainer.build(blocks[:2])
        model = maintainer.add_block(model, blocks[2])
        model = maintainer.delete_block(model, blocks[0])
    assert_is_definition(model, blocks)


@pytest.mark.parametrize("counter", COUNTERS)
def test_detection_reads_only_the_new_blocks_item_lists(counter):
    """A copy of the build block doubles every count, so nothing crosses
    the threshold and the update phase counts nothing: all I/O is
    detection's, and it is the new block's item lists alone."""
    first = transaction_blocks(1, 200, seed=3)[0]
    copy = make_block(2, first.tuples)
    context = ItemsetMiningContext()
    maintainer = BordersMaintainer(MINSUP, context, counter=counter)
    with no_prefix_tree():
        model = maintainer.build([first])
        tracked = list(model.tracked())
        scans = context.block_store.stats.snapshot()
        model, io = store_io(context, lambda: maintainer.add_block(model, copy))

    assert maintainer.last_stats.candidates_counted == 0
    assert io == oracle_io([first, copy], tracked, [2])[1]
    assert context.block_store.stats.delta_since(scans).bytes_read == 0
    assert_is_definition(model, [first, copy])
