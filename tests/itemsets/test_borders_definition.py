"""BORDERS against the definition of its model, for every counter kind.

Detection and the Apriori levels of ``build`` count on the blocks'
TID-lists, whatever the update-phase counter.  These tests pin what
that path must produce: after ``build``, ``add_block`` and
``delete_block``, every tracked itemset's count (border members
included) is its support over the selected blocks' records by brute
force, and the model is the reference miner's, counts and item
universe included.  Detection charges exactly the new block's item
lists, scans no block-store records, and builds no prefix tree.  The
end-to-end models hold no frequent itemset of size two or more, so a
differential test drives random operation sequences over a small item
universe, where itemsets of every size are promoted and demoted.
"""

import pickle
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def snapshot(model):
    """Everything a served model exposes, by value."""
    return (
        model.minsup,
        model.n_transactions,
        model.frequent,
        model.border,
        set(model.items),
        list(model.selected_block_ids),
    )


transactions = st.lists(
    st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=30
)


@pytest.mark.parametrize("counter", COUNTERS)
@settings(max_examples=40, deadline=None)
@given(
    n_items=st.integers(4, 8),
    sequences=st.lists(transactions, min_size=2, max_size=5),
    minsup=st.floats(0.1, 0.6),
    data=st.data(),
)
def test_random_maintenance_is_definition(counter, n_items, sequences, minsup, data):
    """Random add/delete/clone/lower-threshold/pickle sequences over a
    small item universe, where promotions and demotions of every size
    happen: after every step the model is the definition."""
    blocks = [
        make_block(i + 1, [tuple(sorted({x % n_items for x in t})) for t in txs])
        for i, txs in enumerate(sequences)
    ]
    maintainer = BordersMaintainer(minsup, counter=counter)
    model = maintainer.build(blocks[:1])
    assert_is_definition(model, blocks)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        selected = set(model.selected_block_ids)
        ops = ["clone", "lower", "pickle"]
        ops += ["add"] * any(b.block_id not in selected for b in blocks)
        ops += ["delete"] * bool(selected)
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "add":
            block = data.draw(st.sampled_from(
                [b for b in blocks if b.block_id not in selected]
            ))
            model = maintainer.add_block(model, block)
        elif op == "delete":
            block = data.draw(st.sampled_from(
                [b for b in blocks if b.block_id in selected]
            ))
            model = maintainer.delete_block(model, block)
        elif op == "clone":
            before = snapshot(model)
            twin = maintainer.clone(model)
            unseen = [b for b in blocks if b.block_id not in selected]
            if unseen:
                twin = maintainer.add_block(twin, unseen[0])
            else:
                twin = maintainer.delete_block(twin, blocks[0])
            assert snapshot(model) == before
            assert_is_definition(model, blocks)
            model = twin
        elif op == "lower":
            factor = data.draw(st.floats(0.3, 0.95), label="factor")
            model = maintainer.lower_threshold(model, model.minsup * factor)
        else:
            payload = pickle.dumps(model)
            model = pickle.loads(payload)
            assert pickle.dumps(model) == payload
        assert_is_definition(model, blocks)


def test_size_three_promoted_while_size_two_demoted():
    """One arrival moves ``(3, 4, 5)`` from the border into ``L`` and
    ``(1, 2)`` from ``L`` onto the border."""
    first = make_block(
        1, [(1, 2)] * 6 + [(3, 4), (3, 5), (4, 5)] * 3 + [(3, 4, 5)]
    )
    second = make_block(2, [(3, 4, 5)] * 16 + [(1,)] * 4 + [(2,)] * 4)
    maintainer = BordersMaintainer(0.25, counter="ecut")
    model = maintainer.build([first])
    assert model.border[(3, 4, 5)] == 1
    assert model.frequent[(1, 2)] == 6
    model = maintainer.add_block(model, second)
    assert model.frequent[(3, 4, 5)] == 17
    assert model.border[(1, 2)] == 6
    assert maintainer.last_stats.promotions >= 1
    assert maintainer.last_stats.demotions == 1
    assert_is_definition(model, [first, second])
