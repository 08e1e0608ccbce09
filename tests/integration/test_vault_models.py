"""Integration: every model class round-trips through the vault and
runs under GEMM's disk-resident mode (§3.2.3 across the whole zoo)."""

import numpy as np

from repro.clustering.birch_plus import BirchPlusMaintainer
from repro.clustering.dbscan import IncrementalDBSCANMaintainer
from repro.core.gemm import GEMM
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext
from repro.storage.persist import ModelVault, load_model, save_model
from tests.conftest import gaussian_point_blocks, transaction_blocks


class TestSerializationRoundTrips:
    def test_itemset_model(self):
        blocks = transaction_blocks(2, 150, seed=1500)
        maintainer = BordersMaintainer(0.05, counter="ecut")
        model = maintainer.build(blocks)
        revived = load_model(save_model(model))
        assert revived.frequent == model.frequent
        assert revived.border == model.border
        assert revived.selected_block_ids == model.selected_block_ids

    def test_birch_state(self):
        blocks = gaussian_point_blocks(2, 150, seed=1600)
        maintainer = BirchPlusMaintainer(k=3, threshold=1.0)
        state = maintainer.build(blocks)
        revived = load_model(save_model(state))
        assert revived.tree.n_points == state.tree.n_points
        assert revived.clusters.k == state.clusters.k
        assert revived.tree.check_invariants() == []

    def test_dbscan_model(self):
        maintainer = IncrementalDBSCANMaintainer(eps=1.5, min_pts=4, dim=2)
        blocks = gaussian_point_blocks(2, 120, seed=1700)
        model = maintainer.build(blocks)
        revived = load_model(save_model(model))
        assert len(revived.clustering) == len(model.clustering)
        assert revived.clustering.clusters().keys() == (
            model.clustering.clusters().keys()
        )


class TestRestoreThenMaintainEquivalence:
    """A model revived from the vault must be maintainable: feeding it
    the next block yields the same model as uninterrupted maintenance.
    This is the property session checkpoints stand on."""

    @staticmethod
    def vault_round_trip(model):
        """Store, cross a simulated process boundary, fetch back."""
        vault = ModelVault()
        vault.put("model", model)  # demonlint: disable=DML011 (private single-tenant vault)
        revived_vault = load_model(save_model(vault))
        return revived_vault.get("model")  # demonlint: disable=DML011 (private single-tenant vault)

    def test_itemset_model(self):
        blocks = transaction_blocks(3, 150, seed=2100)
        maintainer = BordersMaintainer(0.05, counter="ecut")
        truth = maintainer.build(blocks)
        revived = self.vault_round_trip(maintainer.build(blocks[:2]))
        resumed = maintainer.add_block(revived, blocks[2])
        assert resumed.frequent == truth.frequent
        assert resumed.border == truth.border
        assert resumed.n_transactions == truth.n_transactions
        assert resumed.selected_block_ids == truth.selected_block_ids

    def test_birch_state(self):
        blocks = gaussian_point_blocks(3, 150, seed=2200)
        maintainer = BirchPlusMaintainer(k=3, threshold=1.0)
        truth = maintainer.build(blocks)
        revived = self.vault_round_trip(maintainer.build(blocks[:2]))
        resumed = maintainer.add_block(revived, blocks[2])
        assert resumed.tree.n_points == truth.tree.n_points
        assert resumed.selected_block_ids == truth.selected_block_ids
        assert resumed.clusters.k == truth.clusters.k
        assert np.allclose(
            sorted(tuple(c.centroid()) for c in resumed.clusters.clusters),
            sorted(tuple(c.centroid()) for c in truth.clusters.clusters),
        )

    def test_dbscan_model(self):
        blocks = gaussian_point_blocks(3, 120, seed=2300)
        maintainer = IncrementalDBSCANMaintainer(eps=1.5, min_pts=4, dim=2)
        truth = maintainer.build(blocks)
        revived = self.vault_round_trip(maintainer.build(blocks[:2]))
        resumed = maintainer.add_block(revived, blocks[2])
        assert len(resumed.clustering) == len(truth.clustering)
        assert (
            resumed.clustering.clusters().keys()
            == truth.clustering.clusters().keys()
        )


class TestGEMMVaultAcrossModelClasses:
    def test_itemsets_vaulted_window(self):
        blocks = transaction_blocks(6, 120, seed=1800)
        maintainer = BordersMaintainer(0.05, ItemsetMiningContext(), counter="ecut")
        gemm = GEMM(maintainer, w=3, vault=ModelVault())
        for block in blocks:
            gemm.observe(block)
        truth = mine_blocks(blocks[3:], 0.05)
        assert gemm.current_model().frequent == truth.frequent
        assert len(gemm._models) <= 2  # current + empty only in memory

    def test_birch_vaulted_window(self):
        blocks = gaussian_point_blocks(5, 120, seed=1900)
        maintainer = BirchPlusMaintainer(k=3, threshold=1.0)
        vault = ModelVault()
        gemm = GEMM(maintainer, w=2, vault=vault)
        for block in blocks:
            gemm.observe(block)
        state = gemm.current_model()
        assert state.tree.n_points == len(blocks[3]) + len(blocks[4])
        assert vault.stats.bytes_written > 0

    def test_dbscan_vaulted_window(self):
        blocks = gaussian_point_blocks(5, 120, seed=2400)
        maintainer = IncrementalDBSCANMaintainer(eps=1.5, min_pts=4, dim=2)
        vault = ModelVault()
        gemm = GEMM(maintainer, w=2, vault=vault)
        for block in blocks:
            gemm.observe(block)
        model = gemm.current_model()
        assert sorted(model.selected_block_ids) == [4, 5]
        assert len(model.clustering) == len(blocks[3]) + len(blocks[4])
        assert vault.stats.bytes_written > 0

    def test_vault_footprint_is_small_vs_data(self):
        """§3.2.3: 'the space occupied by a model is insignificant when
        compared to that occupied by the data in each block'."""
        blocks = transaction_blocks(6, 400, seed=2000)
        context = ItemsetMiningContext()
        maintainer = BordersMaintainer(0.2, context, counter="ecut")
        vault = ModelVault()
        gemm = GEMM(maintainer, w=3, vault=vault)
        for block in blocks:
            gemm.observe(block)
        data_bytes = context.block_store.total_nbytes()
        assert vault.total_nbytes() < data_bytes
