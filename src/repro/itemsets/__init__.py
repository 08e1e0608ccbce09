"""Frequent-itemset mining and incremental maintenance.

Implements the full itemset stack of the paper: Apriori with
negative-border tracking, the BORDERS incremental maintainer with
pluggable support counters (PT-Scan, ECUT, ECUT+), per-block TID-lists,
the ECUT+ 2-itemset materialization heuristic, and the FUP baseline.
"""

from repro.itemsets.apriori import MiningResult, apriori, mine_blocks
from repro.itemsets.border import (
    check_border_invariant,
    is_on_border,
    negative_border,
)
from repro.itemsets.borders import (
    BordersMaintainer,
    ItemsetMiningContext,
    MaintenanceStats,
    make_counter,
)
from repro.itemsets.counting import (
    ECUTCounter,
    ECUTPlusCounter,
    PTScanCounter,
    SupportCounter,
)
from repro.itemsets.fup import FUPMaintainer, FUPStats
from repro.itemsets.kernels import BitmapTidList
from repro.itemsets.itemset import (
    Itemset,
    Transaction,
    contains,
    generate_candidates,
    make_itemset,
    minimum_count,
    normalize_transaction,
    prefix_join,
    proper_subsets,
    support_fraction,
)
from repro.itemsets.materialize import PairTidListStore, plan_cover
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.prefix_tree import PrefixTree, count_supports
from repro.itemsets.rules import (
    AssociationRule,
    RuleDiff,
    diff_rules,
    generate_rules,
)
from repro.itemsets.tidlist import TidListStore

__all__ = [
    "Itemset",
    "Transaction",
    "make_itemset",
    "normalize_transaction",
    "contains",
    "proper_subsets",
    "prefix_join",
    "generate_candidates",
    "support_fraction",
    "minimum_count",
    "PrefixTree",
    "count_supports",
    "MiningResult",
    "apriori",
    "mine_blocks",
    "negative_border",
    "is_on_border",
    "check_border_invariant",
    "TidListStore",
    "BitmapTidList",
    "PairTidListStore",
    "plan_cover",
    "SupportCounter",
    "PTScanCounter",
    "ECUTCounter",
    "ECUTPlusCounter",
    "FrequentItemsetModel",
    "BordersMaintainer",
    "ItemsetMiningContext",
    "MaintenanceStats",
    "make_counter",
    "FUPMaintainer",
    "FUPStats",
    "AssociationRule",
    "RuleDiff",
    "generate_rules",
    "diff_rules",
]
