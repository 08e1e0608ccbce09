"""Decision-tree model class: classifier and maintainers.

The paper's third model class.  DEMON itself defers incremental tree
construction to BOAT; here a from-scratch Gini tree plus two ``A_M``
implementations (leaf-refinement and naive rebuild) make the class
available to GEMM.
"""

from repro.trees.dtree import (
    DecisionTree,
    LabelledPoint,
    Region,
    TreeNode,
    gini,
)
from repro.trees.maintain import (
    LeafRefinementTreeMaintainer,
    RebuildingTreeMaintainer,
    TreeModel,
)

__all__ = [
    "DecisionTree",
    "TreeNode",
    "Region",
    "LabelledPoint",
    "gini",
    "TreeModel",
    "LeafRefinementTreeMaintainer",
    "RebuildingTreeMaintainer",
]
