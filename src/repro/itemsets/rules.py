"""Association rules on top of the maintained frequent-itemset model.

DEMON's motivating analyst (the Demons'R Us marketing department, §2.2)
consumes *association rules*, not raw itemsets.  This module derives
rules from a :class:`~repro.itemsets.model.FrequentItemsetModel` — and
because the model is maintained incrementally, the rule set refreshes
after every block at no extra counting cost: every support needed for
confidence and lift is already tracked in ``L``.

Definitions (Agrawal et al.): a rule ``X ⇒ Y`` (X, Y disjoint, X ∪ Y
frequent) holds with *support* ``σ(X ∪ Y)`` and *confidence*
``σ(X ∪ Y) / σ(X)``.  *Lift* is confidence over ``σ(Y)`` — > 1 means a
positive correlation.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from repro.itemsets.itemset import Itemset
from repro.itemsets.model import FrequentItemsetModel


@dataclass(frozen=True)
class AssociationRule:
    """One rule ``antecedent ⇒ consequent`` with its quality measures.

    Attributes:
        antecedent: The rule body ``X`` (canonical itemset).
        consequent: The rule head ``Y`` (canonical itemset, disjoint).
        support: Fraction of transactions containing ``X ∪ Y``.
        confidence: ``σ(X ∪ Y) / σ(X)``.
        lift: ``confidence / σ(Y)``.
    """

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    lift: float

    @property
    def itemset(self) -> Itemset:
        """The underlying frequent itemset ``X ∪ Y``."""
        return tuple(sorted(self.antecedent + self.consequent))

    def __str__(self) -> str:
        return (
            f"{set(self.antecedent)} => {set(self.consequent)} "
            f"(sup={self.support:.3f}, conf={self.confidence:.3f}, "
            f"lift={self.lift:.2f})"
        )


def _splits(itemset: Itemset) -> Iterator[tuple[Itemset, Itemset]]:
    """All (antecedent, consequent) partitions with non-empty sides."""
    for size in range(1, len(itemset)):
        for antecedent in combinations(itemset, size):
            consequent = tuple(x for x in itemset if x not in antecedent)
            yield antecedent, consequent


def generate_rules(
    model: FrequentItemsetModel,
    min_confidence: float = 0.5,
    min_lift: float | None = None,
) -> list[AssociationRule]:
    """Derive all rules meeting the thresholds from the model.

    Only tracked supports are used — no data access.  The standard
    confidence-monotonicity prune applies: if ``X ⇒ Y`` fails the
    confidence bar, so does every rule with a smaller antecedent and
    larger consequent from the same itemset, so consequents are grown
    level-wise per itemset.

    Args:
        model: A maintained frequent-itemset model (counts in ``L``).
        min_confidence: Minimum rule confidence in ``(0, 1]``.
        min_lift: Optional minimum lift filter.

    Returns:
        Rules sorted by descending confidence, then support.
    """
    if not 0 < min_confidence <= 1:
        raise ValueError(
            f"minimum confidence must be in (0, 1], got {min_confidence}"
        )
    total = model.n_transactions
    if total == 0:
        return []
    rules: list[AssociationRule] = []
    frequent = model.frequent
    for itemset, count in frequent.items():
        if len(itemset) < 2:
            continue
        itemset_support = count / total
        for antecedent, consequent in _splits(itemset):
            antecedent_count = frequent.get(antecedent)
            consequent_count = frequent.get(consequent)
            if not antecedent_count or not consequent_count:
                # Both sides are subsets of a frequent itemset, hence
                # frequent; a miss means the model is inconsistent.
                continue
            confidence = count / antecedent_count
            if confidence < min_confidence:
                continue
            lift = confidence / (consequent_count / total)
            if min_lift is not None and lift < min_lift:
                continue
            rules.append(
                AssociationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    support=itemset_support,
                    confidence=confidence,
                    lift=lift,
                )
            )
    rules.sort(key=lambda r: (-r.confidence, -r.support, r.antecedent, r.consequent))
    return rules


@dataclass
class RuleDiff:
    """How the rule set changed between two model snapshots.

    Attributes:
        emerged: Rules present now but not before.
        vanished: Rules present before but not now.
        strengthened: Rules whose confidence rose by at least ``delta``.
        weakened: Rules whose confidence fell by at least ``delta``.
    """

    emerged: list[AssociationRule]
    vanished: list[AssociationRule]
    strengthened: list[tuple[AssociationRule, float]]
    weakened: list[tuple[AssociationRule, float]]


def diff_rules(
    before: list[AssociationRule],
    after: list[AssociationRule],
    delta: float = 0.05,
) -> RuleDiff:
    """Compare two rule sets (the analyst's block-over-block view).

    Rules are keyed by (antecedent, consequent); confidence changes of
    at least ``delta`` are reported as strengthened / weakened.
    """
    before_map = {(r.antecedent, r.consequent): r for r in before}
    after_map = {(r.antecedent, r.consequent): r for r in after}
    emerged = [r for key, r in after_map.items() if key not in before_map]
    vanished = [r for key, r in before_map.items() if key not in after_map]
    strengthened = []
    weakened = []
    for key in before_map.keys() & after_map.keys():
        change = after_map[key].confidence - before_map[key].confidence
        if change >= delta:
            strengthened.append((after_map[key], change))
        elif change <= -delta:
            weakened.append((after_map[key], change))
    return RuleDiff(
        emerged=emerged,
        vanished=vanished,
        strengthened=strengthened,
        weakened=weakened,
    )
