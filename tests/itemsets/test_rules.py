"""Tests for association-rule derivation from the maintained model."""

import pytest

from repro.itemsets.apriori import mine_transactions
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.rules import AssociationRule, diff_rules, generate_rules


TRANSACTIONS = [
    (1, 2, 3),
    (1, 2, 3),
    (1, 2),
    (1, 3),
    (2, 3),
    (1, 2, 3),
    (4,),
    (1, 4),
]


def model(minsup=0.2):
    result = mine_transactions(lambda: TRANSACTIONS, minsup=minsup)
    return FrequentItemsetModel.from_mining_result(result, [1])


def count(itemset):
    from repro.itemsets.itemset import contains

    return sum(1 for t in TRANSACTIONS if contains(t, itemset))


class TestGenerateRules:
    def test_measures_match_definitions(self):
        rules = generate_rules(model(), min_confidence=0.1)
        total = len(TRANSACTIONS)
        for rule in rules:
            union = rule.itemset
            assert rule.support == pytest.approx(count(union) / total)
            assert rule.confidence == pytest.approx(
                count(union) / count(rule.antecedent)
            )
            assert rule.lift == pytest.approx(
                rule.confidence / (count(rule.consequent) / total)
            )

    def test_all_partitions_enumerated(self):
        rules = generate_rules(model(), min_confidence=0.01)
        from_123 = [r for r in rules if r.itemset == (1, 2, 3)]
        # 2^3 - 2 = 6 ordered partitions of a 3-itemset.
        assert len(from_123) == 6

    def test_confidence_threshold_filters(self):
        strict = generate_rules(model(), min_confidence=0.9)
        loose = generate_rules(model(), min_confidence=0.1)
        assert len(strict) < len(loose)
        assert all(r.confidence >= 0.9 for r in strict)

    def test_lift_threshold_filters(self):
        rules = generate_rules(model(), min_confidence=0.1, min_lift=1.1)
        assert all(r.lift >= 1.1 for r in rules)

    def test_sides_are_disjoint_and_cover_itemset(self):
        for rule in generate_rules(model(), min_confidence=0.1):
            assert not set(rule.antecedent) & set(rule.consequent)
            assert tuple(sorted(rule.antecedent + rule.consequent)) == rule.itemset

    def test_sorted_by_confidence(self):
        rules = generate_rules(model(), min_confidence=0.1)
        confidences = [r.confidence for r in rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_empty_model(self):
        empty = FrequentItemsetModel(minsup=0.5)
        assert generate_rules(empty) == []

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            generate_rules(model(), min_confidence=0.0)

    def test_str_rendering(self):
        rule = AssociationRule((1,), (2,), 0.5, 0.8, 1.2)
        assert "=>" in str(rule)


class TestDiffRules:
    def rule(self, a, c, confidence):
        return AssociationRule(a, c, 0.3, confidence, 1.0)

    def test_emerged_and_vanished(self):
        before = [self.rule((1,), (2,), 0.8)]
        after = [self.rule((2,), (3,), 0.7)]
        diff = diff_rules(before, after)
        assert [r.antecedent for r in diff.emerged] == [(2,)]
        assert [r.antecedent for r in diff.vanished] == [(1,)]

    def test_strengthened_and_weakened(self):
        before = [self.rule((1,), (2,), 0.6), self.rule((3,), (4,), 0.9)]
        after = [self.rule((1,), (2,), 0.8), self.rule((3,), (4,), 0.7)]
        diff = diff_rules(before, after, delta=0.1)
        assert len(diff.strengthened) == 1
        assert diff.strengthened[0][1] == pytest.approx(0.2)
        assert len(diff.weakened) == 1

    def test_small_changes_ignored(self):
        before = [self.rule((1,), (2,), 0.70)]
        after = [self.rule((1,), (2,), 0.72)]
        diff = diff_rules(before, after, delta=0.05)
        assert not diff.strengthened and not diff.weakened


class TestRulesOverEvolvingData:
    def test_rules_refresh_after_block_addition(self):
        """The analyst workflow: maintained model in, fresh rules out."""
        from repro.core.blocks import make_block
        from repro.itemsets.borders import BordersMaintainer

        maintainer = BordersMaintainer(0.2, counter="ecut")
        block1 = make_block(1, [(1, 2)] * 8 + [(3,)] * 2)
        block2 = make_block(2, [(3, 4)] * 30)
        m = maintainer.build([block1])
        rules_before = generate_rules(m, min_confidence=0.6)
        m = maintainer.add_block(m, block2)
        rules_after = generate_rules(m, min_confidence=0.6)
        keys_after = {(r.antecedent, r.consequent) for r in rules_after}
        assert ((3,), (4,)) in keys_after
        diff = diff_rules(rules_before, rules_after)
        assert any(r.antecedent == (3,) for r in diff.emerged)
