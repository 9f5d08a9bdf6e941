"""Checks of the benchmark's own oracle and verdict ledger.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import os
import sys
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import Oracle  # noqa: E402
from workloads import Ledger  # noqa: E402


def row(pattern: str, priority: int, value: object) -> tuple[int, int, int, object]:
    """A (data, mask, priority, value) row from a ternary string, MSB first."""
    data = mask = 0
    for ch in pattern:
        data, mask = data << 1, mask << 1
        if ch == "1":
            data |= 1
        elif ch == "*":
            mask |= 1
    return data, mask, priority, value


def bits(text: str) -> int:
    return int(text, 2)


class OracleTest(unittest.TestCase):
    def test_highest_priority_of_overlapping_rows_wins(self) -> None:
        oracle = Oracle(4, [row("1***", 1, "a"), row("10**", 3, "b"), row("101*", 2, "c")])
        self.assertEqual(oracle.lookup(bits("1011")), (3, "b"))
        self.assertEqual(oracle.lookup(bits("1001")), (3, "b"))
        self.assertEqual(oracle.lookup(bits("1100")), (1, "a"))
        self.assertIsNone(oracle.lookup(bits("0100")))

    def test_wildcard_only_row_matches_everything_below_others(self) -> None:
        oracle = Oracle(4, [row("****", 0, "default"), row("0011", 5, "exact")])
        answers = oracle.lookup_many(list(range(16)))
        self.assertEqual(answers[3], (5, "exact"))
        self.assertEqual(
            [a for i, a in enumerate(answers) if i != 3], [(0, "default")] * 15
        )

    def test_insert_and_delete_move_the_verdict(self) -> None:
        oracle = Oracle(4, [row("1***", 1, "base")])
        query = bits("1100")
        self.assertEqual(oracle.lookup(query), (1, "base"))
        data, mask, _, _ = row("11**", 0, None)
        oracle.insert(data, mask, 9, "block")
        self.assertEqual(oracle.lookup(query), (9, "block"))
        self.assertTrue(oracle.delete(data, mask))
        self.assertEqual(oracle.lookup(query), (1, "base"))
        self.assertFalse(oracle.delete(data, mask))

    def test_delete_removes_every_row_under_the_key(self) -> None:
        oracle = Oracle(4, [row("1***", 1, "low"), row("1***", 4, "high"), row("****", 0, "d")])
        self.assertEqual(oracle.lookup(bits("1000")), (4, "high"))
        data, mask, _, _ = row("1***", 0, None)
        self.assertTrue(oracle.delete(data, mask))
        self.assertEqual(oracle.lookup(bits("1000")), (0, "d"))
        self.assertEqual(len(oracle), 1)

    def test_keys_wider_than_one_limb(self) -> None:
        high = "1" + "*" * 127
        low = "*" * 127 + "1"
        oracle = Oracle(128, [row(high, 1, "high"), row(low, 2, "low")])
        self.assertEqual(oracle.lookup(1 << 127), (1, "high"))
        self.assertEqual(oracle.lookup((1 << 127) | 1), (2, "low"))
        self.assertIsNone(oracle.lookup(1 << 64))


class LedgerTest(unittest.TestCase):
    def setUp(self) -> None:
        self.oracle = Oracle(4, [row("1***", 1, "a"), row("****", 0, "d")])

    @staticmethod
    def served(priority: int, value: object) -> SimpleNamespace:
        return SimpleNamespace(priority=priority, value=value)

    def test_correct_verdicts_pass(self) -> None:
        ledger = Ledger()
        ledger.record([8, 8, 1], [self.served(1, "a"), self.served(1, "a"), self.served(0, "d")])
        self.assertEqual(ledger.check(self.oracle), 0)

    def test_corrupted_verdict_is_a_mismatch_per_packet(self) -> None:
        ledger = Ledger()
        ledger.record([8, 8, 1], [self.served(0, "d"), self.served(0, "d"), self.served(0, "d")])
        self.assertEqual(ledger.check(self.oracle), 2)

    def test_inconsistent_answers_under_one_version_are_mismatches(self) -> None:
        ledger = Ledger()
        ledger.record([8], [self.served(1, "a")])
        ledger.record([8], [self.served(0, "d")])
        self.assertEqual(ledger.check(self.oracle), 1)
        # a check clears the version: the next one starts from zero
        self.assertEqual(ledger.check(self.oracle), 0)

    def test_answers_without_a_verdict_are_mismatches_where_a_rule_matches(self) -> None:
        ledger = Ledger()
        ledger.record([8, 1], [None, object()])
        self.assertEqual(ledger.check(self.oracle), 2)

    def test_answer_without_a_verdict_is_right_where_no_rule_matches(self) -> None:
        oracle = Oracle(4, [row("1***", 1, "a")])
        ledger = Ledger()
        ledger.record([1, 8], [None, None])
        self.assertEqual(ledger.check(oracle), 1)


if __name__ == "__main__":
    unittest.main()
