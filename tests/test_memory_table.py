"""`fixtures/memory_table.py`, the script that prints README's "Memory"
table, at a tiny scale."""

import pytest

from fixtures.memory_table import table


def test_table_rows_at_a_tiny_scale():
    rows = table((200, 50, 10), rounds=1)
    assert len(rows) == 8 and all(mb >= 0 for _, mb in rows)
    held, added, values, rules, other, backward_peak, step_peak, rss = (mb for _, mb in rows)
    assert values > 0 and rules > 0 and values + rules + other == pytest.approx(added)
    assert step_peak >= added and backward_peak > 0 and rss > 0
