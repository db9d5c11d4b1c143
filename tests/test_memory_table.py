"""`fixtures/memory_table.py`, the script that prints README's "Memory"
table, at a tiny scale."""

import pytest

from fixtures.memory_table import table


def test_table_rows_at_a_tiny_scale():
    rows = table((200, 50, 10))
    assert len(rows) == 7 and all(mb >= 0 for _, mb in rows)
    held, added, values, rules, other, backward_peak, step_peak = (mb for _, mb in rows)
    assert values > 0 and rules > 0 and values + rules + other == pytest.approx(added)
    assert step_peak >= added and backward_peak > 0
