"""Small ClickTables written out row by row, for tests."""

from __future__ import annotations

import numpy as np

from prepromo.data import ClickRow, ClickTable


def click_table(rows, features=None) -> ClickTable:
    """The ClickTable of ClickRows (or equal tuples), with optional (n, d) features."""
    rows = [ClickRow(*r) for r in rows]
    cols = list(zip(*rows)) if rows else [()] * len(ClickRow._fields)

    def history(seqs):
        width = max(map(len, seqs), default=0)
        items = np.array([list(s) + [""] * (width - len(s)) for s in seqs], dtype=str)
        return items.reshape(len(seqs), width), np.array([len(s) for s in seqs], dtype=np.int64)

    atc_items, atc_len = history(cols[10])
    pay_items, pay_len = history(cols[11])
    ints = [np.array(c, dtype=np.int64) for c in cols[3:5]]
    labels = [np.array(c, dtype=np.int8) for c in cols[7:10]]
    return ClickTable(
        *(np.array(c, dtype=str) for c in cols[:3]), *ints,
        *(np.array(c, dtype=np.float64) for c in cols[5:7]), *labels,
        atc_items=atc_items, atc_len=atc_len, pay_items=pay_items, pay_len=pay_len,
        features=None if features is None else np.asarray(features, dtype=np.float64))
