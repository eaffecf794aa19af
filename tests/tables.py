"""Small ClickTables written out row by row, and event logs read back as
rows, for tests."""

from __future__ import annotations

import numpy as np

from prepromo.data import ACTIONS, ActionEvent, ClickRow, ClickTable, EventLog


def click_table(rows, features=None) -> ClickTable:
    """The ClickTable of ClickRows (or equal tuples), with optional (n, d) features.

    Each vocabulary holds its ids sorted, so codes do not follow the order in
    which ids first appear; the item vocabulary includes history-only items.
    """
    rows = [ClickRow(*r) for r in rows]
    cols = list(zip(*rows)) if rows else [()] * len(ClickRow._fields)
    users, items, categories = (sorted(set(ids)) for ids in (
        cols[0], [*cols[1], *(i for seq in cols[10] + cols[11] for i in seq)], cols[2]))
    code = {kind: {s: k for k, s in enumerate(vocab)}
            for kind, vocab in (("user", users), ("item", items), ("category", categories))}

    def ids(kind, values):
        return np.array([code[kind][s] for s in values], dtype=np.int32)

    def history(seqs):
        width = max(map(len, seqs), default=0)
        codes = [[code["item"][s] for s in seq] + [-1] * (width - len(seq)) for seq in seqs]
        return (np.array(codes, dtype=np.int32).reshape(len(seqs), width),
                np.array([len(s) for s in seqs], dtype=np.int64))

    atc_items, atc_len = history(cols[10])
    pay_items, pay_len = history(cols[11])
    ints = [np.array(c, dtype=np.int64) for c in cols[3:5]]
    labels = [np.array(c, dtype=np.int8) for c in cols[7:10]]
    return ClickTable(
        ids("user", cols[0]), ids("item", cols[1]), ids("category", cols[2]), *ints,
        *(np.array(c, dtype=np.float64) for c in cols[5:7]), *labels,
        atc_items=atc_items, atc_len=atc_len, pay_items=pay_items, pay_len=pay_len,
        users=np.array(users, dtype=str), items=np.array(items, dtype=str),
        categories=np.array(categories, dtype=str),
        features=None if features is None else np.asarray(features, dtype=np.float64))


def event_rows(events: EventLog) -> list[ActionEvent]:
    """The events of an EventLog as ActionEvents, in its order."""
    columns = [vocab[codes].tolist() for vocab, codes in (
        (events.users, events.user), (events.items, events.item),
        (events.categories, events.category))]
    columns += [getattr(events, name).tolist()
                for name in ("action", "timestamp", "price", "discount")]
    return [ActionEvent(u, i, c, ACTIONS[a], t, p, d) for u, i, c, a, t, p, d in zip(*columns)]
