"""Event schema, promotion calendar, label derivation, and dataset assembly.

Label semantics for a clicked item in the pre-promotion window:

    direct conversion   -> y_all=1, y_delay=0   (purchase on the click's day)
    delayed conversion  -> y_all=1, y_delay=1   (purchase on a promotion day)
    non-conversion      -> y_all=0, y_delay=0

Purchases on in-between days count as non-conversions by default; real
platforms may differ, so `count_intermediate_as_all` flips them to direct.
A purchase is attributed to the latest preceding click of the same
(user, item) pair and satisfies at most one click. Clicks inside the daily
training window only ever receive same-day labels.

Tie rules (timestamps compare as plain integers):

- a purchase at its click's own timestamp counts for that click; of
  several clicks of the pair at the latest such timestamp, the one last in
  input order takes it;
- each click takes its label from the first qualifying purchase attributed
  to it, in timestamp order, then input order;
- a cart event at the click's own timestamp counts toward `A` (the window
  is [click ts, window end));
- `atc_seq` / `pay_seq` use only events strictly before the click, newest
  first; events with equal timestamps keep input order.

Assembly is columnar: one stable sort per key plus `np.searchsorted`, so it
costs O(n log n) in the number of events.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger("prepromo.data")

SECONDS_PER_DAY = 86400
ACTIONS = ("click", "atc", "fav", "buy")
DEFAULT_MAX_SEQ_LEN = 50


@dataclass(frozen=True, slots=True)
class ActionEvent:
    user_id: str
    item_id: str
    category_id: str
    action: str
    timestamp: int
    price: float = 0.0
    discount: float = 0.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise DataError(f"unknown action {self.action!r}")
        if self.timestamp <= 0:
            raise DataError(f"non-positive timestamp {self.timestamp}")


@dataclass(frozen=True, slots=True)
class PromotionCalendar:
    """Day-level windows: daily training days < pre-promotion days < promo days.

    Days are integer indices of `timestamp // 86400` shifted by a timezone
    offset; all label definitions in this package are day-level.
    """

    daily_train_range: tuple[int, int]
    pre_promo_range: tuple[int, int]
    promo_days: frozenset[int]
    tz_offset: int = 0

    def __post_init__(self):
        d0, d1 = self.daily_train_range
        p0, p1 = self.pre_promo_range
        if not (d0 <= d1 < p0 <= p1 < min(self.promo_days)):
            raise ConfigError(
                "calendar windows must be ordered and disjoint: "
                f"daily={self.daily_train_range}, pre={self.pre_promo_range}, "
                f"promo={sorted(self.promo_days)}")

    def day_of(self, timestamp: int) -> int:
        return (timestamp + self.tz_offset) // SECONDS_PER_DAY

    def day_start_ts(self, day: int) -> int:
        return day * SECONDS_PER_DAY - self.tz_offset

    def promo_start_ts(self) -> int:
        return self.day_start_ts(min(self.promo_days))


class ClickRow(NamedTuple):
    """One click of a ClickTable, as plain Python values."""

    user_id: str
    item_id: str
    category_id: str
    click_ts: int
    click_day: int
    price: float
    discount: float
    A: int = 0
    y_all: int = 0
    y_delay: int = 0
    atc_seq: tuple[str, ...] = ()
    pay_seq: tuple[str, ...] = ()


# The columns of a ClickTable that hold one value per click, in ClickRow order.
_SCALAR_COLUMNS = ClickRow._fields[:10]
_COLUMNS = _SCALAR_COLUMNS + ("atc_items", "atc_len", "pay_items", "pay_len")
TRUTH_KEYS = ("p_a_true", "mu1_true", "mu0_true", "q_dir_true", "ice_true")


@dataclass(slots=True, eq=False)
class ClickTable:
    """Clicks as columns: string ids, int64 times, float64 prices, int labels.

    A history kind is an (n, w) item-id array, newest first, padded with ""
    to its longest history, plus the count of real entries in each row.
    `features` is the (n, d) context of synthetic clicks, and `truth` holds
    the generator's probabilities (TRUTH_KEYS) when known.

    `len`, `+`, indexing with an int, a slice or an index array, and
    iteration as ClickRows serve the CSV writers, the benchmark and the tests;
    the pipeline itself reads whole columns.
    """

    user_id: np.ndarray
    item_id: np.ndarray
    category_id: np.ndarray
    click_ts: np.ndarray
    click_day: np.ndarray
    price: np.ndarray
    discount: np.ndarray
    A: np.ndarray
    y_all: np.ndarray
    y_delay: np.ndarray
    atc_items: np.ndarray
    atc_len: np.ndarray
    pay_items: np.ndarray
    pay_len: np.ndarray
    features: np.ndarray | None = None
    truth: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.click_ts)

    def _apply(self, fn, *others: "ClickTable") -> "ClickTable":
        """The table of fn over each column of self and others."""
        tables = (self, *others)
        return ClickTable(
            *(fn(*(getattr(t, name) for t in tables)) for name in _COLUMNS),
            features=None if self.features is None else fn(*(t.features for t in tables)),
            truth={k: fn(*(t.truth[k] for t in tables)) for k in self.truth})

    def __getitem__(self, key) -> "ClickTable | ClickRow":
        if isinstance(key, (int, np.integer)):
            return next(iter(self[np.array([key])]))
        return self._apply(lambda col: col[key])

    def __add__(self, other: "ClickTable") -> "ClickTable":
        return self._apply(_concat, other)

    def __iter__(self):
        seqs = [[tuple(row[:k]) for row, k in zip(items.tolist(), lengths.tolist())]
                for items, lengths in ((self.atc_items, self.atc_len),
                                       (self.pay_items, self.pay_len))]
        columns = [getattr(self, name).tolist() for name in _SCALAR_COLUMNS]
        return map(ClickRow._make, zip(*columns, *seqs))


def _concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of a, then of b; history arrays are padded to the wider one."""
    if a.ndim == 2 and a.dtype.kind == "U":
        width = max(a.shape[1], b.shape[1])
        a, b = (np.pad(x, [(0, 0), (0, width - x.shape[1])], constant_values="")
                for x in (a, b))
    return np.concatenate([a, b])


@dataclass(slots=True)
class DatasetSplit:
    daily_train: ClickTable
    prepromo_train: ClickTable
    prepromo_eval: ClickTable


# ---------------------------------------------------------------------------
# Label derivation and dataset assembly
# ---------------------------------------------------------------------------

_ACTION_CODE = {a: k for k, a in enumerate(ACTIONS)}
_CLICK, _ATC, _BUY = _ACTION_CODE["click"], _ACTION_CODE["atc"], _ACTION_CODE["buy"]


def derive_labels(clicks: Sequence[ActionEvent], purchases: Sequence[ActionEvent],
                  calendar: PromotionCalendar,
                  count_intermediate_as_all: bool = False) -> ClickTable:
    """Turn click/purchase events into labeled clicks.

    Clicks outside both calendar windows (promotion days included) are
    dropped, but still participate in purchase attribution. Purchases with
    no preceding click of the same (user, item) are ignored.
    """
    action = np.repeat(np.array([_CLICK, _BUY], dtype=np.int8),
                       [len(clicks), len(purchases)])
    return _assemble([*clicks, *purchases], action, calendar, 0,
                     count_intermediate_as_all)


def build_click_dataset(events: Sequence[ActionEvent], calendar: PromotionCalendar,
                        max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
                        count_intermediate_as_all: bool = False) -> ClickTable:
    """Full assembly from a raw event log: labels, ATC indicator, sequences."""
    action = np.fromiter((_ACTION_CODE[e.action] for e in events), dtype=np.int8,
                         count=len(events))
    return _assemble(events, action, calendar, max_seq_len, count_intermediate_as_all)


def _grouped_order(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order by the keys (first key major) and a dense code per group.

    Events with equal keys form a group and keep their input order. The codes
    never fall along the order, so `np.searchsorted` locates an event within
    any subsequence of it, such as the cart events alone, without packing
    several keys into one integer.
    """
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    code = np.empty(len(order), dtype=np.int64)
    code[order] = np.cumsum(starts) - 1
    return order, code


def _assemble(events: Sequence[ActionEvent], action: np.ndarray,
              calendar: PromotionCalendar, max_seq_len: int,
              count_intermediate_as_all: bool) -> ClickTable:
    """Labels, cart indicator and sequences of every in-window click.

    `action[k]` is the action code of `events[k]`; clicks come out in their
    input order.
    """
    n = len(events)
    ts = np.fromiter((e.timestamp for e in events), dtype=np.int64, count=n)
    day = (ts + calendar.tz_offset) // SECONDS_PER_DAY
    daily = (calendar.daily_train_range[0] <= day) & (day <= calendar.daily_train_range[1])
    pre = (calendar.pre_promo_range[0] <= day) & (day <= calendar.pre_promo_range[1])
    sample = np.flatnonzero((action == _CLICK) & (daily | pre))
    user_id = np.array([e.user_id for e in events], dtype=str)
    item_id = np.array([e.item_id for e in events], dtype=str)
    user = np.unique(user_id, return_inverse=True)[1]
    pair = _grouped_order(user, np.unique(item_id, return_inverse=True)[1])[1]
    y_all, y_delay, A = _pair_outcomes(action, pair, ts, day, daily, pre, sample,
                                       calendar, count_intermediate_as_all)
    atc_items, atc_len, pay_items, pay_len = user_histories(
        user, ts, item_id, sample, max_seq_len, action == _ATC, action == _BUY)
    clicks = [events[k] for k in sample.tolist()]
    return ClickTable(
        user_id=user_id[sample], item_id=item_id[sample],
        category_id=np.array([e.category_id for e in clicks], dtype=str),
        click_ts=ts[sample], click_day=day[sample],
        price=np.array([e.price for e in clicks], dtype=np.float64),
        discount=np.array([e.discount for e in clicks], dtype=np.float64),
        A=A, y_all=y_all, y_delay=y_delay, atc_items=atc_items, atc_len=atc_len,
        pay_items=pay_items, pay_len=pay_len)


def _pair_outcomes(action, pair, ts, day, daily, pre, sample, calendar,
                   count_intermediate_as_all):
    """(y_all, y_delay, A) of the sample clicks, from their pair's purchases
    and cart events."""
    by_pair, pair_code = _grouped_order(pair, ts)
    # Clicks by (pair, ts), input order within a timestamp.
    clicks = by_pair[action[by_pair] == _CLICK]

    # Attribution: each purchase, in (ts, input) order, goes to the last click
    # of its pair whose (pair, ts) group is not after its own.
    buys = np.flatnonzero(action == _BUY)
    buys = buys[np.argsort(ts[buys], kind="stable")]
    k = np.searchsorted(pair_code[clicks], pair_code[buys], side="right") - 1
    buys, owner = buys[k >= 0], clicks[k[k >= 0]]
    found = pair[owner] == pair[buys]
    owner, buy_day = owner[found], day[buys[found]]
    same_day = buy_day == day[owner]
    # A later-day purchase counts only for clicks outside the daily window.
    later = ~same_day & ~daily[owner]
    delayed = later & np.isin(buy_day, list(calendar.promo_days))
    # Each click takes its label from its first qualifying purchase.
    qualifies = same_day | delayed | (later & count_intermediate_as_all)
    labelled, first = np.unique(owner[qualifies], return_index=True)
    y_all = np.zeros(len(action), dtype=np.int8)
    y_delay = np.zeros(len(action), dtype=np.int8)
    y_all[labelled] = 1
    y_delay[labelled] = delayed[qualifies][first]

    # A: the pair's first cart event at or after the click falls before the
    # window closes (promotion start, or the end of a daily click's day).
    atcs = by_pair[action[by_pair] == _ATC]
    A = np.zeros(len(sample), dtype=np.int8)
    if len(atcs):
        k = np.searchsorted(pair_code[atcs], pair_code[sample], side="left")
        nxt = atcs[np.minimum(k, len(atcs) - 1)]
        window_end = np.where(pre[sample], calendar.promo_start_ts(),
                              (day[sample] + 1) * SECONDS_PER_DAY - calendar.tz_offset)
        A[:] = ((k < len(atcs)) & (pair[nxt] == pair[sample])
                & (ts[nxt] < window_end))
    return y_all[sample], y_delay[sample], A


def user_histories(user: np.ndarray, ts: np.ndarray, item: np.ndarray,
                   rows: np.ndarray, max_seq_len: int, *kinds: np.ndarray) -> list:
    """Padded item histories of the events `rows`, one per kind of event.

    `user` holds integer user codes, `item` the item ids and each kind a
    boolean mask over the events. A row's history of a kind holds the items
    of that kind's events by the same user strictly before the row's ts,
    newest first (equal timestamps in input order), cut to max_seq_len.
    Returns, per kind, an item array padded with "" to the longest history
    and the (n,) count of real entries.
    """
    # Each user's events run newest first; a row's history starts after its
    # own (user, ts) group and ends with the user's last event.
    by_user, user_code = _grouped_order(user, -ts)
    out = []
    for kind in kinds:
        found = by_user[kind[by_user]]
        lo = np.searchsorted(user_code[found], user_code[rows], side="right")
        length = np.minimum(np.searchsorted(user[found], user[rows], side="right") - lo,
                            max_seq_len)
        at = lo[:, None] + np.arange(length.max(initial=0))
        # Index len(found) picks the "" appended as padding.
        padded = np.append(item[found], "")
        out += [padded[np.where(at < (lo + length)[:, None], at, len(found))], length]
    return out


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_dataset(clicks: ClickTable, calendar: PromotionCalendar,
                      split_ratio: float = 0.8, seed: int = 0) -> DatasetSplit:
    """Daily clicks pass through; pre-promotion clicks are shuffled and split."""
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0, 1), got {split_ratio}")
    day = clicks.click_day
    (lo, hi), (p0, p1) = calendar.daily_train_range, calendar.pre_promo_range
    prepromo = np.flatnonzero((p0 <= day) & (day <= p1))
    if not len(prepromo):
        raise DataError("no pre-promotion samples in calendar window")
    order = np.random.default_rng(seed).permutation(len(prepromo))
    cut = int(len(prepromo) * split_ratio)
    return DatasetSplit(daily_train=clicks[np.flatnonzero((lo <= day) & (day <= hi))],
                        prepromo_train=clicks[prepromo[order[:cut]]],
                        prepromo_eval=clicks[prepromo[order[cut:]]])


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

DEFAULT_ACTION_MAP = {
    "click": "click", "pv": "click",
    "atc": "atc", "cart": "atc", "add-to-cart": "atc",
    "fav": "fav", "favorite": "fav",
    "buy": "buy", "pay": "buy", "purchase": "buy",
}


@dataclass(slots=True)
class CsvSchema:
    """Column layout and value mappings for action-event CSV files."""

    delimiter: str = ","
    user_col: int = 0
    item_col: int = 1
    category_col: int = 2
    action_col: int = 3
    timestamp_col: int = 4
    price_col: int | None = None
    discount_col: int | None = None
    action_map: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ACTION_MAP))
    max_malformed: int = 100


def ingest_csv(path, schema: CsvSchema | None = None) -> list[ActionEvent]:
    """Parse an event log, skipping malformed rows up to the schema threshold.

    Rows with an unmapped action string are skipped per row (logged, never
    fatal). A nan or inf price or discount raises DataError naming the row.
    Output is sorted ascending by timestamp, ties keeping file order.
    """
    schema = schema or CsvSchema()
    needed = [schema.user_col, schema.item_col, schema.category_col,
              schema.action_col, schema.timestamp_col]
    if schema.price_col is not None:
        needed.append(schema.price_col)
    if schema.discount_col is not None:
        needed.append(schema.discount_col)
    width = max(needed) + 1

    events: list[ActionEvent] = []
    malformed: list[int] = []
    unknown_actions = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < width:
                malformed.append(lineno)
                continue
            action = schema.action_map.get(row[schema.action_col].strip())
            if action is None:
                unknown_actions += 1
                continue
            try:
                event = ActionEvent(
                    user_id=row[schema.user_col].strip(),
                    item_id=row[schema.item_col].strip(),
                    category_id=row[schema.category_col].strip(),
                    action=action,
                    timestamp=int(row[schema.timestamp_col]),
                    price=float(row[schema.price_col]) if schema.price_col is not None else 0.0,
                    discount=float(row[schema.discount_col]) if schema.discount_col is not None else 0.0,
                )
            except (ValueError, DataError):
                malformed.append(lineno)
                continue
            # A non-finite feature would reach every parameter through the
            # optimizer, so it aborts the load instead of counting as malformed.
            if not (math.isfinite(event.price) and math.isfinite(event.discount)):
                raise DataError(f"row {lineno} of {path}: non-finite price {event.price!r} "
                                f"or discount {event.discount!r}")
            events.append(event)
    if len(malformed) > schema.max_malformed:
        shown = ", ".join(map(str, malformed[:20]))
        raise DataError(
            f"{len(malformed)} malformed rows in {path} (threshold "
            f"{schema.max_malformed}); first rows: {shown}")
    if malformed:
        log.warning("skipped %d malformed rows in %s", len(malformed), path)
    if unknown_actions:
        log.warning("skipped %d rows with unmapped actions in %s", unknown_actions, path)
    if not events:
        log.warning("no events parsed from %s", path)
    events.sort(key=lambda e: e.timestamp)
    return events


def write_events_csv(events: Iterable[ActionEvent], path,
                     schema: CsvSchema | None = None) -> None:
    """Inverse of ingest_csv for the default five-column layout (+price/discount)."""
    schema = schema or CsvSchema()
    reverse_action = {}
    for raw, canon in schema.action_map.items():
        reverse_action.setdefault(canon, raw)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter)
        for e in sorted(events, key=lambda e: e.timestamp):
            row = [e.user_id, e.item_id, e.category_id,
                   reverse_action.get(e.action, e.action), str(e.timestamp)]
            if schema.price_col is not None:
                row.append(repr(e.price))
            if schema.discount_col is not None:
                row.append(repr(e.discount))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Feature encoding (click table -> model arrays)
# ---------------------------------------------------------------------------

OOV_INDEX = 0


@dataclass(slots=True)
class EncodedDataset:
    """Model-ready arrays of a ClickTable, for batched training."""

    dense: np.ndarray          # (n, dense_dim): context features ++ [price, discount]
    user_idx: np.ndarray       # (n,) int
    item_idx: np.ndarray
    cat_idx: np.ndarray
    price_bucket: np.ndarray
    disc_bucket: np.ndarray
    atc_seq: np.ndarray        # (n, L) int
    atc_mask: np.ndarray       # (n, L) float in {0, 1}
    pay_seq: np.ndarray
    pay_mask: np.ndarray
    y_all: np.ndarray          # (n,) float
    y_delay: np.ndarray
    A: np.ndarray
    truth: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.y_all)

    def take(self, idx: np.ndarray) -> "EncodedDataset":
        return EncodedDataset(
            dense=self.dense[idx], user_idx=self.user_idx[idx],
            item_idx=self.item_idx[idx], cat_idx=self.cat_idx[idx],
            price_bucket=self.price_bucket[idx], disc_bucket=self.disc_bucket[idx],
            atc_seq=self.atc_seq[idx], atc_mask=self.atc_mask[idx],
            pay_seq=self.pay_seq[idx], pay_mask=self.pay_mask[idx],
            y_all=self.y_all[idx], y_delay=self.y_delay[idx], A=self.A[idx],
            truth={k: v[idx] for k, v in self.truth.items()})

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        order = np.arange(self.n) if rng is None else rng.permutation(self.n)
        for start in range(0, self.n, batch_size):
            yield self.take(order[start:start + batch_size])


class FeatureEncoder:
    """Shared input assembly: id vocabularies and price/discount buckets.

    Vocabularies are built from the fitting corpus; index 0 of every table is
    reserved for out-of-vocabulary ids seen later.
    """

    def __init__(self, n_buckets: int = 16, max_seq_len: int = DEFAULT_MAX_SEQ_LEN):
        self.n_buckets = n_buckets
        self.max_seq_len = max_seq_len
        self.user_vocab: dict[str, int] = {}
        self.item_vocab: dict[str, int] = {}
        self.cat_vocab: dict[str, int] = {}
        self.price_edges = np.zeros(0)
        self.disc_edges = np.zeros(0)
        self.dense_dim = 0

    def fit(self, clicks: ClickTable) -> "FeatureEncoder":
        if not len(clicks):
            raise DataError("cannot fit encoder on an empty click table")
        self.user_vocab = _first_seen(clicks.user_id)
        self.item_vocab = _first_seen(clicks.item_id)
        self.cat_vocab = _first_seen(clicks.category_id)
        qs = np.linspace(0, 1, self.n_buckets + 1)[1:-1]
        self.price_edges = np.unique(np.quantile(clicks.price, qs))
        self.disc_edges = np.unique(np.quantile(clicks.discount, qs))
        ctx = 0 if clicks.features is None else clicks.features.shape[1]
        self.dense_dim = ctx + 2
        return self

    @property
    def n_users(self) -> int:
        return len(self.user_vocab) + 1

    @property
    def n_items(self) -> int:
        return len(self.item_vocab) + 1

    @property
    def n_categories(self) -> int:
        return len(self.cat_vocab) + 1

    def _encode_seq(self, items: np.ndarray, lengths: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        n, L = len(items), self.max_seq_len
        width = min(L, items.shape[1])
        filled = np.arange(width) < lengths[:, None]
        ids = np.zeros((n, L), dtype=np.int64)
        ids[:, :width] = np.where(filled, _lookup(self.item_vocab, items[:, :width]),
                                  OOV_INDEX)
        mask = np.zeros((n, L))
        mask[:, :width] = filled
        return ids, mask

    def encode(self, clicks: ClickTable) -> EncodedDataset:
        n = len(clicks)
        ctx = self.dense_dim - 2
        dense = np.empty((n, self.dense_dim))
        if ctx:
            width = 0 if clicks.features is None else clicks.features.shape[1]
            if width != ctx:
                raise DataError(f"clicks have {width} context features, "
                                f"encoder expects {ctx}")
            dense[:, :ctx] = clicks.features
        dense[:, ctx] = clicks.price
        dense[:, ctx + 1] = clicks.discount
        # One non-finite input would reach every parameter through the optimizer.
        bad = np.flatnonzero(~np.isfinite(dense).all(axis=1))
        if len(bad):
            s = clicks[int(bad[0])]
            raise DataError(
                f"sample {bad[0]} (user {s.user_id!r}, item {s.item_id!r}, "
                f"ts {s.click_ts}) has a non-finite context feature, price or discount")

        atc_ids, atc_mask = self._encode_seq(clicks.atc_items, clicks.atc_len)
        pay_ids, pay_mask = self._encode_seq(clicks.pay_items, clicks.pay_len)
        return EncodedDataset(
            dense=dense,
            user_idx=_lookup(self.user_vocab, clicks.user_id),
            item_idx=_lookup(self.item_vocab, clicks.item_id),
            cat_idx=_lookup(self.cat_vocab, clicks.category_id),
            price_bucket=np.searchsorted(self.price_edges, clicks.price, side="right"),
            disc_bucket=np.searchsorted(self.disc_edges, clicks.discount, side="right"),
            atc_seq=atc_ids, atc_mask=atc_mask, pay_seq=pay_ids, pay_mask=pay_mask,
            y_all=clicks.y_all.astype(np.float64),
            y_delay=clicks.y_delay.astype(np.float64),
            A=clicks.A.astype(np.float64),
            truth=dict(clicks.truth))

    def to_dict(self) -> dict:
        return {
            "n_buckets": self.n_buckets,
            "max_seq_len": self.max_seq_len,
            "user_vocab": self.user_vocab,
            "item_vocab": self.item_vocab,
            "cat_vocab": self.cat_vocab,
            "price_edges": self.price_edges.tolist(),
            "disc_edges": self.disc_edges.tolist(),
            "dense_dim": self.dense_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureEncoder":
        enc = cls(n_buckets=d["n_buckets"], max_seq_len=d["max_seq_len"])
        enc.user_vocab = dict(d["user_vocab"])
        enc.item_vocab = dict(d["item_vocab"])
        enc.cat_vocab = dict(d["cat_vocab"])
        enc.price_edges = np.asarray(d["price_edges"], dtype=np.float64)
        enc.disc_edges = np.asarray(d["disc_edges"], dtype=np.float64)
        enc.dense_dim = d["dense_dim"]
        return enc


def _first_seen(ids: np.ndarray) -> dict[str, int]:
    """Vocabulary of the distinct ids, numbered from 1 in order of first appearance."""
    distinct, first = np.unique(ids, return_index=True)
    return dict(zip(distinct[np.argsort(first)].tolist(), range(1, len(distinct) + 1)))


def _lookup(vocab: dict[str, int], ids: np.ndarray) -> np.ndarray:
    """Vocabulary index of every id in an array; OOV_INDEX for unknown ids."""
    if not vocab:
        return np.full(ids.shape, OOV_INDEX, dtype=np.int64)
    keys = np.array(list(vocab), dtype=str)
    order = np.argsort(keys)
    keys = keys[order]
    codes = np.fromiter(vocab.values(), dtype=np.int64, count=len(vocab))[order]
    at = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    return np.where(keys[at] == ids, codes[at], OOV_INDEX)
