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

Assembly is columnar: one stable sort per key plus searches by counting, so
it costs O(n log n) in the number of events.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import length_hint
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger("prepromo.data")

SECONDS_PER_DAY = 86400
ACTIONS = ("click", "atc", "fav", "buy")
_ACTION_CODE = {a: k for k, a in enumerate(ACTIONS)}
_CLICK, _ATC, _BUY = _ACTION_CODE["click"], _ACTION_CODE["atc"], _ACTION_CODE["buy"]
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


@dataclass(slots=True, eq=False)
class EventLog:
    """Events as columns: string ids, int8 action codes (indices into
    ACTIONS), int64 timestamps and float64 prices and discounts.

    `user` and `item` number the distinct user and item ids from 0, in any
    order: assembly only tests codes for equality. `ingest_csv` returns an
    EventLog; `EventLog.of` adapts a sequence of ActionEvents.
    """

    user_id: np.ndarray
    item_id: np.ndarray
    category_id: np.ndarray
    action: np.ndarray
    timestamp: np.ndarray
    price: np.ndarray
    discount: np.ndarray
    user: np.ndarray
    item: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def of(cls, events: Sequence[ActionEvent]) -> "EventLog":
        """The columns of the events, in their order."""
        n = len(events)
        user_id, item_id, category_id = (
            np.array([getattr(e, name) for e in events], dtype=str)
            for name in ("user_id", "item_id", "category_id"))
        return cls(
            user_id=user_id, item_id=item_id, category_id=category_id,
            action=np.fromiter((_ACTION_CODE[e.action] for e in events), np.int8, n),
            timestamp=np.fromiter((e.timestamp for e in events), np.int64, n),
            price=np.fromiter((e.price for e in events), np.float64, n),
            discount=np.fromiter((e.discount for e in events), np.float64, n),
            user=np.unique(user_id, return_inverse=True)[1],
            item=np.unique(item_id, return_inverse=True)[1])


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

def build_click_dataset(events: EventLog | Sequence[ActionEvent],
                        calendar: PromotionCalendar,
                        max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
                        count_intermediate_as_all: bool = False) -> ClickTable:
    """Labels, cart indicator and sequences of every in-window click of a
    raw event log, in input order.

    Clicks outside both calendar windows (promotion days included) are
    dropped, but still take part in purchase attribution. Purchases with no
    preceding click of the same (user, item) are ignored.
    """
    if not isinstance(events, EventLog):
        events = EventLog.of(events)
    action, ts = events.action, events.timestamp
    day = (ts + calendar.tz_offset) // SECONDS_PER_DAY
    daily = (calendar.daily_train_range[0] <= day) & (day <= calendar.daily_train_range[1])
    pre = (calendar.pre_promo_range[0] <= day) & (day <= calendar.pre_promo_range[1])
    sample = np.flatnonzero((action == _CLICK) & (daily | pre))
    # One integer per (user, item) pair. Codes are below the id counts, so
    # the key stays under n_events ** 2 and fits int64.
    pair = events.user * (events.item.max(initial=0) + 1) + events.item
    y_all, y_delay, A = _pair_outcomes(action, pair, ts, day, daily, pre, sample,
                                       calendar, count_intermediate_as_all)
    atc_items, atc_len, pay_items, pay_len = user_histories(
        events.user, ts, events.item_id, sample, max_seq_len, action == _ATC,
        action == _BUY)
    return ClickTable(
        user_id=events.user_id[sample], item_id=events.item_id[sample],
        category_id=events.category_id[sample], click_ts=ts[sample],
        click_day=day[sample], price=events.price[sample],
        discount=events.discount[sample], A=A, y_all=y_all, y_delay=y_delay,
        atc_items=atc_items, atc_len=atc_len, pay_items=pay_items, pay_len=pay_len)


def _grouped_order(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order by the keys (first key major) and a dense code per group.

    Events with equal keys form a group and keep their input order. The codes
    never fall along the order, so `_searchsorted` locates an event within
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


def _searchsorted(codes: np.ndarray, queries: np.ndarray, side: str) -> np.ndarray:
    """`np.searchsorted(codes, queries, side)` for sorted non-negative integer
    codes, by counting the codes below each value: O(len + largest code)
    instead of a binary search per query."""
    below = np.zeros(max(codes.max(initial=-1), queries.max(initial=-1)) + 2, np.int64)
    np.cumsum(np.bincount(codes, minlength=len(below) - 1), out=below[1:])
    return below[queries + (side == "right")]


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
    k = _searchsorted(pair_code[clicks], pair_code[buys], side="right") - 1
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
        k = _searchsorted(pair_code[atcs], pair_code[sample], side="left")
        nxt = atcs[np.minimum(k, len(atcs) - 1)]
        window_end = np.where(pre[sample], calendar.promo_start_ts(),
                              (day[sample] + 1) * SECONDS_PER_DAY - calendar.tz_offset)
        A[:] = ((k < len(atcs)) & (pair[nxt] == pair[sample])
                & (ts[nxt] < window_end))
    return y_all[sample], y_delay[sample], A


def user_histories(user: np.ndarray, ts: np.ndarray, item: np.ndarray,
                   rows: np.ndarray, max_seq_len: int, *kinds: np.ndarray) -> list:
    """Padded item histories of the events `rows`, one per kind of event.

    `user` holds non-negative integer user codes, `item` the item ids and
    each kind a boolean mask over the events. A row's history of a kind holds
    the items of that kind's events by the same user strictly before the
    row's ts, newest first (equal timestamps in input order), cut to
    max_seq_len.
    Returns, per kind, an item array padded with "" to the longest history
    and the (n,) count of real entries.
    """
    # Each user's events run newest first; a row's history starts after its
    # own (user, ts) group and ends with the user's last event.
    by_user, user_code = _grouped_order(user, -ts)
    out = []
    for kind in kinds:
        found = by_user[kind[by_user]]
        lo = _searchsorted(user_code[found], user_code[rows], side="right")
        length = np.minimum(_searchsorted(user[found], user[rows], side="right") - lo,
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

    def __post_init__(self):
        taken: dict[int, str] = {}
        for name in ("user", "item", "category", "action", "timestamp", "price",
                     "discount"):
            col = getattr(self, f"{name}_col")
            if col is None:
                continue
            if col < 0:
                raise ConfigError(f"csv {name} column must be non-negative, got {col}")
            if col in taken:
                raise ConfigError(f"csv {name} and {taken[col]} columns are both {col}")
            taken[col] = name


# Records parsed at a time. A block's csv rows cost about 500 bytes a record
# while they are alive, the columns they leave about 50. Blocks of 512 to
# 1024 records parsed fastest: their rows stay in cache while being split
# into columns.
_BLOCK = 1 << 10
_UNMAPPED, _INVALID = -1, -2


def ingest_csv(path, schema: CsvSchema | None = None) -> EventLog:
    """Parse an event log, skipping malformed rows up to the schema threshold.

    Blank records are skipped. A record shorter than the schema is
    malformed; then a row with an unmapped action string is skipped
    (counted, logged, never fatal); then a row whose timestamp is not a
    positive 64-bit int, or whose price or discount is not a float, is
    malformed. More than `max_malformed` malformed rows abort the load. A
    nan or inf price or discount on an otherwise sound row raises DataError
    naming the row; bytes that are not UTF-8, or a record the csv module
    refuses, raise DataError naming the last record read. Row numbers count
    csv records. Output is sorted ascending by timestamp, ties keeping file
    order.
    """
    parser = _LogParser(path, schema or CsvSchema())
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=parser.schema.delimiter)
        done = 0
        while True:
            rows, error = [], None
            try:
                rows.extend(islice(reader, _BLOCK))
            except (csv.Error, UnicodeDecodeError) as exc:
                error = exc
            parser.add(rows, done + 1)
            done += len(rows)
            if error is not None:
                raise DataError(f"cannot read {path} past record {done}: {error}") from error
            if len(rows) < _BLOCK:
                break
    return parser.finish()


class _Memo(dict):
    """fn(key) for each key, computed once per distinct key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _id_codes() -> tuple[_Memo, dict[str, int]]:
    """A memo from raw id to the code of its stripped value, and the stripped
    ids numbered in order of first appearance."""
    ids: dict[str, int] = {}
    return _Memo(lambda raw: ids.setdefault(raw.strip(), len(ids))), ids


def _parse(fn, raw: Sequence[str], out: np.ndarray, ok: np.ndarray) -> None:
    """Write fn of every string into out; where fn refuses one, clear ok.

    The strings between two refusals are parsed in one pass; only the
    refused ones are looked at alone.
    """
    n, rest, start = len(raw), iter(raw), 0
    while True:
        try:
            out[start:] = np.fromiter(map(fn, rest), out.dtype, n - start)
            return
        except (ValueError, OverflowError):
            bad = n - length_hint(rest) - 1
            out[start:bad] = np.fromiter(map(fn, raw[start:bad]), out.dtype, bad - start)
            ok[bad] = False
            start = bad + 1


class _LogParser:
    """Event columns of a CSV log, one block of records at a time."""

    def __init__(self, path, schema: CsvSchema):
        self.path, self.schema = path, schema
        self.columns = {schema.user_col, schema.item_col, schema.category_col,
                        schema.action_col, schema.timestamp_col,
                        schema.price_col, schema.discount_col} - {None}
        self.width = max(self.columns) + 1
        self.actions = _Memo(self._action_code)
        self.ids = [(column, *_id_codes()) for column in
                    (schema.user_col, schema.item_col, schema.category_col)]
        self.blocks: list[tuple[np.ndarray, ...]] = []
        self.malformed: list[np.ndarray] = []
        self.unknown_actions = 0

    def _action_code(self, raw: str) -> int:
        action = self.schema.action_map.get(raw.strip())
        return _UNMAPPED if action is None else _ACTION_CODE.get(action, _INVALID)

    def add(self, rows: list[list[str]], first: int) -> None:
        """Parse rows, the csv records numbered from `first`."""
        schema = self.schema
        lengths = np.fromiter(map(len, rows), np.int64, len(rows))
        line = first + np.flatnonzero(lengths >= self.width)
        self.malformed.append(first + np.flatnonzero((lengths > 0) & (lengths < self.width)))
        if len(line) < len(rows):
            rows = [rows[k] for k in (line - first).tolist()]
        if not rows:
            return
        raw = {column: values
               for column, values in enumerate(islice(zip(*rows), self.width))
               if column in self.columns}
        action = np.fromiter(map(self.actions.__getitem__, raw[schema.action_col]),
                             np.int8, len(rows))
        mapped = action != _UNMAPPED
        self.unknown_actions += len(rows) - int(np.count_nonzero(mapped))
        raw, line, action = _select(raw, mapped), line[mapped], action[mapped]

        n = len(line)
        ts, price, discount = np.zeros(n, np.int64), np.zeros(n), np.zeros(n)
        ok = action != _INVALID
        for fn, out, column in ((int, ts, schema.timestamp_col),
                                (float, price, schema.price_col),
                                (float, discount, schema.discount_col)):
            if column is not None:
                _parse(fn, raw[column], out, ok)
        ok &= ts > 0
        # A non-finite feature would reach every parameter through the
        # optimizer, so it aborts the load instead of counting as malformed.
        nonfinite = np.flatnonzero(ok & ~(np.isfinite(price) & np.isfinite(discount)))
        if len(nonfinite):
            k = nonfinite[0]
            raise DataError(f"row {line[k]} of {self.path}: non-finite price "
                            f"{float(price[k])!r} or discount {float(discount[k])!r}")
        self.malformed.append(line[~ok])
        raw, n = _select(raw, ok), int(np.count_nonzero(ok))
        codes = [np.fromiter(map(memo.__getitem__, raw[column]), np.int64, n)
                 for column, memo, _ in self.ids]
        self.blocks.append((*codes, action[ok], ts[ok], price[ok], discount[ok]))

    def finish(self) -> EventLog:
        schema, path = self.schema, self.path
        malformed = np.sort(np.concatenate(self.malformed))
        if len(malformed) > schema.max_malformed:
            shown = ", ".join(map(str, malformed[:20].tolist()))
            raise DataError(
                f"{len(malformed)} malformed rows in {path} (threshold "
                f"{schema.max_malformed}); first rows: {shown}")
        if len(malformed):
            log.warning("skipped %d malformed rows in %s", len(malformed), path)
        if self.unknown_actions:
            log.warning("skipped %d rows with unmapped actions in %s",
                        self.unknown_actions, path)
        empty = [np.zeros(0, dtype) for dtype in
                 (np.int64, np.int64, np.int64, np.int8, np.int64, np.float64, np.float64)]
        user, item, category, action, ts, price, discount = (
            np.concatenate(parts) for parts in zip(empty, *self.blocks))
        if not len(ts):
            log.warning("no events parsed from %s", path)
        order = np.argsort(ts, kind="stable")
        user, item, category = user[order], item[order], category[order]
        user_ids, item_ids, category_ids = (
            np.array(list(ids), dtype=str) for _, _, ids in self.ids)
        return EventLog(
            user_id=user_ids[user], item_id=item_ids[item],
            category_id=category_ids[category], action=action[order],
            timestamp=ts[order], price=price[order], discount=discount[order],
            user=user, item=item)


def _select(raw: dict[int, Sequence[str]], keep: np.ndarray) -> dict[int, Sequence[str]]:
    """The kept entries of every raw column."""
    if keep.all():
        return raw
    keep = keep.tolist()
    return {column: list(compress(values, keep)) for column, values in raw.items()}


def write_events_csv(events: Iterable[ActionEvent], path,
                     schema: CsvSchema | None = None) -> None:
    """Inverse of ingest_csv: each field at its schema column, gaps left empty."""
    schema = schema or CsvSchema()
    reverse_action = {}
    for raw, canon in schema.action_map.items():
        reverse_action.setdefault(canon, raw)
    fields = [(schema.user_col, lambda e: e.user_id),
              (schema.item_col, lambda e: e.item_id),
              (schema.category_col, lambda e: e.category_id),
              (schema.action_col, lambda e: reverse_action.get(e.action, e.action)),
              (schema.timestamp_col, lambda e: str(e.timestamp))]
    if schema.price_col is not None:
        fields.append((schema.price_col, lambda e: repr(e.price)))
    if schema.discount_col is not None:
        fields.append((schema.discount_col, lambda e: repr(e.discount)))
    width = 1 + max(column for column, _ in fields)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter)
        for e in sorted(events, key=lambda e: e.timestamp):
            row = [""] * width
            for column, value in fields:
                row[column] = value(e)
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
