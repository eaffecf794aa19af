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
from itertools import compress, islice, repeat
from operator import length_hint
from typing import NamedTuple, Sequence

import numpy as np

from .decode import decode
from .errors import ConfigError, DataError, UsageError

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
    """Events as columns: int32 id codes, int8 action codes (indices into
    ACTIONS), int64 timestamps and float64 prices and discounts.

    `users`, `items` and `categories` hold each distinct id string once, in
    any order; an event's `user` code indexes `users`, and so on. Assembly
    only tests codes for equality. `ingest_csv` and `synth.samples_to_events`
    return an EventLog, `write_events_csv` writes one, and `EventLog.of`
    adapts a hand-written sequence of ActionEvents.
    """

    action: np.ndarray
    timestamp: np.ndarray
    price: np.ndarray
    discount: np.ndarray
    user: np.ndarray
    item: np.ndarray
    category: np.ndarray
    users: np.ndarray
    items: np.ndarray
    categories: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def of(cls, events: Sequence[ActionEvent]) -> "EventLog":
        """The columns of the events, in their order."""
        n = len(events)
        (users, user), (items, item), (categories, category) = (
            np.unique(np.array([getattr(e, name) for e in events], dtype=str),
                      return_inverse=True)
            for name in ("user_id", "item_id", "category_id"))
        return cls(
            action=np.fromiter((_ACTION_CODE[e.action] for e in events), np.int8, n),
            timestamp=np.fromiter((e.timestamp for e in events), np.int64, n),
            price=np.fromiter((e.price for e in events), np.float64, n),
            discount=np.fromiter((e.discount for e in events), np.float64, n),
            user=user.astype(np.int32), item=item.astype(np.int32),
            category=category.astype(np.int32), users=users, items=items,
            categories=categories)


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

    def day_of(self, timestamp):
        return (timestamp + self.tz_offset) // SECONDS_PER_DAY

    def day_start_ts(self, day):
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
# Each vocabulary of a ClickTable, and the columns holding its codes.
_VOCABULARIES = {"users": ("user_id",), "items": ("item_id", "atc_items", "pay_items"),
                 "categories": ("category_id",)}
TRUTH_KEYS = ("p_a_true", "mu1_true", "mu0_true", "q_dir_true", "ice_true")


@dataclass(slots=True, eq=False)
class ClickTable:
    """Clicks as columns: int32 id codes, int64 times, float64 prices, int labels.

    `users`, `items` and `categories` hold each id string once: a click's user
    is `users[user_id]`. A history kind is an (n, w) item-code array, newest
    first, padded with -1 to its longest history, plus the count of real
    entries in each row. `features` is the (n, d) context of synthetic clicks,
    and `truth` holds the generator's probabilities (TRUTH_KEYS) when known.

    `len`, `+`, and indexing with a slice or an index array serve the
    pipeline, which otherwise reads whole columns. Indexing shares the
    vocabularies, and `+` joins two tables with equal vocabularies (two draws
    of one generator config) and refuses any others. ClickRow, iteration as
    ClickRows and indexing with an int remain because the benchmark's
    workloads iterate tables and many tests index them.
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
    users: np.ndarray
    items: np.ndarray
    categories: np.ndarray
    features: np.ndarray | None = None
    truth: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.click_ts)

    def _apply(self, fn, *others: "ClickTable") -> "ClickTable":
        """fn over each column of self and others, with self's vocabularies."""
        tables = (self, *others)
        return ClickTable(
            *(fn(*(getattr(t, name) for t in tables)) for name in _COLUMNS),
            **{kind: getattr(self, kind) for kind in _VOCABULARIES},
            features=None if self.features is None else fn(*(t.features for t in tables)),
            truth={k: fn(*(t.truth[k] for t in tables)) for k in self.truth})

    def __getitem__(self, key) -> "ClickTable | ClickRow":
        if isinstance(key, (int, np.integer)):
            return next(iter(self[np.array([key])]))
        return self._apply(lambda col: col[key])

    def __add__(self, other: "ClickTable") -> "ClickTable":
        for kind in _VOCABULARIES:
            if not np.array_equal(getattr(self, kind), getattr(other, kind)):
                raise UsageError(f"cannot add click tables whose {kind} vocabularies differ")
        return self._apply(_concat, other)

    def __iter__(self):
        item = self.items.tolist().__getitem__
        seqs = [[tuple(map(item, r[:k])) for r, k in zip(codes.tolist(), lengths.tolist())]
                for codes, lengths in ((self.atc_items, self.atc_len),
                                       (self.pay_items, self.pay_len))]
        ids = [getattr(self, kind)[getattr(self, names[0])].tolist()
               for kind, names in _VOCABULARIES.items()]
        columns = [getattr(self, name).tolist() for name in _SCALAR_COLUMNS[3:]]
        return map(ClickRow._make, zip(*ids, *columns, *seqs))


def _concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of a, then of b; history codes are padded with -1 to the wider one."""
    if a.ndim == 2 and a.dtype.kind == "i" and a.shape[1] != b.shape[1]:
        width = max(a.shape[1], b.shape[1])
        a, b = (np.pad(x, [(0, 0), (0, width - x.shape[1])], constant_values=-1)
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

def build_click_dataset(events: EventLog, calendar: PromotionCalendar,
                        max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
                        count_intermediate_as_all: bool = False) -> ClickTable:
    """Labels, cart indicator and sequences of every in-window click of a
    raw event log, in input order.

    Clicks outside both calendar windows (promotion days included) are
    dropped, but still take part in purchase attribution. Purchases with no
    preceding click of the same (user, item) are ignored.
    """
    action, ts = events.action, events.timestamp
    day = calendar.day_of(ts)
    daily = (calendar.daily_train_range[0] <= day) & (day <= calendar.daily_train_range[1])
    pre = (calendar.pre_promo_range[0] <= day) & (day <= calendar.pre_promo_range[1])
    sample = np.flatnonzero((action == _CLICK) & (daily | pre))
    # One integer per (user, item) pair. Codes are below the id counts, so
    # the key stays under n_events ** 2 and fits int64.
    pair = events.user * np.int64(events.item.max(initial=0) + 1) + events.item
    y_all, y_delay, A = _pair_outcomes(action, pair, ts, day, daily, pre, sample,
                                       calendar, count_intermediate_as_all)
    atc_items, atc_len, pay_items, pay_len = user_histories(
        events.user, ts, events.item, sample, max_seq_len, action == _ATC,
        action == _BUY)
    return ClickTable(
        user_id=events.user[sample], item_id=events.item[sample],
        category_id=events.category[sample], click_ts=ts[sample],
        click_day=day[sample], price=events.price[sample],
        discount=events.discount[sample], A=A, y_all=y_all, y_delay=y_delay,
        atc_items=atc_items, atc_len=atc_len, pay_items=pay_items, pay_len=pay_len,
        users=events.users, items=events.items, categories=events.categories)


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
                              calendar.day_start_ts(day[sample] + 1))
        A[:] = ((k < len(atcs)) & (pair[nxt] == pair[sample])
                & (ts[nxt] < window_end))
    return y_all[sample], y_delay[sample], A


def user_histories(user: np.ndarray, ts: np.ndarray, item: np.ndarray,
                   rows: np.ndarray, max_seq_len: int, *kinds: np.ndarray) -> list:
    """Padded item histories of the events `rows`, one per kind of event.

    `user` and `item` hold non-negative integer codes and each kind a
    boolean mask over the events. A row's history of a kind holds the items
    of that kind's events by the same user strictly before the row's ts,
    newest first (equal timestamps in input order), cut to max_seq_len.
    Returns, per kind, an int32 item-code array padded with -1 to the
    longest history and the (n,) count of real entries.
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
        # Index len(found) picks the -1 appended as padding.
        padded = np.append(item[found], -1).astype(np.int32)
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
    if cut == 0:
        raise DataError(f"split_ratio {split_ratio} puts 0 of {len(prepromo)} "
                        "pre-promotion clicks in the training split and all "
                        f"{len(prepromo)} in the eval split")
    return DatasetSplit(daily_train=clicks[np.flatnonzero((lo <= day) & (day <= hi))],
                        prepromo_train=clicks[prepromo[order[:cut]]],
                        prepromo_eval=clicks[prepromo[order[cut:]]])


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

# Every event log holds user, item, category, action and timestamp at
# columns 0-4; a price and a discount column may follow.
_FIXED_COLUMNS = ("user", "item", "category", "action", "timestamp")
_USER, _ITEM, _CATEGORY, _ACTION, _TIMESTAMP = range(len(_FIXED_COLUMNS))
# Raw action strings and the actions they stand for; each action maps itself.
DEFAULT_ACTION_MAP = {
    "click": "click", "pv": "click",
    "atc": "atc", "cart": "atc", "add-to-cart": "atc",
    "fav": "fav", "favorite": "fav",
    "buy": "buy", "pay": "buy", "purchase": "buy",
}
# A log with more malformed rows than this is refused.
MAX_MALFORMED = 100


@dataclass(slots=True)
class CsvSchema:
    """What varies between event-log CSV files: the delimiter, and the
    columns of the optional price and discount, distinct and from 5 up."""

    delimiter: str = ","
    price_col: int | None = None
    discount_col: int | None = None

    def __post_init__(self):
        taken = dict(enumerate(_FIXED_COLUMNS))
        for name in ("price", "discount"):
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
_UNMAPPED = -1
_RAW_ACTION_CODE = {raw: _ACTION_CODE[action] for raw, action in DEFAULT_ACTION_MAP.items()}


def ingest_csv(path, schema: CsvSchema | None = None) -> EventLog:
    """Parse an event log, skipping up to MAX_MALFORMED malformed rows.

    User, item, category, action and timestamp are columns 0-4; price and
    discount are read from their schema columns, else 0.0. Blank records
    are skipped. A record shorter than the schema is malformed; then a row
    whose action DEFAULT_ACTION_MAP does not map is skipped (counted,
    logged, never fatal); then a row whose timestamp is not a positive
    64-bit int, or whose price or discount is not a float, is malformed.
    More than MAX_MALFORMED malformed rows abort the load. A
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
        self.columns = {*range(len(_FIXED_COLUMNS)), schema.price_col,
                        schema.discount_col} - {None}
        self.width = max(self.columns) + 1
        self.actions = _Memo(lambda raw: _RAW_ACTION_CODE.get(raw.strip(), _UNMAPPED))
        self.ids = [(column, *_id_codes()) for column in (_USER, _ITEM, _CATEGORY)]
        self.blocks: list[tuple[np.ndarray, ...]] = []
        self.malformed: list[np.ndarray] = []
        self.unknown_actions = 0

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
        action = np.fromiter(map(self.actions.__getitem__, raw[_ACTION]),
                             np.int8, len(rows))
        mapped = action != _UNMAPPED
        self.unknown_actions += len(rows) - int(np.count_nonzero(mapped))
        raw, line, action = _select(raw, mapped), line[mapped], action[mapped]

        n = len(line)
        ts, price, discount = np.zeros(n, np.int64), np.zeros(n), np.zeros(n)
        ok = np.ones(n, dtype=bool)
        for fn, out, column in ((int, ts, _TIMESTAMP),
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
        codes = [np.fromiter(map(memo.__getitem__, raw[column]), np.int32, n)
                 for column, memo, _ in self.ids]
        self.blocks.append((*codes, action[ok], ts[ok], price[ok], discount[ok]))

    def finish(self) -> EventLog:
        path = self.path
        malformed = np.sort(np.concatenate(self.malformed))
        if len(malformed) > MAX_MALFORMED:
            shown = ", ".join(map(str, malformed[:20].tolist()))
            raise DataError(
                f"{len(malformed)} malformed rows in {path} (threshold "
                f"{MAX_MALFORMED}); first rows: {shown}")
        if len(malformed):
            log.warning("skipped %d malformed rows in %s", len(malformed), path)
        if self.unknown_actions:
            log.warning("skipped %d rows with unmapped actions in %s",
                        self.unknown_actions, path)
        empty = [np.zeros(0, dtype) for dtype in
                 (np.int32, np.int32, np.int32, np.int8, np.int64, np.float64, np.float64)]
        user, item, category, action, ts, price, discount = (
            np.concatenate(parts) for parts in zip(empty, *self.blocks))
        if not len(ts):
            log.warning("no events parsed from %s", path)
        order = np.argsort(ts, kind="stable")
        users, items, categories = (np.array(list(ids), dtype=str) for _, _, ids in self.ids)
        return EventLog(
            action=action[order], timestamp=ts[order], price=price[order],
            discount=discount[order], user=user[order], item=item[order],
            category=category[order], users=users, items=items, categories=categories)


def _select(raw: dict[int, Sequence[str]], keep: np.ndarray) -> dict[int, Sequence[str]]:
    """The kept entries of every raw column."""
    if keep.all():
        return raw
    keep = keep.tolist()
    return {column: list(compress(values, keep)) for column, values in raw.items()}


def write_events_csv(events: EventLog, path, schema: CsvSchema | None = None) -> None:
    """Inverse of ingest_csv. One row per event, sorted stably by timestamp:
    user, item, category, action name and timestamp at columns 0-4, price
    and discount at their schema columns if set, other columns empty."""
    schema = schema or CsvSchema()
    order = np.argsort(events.timestamp, kind="stable")
    fields = {_USER: events.users[events.user[order]].tolist(),
              _ITEM: events.items[events.item[order]].tolist(),
              _CATEGORY: events.categories[events.category[order]].tolist(),
              _ACTION: np.array(ACTIONS)[events.action[order]].tolist(),
              _TIMESTAMP: events.timestamp[order].tolist()}
    for column, values in ((schema.price_col, events.price),
                           (schema.discount_col, events.discount)):
        if column is not None:
            fields[column] = map(repr, values[order].tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=schema.delimiter).writerows(
            zip(*(fields.get(column, repeat("")) for column in range(max(fields) + 1))))


# ---------------------------------------------------------------------------
# Feature encoding (click table -> model arrays)
# ---------------------------------------------------------------------------

OOV_INDEX = 0


@dataclass(slots=True)
class EncodedDataset:
    """Model-ready arrays of a ClickTable, for batched training."""

    dense: np.ndarray          # (n, dense_dim) float: context features ++ [price, discount]
    user_idx: np.ndarray       # (n,) int32, as every index column
    item_idx: np.ndarray
    cat_idx: np.ndarray
    price_bucket: np.ndarray
    disc_bucket: np.ndarray
    atc_seq: np.ndarray        # (n, L) int32 item indices, OOV_INDEX past the history
    atc_mask: np.ndarray       # (n, L) bool: True where atc_seq holds a history entry
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


class FeatureEncoder:
    """Shared input assembly: id vocabularies and price/discount buckets.

    Vocabularies are built from the fitting corpus; index 0 of every table is
    reserved for out-of-vocabulary ids seen later.
    """

    # The sizes a checkpoint stores, typed for from_dict.
    n_buckets: int
    max_seq_len: int
    dense_dim: int

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
        self.user_vocab = _first_seen(clicks.users, clicks.user_id)
        self.item_vocab = _first_seen(clicks.items, clicks.item_id)
        self.cat_vocab = _first_seen(clicks.categories, clicks.category_id)
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

    def _encode_seq(self, index: np.ndarray, items: np.ndarray, lengths: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        n, L = len(items), self.max_seq_len
        width = min(L, items.shape[1])
        ids = np.zeros((n, L), dtype=np.int32)
        ids[:, :width] = index[items[:, :width]]
        mask = np.zeros((n, L), dtype=bool)
        mask[:, :width] = np.arange(width) < lengths[:, None]
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

        items = _indices(self.item_vocab, clicks.items)
        atc_ids, atc_mask = self._encode_seq(items, clicks.atc_items, clicks.atc_len)
        pay_ids, pay_mask = self._encode_seq(items, clicks.pay_items, clicks.pay_len)
        return EncodedDataset(
            dense=dense,
            user_idx=_indices(self.user_vocab, clicks.users)[clicks.user_id],
            item_idx=items[clicks.item_id],
            cat_idx=_indices(self.cat_vocab, clicks.categories)[clicks.category_id],
            price_bucket=_bucket(self.price_edges, clicks.price),
            disc_bucket=_bucket(self.disc_edges, clicks.discount),
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
        sizes = decode(cls, {k: d[k] for k in ("n_buckets", "max_seq_len", "dense_dim")})
        enc = cls(n_buckets=sizes["n_buckets"], max_seq_len=sizes["max_seq_len"])
        for key in ("user_vocab", "item_vocab", "cat_vocab"):
            if not (isinstance(vocab := d[key], dict) and all(type(k) is str for k in vocab)
                    and sorted(v if type(v) is int else 0 for v in vocab.values())
                    == list(range(1, len(vocab) + 1))):
                raise ConfigError(f"{key} must number str ids 1..n, once each")
            setattr(enc, key, dict(vocab))
        for key in ("price_edges", "disc_edges"):
            if not (isinstance(edges := d[key], list) and all(type(e) is float for e in edges)
                    and np.isfinite(edges).all() and edges == sorted(edges)):
                raise ConfigError(f"{key} must be finite non-decreasing floats")
            setattr(enc, key, np.array(edges, dtype=np.float64))
        enc.dense_dim = sizes["dense_dim"]
        return enc


def _first_seen(ids: np.ndarray, codes: np.ndarray) -> dict[str, int]:
    """The ids that `codes` index, numbered from 1 in order of first appearance."""
    distinct, first = np.unique(codes, return_index=True)
    return dict(zip(ids[distinct[np.argsort(first)]].tolist(), range(1, len(distinct) + 1)))


def _indices(vocab: dict[str, int], ids: np.ndarray) -> np.ndarray:
    """Each id's vocabulary index (OOV_INDEX if unknown), then OOV_INDEX for code -1."""
    return np.array([vocab.get(s, OOV_INDEX) for s in ids.tolist()] + [OOV_INDEX],
                    dtype=np.int32)


def _bucket(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's bucket: the number of edges at or below it."""
    return np.searchsorted(edges, values, side="right").astype(np.int32)
