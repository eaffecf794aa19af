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
from typing import Iterable, Sequence

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

    def in_daily(self, day: int) -> bool:
        return self.daily_train_range[0] <= day <= self.daily_train_range[1]

    def in_pre_promo(self, day: int) -> bool:
        return self.pre_promo_range[0] <= day <= self.pre_promo_range[1]


@dataclass(slots=True)
class GroundTruth:
    """Generator-side truth attached to synthetic samples."""

    p_a_true: float
    mu1_true: float
    mu0_true: float
    q_dir_true: float
    ice_true: float


@dataclass(slots=True)
class ClickSample:
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
    features: np.ndarray | None = None
    truth: GroundTruth | None = None


@dataclass(slots=True)
class DatasetSplit:
    daily_train: list[ClickSample]
    prepromo_train: list[ClickSample]
    prepromo_eval: list[ClickSample]


# ---------------------------------------------------------------------------
# Label derivation and dataset assembly
# ---------------------------------------------------------------------------

_ACTION_CODE = {a: k for k, a in enumerate(ACTIONS)}
_CLICK, _ATC, _BUY = _ACTION_CODE["click"], _ACTION_CODE["atc"], _ACTION_CODE["buy"]


def derive_labels(clicks: Sequence[ActionEvent], purchases: Sequence[ActionEvent],
                  calendar: PromotionCalendar,
                  count_intermediate_as_all: bool = False) -> list[ClickSample]:
    """Turn click/purchase events into labeled samples.

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
                        count_intermediate_as_all: bool = False) -> list[ClickSample]:
    """Full assembly from a raw event log: labels, ATC indicator, sequences."""
    action = np.fromiter((_ACTION_CODE[e.action] for e in events), dtype=np.int8,
                         count=len(events))
    return _assemble(events, action, calendar, max_seq_len, count_intermediate_as_all)


def _dense_codes(keys: Iterable, n: int) -> np.ndarray:
    """int64 codes of n hashable keys, numbered in order of first appearance."""
    index: dict = {}
    return np.fromiter((index.setdefault(k, len(index)) for k in keys),
                       dtype=np.int64, count=n)


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
              count_intermediate_as_all: bool) -> list[ClickSample]:
    """Labels, cart indicator and sequences of every in-window click.

    `action[k]` is the action code of `events[k]`; samples come out in the
    clicks' input order.
    """
    n = len(events)
    ts = np.fromiter((e.timestamp for e in events), dtype=np.int64, count=n)
    day = (ts + calendar.tz_offset) // SECONDS_PER_DAY
    daily = (calendar.daily_train_range[0] <= day) & (day <= calendar.daily_train_range[1])
    pre = (calendar.pre_promo_range[0] <= day) & (day <= calendar.pre_promo_range[1])
    sample = np.flatnonzero((action == _CLICK) & (daily | pre))
    if not len(sample):
        return []
    user = _dense_codes((e.user_id for e in events), n)
    pair = _grouped_order(user, _dense_codes((e.item_id for e in events), n))[1]
    y_all, y_delay, A = _pair_outcomes(action, pair, ts, day, daily, pre, sample,
                                       calendar, count_intermediate_as_all)
    atc_seqs, pay_seqs = _histories(events, action, user, ts, sample, max_seq_len)
    return [ClickSample(e.user_id, e.item_id, e.category_id, e.timestamp, d,
                        e.price, e.discount, a, ya, yd, atc, pay)
            for e, d, a, ya, yd, atc, pay in zip(
                map(events.__getitem__, sample), day[sample].tolist(),
                A.tolist(), y_all.tolist(), y_delay.tolist(), atc_seqs, pay_seqs)]


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
    owner = clicks[np.maximum(k, 0)]
    found = (k >= 0) & (pair[owner] == pair[buys])
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


def _histories(events, action, user, ts, sample, max_seq_len):
    """Cart and purchase item-id tuples of the sample clicks' users.

    Each user's events run newest first; a click's history starts after its
    own (user, ts) group and ends with the user's last event.
    """
    by_user, user_code = _grouped_order(user, -ts)
    out = []
    for code in (_ATC, _BUY):
        kind = by_user[action[by_user] == code]
        lo = np.searchsorted(user_code[kind], user_code[sample], side="right")
        hi = np.minimum(np.searchsorted(user[kind], user[sample], side="right"),
                        lo + max_seq_len)
        items = [events[j].item_id for j in kind.tolist()]
        out.append([tuple(items[a:b]) for a, b in zip(lo, hi)])
    return out


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_dataset(samples: Sequence[ClickSample], calendar: PromotionCalendar,
                      split_ratio: float = 0.8, seed: int = 0) -> DatasetSplit:
    """Daily samples pass through; pre-promotion samples are shuffled and split."""
    if not 0.0 < split_ratio < 1.0:
        raise ConfigError(f"split_ratio must be in (0, 1), got {split_ratio}")
    daily = [s for s in samples if calendar.in_daily(s.click_day)]
    prepromo = [s for s in samples if calendar.in_pre_promo(s.click_day)]
    if not prepromo:
        raise DataError("no pre-promotion samples in calendar window")
    order = np.random.default_rng(seed).permutation(len(prepromo))
    cut = int(len(prepromo) * split_ratio)
    train = [prepromo[i] for i in order[:cut]]
    eval_ = [prepromo[i] for i in order[cut:]]
    return DatasetSplit(daily_train=daily, prepromo_train=train, prepromo_eval=eval_)


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
# Feature encoding (samples -> dense arrays)
# ---------------------------------------------------------------------------

OOV_INDEX = 0


@dataclass(slots=True)
class EncodedDataset:
    """Column-major view of a sample list, ready for batched training."""

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

    def fit(self, samples: Sequence[ClickSample]) -> "FeatureEncoder":
        if not samples:
            raise DataError("cannot fit encoder on an empty sample list")
        for s in samples:
            self.user_vocab.setdefault(s.user_id, len(self.user_vocab) + 1)
            self.item_vocab.setdefault(s.item_id, len(self.item_vocab) + 1)
            self.cat_vocab.setdefault(s.category_id, len(self.cat_vocab) + 1)
        qs = np.linspace(0, 1, self.n_buckets + 1)[1:-1]
        self.price_edges = np.unique(np.quantile([s.price for s in samples], qs))
        self.disc_edges = np.unique(np.quantile([s.discount for s in samples], qs))
        ctx = 0 if samples[0].features is None else len(samples[0].features)
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

    def _encode_seq(self, seqs: list[tuple[str, ...]]) -> tuple[np.ndarray, np.ndarray]:
        n, L = len(seqs), self.max_seq_len
        ids = np.zeros((n, L), dtype=np.int64)
        mask = np.zeros((n, L))
        for i, seq in enumerate(seqs):
            for j, item in enumerate(seq[:L]):
                ids[i, j] = self.item_vocab.get(item, OOV_INDEX)
                mask[i, j] = 1.0
        return ids, mask

    def encode(self, samples: Sequence[ClickSample]) -> EncodedDataset:
        n = len(samples)
        ctx = self.dense_dim - 2
        dense = np.zeros((n, self.dense_dim))
        for i, s in enumerate(samples):
            if ctx:
                if s.features is None or len(s.features) != ctx:
                    raise DataError(
                        f"sample {i} has {0 if s.features is None else len(s.features)} "
                        f"context features, encoder expects {ctx}")
                dense[i, :ctx] = s.features
            dense[i, ctx] = s.price
            dense[i, ctx + 1] = s.discount
        # One non-finite input would reach every parameter through the optimizer.
        bad = np.flatnonzero(~np.isfinite(dense).all(axis=1))
        if len(bad):
            s = samples[bad[0]]
            raise DataError(
                f"sample {bad[0]} (user {s.user_id!r}, item {s.item_id!r}, "
                f"ts {s.click_ts}) has a non-finite context feature, price or discount")

        price = np.array([s.price for s in samples])
        disc = np.array([s.discount for s in samples])
        atc_ids, atc_mask = self._encode_seq([s.atc_seq for s in samples])
        pay_ids, pay_mask = self._encode_seq([s.pay_seq for s in samples])

        truth = {}
        if n and samples[0].truth is not None:
            for key in ("p_a_true", "mu1_true", "mu0_true", "q_dir_true", "ice_true"):
                truth[key] = np.array([getattr(s.truth, key) for s in samples])

        return EncodedDataset(
            dense=dense,
            user_idx=np.array([self.user_vocab.get(s.user_id, OOV_INDEX) for s in samples]),
            item_idx=np.array([self.item_vocab.get(s.item_id, OOV_INDEX) for s in samples]),
            cat_idx=np.array([self.cat_vocab.get(s.category_id, OOV_INDEX) for s in samples]),
            price_bucket=np.searchsorted(self.price_edges, price, side="right"),
            disc_bucket=np.searchsorted(self.disc_edges, disc, side="right"),
            atc_seq=atc_ids, atc_mask=atc_mask, pay_seq=pay_ids, pay_mask=pay_mask,
            y_all=np.array([float(s.y_all) for s in samples]),
            y_delay=np.array([float(s.y_delay) for s in samples]),
            A=np.array([float(s.A) for s in samples]),
            truth=truth)

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

