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
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
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
# Label derivation
# ---------------------------------------------------------------------------

def derive_labels(clicks: Sequence[ActionEvent], purchases: Sequence[ActionEvent],
                  calendar: PromotionCalendar,
                  count_intermediate_as_all: bool = False) -> list[ClickSample]:
    """Turn click/purchase events into labeled samples.

    Clicks outside both calendar windows (promotion days included) are
    dropped, but still participate in purchase attribution. Purchases with
    no preceding click of the same (user, item) are ignored.
    """
    clicks_by_pair: dict[tuple[str, str], list[ActionEvent]] = defaultdict(list)
    for c in clicks:
        clicks_by_pair[(c.user_id, c.item_id)].append(c)
    for pair_clicks in clicks_by_pair.values():
        pair_clicks.sort(key=lambda e: e.timestamp)

    attributed: dict[int, list[ActionEvent]] = defaultdict(list)
    for p in sorted(purchases, key=lambda e: e.timestamp):
        pair_clicks = clicks_by_pair.get((p.user_id, p.item_id))
        if not pair_clicks:
            continue
        ts_list = [c.timestamp for c in pair_clicks]
        pos = bisect.bisect_right(ts_list, p.timestamp)
        if pos == 0:
            continue
        attributed[id(pair_clicks[pos - 1])].append(p)

    samples: list[ClickSample] = []
    for c in clicks:
        day = calendar.day_of(c.timestamp)
        in_daily = calendar.in_daily(day)
        if not in_daily and not calendar.in_pre_promo(day):
            continue
        y_all, y_delay = 0, 0
        for p in attributed.get(id(c), ()):
            p_day = calendar.day_of(p.timestamp)
            if p_day == day:
                y_all, y_delay = 1, 0
                break
            if in_daily:
                continue
            if p_day in calendar.promo_days:
                y_all, y_delay = 1, 1
                break
            if count_intermediate_as_all and p_day > day:
                y_all, y_delay = 1, 0
                break
        samples.append(ClickSample(
            user_id=c.user_id, item_id=c.item_id, category_id=c.category_id,
            click_ts=c.timestamp, click_day=day, price=c.price,
            discount=c.discount, y_all=y_all, y_delay=y_delay))
    return samples


def derive_atc_indicator(click: ClickSample, atc_events: Sequence[ActionEvent],
                         calendar: PromotionCalendar) -> int:
    """1 if the same (user, item) was carted between the click and the window end.

    For pre-promotion clicks the window closes when the first promotion day
    starts; for daily-training clicks it closes at the end of the click's day.
    """
    if calendar.in_pre_promo(click.click_day):
        window_end = calendar.promo_start_ts()
    else:
        window_end = calendar.day_start_ts(click.click_day + 1)
    for e in atc_events:
        if (e.user_id, e.item_id) != (click.user_id, click.item_id):
            continue
        if click.click_ts <= e.timestamp < window_end:
            return 1
    return 0


def build_behavior_sequences(user_events: Sequence[ActionEvent], click_ts: int,
                             max_len: int = DEFAULT_MAX_SEQ_LEN,
                             ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Most recent carted / purchased item ids strictly before the click, newest first."""
    atc: list[str] = []
    pay: list[str] = []
    for e in sorted(user_events, key=lambda e: e.timestamp, reverse=True):
        if e.timestamp >= click_ts:
            continue
        if e.action == "atc" and len(atc) < max_len:
            atc.append(e.item_id)
        elif e.action == "buy" and len(pay) < max_len:
            pay.append(e.item_id)
        if len(atc) >= max_len and len(pay) >= max_len:
            break
    return tuple(atc), tuple(pay)


def build_click_dataset(events: Sequence[ActionEvent], calendar: PromotionCalendar,
                        max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
                        count_intermediate_as_all: bool = False) -> list[ClickSample]:
    """Full assembly from a raw event log: labels, ATC indicator, sequences."""
    clicks = [e for e in events if e.action == "click"]
    purchases = [e for e in events if e.action == "buy"]
    atcs = [e for e in events if e.action == "atc"]
    samples = derive_labels(clicks, purchases, calendar, count_intermediate_as_all)

    atcs_by_pair: dict[tuple[str, str], list[ActionEvent]] = defaultdict(list)
    for e in atcs:
        atcs_by_pair[(e.user_id, e.item_id)].append(e)
    events_by_user: dict[str, list[ActionEvent]] = defaultdict(list)
    for e in events:
        if e.action in ("atc", "buy"):
            events_by_user[e.user_id].append(e)

    for s in samples:
        s.A = derive_atc_indicator(
            s, atcs_by_pair.get((s.user_id, s.item_id), ()), calendar)
        s.atc_seq, s.pay_seq = build_behavior_sequences(
            events_by_user.get(s.user_id, ()), s.click_ts, max_seq_len)
    return samples


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


def clone_sample(sample: ClickSample, **changes) -> ClickSample:
    return replace(sample, **changes)
