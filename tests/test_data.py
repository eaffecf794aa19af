import csv
import dataclasses
import io
import json
import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prepromo import data
from prepromo.data import (
    MAX_MALFORMED, ActionEvent, ClickRow, CsvSchema, EventLog, FeatureEncoder,
    PromotionCalendar, SECONDS_PER_DAY, build_click_dataset,
    ingest_csv, partition_dataset, write_events_csv,
)
from prepromo.errors import ConfigError, DataError, UsageError

from oracles import (brute_force_atc, brute_force_labels, brute_force_sequences,
                     row_wise_ingest_csv)
from tables import click_table, event_rows

DAY = SECONDS_PER_DAY

# Daily days 0..3, pre-promotion 4..6, promotion day 7 (and 8).
CAL = PromotionCalendar(daily_train_range=(0, 3), pre_promo_range=(4, 6),
                        promo_days=frozenset({7, 8}))


def click(user, item, day, offset=100, **kw):
    return ActionEvent(user, item, "c0", "click", day * DAY + offset, **kw)


def buy(user, item, day, offset=500):
    return ActionEvent(user, item, "c0", "buy", day * DAY + offset)


class TestDeriveLabels:
    def test_direct_conversion(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 5), buy("u", "i", 5)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_delayed_conversion(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 5), buy("u", "i", 7)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 1)

    def test_non_conversion(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 5)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)

    def test_intermediate_day_purchase_is_non_conversion(self):
        # Click day 4, buy day 6: neither same-day nor promotion day.
        out = build_click_dataset(EventLog.of([click("u", "i", 4), buy("u", "i", 6)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)

    def test_intermediate_switch_counts_as_direct(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 4), buy("u", "i", 6)]),
                                  CAL, count_intermediate_as_all=True)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_same_day_beats_promo_day(self):
        # Earliest qualifying purchase wins: the same-day one.
        out = build_click_dataset(EventLog.of(
            [click("u", "i", 5), buy("u", "i", 5), buy("u", "i", 7)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_purchase_goes_to_latest_preceding_click(self):
        c1, c2 = click("u", "i", 5, offset=100), click("u", "i", 5, offset=200)
        out = build_click_dataset(EventLog.of([c1, c2, buy("u", "i", 5, offset=300)]), CAL)
        by_ts = {s.click_ts: s for s in out}
        assert by_ts[c2.timestamp].y_all == 1
        assert by_ts[c1.timestamp].y_all == 0

    def test_purchase_before_any_click_ignored(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 5, offset=500),
                                               buy("u", "i", 5, offset=100)]), CAL)
        assert out[0].y_all == 0

    def test_promo_day_click_excluded(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 7)]), CAL)
        assert len(out) == 0

    def test_daily_click_gets_same_day_label_only(self):
        out = build_click_dataset(EventLog.of([click("u", "i", 2), buy("u", "i", 7)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)
        out = build_click_dataset(EventLog.of([click("u", "i", 2), buy("u", "i", 2)]), CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_label_implication_invariant(self):
        rng = np.random.default_rng(0)
        clicks, buys = _random_log(rng, n_users=20, n_items=10)
        for s in build_click_dataset(EventLog.of([*clicks, *buys]), CAL):
            assert s.y_delay <= s.y_all


def _random_log(rng, n_users=10, n_items=8, n_clicks=40, n_buys=25, max_day=9):
    clicks, buys = [], []
    for _ in range(n_clicks):
        clicks.append(ActionEvent(
            f"u{rng.integers(n_users)}", f"i{rng.integers(n_items)}", "c0",
            "click", int(rng.integers(1, (max_day + 1) * DAY))))
    for _ in range(n_buys):
        buys.append(ActionEvent(
            f"u{rng.integers(n_users)}", f"i{rng.integers(n_items)}", "c0",
            "buy", int(rng.integers(1, (max_day + 1) * DAY))))
    return clicks, buys


class TestLabelOracleEquivalence:
    """Grouped derivation must equal the O(clicks x purchases) direct scan."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_small_logs(self, seed):
        rng = np.random.default_rng(seed)
        clicks, buys = _random_log(
            rng, n_users=int(rng.integers(2, 12)), n_items=int(rng.integers(2, 8)),
            n_clicks=int(rng.integers(5, 60)), n_buys=int(rng.integers(0, 40)))
        inter = bool(rng.integers(0, 2))
        got = build_click_dataset(EventLog.of([*clicks, *buys]), CAL,
                                  count_intermediate_as_all=inter)
        want = brute_force_labels(clicks, buys, CAL, count_intermediate_as_all=inter)
        got_by_id = {(s.user_id, s.item_id, s.click_ts): (s.y_all, s.y_delay) for s in got}
        want_by_click = {
            (c.user_id, c.item_id, c.timestamp): want[id(c)]
            for c in clicks if id(c) in want
        }
        assert got_by_id == want_by_click


def assembled(click_event, others, **kw):
    """The one sample build_click_dataset makes from a click and other events."""
    (sample,) = build_click_dataset(EventLog.of([*others, click_event]), CAL, **kw)
    return sample


class TestAtcIndicator:
    def a_for(self, events, day=5):
        return assembled(click("u", "i", day), events).A

    def test_atc_after_click_before_promo(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 5 * DAY + 3700)]
        assert self.a_for(ev) == 1

    def test_no_events(self):
        assert self.a_for([]) == 0

    def test_atc_only_after_promo_start(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 7 * DAY + 10)]
        assert self.a_for(ev) == 0

    def test_atc_before_click_does_not_count(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 5 * DAY + 10)]
        assert self.a_for(ev) == 0

    def test_daily_click_window_is_same_day(self):
        same_day = [ActionEvent("u", "i", "c0", "atc", 2 * DAY + 200)]
        next_day = [ActionEvent("u", "i", "c0", "atc", 3 * DAY + 200)]
        assert self.a_for(same_day, day=2) == 1
        assert self.a_for(next_day, day=2) == 0

    def test_brute_force_window_check(self):
        rng = np.random.default_rng(1)
        promo_start = CAL.promo_start_ts()
        click_ts = 5 * DAY + 100
        for _ in range(200):
            ts = int(rng.integers(4 * DAY, 9 * DAY))
            ev = [ActionEvent("u", "i", "c0", "atc", ts)]
            want = 1 if click_ts <= ts < promo_start else 0
            assert self.a_for(ev) == want

    def test_cart_at_the_click_second_counts(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 5 * DAY + 100)]
        assert self.a_for(ev) == 1

    def test_window_end_is_exclusive(self):
        promo_start = CAL.promo_start_ts()
        last_second = [ActionEvent("u", "i", "c0", "atc", promo_start - 1)]
        at_end = [ActionEvent("u", "i", "c0", "atc", promo_start)]
        assert self.a_for(last_second) == 1
        assert self.a_for(at_end) == 0

    def test_other_pair_does_not_count(self):
        ev = [ActionEvent("u", "j", "c0", "atc", 5 * DAY + 200),
              ActionEvent("v", "i", "c0", "atc", 5 * DAY + 200)]
        assert self.a_for(ev) == 0


class TestBehaviorSequences:
    """Histories of a click at ts 1000 (day 0, inside the daily window)."""

    def sequences(self, events, click_ts=1000, **kw):
        s = assembled(click("u", "i", 0, offset=click_ts), events, **kw)
        return s.atc_seq, s.pay_seq

    def test_empty_history(self):
        assert self.sequences([]) == ((), ())

    def test_truncation_newest_first(self):
        ev = [ActionEvent("u", f"i{k}", "c0", "atc", 100 + k) for k in range(3)]
        atc, pay = self.sequences(ev, max_seq_len=2)
        assert atc == ("i2", "i1")
        assert pay == ()

    def test_type_filter(self):
        ev = [ActionEvent("u", "i1", "c0", "atc", 100),
              ActionEvent("u", "i2", "c0", "buy", 200),
              ActionEvent("u", "i3", "c0", "fav", 300)]
        atc, pay = self.sequences(ev)
        assert atc == ("i1",)
        assert pay == ("i2",)

    def test_strictly_before_click(self):
        ev = [ActionEvent("u", "i1", "c0", "atc", 100)]
        assert self.sequences(ev, click_ts=100)[0] == ()

    def test_equal_timestamps_keep_input_order(self):
        ev = [ActionEvent("u", "i1", "c0", "atc", 200),
              ActionEvent("u", "i2", "c0", "atc", 100),
              ActionEvent("u", "i3", "c0", "atc", 200)]
        assert self.sequences(ev)[0] == ("i1", "i3", "i2")

    def test_other_users_excluded(self):
        ev = [ActionEvent("v", "i1", "c0", "atc", 100),
              ActionEvent("v", "i2", "c0", "buy", 100)]
        assert self.sequences(ev) == ((), ())


@st.composite
def event_logs(draw):
    """Small logs around the calendar's day and promotion boundaries.

    Days 1..9 in local time, counted from a base day: day 1 is before the
    daily window (2..3), 4..6 are pre-promotion, 7 and 8 promotion days, 9
    after them. A base of 20 million days puts timestamps near 1.7e12, the
    size of millisecond epoch times. Events draw their time from a pool of a
    few instants, day edges included, so many share a timestamp; some are
    repeated as equal copies; the log is not in time order.
    """
    tz = draw(st.sampled_from([0, 3600, -7200, 19800]))
    base = draw(st.sampled_from([0, 20_000_000]))
    calendar = PromotionCalendar(daily_train_range=(base + 2, base + 3),
                                 pre_promo_range=(base + 4, base + 6),
                                 promo_days=frozenset({base + 7, base + 8}), tz_offset=tz)
    offsets = st.sampled_from([0, 1, DAY - 1]) | st.integers(0, DAY - 1)
    instants = draw(st.lists(st.tuples(st.integers(1, 9), offsets), min_size=2, max_size=8))
    event = st.builds(
        lambda u, i, a, t: ActionEvent(u, i, "c0", a, (base + t[0]) * DAY + t[1] - tz),
        st.sampled_from(["u0", "u1"]), st.sampled_from(["i0", "i1"]),
        st.sampled_from(["click", "click", "atc", "buy", "buy", "fav"]),
        st.sampled_from(instants))
    events = draw(st.lists(event, min_size=4, max_size=40))
    repeats = draw(st.lists(st.integers(0, max(len(events) - 1, 0)), max_size=5))
    events += [dataclasses.replace(events[k]) for k in repeats if events]
    return calendar, draw(st.permutations(events))


class TestClickDatasetOracle:
    """build_click_dataset equals per-click scans of the log."""

    @given(log=event_logs(), max_seq_len=st.integers(1, 3), inter=st.booleans())
    def test_matches_brute_force(self, log, max_seq_len, inter):
        calendar, events = log
        clicks = [e for e in events if e.action == "click"]
        buys = [e for e in events if e.action == "buy"]
        labels = brute_force_labels(clicks, buys, calendar, count_intermediate_as_all=inter)
        want = []
        for c in clicks:
            if id(c) not in labels:
                continue
            y_all, y_delay = labels[id(c)]
            atc, pay = brute_force_sequences(c, events, max_seq_len)
            want.append(ClickRow(
                c.user_id, c.item_id, c.category_id, c.timestamp,
                (c.timestamp + calendar.tz_offset) // DAY, c.price, c.discount,
                A=brute_force_atc(c, events, calendar), y_all=y_all, y_delay=y_delay,
                atc_seq=atc, pay_seq=pay))
        got = build_click_dataset(EventLog.of(events), calendar, max_seq_len, inter)
        assert list(got) == want


class TestPartition:
    def make_samples(self, n):
        return [ClickRow(f"u{i}", "i", "c0", 5 * DAY + i, 5, 0.0, 0.0)
                for i in range(n)]

    def test_ratio(self):
        split = partition_dataset(click_table(self.make_samples(10)), CAL, 0.8, seed=1)
        assert len(split.prepromo_train) == 8
        assert len(split.prepromo_eval) == 2

    def test_deterministic(self):
        samples = click_table(self.make_samples(50))
        a = partition_dataset(samples, CAL, 0.8, seed=7)
        b = partition_dataset(samples, CAL, 0.8, seed=7)
        assert [s.user_id for s in a.prepromo_train] == [s.user_id for s in b.prepromo_train]

    def test_true_partition(self):
        samples = click_table(self.make_samples(37))
        split = partition_dataset(samples, CAL, 0.8, seed=3)
        train_ids = {s.user_id for s in split.prepromo_train}
        eval_ids = {s.user_id for s in split.prepromo_eval}
        assert not train_ids & eval_ids
        assert train_ids | eval_ids == {s.user_id for s in samples}
        assert abs(len(split.prepromo_train) - 37 * 0.8) <= 1

    def test_daily_passthrough(self):
        samples = click_table(self.make_samples(5) + [
            ClickRow("d", "i", "c0", 2 * DAY, 2, 0.0, 0.0)])
        split = partition_dataset(samples, CAL, 0.8, seed=0)
        assert len(split.daily_train) == 1

    def test_empty_prepromo_is_error(self):
        daily_only = click_table([ClickRow("d", "i", "c0", 2 * DAY, 2, 0.0, 0.0)])
        with pytest.raises(DataError, match="no pre-promotion samples"):
            partition_dataset(daily_only, CAL, 0.8, seed=0)


class TestCsv:
    def test_action_mapping(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,pv,1511918000\n")
        (event,) = event_rows(ingest_csv(path))
        assert event.action == "click"
        assert event.timestamp == 1511918000

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert event_rows(ingest_csv(path)) == []

    def test_output_sorted(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,pv,300\nu2,i2,c1,buy,100\nu3,i3,c1,cart,200\n")
        events = ingest_csv(path)
        assert events.timestamp.tolist() == [100, 200, 300]

    def test_unknown_action_skipped(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,teleport,100\nu1,i1,c1,pv,200\n")
        assert len(ingest_csv(path)) == 1

    def test_malformed_rows_over_threshold_abort(self, tmp_path):
        path = tmp_path / "events.csv"
        # The threshold itself passes; one malformed row more aborts.
        path.write_text("u,i,c,pv,notatime\n" * MAX_MALFORMED + "u,i,c,pv,100\n")
        assert len(ingest_csv(path)) == 1
        path.write_text("u,i,c,pv,notatime\n" * (MAX_MALFORMED + 1) + "u,i,c,pv,100\n")
        with pytest.raises(DataError, match=f"{MAX_MALFORMED + 1} malformed rows .*"
                                            "first rows: 1, 2, 3, 4, 5, 6"):
            ingest_csv(path)

    @pytest.mark.parametrize("price,discount", [("nan", "0.1"), ("inf", "0.1"),
                                                ("1.5", "-inf"), ("1.5", "NaN")])
    def test_non_finite_price_or_discount_names_the_row(self, tmp_path, price, discount):
        path = tmp_path / "events.csv"
        path.write_text(f"u1,i1,c1,pv,100,2.0,0.5\nu2,i2,c1,pv,200,{price},{discount}\n")
        with pytest.raises(DataError, match="row 2 of .*non-finite"):
            ingest_csv(path, CsvSchema(price_col=5, discount_col=6))

    def test_timestamp_beyond_int64_is_malformed(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,pv,100\nu2,i2,c1,pv,99999999999999999999\n")
        assert ingest_csv(path).timestamp.tolist() == [100]
        path.write_text("u1,i1,c1,pv,100\n"
                        + "u2,i2,c1,pv,99999999999999999999\n" * (MAX_MALFORMED + 1))
        with pytest.raises(DataError, match="first rows: 2, 3, 4"):
            ingest_csv(path)

    @pytest.mark.parametrize("content,record", [
        (b"u1,i1,c1,pv,100\nu\xe9,i1,c1,pv,200\n", 0),
        (b"u1,i1,c1,pv,100\n" + b"x" * 200_000 + b",i,c,pv,5\n", 1)])
    def test_unreadable_record_is_a_data_error(self, tmp_path, content, record):
        path = tmp_path / "events.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=f"cannot read .*events.csv past record {record}"):
            ingest_csv(path)

    @pytest.mark.parametrize("columns,message", [
        (dict(price_col=4), "price and timestamp columns are both 4"),
        (dict(price_col=5, discount_col=5), "discount and price columns are both 5"),
        (dict(discount_col=0), "discount and user columns are both 0"),
    ])
    def test_schema_rejects_two_fields_in_one_column(self, columns, message):
        with pytest.raises(ConfigError, match=message):
            CsvSchema(**columns)

    @pytest.mark.parametrize("columns", [dict(price_col=-1), dict(discount_col=-2)])
    def test_schema_rejects_negative_column(self, columns):
        with pytest.raises(ConfigError, match="must be non-negative"):
            CsvSchema(**columns)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        layouts = {
            "default": CsvSchema(),
            "price-discount": CsvSchema(price_col=5, discount_col=6),
            "swapped": CsvSchema(price_col=6, discount_col=5),
            "discount-only": CsvSchema(discount_col=7, delimiter=";"),
        }
        for name, schema in layouts.items():
            events = []
            for k in range(50):
                events.append(ActionEvent(
                    f"u{rng.integers(5)}", f"i{rng.integers(5)}", f"c{rng.integers(3)}",
                    ["click", "atc", "fav", "buy"][int(rng.integers(4))],
                    int(rng.integers(1, 10 * DAY)),
                    price=(float(np.round(rng.uniform(0, 100), 4))
                           if schema.price_col is not None else 0.0),
                    discount=(float(np.round(rng.uniform(), 4))
                              if schema.discount_col is not None else 0.0)))
            path = tmp_path / f"{name}.csv"
            write_events_csv(EventLog.of(events), path, schema)
            back = ingest_csv(path, schema)
            assert event_rows(back) == sorted(events, key=lambda e: e.timestamp), name


@contextmanager
def data_warnings():
    """The messages logged on `prepromo.data` inside the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("prepromo.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


@st.composite
def csv_logs(draw):
    """CSV text with the oddities a log reader meets, a schema to read it,
    and a malformed-row limit to read it under.

    Ids carry spaces, quotes, the delimiter and line breaks (quoted, so one
    record spans lines); timestamps are drawn from a few equal values, forms
    Python's int accepts (" 7 ", "+5", "1_000"), zero, negatives and
    unparsable text; actions include unmapped ones; records may be blank or
    short. Half the logs also draw non-finite prices.
    """
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    ids = st.sampled_from(["u1", " u1", "u1 ", "u2", "a,b", "a;b", 'q"x', "x\ny", "", " "])
    actions = st.sampled_from(["pv", " pv ", "click", "cart", "atc", "buy", "fav",
                               "teleport", "", "PV", "look"])
    stamps = (st.integers(1, 300).map(str) | st.sampled_from(["100", "200"])
              | st.sampled_from([" 7 ", "+5", "1_000", "0", "-3", "abc", "1.5", ""]))
    odd_numbers = [" 2 ", "-1e3", "1_0.5", "abc", "", "0x1"]
    if draw(st.booleans()):
        odd_numbers += ["nan", "inf", "-Infinity", "1e400"]
    numbers = st.sampled_from(["1.5", "0.0", "2"]) | st.sampled_from(odd_numbers)
    row = st.tuples(ids, ids, ids, actions, stamps, numbers, numbers).map(list)
    record = (row | row | row | row.map(lambda r: r[:4]) | st.just([]) | st.just([""]))
    records = draw(st.lists(record, min_size=1, max_size=30))
    text = io.StringIO()
    csv.writer(text, delimiter=delimiter,
               lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(records)
    columns = draw(st.sampled_from([(None, None), (5, None), (5, 6), (6, 5)]))
    schema = CsvSchema(delimiter=delimiter, price_col=columns[0], discount_col=columns[1])
    return text.getvalue(), schema, draw(st.sampled_from([0, 1, 2, 5, 100]))


class TestIngestOracle:
    """ingest_csv equals the row-wise reader on generated logs."""

    @given(log=csv_logs(), block=st.sampled_from([1, 2, 3, data._BLOCK]))
    def test_matches_row_wise_reader(self, log, block):
        text, schema, limit = log

        def run(ingest):
            with data_warnings() as messages:
                try:
                    return ingest(path, schema), messages
                except DataError as exc:
                    return str(exc), messages

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(data, "MAX_MALFORMED", limit):
                want, want_warnings = run(row_wise_ingest_csv)
                with mock.patch.object(data, "_BLOCK", block):
                    got, got_warnings = run(ingest_csv)
        assert got_warnings == want_warnings
        if isinstance(want, str):
            assert got == want
            return
        assert event_rows(got) == want
        for codes, ids in ((got.user, got.users), (got.item, got.items),
                           (got.category, got.categories)):
            assert codes.dtype == np.int32 and len(set(ids.tolist())) == len(ids)


class TestBuildClickDataset:
    def test_full_assembly(self):
        events = [
            ActionEvent("u", "i1", "c0", "atc", 4 * DAY + 50),
            click("u", "i2", 5),
            ActionEvent("u", "i2", "c0", "atc", 5 * DAY + 150),
            buy("u", "i2", 7),
        ]
        samples = build_click_dataset(EventLog.of(events), CAL)
        assert len(samples) == 1
        s = samples[0]
        assert (s.y_all, s.y_delay, s.A) == (1, 1, 1)
        assert s.atc_seq == ("i1",)
        assert s.pay_seq == ()


class TestFeatureEncoder:
    def make(self):
        rng = np.random.default_rng(0)
        rows, features = [], []
        for i in range(24):
            rows.append(ClickRow(f"u{i % 4}", f"i{i % 3}", f"c{i % 2}", 5 * DAY + i, 5,
                                 price=float(rng.uniform(1, 9)),
                                 discount=float(rng.uniform()),
                                 atc_seq=(f"i{(i + 1) % 3}",), pay_seq=()))
            features.append(rng.normal(size=3))
        samples = click_table(rows, features)
        return FeatureEncoder(n_buckets=4, max_seq_len=2).fit(samples), samples

    def test_oov_is_zero(self):
        enc, samples = self.make()
        stranger = click_table([ClickRow("uX", "iX", "cX", 5 * DAY, 5, 1.0, 0.5)],
                               features=np.zeros((1, 3)))
        ds = enc.encode(stranger)
        assert ds.user_idx[0] == 0
        assert ds.item_idx[0] == 0
        assert ds.cat_idx[0] == 0

    def test_shapes_and_masks(self):
        enc, samples = self.make()
        ds = enc.encode(samples)
        assert ds.dense.shape == (24, 5)
        assert ds.atc_seq.shape == (24, 2)
        assert ds.atc_mask[0].tolist() == [1.0, 0.0]
        assert ds.pay_mask.sum() == 0.0

    def test_known_ids_stable(self):
        enc, samples = self.make()
        a = enc.encode(samples[:5])
        b = enc.encode(samples[:5])
        assert np.array_equal(a.user_idx, b.user_idx)

    def test_serialization_round_trip(self):
        enc, samples = self.make()
        clone = FeatureEncoder.from_dict(enc.to_dict())
        a, b = enc.encode(samples), clone.encode(samples)
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.price_bucket, b.price_bucket)

    @pytest.mark.parametrize("field,value", [("features", np.nan), ("price", np.inf),
                                             ("discount", -np.inf)])
    def test_non_finite_input_names_the_sample(self, field, value):
        enc, samples = self.make()
        if field == "features":
            samples.features[3, 1] = value
        else:
            getattr(samples, field)[3] = value
        with pytest.raises(DataError, match="sample 3 .*non-finite"):
            enc.encode(samples)

    def test_take_and_batches(self):
        enc, samples = self.make()
        ds = enc.encode(samples)
        sub = ds.take(np.array([3, 1]))
        assert sub.n == 2
        assert sub.user_idx.tolist() == [ds.user_idx[3], ds.user_idx[1]]


_IDS = st.sampled_from(["a", "b", "c", "d", "é", ""])
_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1.0])


@st.composite
def click_samples(draw, ctx):
    """Click tables over a few shared ids, with ctx context features."""
    def one(u, i, c, price, disc, atc, pay):
        return ClickRow(u, i, c, 5 * DAY, 5, price, disc, atc_seq=tuple(atc),
                        pay_seq=tuple(pay))
    row = st.builds(one, _IDS, _IDS, _IDS, _FINITE, _FINITE,
                    st.lists(_IDS, max_size=5), st.lists(_IDS, max_size=5))
    rows = draw(st.lists(row, min_size=1, max_size=12))
    features = draw(st.lists(st.lists(_FINITE, min_size=ctx, max_size=ctx),
                             min_size=len(rows), max_size=len(rows)))
    return click_table(rows, np.array(features).reshape(len(rows), ctx))


class TestFeatureEncoderRoundTrip:
    """to_dict/from_dict, through JSON as a checkpoint stores it, encodes alike."""

    @given(data=st.data(), ctx=st.integers(0, 3), n_buckets=st.integers(1, 6),
           max_seq_len=st.integers(1, 4))
    def test_clone_encodes_to_equal_arrays(self, data, ctx, n_buckets, max_seq_len):
        fit_on = data.draw(click_samples(ctx))
        probe = data.draw(click_samples(ctx))  # ids the fit never saw included
        enc = FeatureEncoder(n_buckets=n_buckets, max_seq_len=max_seq_len).fit(fit_on)
        clone = FeatureEncoder.from_dict(json.loads(json.dumps(enc.to_dict())))
        assert clone.to_dict() == enc.to_dict()
        a, b = enc.encode(probe), clone.encode(probe)
        for f in dataclasses.fields(a):
            if f.name == "truth":
                continue
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def reference_encoder(rows, features, n_buckets, max_seq_len):
    """The per-row encoder the columnar one replaced: vocabularies by
    `setdefault` in row order, buckets from quantiles of the row values."""
    vocabs = ({}, {}, {})
    for r in rows:
        for vocab, key in zip(vocabs, (r.user_id, r.item_id, r.category_id)):
            vocab.setdefault(key, len(vocab) + 1)
    qs = np.linspace(0, 1, n_buckets + 1)[1:-1]
    edges = [np.unique(np.quantile([getattr(r, f) for r in rows], qs))
             for f in ("price", "discount")]
    return {"n_buckets": n_buckets, "max_seq_len": max_seq_len,
            "user_vocab": vocabs[0], "item_vocab": vocabs[1], "cat_vocab": vocabs[2],
            "price_edges": edges[0].tolist(), "disc_edges": edges[1].tolist(),
            "dense_dim": features.shape[1] + 2}


def reference_encode(enc, rows, features):
    """Arrays of the per-row encoder, one row and one history entry at a time."""
    n, L = len(rows), enc.max_seq_len
    seqs = {}
    for name in ("atc_seq", "pay_seq"):
        ids, mask = np.zeros((n, L), dtype=np.int32), np.zeros((n, L), dtype=bool)
        for i, r in enumerate(rows):
            for j, item in enumerate(getattr(r, name)[:L]):
                ids[i, j] = enc.item_vocab.get(item, 0)
                mask[i, j] = True
        seqs[name], seqs[name[:3] + "_mask"] = ids, mask
    ctx = enc.dense_dim - 2
    dense = np.zeros((n, enc.dense_dim))
    for i, r in enumerate(rows):
        dense[i, :ctx] = features[i, :ctx]
        dense[i, ctx:] = r.price, r.discount

    def idx(vocab, key):
        return np.array([vocab.get(getattr(r, key), 0) for r in rows], dtype=np.int32)

    def bucket(edges, key):
        return np.array([np.sum(edges <= getattr(r, key)) for r in rows], dtype=np.int32)
    return dict(
        seqs, dense=dense, user_idx=idx(enc.user_vocab, "user_id"),
        item_idx=idx(enc.item_vocab, "item_id"), cat_idx=idx(enc.cat_vocab, "category_id"),
        price_bucket=bucket(enc.price_edges, "price"),
        disc_bucket=bucket(enc.disc_edges, "discount"),
        y_all=np.array([float(r.y_all) for r in rows]),
        y_delay=np.array([float(r.y_delay) for r in rows]),
        A=np.array([float(r.A) for r in rows]))


class TestFeatureEncoderReference:
    """The columnar encoder equals the per-row one: same vocabulary order,
    same edges, same arrays."""

    @given(data=st.data(), ctx=st.integers(0, 3), n_buckets=st.integers(1, 6),
           max_seq_len=st.integers(1, 4))
    def test_matches_per_row_encoder(self, data, ctx, n_buckets, max_seq_len):
        fit_on = data.draw(click_samples(ctx))
        probe = data.draw(click_samples(ctx))
        enc = FeatureEncoder(n_buckets=n_buckets, max_seq_len=max_seq_len).fit(fit_on)
        want = reference_encoder(list(fit_on), fit_on.features, n_buckets, max_seq_len)
        got = enc.to_dict()
        assert got == want
        for vocab in ("user_vocab", "item_vocab", "cat_vocab"):
            assert list(got[vocab]) == list(want[vocab])
        a = enc.encode(probe)
        for name, x in reference_encode(enc, list(probe), probe.features).items():
            y = getattr(a, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_generated_clicks(self):
        from prepromo.synth import GenConfig, generate_dataset, sample_world

        clicks = generate_dataset(sample_world(3, d=4), 3000, "prepromo", seed=5,
                                  gen=GenConfig(n_users=60, n_items=150, max_seq_len=6))
        rows = list(clicks)
        enc = FeatureEncoder(n_buckets=8, max_seq_len=4).fit(clicks)
        assert enc.to_dict() == reference_encoder(rows, clicks.features, 8, 4)
        a = enc.encode(clicks)
        for name, x in reference_encode(enc, rows, clicks.features).items():
            assert np.array_equal(x, getattr(a, name)), name


def reversed_vocabularies(clicks):
    """The same clicks, with every vocabulary stored in reverse order."""
    out = {}
    for kind, columns in data._VOCABULARIES.items():
        vocab = getattr(clicks, kind)
        out[kind] = vocab[::-1]
        for name in columns:
            codes = getattr(clicks, name)
            out[name] = np.where(codes >= 0, len(vocab) - 1 - codes, -1).astype(np.int32)
    return dataclasses.replace(clicks, **out)


def per_row_arrays(table) -> dict[str, np.ndarray]:
    """Every array of a ClickTable or EventLog that holds a value per row."""
    out = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)
           if f.name not in ("users", "items", "categories", "truth")}
    out.update(getattr(table, "truth", {}))
    return {k: v for k, v in out.items() if v is not None}


class TestIdCodes:
    """Tables carry int32 id codes, and one string vocabulary per id kind."""

    @given(drawn=st.data(), ctx=st.integers(0, 3), max_seq_len=st.integers(1, 4))
    def test_encodes_a_table_with_its_own_vocabulary_order(self, drawn, ctx, max_seq_len):
        # As `evaluate` encodes a new log: the table numbers its ids its own
        # way and holds ids the fit never saw.
        fit_on = drawn.draw(click_samples(ctx))
        original = drawn.draw(click_samples(ctx))
        probe = reversed_vocabularies(original)
        rows = list(probe)
        assert rows == list(original)
        enc = FeatureEncoder(n_buckets=3, max_seq_len=max_seq_len).fit(fit_on)
        a = enc.encode(probe)
        for name, x in reference_encode(enc, rows, probe.features).items():
            y = getattr(a, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_concatenation_refuses_differing_vocabularies(self):
        clicks = click_table([ClickRow("u", f"i{k}", "c", 5 * DAY + k, 5, 0.0, 0.0)
                              for k in range(2)])
        assert list(clicks + clicks) == list(clicks) * 2
        for other, kind in ((reversed_vocabularies(clicks), "items"),
                            (click_table([ClickRow("v", "i0", "c", 5 * DAY, 5, 0.0, 0.0)]),
                             "users")):
            with pytest.raises(UsageError, match=f"{kind} vocabularies differ"):
                clicks + other

    def test_indexing_and_concatenation_share_one_vocabulary(self):
        clicks = click_table([ClickRow("u", f"i{k}", "c", 5 * DAY + k, 5, 0.0, 0.0)
                              for k in range(4)])
        part = clicks[1:3] + clicks[np.array([0])]
        for kind in data._VOCABULARIES:
            assert getattr(part, kind) is getattr(clicks, kind)
        assert [r.item_id for r in part] == ["i1", "i2", "i0"]

    def test_no_per_row_column_holds_strings(self):
        from prepromo.synth import (GenConfig, generate_dataset, sample_world,
                                    samples_to_events)

        gen = GenConfig(n_users=40, n_items=60)
        clicks = generate_dataset(sample_world(2, d=3), 500, "prepromo", seed=4, gen=gen)
        events = samples_to_events(clicks, gen.calendar)
        built = build_click_dataset(events, gen.calendar, max_seq_len=gen.max_seq_len)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            write_events_csv(events, path)
            read = ingest_csv(path)
        assert list(built) == list(clicks)
        for table in (clicks, built, events, read):
            arrays = per_row_arrays(table)
            strings = {k for k, v in arrays.items() if v.dtype.kind in "US"}
            assert strings == set(), type(table).__name__
            assert all(len(v) == len(table) for v in arrays.values())

    def test_desk_table_bytes_per_click(self):
        # 547 bytes a click when ids were strings.
        from prepromo.experiment import make_config, synthetic_world
        from prepromo.synth import generate_dataset

        world, gen = synthetic_world(make_config("desk").dataset)
        clicks = generate_dataset(world, 50_000, "prepromo", seed=1, gen=gen)
        total = sum(a.nbytes for a in per_row_arrays(clicks).values()) + sum(
            getattr(clicks, kind).nbytes for kind in data._VOCABULARIES)
        assert total / len(clicks) <= 360

    def test_encoded_bytes_per_row(self):
        # int64 ids and float64 masks held 1 712 bytes a row.
        from prepromo.synth import GenConfig, generate_dataset, sample_world

        gen = GenConfig(n_users=200, n_items=400, max_seq_len=50)
        clicks = generate_dataset(sample_world(3, d=4), 2000, "prepromo", seed=1, gen=gen)
        enc = FeatureEncoder(max_seq_len=50).fit(clicks).encode(clicks)
        assert enc.atc_seq.shape == (2000, 50) and enc.dense.shape == (2000, 6)
        total = sum(getattr(enc, f.name).nbytes for f in dataclasses.fields(enc)
                    if f.name != "truth")
        assert total / enc.n <= 600


def row_contract_problems(clicks) -> list[str]:
    """Ways the rows of a click table break what an external reader relies on:
    every field a str, int or float or a tuple of str, and prices that
    survive `repr` and `float`."""
    out = []
    for r in clicks:
        for name, value in zip(r._fields, r):
            ok = (all(type(v) is str for v in value) if type(value) is tuple
                  else type(value) in (str, int, float))
            if not ok:
                out.append(f"{name} is {type(value).__name__}")
        for name in ("price", "discount"):
            if not _survives_repr(getattr(r, name)):
                out.append(f"{name} {getattr(r, name)!r} does not survive repr")
    return out


def _survives_repr(value) -> bool:
    try:
        return float(repr(value)) == value
    except ValueError:
        return False


class TestRowContract:
    """Rows as the benchmark's event-log writer and round-trip check read them."""

    @pytest.fixture(scope="class")
    def generated(self):
        from prepromo.synth import GenConfig, generate_dataset, sample_world

        world, gen = sample_world(7), GenConfig(n_users=50, n_items=90)
        return (generate_dataset(world, 400, "daily", 1, gen)
                + generate_dataset(world, 600, "prepromo", 2, gen)), gen

    def test_generated_rows(self, generated):
        clicks, gen = generated
        assert len(clicks) == 1000
        sub = clicks[::7]
        assert len(sub) == len(range(0, 1000, 7))
        assert [r.click_ts for r in sub] == [r.click_ts for r in list(clicks)[::7]]
        assert row_contract_problems(clicks) == []
        assert clicks[-1] == list(clicks)[-1]
        split = partition_dataset(clicks, gen.calendar, 0.8, seed=3)
        assert len(split.daily_train) == 400
        assert len(split.prepromo_train) + len(split.prepromo_eval) == 600

    def test_assembled_rows_carry_tuples(self, generated):
        from prepromo.synth import samples_to_events

        clicks, gen = generated
        built = build_click_dataset(samples_to_events(clicks, gen.calendar), gen.calendar,
                                    max_seq_len=gen.max_seq_len)
        assert row_contract_problems(built) == []
        rows = list(built)
        assert any(r.atc_seq for r in rows) and any(r.pay_seq for r in rows)
        assert all(type(r.atc_seq) is tuple and type(r.pay_seq) is tuple for r in rows)

    def test_numpy_scalar_rows_are_caught(self, generated):
        clicks, _ = generated

        class NumpyRows(type(clicks)):
            __slots__ = ()

            def __iter__(self):
                for r in super().__iter__():
                    yield r._replace(price=np.float64(r.price), A=np.int8(r.A))

        leaky = NumpyRows(**{f: getattr(clicks, f) for f in clicks.__dataclass_fields__})
        problems = row_contract_problems(leaky)
        assert "price is float64" in problems and "A is int8" in problems
        assert any("does not survive repr" in p for p in problems)
