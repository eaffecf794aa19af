import numpy as np
import pytest

from prepromo.data import (
    ActionEvent, ClickSample, CsvSchema, FeatureEncoder, PromotionCalendar,
    SECONDS_PER_DAY, build_behavior_sequences, build_click_dataset,
    derive_atc_indicator, derive_labels, ingest_csv, partition_dataset,
    write_events_csv,
)
from prepromo.errors import ConfigError, DataError

from oracles import brute_force_labels

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
        out = derive_labels([click("u", "i", 5)], [buy("u", "i", 5)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_delayed_conversion(self):
        out = derive_labels([click("u", "i", 5)], [buy("u", "i", 7)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 1)

    def test_non_conversion(self):
        out = derive_labels([click("u", "i", 5)], [], CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)

    def test_intermediate_day_purchase_is_non_conversion(self):
        # Click day 4, buy day 6: neither same-day nor promotion day.
        out = derive_labels([click("u", "i", 4)], [buy("u", "i", 6)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)

    def test_intermediate_switch_counts_as_direct(self):
        out = derive_labels([click("u", "i", 4)], [buy("u", "i", 6)], CAL,
                            count_intermediate_as_all=True)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_same_day_beats_promo_day(self):
        # Earliest qualifying purchase wins: the same-day one.
        out = derive_labels([click("u", "i", 5)],
                            [buy("u", "i", 5), buy("u", "i", 7)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_purchase_goes_to_latest_preceding_click(self):
        c1, c2 = click("u", "i", 5, offset=100), click("u", "i", 5, offset=200)
        out = derive_labels([c1, c2], [buy("u", "i", 5, offset=300)], CAL)
        by_ts = {s.click_ts: s for s in out}
        assert by_ts[c2.timestamp].y_all == 1
        assert by_ts[c1.timestamp].y_all == 0

    def test_purchase_before_any_click_ignored(self):
        out = derive_labels([click("u", "i", 5, offset=500)],
                            [buy("u", "i", 5, offset=100)], CAL)
        assert out[0].y_all == 0

    def test_promo_day_click_excluded(self):
        out = derive_labels([click("u", "i", 7)], [], CAL)
        assert out == []

    def test_daily_click_gets_same_day_label_only(self):
        out = derive_labels([click("u", "i", 2)], [buy("u", "i", 7)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (0, 0)
        out = derive_labels([click("u", "i", 2)], [buy("u", "i", 2)], CAL)
        assert (out[0].y_all, out[0].y_delay) == (1, 0)

    def test_label_implication_invariant(self):
        rng = np.random.default_rng(0)
        clicks, buys = _random_log(rng, n_users=20, n_items=10)
        for s in derive_labels(clicks, buys, CAL):
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
        got = derive_labels(clicks, buys, CAL, count_intermediate_as_all=inter)
        want = brute_force_labels(clicks, buys, CAL, count_intermediate_as_all=inter)
        got_by_id = {(s.user_id, s.item_id, s.click_ts): (s.y_all, s.y_delay) for s in got}
        want_by_click = {
            (c.user_id, c.item_id, c.timestamp): want[id(c)]
            for c in clicks if id(c) in want
        }
        assert got_by_id == want_by_click


class TestAtcIndicator:
    def sample(self, day=5):
        return ClickSample("u", "i", "c0", day * DAY + 100, day, 0.0, 0.0)

    def test_atc_after_click_before_promo(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 5 * DAY + 3700)]
        assert derive_atc_indicator(self.sample(), ev, CAL) == 1

    def test_no_events(self):
        assert derive_atc_indicator(self.sample(), [], CAL) == 0

    def test_atc_only_after_promo_start(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 7 * DAY + 10)]
        assert derive_atc_indicator(self.sample(), ev, CAL) == 0

    def test_atc_before_click_does_not_count(self):
        ev = [ActionEvent("u", "i", "c0", "atc", 5 * DAY + 10)]
        assert derive_atc_indicator(self.sample(), ev, CAL) == 0

    def test_daily_click_window_is_same_day(self):
        s = self.sample(day=2)
        same_day = [ActionEvent("u", "i", "c0", "atc", 2 * DAY + 200)]
        next_day = [ActionEvent("u", "i", "c0", "atc", 3 * DAY + 200)]
        assert derive_atc_indicator(s, same_day, CAL) == 1
        assert derive_atc_indicator(s, next_day, CAL) == 0

    def test_brute_force_window_check(self):
        rng = np.random.default_rng(1)
        promo_start = CAL.promo_start_ts()
        s = self.sample()
        for _ in range(200):
            ts = int(rng.integers(4 * DAY, 9 * DAY))
            ev = [ActionEvent("u", "i", "c0", "atc", ts)]
            want = 1 if s.click_ts <= ts < promo_start else 0
            assert derive_atc_indicator(s, ev, CAL) == want


class TestBehaviorSequences:
    def test_empty_history(self):
        assert build_behavior_sequences([], 1000) == ((), ())

    def test_truncation_newest_first(self):
        ev = [ActionEvent("u", f"i{k}", "c0", "atc", 100 + k) for k in range(3)]
        atc, pay = build_behavior_sequences(ev, 1000, max_len=2)
        assert atc == ("i2", "i1")
        assert pay == ()

    def test_type_filter(self):
        ev = [ActionEvent("u", "i1", "c0", "atc", 100),
              ActionEvent("u", "i2", "c0", "buy", 200),
              ActionEvent("u", "i3", "c0", "fav", 300)]
        atc, pay = build_behavior_sequences(ev, 1000)
        assert atc == ("i1",)
        assert pay == ("i2",)

    def test_strictly_before_click(self):
        ev = [ActionEvent("u", "i1", "c0", "atc", 100)]
        assert build_behavior_sequences(ev, 100)[0] == ()


class TestPartition:
    def make_samples(self, n):
        return [ClickSample(f"u{i}", "i", "c0", 5 * DAY + i, 5, 0.0, 0.0)
                for i in range(n)]

    def test_ratio(self):
        split = partition_dataset(self.make_samples(10), CAL, 0.8, seed=1)
        assert len(split.prepromo_train) == 8
        assert len(split.prepromo_eval) == 2

    def test_deterministic(self):
        samples = self.make_samples(50)
        a = partition_dataset(samples, CAL, 0.8, seed=7)
        b = partition_dataset(samples, CAL, 0.8, seed=7)
        assert [s.user_id for s in a.prepromo_train] == [s.user_id for s in b.prepromo_train]

    def test_true_partition(self):
        samples = self.make_samples(37)
        split = partition_dataset(samples, CAL, 0.8, seed=3)
        train_ids = {s.user_id for s in split.prepromo_train}
        eval_ids = {s.user_id for s in split.prepromo_eval}
        assert not train_ids & eval_ids
        assert train_ids | eval_ids == {s.user_id for s in samples}
        assert abs(len(split.prepromo_train) - 37 * 0.8) <= 1

    def test_daily_passthrough(self):
        samples = self.make_samples(5) + [
            ClickSample("d", "i", "c0", 2 * DAY, 2, 0.0, 0.0)]
        split = partition_dataset(samples, CAL, 0.8, seed=0)
        assert len(split.daily_train) == 1

    def test_empty_prepromo_is_error(self):
        daily_only = [ClickSample("d", "i", "c0", 2 * DAY, 2, 0.0, 0.0)]
        with pytest.raises(DataError, match="no pre-promotion samples"):
            partition_dataset(daily_only, CAL, 0.8, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            partition_dataset(self.make_samples(5), CAL, 1.2, seed=0)


class TestCsv:
    def test_action_mapping(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,pv,1511918000\n")
        events = ingest_csv(path)
        assert len(events) == 1
        assert events[0].action == "click"
        assert events[0].timestamp == 1511918000

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert ingest_csv(path) == []

    def test_output_sorted(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,pv,300\nu2,i2,c1,buy,100\nu3,i3,c1,cart,200\n")
        events = ingest_csv(path)
        assert [e.timestamp for e in events] == [100, 200, 300]

    def test_unknown_action_skipped(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,i1,c1,teleport,100\nu1,i1,c1,pv,200\n")
        assert len(ingest_csv(path)) == 1

    def test_malformed_rows_over_threshold_abort(self, tmp_path):
        path = tmp_path / "events.csv"
        rows = ["u,i,c,pv,notatime"] * 5 + ["u,i,c,pv,100"]
        path.write_text("\n".join(rows) + "\n")
        schema = CsvSchema(max_malformed=2)
        with pytest.raises(DataError, match="malformed"):
            ingest_csv(path, schema)
        schema = CsvSchema(max_malformed=10)
        assert len(ingest_csv(path, schema)) == 1

    @pytest.mark.parametrize("price,discount", [("nan", "0.1"), ("inf", "0.1"),
                                                ("1.5", "-inf"), ("1.5", "NaN")])
    def test_non_finite_price_or_discount_names_the_row(self, tmp_path, price, discount):
        path = tmp_path / "events.csv"
        path.write_text(f"u1,i1,c1,pv,100,2.0,0.5\nu2,i2,c1,pv,200,{price},{discount}\n")
        with pytest.raises(DataError, match="row 2 of .*non-finite"):
            ingest_csv(path, CsvSchema(price_col=5, discount_col=6))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        events = []
        for k in range(50):
            events.append(ActionEvent(
                f"u{rng.integers(5)}", f"i{rng.integers(5)}", f"c{rng.integers(3)}",
                ["click", "atc", "fav", "buy"][int(rng.integers(4))],
                int(rng.integers(1, 10 * DAY)),
                price=float(np.round(rng.uniform(0, 100), 4)),
                discount=float(np.round(rng.uniform(), 4))))
        schema = CsvSchema(price_col=5, discount_col=6)
        path = tmp_path / "roundtrip.csv"
        write_events_csv(events, path, schema)
        back = ingest_csv(path, schema)
        assert back == sorted(events, key=lambda e: e.timestamp)


class TestBuildClickDataset:
    def test_full_assembly(self):
        events = [
            ActionEvent("u", "i1", "c0", "atc", 4 * DAY + 50),
            click("u", "i2", 5),
            ActionEvent("u", "i2", "c0", "atc", 5 * DAY + 150),
            buy("u", "i2", 7),
        ]
        samples = build_click_dataset(events, CAL)
        assert len(samples) == 1
        s = samples[0]
        assert (s.y_all, s.y_delay, s.A) == (1, 1, 1)
        assert s.atc_seq == ("i1",)
        assert s.pay_seq == ()


class TestFeatureEncoder:
    def make(self):
        rng = np.random.default_rng(0)
        samples = [
            ClickSample(f"u{i % 4}", f"i{i % 3}", f"c{i % 2}", 5 * DAY + i, 5,
                        price=float(rng.uniform(1, 9)), discount=float(rng.uniform()),
                        atc_seq=(f"i{(i + 1) % 3}",), pay_seq=(),
                        features=rng.normal(size=3))
            for i in range(24)
        ]
        return FeatureEncoder(n_buckets=4, max_seq_len=2).fit(samples), samples

    def test_oov_is_zero(self):
        enc, samples = self.make()
        stranger = ClickSample("uX", "iX", "cX", 5 * DAY, 5, 1.0, 0.5,
                               features=np.zeros(3))
        ds = enc.encode([stranger])
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

    def test_take_and_batches(self):
        enc, samples = self.make()
        ds = enc.encode(samples)
        sub = ds.take(np.array([3, 1]))
        assert sub.n == 2
        assert sub.user_idx.tolist() == [ds.user_idx[3], ds.user_idx[1]]
        seen = sum(b.n for b in ds.batches(7))
        assert seen == 24
