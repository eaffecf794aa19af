import numpy as np
import pytest

from prepromo.data import (SECONDS_PER_DAY, CsvSchema, build_click_dataset, ingest_csv,
                           write_events_csv)
from prepromo.errors import ConfigError, UsageError
from prepromo.synth import (GenConfig, WorldParams, default_calendar,
                            generate_dataset, sample_world, samples_to_events,
                            true_ate, user_traits, write_ground_truth_csv)

WORLD_SEED = 7


@pytest.fixture(scope="module")
def world():
    return sample_world(WORLD_SEED)


@pytest.fixture(scope="module")
def prepromo_200k(world):
    return generate_dataset(world, 200_000, "prepromo", seed=11)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _q_del(clicks):
    """Each click's delayed-conversion probability under its own cart action."""
    return np.where(clicks.A == 1, clicks.truth["mu1_true"], clicks.truth["mu0_true"])


class TestSampleWorld:
    def test_deterministic(self):
        a, b = sample_world(3), sample_world(3)
        assert np.array_equal(a.w_a, b.w_a)
        assert np.array_equal(a.w_del, b.w_del)
        assert a.b_del == b.b_del

    def test_weight_scale(self, world):
        # i.i.d. N(0, 1/d) entries put the norm near 1.
        assert 0.5 < np.linalg.norm(world.w_a) < 2.0
        assert np.linalg.norm(world.w_del) == pytest.approx(1.0, abs=1e-9)

    def test_delayed_head_overlaps_cart_direction(self, world):
        cos = world.w_del @ world.w_a / (np.linalg.norm(world.w_del) * np.linalg.norm(world.w_a))
        assert cos > 0.5

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            sample_world(0, scale=0.8)
        with pytest.raises(ConfigError):
            sample_world(0, d=1)

    def test_base_rate_calibration(self, world, prepromo_200k):
        rate_delay = np.mean(prepromo_200k.y_delay)
        assert rate_delay == pytest.approx(world.delayed_rate_pre, rel=0.15)
        direct = np.mean(prepromo_200k.y_all - prepromo_200k.y_delay)
        assert direct == pytest.approx(world.direct_rate_pre, rel=0.25)


class TestGenerateDataset:
    def test_single_sample_deterministic(self, world):
        a = generate_dataset(world, 1, "prepromo", seed=5)
        b = generate_dataset(world, 1, "prepromo", seed=5)
        assert a[0] == b[0]
        assert np.array_equal(a.features, b.features)
        assert a.truth["p_a_true"][0] == b.truth["p_a_true"][0]

    def test_n_zero_forbidden(self, world):
        with pytest.raises(UsageError):
            generate_dataset(world, 0, "prepromo", seed=0)

    def test_bad_mode(self, world):
        with pytest.raises(ConfigError):
            generate_dataset(world, 10, "weekly", seed=0)

    def test_more_clicks_than_pairs_is_config_error(self, world):
        # Each (user, item) pair is clicked at most once: 40 * 60 = 2400 pairs
        # cannot hold 3000 clicks, and the call must say so at once.
        with pytest.raises(ConfigError, match="3000 clicks exceed the 2400"):
            generate_dataset(world, 3000, "prepromo", seed=0,
                             gen=GenConfig(n_users=40, n_items=60))

    def test_daily_mode_never_delays(self, world):
        days = default_calendar().daily_train_range
        samples = generate_dataset(world, 5000, "daily", seed=2)
        assert np.all(samples.y_delay == 0)
        assert np.all(samples.truth["ice_true"] == 0.0)
        assert np.all((days[0] <= samples.click_day) & (samples.click_day <= days[1]))

    def test_prepromo_days_in_window(self, world):
        lo, hi = default_calendar().pre_promo_range
        samples = generate_dataset(world, 2000, "prepromo", seed=3)
        assert np.all((lo <= samples.click_day) & (samples.click_day <= hi))

    @pytest.mark.parametrize("mode", ["daily", "prepromo"])
    def test_click_day_is_the_day_of_click_ts(self, world, mode):
        samples = generate_dataset(world, 3000, mode, seed=1)
        assert len(np.unique(samples.click_day)) > 1
        assert np.array_equal(samples.click_day, samples.click_ts // SECONDS_PER_DAY)

    def test_empirical_delay_rate_matches_truth(self, prepromo_200k):
        q = _q_del(prepromo_200k)
        y = prepromo_200k.y_delay.astype(float)
        se = np.sqrt(np.mean(q * (1 - q)) / len(q))
        assert abs(y.mean() - q.mean()) < 3 * se

    def test_probability_validity(self, prepromo_200k):
        head = prepromo_200k[:5000]
        assert np.all(head.truth["q_dir_true"] + _q_del(head) < 1.0)

    def test_ice_formula(self, world, prepromo_200k):
        traits = user_traits(world, 1000)
        head = prepromo_200k[:500]
        users = np.array([int(u[1:]) for u in head.users[head.user_id]])
        z = (head.features @ world.w_del + world.gamma * head.discount
             + traits[users] + world.b_del)
        ice = world.scale * (_sigmoid(z + world.tau) - _sigmoid(z))
        assert head.truth["ice_true"] == pytest.approx(ice, abs=1e-12)
        assert head.truth["mu1_true"] == pytest.approx(world.scale * _sigmoid(z + world.tau),
                                                       abs=1e-12)

    def test_traits_stable_across_calls(self, world):
        assert np.array_equal(user_traits(world, 100), user_traits(world, 100))
        a = generate_dataset(world, 2000, "prepromo", seed=1)
        b = generate_dataset(world, 2000, "prepromo", seed=2)
        # Same user in different datasets keeps the same multiplier: truth for
        # identical (x, disc, A) would agree; check via the exposed traits.
        assert user_traits(world, 1000)[7] == user_traits(world, 1000)[7]
        assert len(a) == len(b)

    def test_determinism_bitwise(self, world):
        a = generate_dataset(world, 3000, "prepromo", seed=9)
        b = generate_dataset(world, 3000, "prepromo", seed=9)
        assert list(a) == list(b)
        assert np.array_equal(a.features, b.features)
        assert all(np.array_equal(a.truth[k], b.truth[k]) for k in a.truth)

    def test_unique_user_item_pairs(self, world):
        samples = generate_dataset(world, 20_000, "prepromo", seed=13,
                                   gen=GenConfig(n_users=150, n_items=400))
        pairs = [(s.user_id, s.item_id) for s in samples]
        assert len(set(pairs)) == len(pairs)

    def test_conditional_frequencies_match_truth(self, world, prepromo_200k):
        # Coarse bins on the delayed-head index, split by cart action.
        z = prepromo_200k.features @ world.w_del
        a = prepromo_200k.A
        y = prepromo_200k.y_delay.astype(float)
        q = _q_del(prepromo_200k)
        edges = np.quantile(z, [0.25, 0.5, 0.75])
        bins = np.searchsorted(edges, z)
        for b in range(4):
            for treat in (0, 1):
                cell = (bins == b) & (a == treat)
                n = cell.sum()
                assert n > 100
                se = np.sqrt(np.mean(q[cell] * (1 - q[cell])) / n)
                assert abs(y[cell].mean() - q[cell].mean()) < 3 * se

    def test_behavior_sequences_grow_from_history(self, world):
        samples = generate_dataset(world, 30_000, "prepromo", seed=17,
                                   gen=GenConfig(n_users=100, n_items=2000))
        by_user = {}
        for s in samples:
            past = by_user.setdefault(s.user_id, [])
            carted = [p.item_id for p in past if p.A]
            expect = tuple(carted[-10:][::-1])
            assert s.atc_seq == expect
            bought = [p.item_id for p in past if p.y_all and not p.y_delay]
            assert s.pay_seq == tuple(bought[-10:][::-1])
            past.append(s)
        assert any(len(s.atc_seq) > 0 for s in samples)
        assert any(len(s.pay_seq) > 0 for s in samples)


class TestTrueAte:
    def test_zero_effect_world(self):
        world = sample_world(1, tau=0.0)
        samples = generate_dataset(world, 500, "prepromo", seed=1)
        assert true_ate(samples) == 0.0

    def test_hand_arithmetic_single_sample(self):
        world = sample_world(2, d=2, trait_scale=0.0)
        s = generate_dataset(world, 1, "prepromo", seed=4)
        z = float(s.features[0] @ world.w_del) + world.gamma * s.discount[0] + world.b_del
        want = world.scale * (_sigmoid(z + world.tau) - _sigmoid(z))
        assert true_ate(s) == pytest.approx(want, abs=1e-12)

    def test_empty_is_error(self):
        with pytest.raises(UsageError):
            true_ate([])

    def test_default_world_reference_value(self, prepromo_200k):
        # Reference effect for the estimator suite: positive and stable.
        ate = true_ate(prepromo_200k)
        assert ate > 0.008

    def test_confounding_is_real(self, prepromo_200k):
        y = prepromo_200k.y_delay.astype(float)
        a = prepromo_200k.A
        naive = y[a == 1].mean() - y[a == 0].mean()
        se = np.sqrt(y[a == 1].var() / (a == 1).sum() + y[a == 0].var() / (a == 0).sum())
        assert abs(naive - true_ate(prepromo_200k)) > 5 * se


class TestHandSetWorldRates:
    def test_monte_carlo_base_rates(self):
        world = WorldParams(
            d=2, w_a=np.array([1.0, 0.0]), w_dir=np.array([0.0, 1.0]),
            w_del=np.array([0.6, 0.8]), b_dir_daily=-2.0, b_dir_pre=-3.0,
            b_del=-2.5, tau=1.0, gamma=0.5, scale=0.4, trait_scale=0.0)
        samples = generate_dataset(world, 150_000, "prepromo", seed=21)
        q_dir = samples.truth["q_dir_true"]
        got_direct = np.mean(samples.y_all - samples.y_delay)
        se = np.sqrt(np.mean(q_dir * (1 - q_dir)) / len(samples))
        assert abs(got_direct - q_dir.mean()) < 3 * se
        # Hand integral over x ~ N(0, I2), disc ~ U(0,1) via a fixed grid.
        rng = np.random.default_rng(0)
        xg = rng.standard_normal((400_000, 2))
        dg = rng.uniform(size=400_000)
        want_dir = np.mean(0.4 * _sigmoid(xg @ world.w_dir - 3.0))
        assert q_dir.mean() == pytest.approx(want_dir, abs=4 * 0.4 / np.sqrt(400_000))


class TestSerialization:
    def test_round_trip_reproduces_samples(self, world):
        gen = GenConfig(n_users=300, n_items=500)
        samples = generate_dataset(world, 8000, "prepromo", seed=23, gen=gen)
        events = samples_to_events(samples, gen.calendar)
        got = build_click_dataset(events, gen.calendar, max_seq_len=gen.max_seq_len)
        assert len(got) == len(samples)
        by_key = {(s.user_id, s.item_id, s.click_ts): s for s in got}
        for s in samples:
            g = by_key[(s.user_id, s.item_id, s.click_ts)]
            assert (g.y_all, g.y_delay, g.A) == (s.y_all, s.y_delay, s.A)
            assert g.atc_seq == s.atc_seq
            assert g.pay_seq == s.pay_seq
            assert g.discount == pytest.approx(s.discount)

    def test_csv_file_round_trip(self, world, tmp_path):
        gen = GenConfig(n_users=50, n_items=100)
        samples = generate_dataset(world, 500, "prepromo", seed=29, gen=gen)
        schema = CsvSchema(price_col=5, discount_col=6)
        path = tmp_path / "events.csv"
        write_events_csv(samples_to_events(samples, gen.calendar), path, schema)
        events = ingest_csv(path, schema)
        got = build_click_dataset(events, gen.calendar, max_seq_len=gen.max_seq_len)
        labels = {(s.user_id, s.item_id, s.click_ts): (s.y_all, s.y_delay, s.A)
                  for s in got}
        for s in samples:
            assert labels[(s.user_id, s.item_id, s.click_ts)] == (s.y_all, s.y_delay, s.A)

    def test_ground_truth_sidecar(self, world, tmp_path):
        samples = generate_dataset(world, 20, "prepromo", seed=31)
        path = tmp_path / "truth.csv"
        write_ground_truth_csv(samples, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sample_id,p_a_true,mu1_true,mu0_true,ice_true"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == f"{samples[0].user_id}:{samples[0].item_id}:{samples[0].click_ts}"
        assert float(first[1]) == samples.truth["p_a_true"][0]
