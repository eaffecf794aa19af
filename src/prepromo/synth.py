"""Synthetic pre-promotion data from a known structural model.

Generation law, per click:

    x    ~ N(0, I_d)                   context features
    disc ~ Uniform(0, 1)               discount depth shown with the item
    p_a  = sigmoid(w_a . x)            cart propensity
    A    ~ Bernoulli(p_a)              add-to-cart indicator
    t_u  = trait_scale * N(0, 1)       per-user deal-seeking trait
    q_dir = scale * sigmoid(w_dir . x + b_dir)
    q_del = scale * sigmoid(w_del . x + tau * A + gamma * disc + t_u + b_del)
    outcome ~ Categorical(direct: q_dir, delayed: q_del, none: rest)

Daily mode forces q_del = 0 (nobody waits for a promotion that is not
coming) and uses its own direct-rate bias. scale <= 0.5 keeps
q_dir + q_del < 1 pointwise. The add-to-cart effect tau and the discount
effect gamma exist only in the delayed head: a model trained on daily data
never observes either mechanism.

The trait t_u makes the tendency to postpone purchases a stable property of
the user, observable only through user identity, which reaches the
predictor through the personalized gates alone. trait_scale = 0 switches
the heterogeneity off.

Because every probability is known, each sample carries its ground truth
(propensity, both potential outcomes, individual causal effect), which the
estimator tests use as oracles. The delayed-outcome weights w_del share
directions with w_a (confounding the cart action) and, more weakly, with
w_dir; the naive treated-minus-control contrast is biased by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import sigmoid_values
from .data import (ACTIONS, TRUTH_KEYS, ClickTable, EventLog, PromotionCalendar,
                   SECONDS_PER_DAY, user_histories)
from .errors import ConfigError, UsageError


def default_calendar() -> PromotionCalendar:
    """30 daily-training days, a 3-day pre-promotion window, one promotion day."""
    return PromotionCalendar(daily_train_range=(0, 29), pre_promo_range=(30, 32),
                             promo_days=frozenset({33}))


@dataclass(slots=True)
class WorldParams:
    d: int
    w_a: np.ndarray
    w_dir: np.ndarray
    w_del: np.ndarray
    b_dir_daily: float
    b_dir_pre: float
    b_del: float
    tau: float
    gamma: float
    scale: float
    trait_scale: float = 1.2
    trait_seed: int = 0
    direct_rate_daily: float = 0.02
    direct_rate_pre: float = 0.007
    delayed_rate_pre: float = 0.012


def user_traits(world: WorldParams, n_users: int) -> np.ndarray:
    """Per-user deal-seeking logit offsets t_u; a fixed function of the world."""
    rng = np.random.default_rng(np.random.SeedSequence([world.trait_seed, n_users]))
    return world.trait_scale * rng.standard_normal(n_users)


@dataclass(slots=True)
class GenConfig:
    """Population shape: who clicks what, and how busy the log is."""

    n_users: int = 1000
    n_items: int = 2000
    n_categories: int = 50
    max_seq_len: int = 10
    calendar: PromotionCalendar = field(default_factory=default_calendar)


def _solve_bias(z: np.ndarray, scale: float, target: float) -> float:
    """Bisect b so that mean(scale * sigmoid(z + b)) == target."""
    if not 0.0 < target < scale:
        raise ConfigError(f"target rate {target} not reachable with scale {scale}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.mean(scale * sigmoid_values(z + mid))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Draws in sample_world's bias calibration.
BIAS_MC = 20000


def sample_world(seed: int, d: int = 16, tau: float = 2.0, scale: float = 0.3,
                 gamma: float = 1.5, confound_atc: float = 0.7,
                 confound_dir: float = 0.4, trait_scale: float = 1.2,
                 direct_rate_daily: float = 0.02, direct_rate_pre: float = 0.007,
                 delayed_rate_pre: float = 0.012) -> WorldParams:
    """Draw world weights and solve biases for the configured base rates.

    Weights are i.i.d. normal scaled by 1/sqrt(d). The delayed head reuses
    the cart-propensity direction (weight `confound_atc`) and the direct
    direction (`confound_dir`); the remainder is a fresh direction invisible
    to any daily-trained model.
    """
    if d < 2:
        raise ConfigError(f"feature dimension must be >= 2, got {d}")
    if not 0.0 < scale <= 0.5:
        raise ConfigError(f"scale must be in (0, 0.5], got {scale}")
    rho2 = confound_atc ** 2 + confound_dir ** 2
    if rho2 >= 1.0:
        raise ConfigError("confound_atc^2 + confound_dir^2 must be < 1")

    rng = np.random.default_rng(seed)
    w_a = rng.standard_normal(d) / np.sqrt(d)
    w_dir = rng.standard_normal(d) / np.sqrt(d)
    fresh = rng.standard_normal(d) / np.sqrt(d)

    u_a = w_a / np.linalg.norm(w_a)
    v_dir = w_dir - (w_dir @ u_a) * u_a
    u_dir = v_dir / np.linalg.norm(v_dir)
    v_f = fresh - (fresh @ u_a) * u_a - (fresh @ u_dir) * u_dir
    u_f = v_f / np.linalg.norm(v_f)
    w_del = (confound_atc * u_a + confound_dir * u_dir
             + np.sqrt(1.0 - rho2) * u_f)

    # Bias calibration on a dedicated Monte Carlo draw.
    x = rng.standard_normal((BIAS_MC, d))
    disc = rng.uniform(size=BIAS_MC)
    a = (rng.uniform(size=BIAS_MC) < sigmoid_values(x @ w_a)).astype(np.float64)
    t = trait_scale * rng.standard_normal(BIAS_MC)
    b_dir_daily = _solve_bias(x @ w_dir, scale, direct_rate_daily)
    b_dir_pre = _solve_bias(x @ w_dir, scale, direct_rate_pre)
    b_del = _solve_bias(x @ w_del + tau * a + gamma * disc + t, scale,
                        delayed_rate_pre)

    return WorldParams(d=d, w_a=w_a, w_dir=w_dir, w_del=w_del,
                       b_dir_daily=b_dir_daily, b_dir_pre=b_dir_pre, b_del=b_del,
                       tau=tau, gamma=gamma, scale=scale,
                       trait_scale=trait_scale, trait_seed=seed,
                       direct_rate_daily=direct_rate_daily,
                       direct_rate_pre=direct_rate_pre,
                       delayed_rate_pre=delayed_rate_pre)


def generate_dataset(world: WorldParams, n: int, mode: str, seed: int,
                     gen: GenConfig | None = None) -> ClickTable:
    """Generate n clicks in time order, with labels, truth, and user histories.

    Codes k stand for the ids `u{k}`, `i{k}` and `c{k}`; item k is in
    category k % n_categories. Each (user, item) pair is clicked at most
    once, so the event-log serialization of a dataset has unambiguous
    purchase attribution. A click's histories hold the same user's earlier
    carted and directly bought items, as `user_histories` reads them. Clicks
    take one-second slots from the start of their calendar day, tz_offset
    included, so `calendar.day_of(click_ts)` is the click's day.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if mode not in ("daily", "prepromo"):
        raise ConfigError(f"mode must be 'daily' or 'prepromo', got {mode!r}")
    gen = gen or GenConfig()
    pairs = gen.n_users * gen.n_items
    if n > pairs:
        raise ConfigError(f"{n} clicks exceed the {pairs} distinct (user, item) pairs "
                          f"of {gen.n_users} users and {gen.n_items} items")
    cal = gen.calendar
    if mode == "daily":
        day_lo, day_hi = cal.daily_train_range
        b_dir = world.b_dir_daily
    else:
        day_lo, day_hi = cal.pre_promo_range
        b_dir = world.b_dir_pre
    n_days = day_hi - day_lo + 1
    if cal.day_start_ts(day_lo) < 0:
        raise ConfigError(f"day {day_lo} starts before timestamp 0 under tz_offset "
                          f"{cal.tz_offset}; event timestamps must be positive")
    if n > n_days * (SECONDS_PER_DAY - 2):
        raise ConfigError(f"{n} samples do not fit {n_days} day(s) at one-second slots")

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, world.d))
    disc = rng.uniform(size=n)
    p_a = sigmoid_values(x @ world.w_a)
    A = (rng.uniform(size=n) < p_a).astype(np.int8)
    q_dir = world.scale * sigmoid_values(x @ world.w_dir + b_dir)

    days = np.sort(rng.integers(day_lo, day_hi + 1, size=n))
    users = rng.integers(0, gen.n_users, size=n).tolist()
    items = rng.integers(0, gen.n_items, size=n).tolist()

    # Clicks of a day take its one-second slots in order, from 1.
    slots = np.arange(n) - np.searchsorted(days, days) + 1
    full = np.flatnonzero(slots >= SECONDS_PER_DAY - 1)
    if len(full):
        raise ConfigError(f"day {days[full[0]]} overflowed its one-second slots")
    # Redraw repeated (user, item) pairs in click order; the draws this
    # takes depend on every earlier click.
    clicked: set[tuple[int, int]] = set()
    for i in range(n):
        uid = users[i]
        item = items[i]
        tries = 0
        while (uid, item) in clicked:
            item = int(rng.integers(0, gen.n_items))
            tries += 1
            if tries > 200:
                uid = int(rng.integers(0, gen.n_users))
                tries = 0
        clicked.add((uid, item))
        users[i] = uid
        items[i] = item
    users, items = np.array(users, dtype=np.int32), np.array(items, dtype=np.int32)

    traits = user_traits(world, gen.n_users)
    z_del = x @ world.w_del + world.gamma * disc + traits[users] + world.b_del
    if mode == "prepromo":
        mu1 = world.scale * sigmoid_values(z_del + world.tau)
        mu0 = world.scale * sigmoid_values(z_del)
        q_del = np.where(A == 1, mu1, mu0)
    else:
        mu1 = np.zeros(n)
        mu0 = np.zeros(n)
        q_del = np.zeros(n)
    u = rng.uniform(size=n)
    direct = u < q_dir
    delayed = ~direct & (u < q_dir + q_del)

    ts = cal.day_start_ts(days) + slots
    atc_items, atc_len, pay_items, pay_len = user_histories(
        users, ts, items, np.arange(n), gen.max_seq_len, A == 1, direct)
    return ClickTable(
        user_id=users, item_id=items, category_id=items % np.int32(gen.n_categories),
        click_ts=ts, click_day=days, price=np.zeros(n), discount=disc,
        A=A, y_all=(direct | delayed).astype(np.int8), y_delay=delayed.astype(np.int8),
        atc_items=atc_items, atc_len=atc_len, pay_items=pay_items, pay_len=pay_len,
        users=np.array([f"u{k}" for k in range(gen.n_users)]),
        items=np.array([f"i{k}" for k in range(gen.n_items)]),
        categories=np.array([f"c{j}" for j in range(gen.n_categories)]), features=x,
        truth=dict(zip(TRUTH_KEYS, (p_a, mu1, mu0, q_dir, mu1 - mu0))))


def true_ate(clicks: ClickTable) -> float:
    """Mean individual causal effect over a generated dataset."""
    if not len(clicks):
        raise UsageError("true_ate of an empty dataset")
    if "ice_true" not in clicks.truth:
        raise UsageError("true_ate requires samples with ground truth")
    return float(np.mean(clicks.truth["ice_true"]))


# ---------------------------------------------------------------------------
# Serialization: clicks -> event log + ground-truth sidecar
# ---------------------------------------------------------------------------

def samples_to_events(clicks: ClickTable, calendar: PromotionCalendar) -> EventLog:
    """The click, cart and purchase events that would have produced the clicks.

    Each click is followed by a cart event at the click instant if carted,
    then by a purchase if it converted: a direct conversion in the click's
    second, the k-th delayed conversion k seconds into the first promotion
    day. Events run click by click, in that order within a click.
    """
    # Which of its click, cart and purchase events each click has; nonzero
    # lists them click by click, in that order within a click.
    has = np.stack([np.ones(len(clicks), bool), clicks.A != 0,
                    (clicks.y_all != 0) | (clicks.y_delay != 0)], axis=1)
    row, kind = np.nonzero(has)
    ts = clicks.click_ts[row]
    delayed = (kind == 2) & (clicks.y_delay[row] != 0)
    ts[delayed] = calendar.promo_start_ts() + np.arange(1, np.count_nonzero(delayed) + 1)
    clicked = kind == 0
    return EventLog(
        action=np.array([ACTIONS.index(a) for a in ("click", "atc", "buy")], np.int8)[kind],
        timestamp=ts, price=np.where(clicked, clicks.price[row], 0.0),
        discount=np.where(clicked, clicks.discount[row], 0.0), user=clicks.user_id[row],
        item=clicks.item_id[row], category=clicks.category_id[row], users=clicks.users,
        items=clicks.items, categories=clicks.categories)


GROUND_TRUTH_COLUMNS = ("sample_id", "p_a_true", "mu1_true", "mu0_true", "ice_true")


def write_ground_truth_csv(clicks: ClickTable, path) -> None:
    """One row per click: `user:item:click_ts`, then the truth columns."""
    ids = map("{}:{}:{}".format, clicks.users[clicks.user_id].tolist(),
              clicks.items[clicks.item_id].tolist(), clicks.click_ts.tolist())
    truth = [map(repr, clicks.truth[key].tolist()) for key in GROUND_TRUTH_COLUMNS[1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(GROUND_TRUTH_COLUMNS)
        writer.writerows(zip(ids, *truth))
