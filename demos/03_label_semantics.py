"""Label derivation on a hand-written event log.

Shows the three conversion types for pre-promotion clicks, purchase
attribution, and the add-to-cart indicator window.

Run: python3 demos/03_label_semantics.py
"""

from prepromo.data import (ActionEvent, EventLog, PromotionCalendar, SECONDS_PER_DAY,
                           build_click_dataset)

DAY = SECONDS_PER_DAY


def main():
    # Daily training days 0-3, pre-promotion days 4-6, promotion days 7-8.
    calendar = PromotionCalendar(daily_train_range=(0, 3),
                                 pre_promo_range=(4, 6),
                                 promo_days=frozenset({7, 8}))

    def ev(user, item, action, day, offset):
        return ActionEvent(user, item, "c0", action, day * DAY + offset)

    events = EventLog.of([
        # u1/i1: click day 5, buys the same day        -> direct (1, 0)
        ev("u1", "i1", "click", 5, 100),
        ev("u1", "i1", "buy", 5, 900),
        # u2/i2: clicks day 4, carts, buys on day 7    -> delayed (1, 1)
        ev("u2", "i2", "click", 4, 100),
        ev("u2", "i2", "atc", 4, 200),
        ev("u2", "i2", "buy", 7, 100),
        # u3/i3: clicks day 5, never buys              -> non-conversion (0, 0)
        ev("u3", "i3", "click", 5, 100),
        # u4/i4: clicks day 4, buys day 6 (in-between) -> (0, 0) by default
        ev("u4", "i4", "click", 4, 100),
        ev("u4", "i4", "buy", 6, 100),
        # u5/i5: two clicks, one purchase: the later click gets it
        ev("u5", "i5", "click", 5, 100),
        ev("u5", "i5", "click", 5, 500),
        ev("u5", "i5", "buy", 5, 800),
    ])

    samples = build_click_dataset(events, calendar)
    print(f"{'user':<5} {'item':<5} {'day':>3}  {'y_all':>5} {'y_delay':>7} {'A':>2}")
    for s in samples:
        print(f"{s.user_id:<5} {s.item_id:<5} {s.click_day:>3}  "
              f"{s.y_all:>5} {s.y_delay:>7} {s.A:>2}")

    print("\nwith count_intermediate_as_all=True the day-6 purchase counts:")
    for s in build_click_dataset(events, calendar, count_intermediate_as_all=True):
        if s.user_id == "u4":
            print(f"u4/i4 -> y_all={s.y_all}, y_delay={s.y_delay}")


if __name__ == "__main__":
    main()
