"""Independent oracles used by the test suite.

These deliberately avoid the library's own fast paths: finite differences
instead of backprop, O(n^2) pair counting instead of rank sums, a direct
per-click scan instead of the grouped label derivation, and one event per
CSV row instead of columns parsed in blocks.
"""

from __future__ import annotations

import csv
import logging
import math

import numpy as np

from prepromo import autodiff as ad
from prepromo import data
from prepromo.data import ActionEvent, CsvSchema
from prepromo.errors import DataError, TrainingError


def finite_difference_grads(loss_fn, params, step: float = 1e-5):
    """Central finite differences of a scalar loss w.r.t. every parameter entry.

    loss_fn rebuilds the forward pass from current parameter data and returns
    a float. Parameters are perturbed in place and restored.
    """
    grads = {}
    for p in params:
        if not p.trainable:
            continue
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * step)
        grads[p.name] = g
    return grads


def max_grad_mismatch(analytic: dict, numeric: dict, floor: float = 1e-4) -> float:
    """Worst relative error between two gradient maps.

    The denominator is floored so that near-zero gradients are compared at an
    absolute scale resolvable by 64-bit central differences.
    """
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic.get(name)
        assert ana is not None, f"missing analytic gradient for {name}"
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst


def gradcheck(loss_builder, params, step: float = 1e-5, tol: float = 1e-4) -> float:
    """Compare backprop against finite differences; returns the worst error."""
    loss = loss_builder()
    analytic = ad.backward(loss, params)
    numeric = finite_difference_grads(lambda: float(loss_builder().data), params, step)
    err = max_grad_mismatch(analytic, numeric)
    assert err < tol, f"gradient mismatch {err:.3e} >= {tol}"
    return err


def hand_written_minimize(params, data, loss_of, config, rng, stage):
    """The minibatch Adagrad loop each fit used to spell out for itself.

    A generator of batches over one permutation per epoch, a finite-loss
    check before each step, and per-epoch means; returns (epoch means, steps).
    """
    def batches():
        order = rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            rows = order[start:start + config.batch_size]
            yield data.take(rows), rows

    opt = ad.Adagrad(params, lr=config.learning_rate)
    trace, steps = [], 0
    for _ in range(config.epochs):
        epoch = []
        for batch, rows in batches():
            loss = loss_of(batch, rows)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingError(f"{stage}: non-finite loss {value} at step {steps}")
            epoch.append(value)
            opt.step(ad.backward(loss))
            steps += 1
        trace.append(float(np.mean(epoch)))
    return trace, steps


def brute_force_auc(pos_scores, neg_scores) -> float:
    """O(n^2) pairwise win rate with ties counted 0.5."""
    total = 0.0
    for p in pos_scores:
        for n in neg_scores:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos_scores) * len(neg_scores))


def brute_force_labels(clicks, purchases, calendar, count_intermediate_as_all=False):
    """Direct per-click label derivation.

    Attribution is recomputed from scratch for every purchase: scan all
    clicks of the same (user, item) and take the latest one at or before the
    purchase. A purchase feeds at most one click. Each click then takes its
    label from the earliest attributed purchase that qualifies: same calendar
    day -> direct, promotion day -> delayed.
    """
    owned = {id(c): [] for c in clicks}
    for p in purchases:
        best = None
        for c in clicks:
            if (c.user_id, c.item_id) != (p.user_id, p.item_id):
                continue
            if c.timestamp > p.timestamp:
                continue
            if best is None or c.timestamp > best.timestamp:
                best = c
            elif c.timestamp == best.timestamp:
                best = c  # same instant: either click is "latest"; scan order ties
        if best is not None:
            owned[id(best)].append(p)

    labels = {}
    daily_lo, daily_hi = calendar.daily_train_range
    pre_lo, pre_hi = calendar.pre_promo_range
    for c in clicks:
        day = calendar.day_of(c.timestamp)
        if not (daily_lo <= day <= daily_hi or pre_lo <= day <= pre_hi):
            continue
        in_daily = daily_lo <= day <= daily_hi
        y_all, y_delay = 0, 0
        for p in sorted(owned[id(c)], key=lambda e: e.timestamp):
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
        labels[id(c)] = (y_all, y_delay)
    return labels


def brute_force_atc(click, events, calendar):
    """Cart indicator of one click by scanning the whole log.

    1 if any cart event of the click's (user, item) falls in
    [click ts, window end): the first promotion day's start for a
    pre-promotion click, the end of the click's own day for a daily one.
    """
    day = (click.timestamp + calendar.tz_offset) // 86400
    pre_lo, pre_hi = calendar.pre_promo_range
    end_day = min(calendar.promo_days) if pre_lo <= day <= pre_hi else day + 1
    window_end = end_day * 86400 - calendar.tz_offset
    return int(any(
        e.action == "atc" and e.user_id == click.user_id and e.item_id == click.item_id
        and click.timestamp <= e.timestamp < window_end
        for e in events))


def brute_force_sequences(click, events, max_len):
    """Cart and purchase item ids of the click's user, by scanning the log.

    Only events strictly before the click count; newest first, equal
    timestamps in input order; each list cut to max_len.
    """
    before = [(-e.timestamp, k, e) for k, e in enumerate(events)
              if e.user_id == click.user_id and e.timestamp < click.timestamp]
    before.sort(key=lambda t: t[:2])
    atc = [e.item_id for _, _, e in before if e.action == "atc"]
    pay = [e.item_id for _, _, e in before if e.action == "buy"]
    return tuple(atc[:max_len]), tuple(pay[:max_len])


def row_wise_events(clicks, calendar) -> list[ActionEvent]:
    """The events of generated clicks, one click at a time: the click, a
    cart event at the click instant if carted, then a purchase if it
    converted, at the click instant if direct and k seconds into the first
    promotion day if it is the k-th delayed one."""
    events: list[ActionEvent] = []
    delayed = 0
    for s in clicks:
        ids = (s.user_id, s.item_id, s.category_id)
        events.append(ActionEvent(*ids, "click", s.click_ts, s.price, s.discount))
        if s.A:
            events.append(ActionEvent(*ids, "atc", s.click_ts))
        if s.y_delay:
            delayed += 1
            events.append(ActionEvent(*ids, "buy", calendar.promo_start_ts() + delayed))
        elif s.y_all:
            events.append(ActionEvent(*ids, "buy", s.click_ts))
    return events


def row_wise_ingest_csv(path, schema: CsvSchema | None = None) -> list[ActionEvent]:
    """An event log parsed one row at a time into ActionEvents.

    Same contract as `data.ingest_csv`, with the same warnings on the
    `prepromo.data` logger: blank records skipped; short records malformed;
    then unmapped actions skipped and counted; then a failed int/float parse
    or a non-positive timestamp malformed; the first sound row with a
    non-finite price or discount raises; more than `data.MAX_MALFORMED`
    malformed rows raise. User, item, category, action and timestamp are
    columns 0-4. Sorted by timestamp, ties in file order.
    """
    log = logging.getLogger("prepromo.data")
    schema = schema or CsvSchema()
    needed = [4]
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
            action = data.DEFAULT_ACTION_MAP.get(row[3].strip())
            if action is None:
                unknown_actions += 1
                continue
            try:
                event = ActionEvent(
                    user_id=row[0].strip(),
                    item_id=row[1].strip(),
                    category_id=row[2].strip(),
                    action=action,
                    timestamp=int(row[4]),
                    price=float(row[schema.price_col]) if schema.price_col is not None else 0.0,
                    discount=float(row[schema.discount_col]) if schema.discount_col is not None else 0.0,
                )
            except (ValueError, DataError):
                malformed.append(lineno)
                continue
            if not (math.isfinite(event.price) and math.isfinite(event.discount)):
                raise DataError(f"row {lineno} of {path}: non-finite price {event.price!r} "
                                f"or discount {event.discount!r}")
            events.append(event)
    if len(malformed) > data.MAX_MALFORMED:
        shown = ", ".join(map(str, malformed[:20]))
        raise DataError(
            f"{len(malformed)} malformed rows in {path} (threshold "
            f"{data.MAX_MALFORMED}); first rows: {shown}")
    if malformed:
        log.warning("skipped %d malformed rows in %s", len(malformed), path)
    if unknown_actions:
        log.warning("skipped %d rows with unmapped actions in %s", unknown_actions, path)
    if not events:
        log.warning("no events parsed from %s", path)
    events.sort(key=lambda e: e.timestamp)
    return events
