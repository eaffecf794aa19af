"""The three workloads: experiment configs, and the event log `csv_log` reads.

Every workload is one `prepromo experiment` run for one seed. What each
stresses, and why its sizes are what they are, is in README.md.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Batches are smaller than the profiles' 1024 (256 at desk widths, 64 at
# paper widths): on reduced sample counts, 1024-sample batches leave the delay
# head too few Adagrad steps, and its auc_delay then swings by 0.1 from seed
# to seed at desk widths and stays near chance at paper widths.
WORKLOADS = {
    "desk_synth": {
        "profile": "desk",
        "dataset": {"n_daily": 20000, "n_prepromo": 50000, "split_ratio": 0.6},
        "training": {"batch_size": 256},
        "variants": ("pretrained_only", "naive_finetune", "reuse_relabel", "cmdcm"),
        "learn_margin": 0.1,
    },
    # A delayed-conversion rate of 5% instead of the world's default 1.2%:
    # the 4 000-row eval set then holds about 200 delayed conversions rather
    # than 50. With 50, auc_delay's own sampling error is 0.04, and at
    # learning rate 0.001 cmdcm's auc_delay ranged from 0.53 to 0.71 on seeds
    # 1 to 10 and wider on others; at 5% it stayed within 0.63 to 0.69. A
    # larger eval set would raise peak RSS past 2.5 GB (CHANGES.md).
    "paper_widths": {
        "profile": "paper",
        "dataset": {"n_daily": 6000, "n_prepromo": 20000, "delayed_rate_pre": 0.05},
        "training": {"batch_size": 64, "epochs": 2, "pretrain_epochs": 1},
        "variants": ("pretrained_only", "cmdcm"),
        "learn_margin": 0.05,
    },
    "csv_log": {
        "profile": "desk",
        "dataset": {"mode": "csv", "price_col": 5, "discount_col": 6,
                    "daily_start": 0, "daily_end": 29, "pre_start": 30,
                    "pre_end": 32, "promo_days": "33", "split_ratio": 0.5},
        "training": {"batch_size": 256, "epochs": 3, "pretrain_epochs": 1,
                     "imputation_epochs": 2},
        "variants": ("pretrained_only", "cmdcm"),
        "learn_margin": 0.02,
        # Clicks the benchmark generates and writes out as an event log.
        "log": {"n_daily": 30000, "n_prepromo": 60000},
    },
}

# Action strings written to the log; the program's default schema maps them.
CLICK, CART, BUY = "pv", "cart", "buy"
# Clicks whose behaviour sequences are compared with a scan of the log.
SUBSET_SIZE = 200


def ops(name: str) -> list[str]:
    """The operations of one round: one per stage of the seed."""
    spec = WORKLOADS[name]
    stages = ["data", "pretrain"]
    if "cmdcm" in spec["variants"]:
        stages.append("imputation")
    return stages + [f"variant:{v}" for v in spec["variants"]]


def write_config(name: str, path: Path, events_path: Path | None) -> None:
    """The experiment config of a workload, as the INI file the CLI reads."""
    spec = WORKLOADS[name]
    dataset = dict(spec["dataset"])
    if events_path is not None:
        dataset["events_path"] = str(events_path)
    sections = {"dataset": dataset, "training": spec["training"],
                "experiment": {"variants": ",".join(spec["variants"])}}
    with open(path, "w", encoding="utf-8") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")


def write_event_log(seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate the synthetic world's clicks for `seed` and write them out.

    The log has price and discount columns and is not in time order; the
    program must sort it. A truth file keeps every click's generated labels,
    and a subset file names the clicks whose sequences are checked.
    """
    from prepromo.data import SECONDS_PER_DAY
    from prepromo.synth import GenConfig, generate_dataset, sample_world

    from prepromo.experiment import DatasetConfig

    ds = DatasetConfig()
    world = sample_world(ds.world_seed, d=ds.feature_dim, tau=ds.tau, scale=ds.scale,
                         gamma=ds.gamma, confound_atc=ds.confound_atc,
                         confound_dir=ds.confound_dir, trait_scale=ds.trait_scale,
                         direct_rate_daily=ds.direct_rate_daily,
                         direct_rate_pre=ds.direct_rate_pre,
                         delayed_rate_pre=ds.delayed_rate_pre)
    gen = GenConfig(n_users=ds.n_users, n_items=ds.n_items,
                    n_categories=ds.n_categories, max_seq_len=ds.max_seq_len)
    sizes = WORKLOADS["csv_log"]["log"]
    seeds = np.random.SeedSequence(seed).generate_state(2)
    samples = (generate_dataset(world, sizes["n_daily"], "daily", int(seeds[0]), gen)
               + generate_dataset(world, sizes["n_prepromo"], "prepromo", int(seeds[1]), gen))

    promo_ts = min(gen.calendar.promo_days) * SECONDS_PER_DAY
    paths = {"events": out_dir / "events.csv", "truth": out_dir / "truth.csv",
             "subset": out_dir / "subset.csv"}
    delayed = []
    with open(paths["events"], "w", newline="", encoding="utf-8") as ev, \
            open(paths["truth"], "w", newline="", encoding="utf-8") as tr:
        events, truth = csv.writer(ev), csv.writer(tr)
        for s in samples:
            base = [s.user_id, s.item_id, s.category_id]
            events.writerow(base + [CLICK, s.click_ts, repr(s.price), repr(s.discount)])
            if s.A:
                events.writerow(base + [CART, s.click_ts, "0.0", "0.0"])
            if s.y_all and not s.y_delay:
                events.writerow(base + [BUY, s.click_ts, "0.0", "0.0"])
            elif s.y_delay:
                delayed.append(base)
            truth.writerow([s.user_id, s.item_id, s.click_ts, s.y_all, s.y_delay, s.A])
        # Delayed purchases land on the promotion day, one second apart.
        for k, base in enumerate(delayed, start=1):
            events.writerow(base + [BUY, promo_ts + k, "0.0", "0.0"])
    stride = max(1, len(samples) // SUBSET_SIZE)
    with open(paths["subset"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([s.user_id, s.item_id, s.click_ts]
                                 for s in samples[::stride])
    return paths


def read_truth(path: Path) -> dict[tuple, tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {(u, i, int(ts)): (int(ya), int(yd), int(a))
                for u, i, ts, ya, yd, a in csv.reader(fh)}


def read_subset(path: Path) -> list[tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(u, i, int(ts)) for u, i, ts in csv.reader(fh)]
