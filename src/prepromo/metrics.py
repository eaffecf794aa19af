"""Ranking and likelihood metrics, report containers, and report emission.

Two rankings are scored on the evaluation window:

    auc_all    positives y_all=1 (direct + delayed), negatives y_all=0,
               scored with the additive conversion probability
    auc_delay  positives y_delay=1, negatives y_all=0; direct conversions
               are excluded entirely, scored with the delay head

nll_delay is the mean binary cross-entropy of the delay score against
y_delay over all evaluation samples; direct conversions stay in with label 0
unless `exclude_direct` is set.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import PROB_EPS
from .errors import DataError, UsageError

Array = np.ndarray


def auc(pos_scores, neg_scores) -> float:
    """Pairwise win rate of positives over negatives, ties counted half.

    Rank-sum implementation, O(n log n); ties share the average rank of
    their group, which reproduces exact pair counting. Non-finite scores
    raise DataError.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0:
        raise DataError("auc: positive class is empty")
    if neg.size == 0:
        raise DataError("auc: negative class is empty")
    scores = np.concatenate([pos, neg])
    if not np.isfinite(scores).all():
        raise DataError(f"auc: {int((~np.isfinite(scores)).sum())} non-finite scores")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Tie group k spans sorted positions [first[k], last[k]].
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    pos_rank_sum = ranks[:pos.size].sum()
    u = pos_rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def auc_all(p_all: Array, y_all: Array) -> float:
    """Conversions (direct and delayed) against non-conversions."""
    y_all = np.asarray(y_all)
    pos = p_all[y_all == 1]
    neg = p_all[y_all == 0]
    if pos.size == 0:
        raise DataError("auc_all: no conversion samples")
    if neg.size == 0:
        raise DataError("auc_all: no non-conversion samples")
    return auc(pos, neg)


def auc_delay(p_delay: Array, y_all: Array, y_delay: Array) -> float:
    """Delayed conversions against non-conversions; direct conversions are excluded."""
    y_all = np.asarray(y_all)
    y_delay = np.asarray(y_delay)
    pos = p_delay[y_delay == 1]
    neg = p_delay[y_all == 0]
    if pos.size == 0:
        raise DataError("auc_delay: no delayed-conversion samples")
    if neg.size == 0:
        raise DataError("auc_delay: no non-conversion samples")
    return auc(pos, neg)


def nll_delay(p_delay: Array, y_delay: Array, y_all: Array | None = None,
              exclude_direct: bool = False, eps: float = PROB_EPS) -> float:
    """Mean binary cross-entropy of the delay score against y_delay."""
    p = np.asarray(p_delay, dtype=np.float64)
    y = np.asarray(y_delay, dtype=np.float64)
    if exclude_direct:
        if y_all is None:
            raise UsageError("exclude_direct requires y_all")
        keep = ~((np.asarray(y_all) == 1) & (y == 0))
        p, y = p[keep], y[keep]
    if p.size == 0:
        raise DataError("nll_delay: empty evaluation set")
    pc = np.clip(p, eps, 1.0 - eps)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1
METRIC_FIELDS = ("auc_all", "auc_delay", "nll_delay")


@dataclass(slots=True)
class MetricReport:
    variant: str
    seed: int
    auc_all: float
    auc_delay: float
    nll_delay: float
    n_eval: int
    n_conversions: int
    n_delayed: int
    n_nonconv: int
    config_hash: str = ""
    extras: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant, "seed": self.seed,
            "auc_all": self.auc_all, "auc_delay": self.auc_delay,
            "nll_delay": self.nll_delay, "n_eval": self.n_eval,
            "n_conversions": self.n_conversions, "n_delayed": self.n_delayed,
            "n_nonconv": self.n_nonconv, "config_hash": self.config_hash,
            "extras": dict(sorted(self.extras.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        return cls(**d)


def evaluate_scores(variant: str, seed: int, p_all: Array, p_delay: Array,
                    y_all: Array, y_delay: Array, config_hash: str = "",
                    nll_exclude_direct: bool = False) -> MetricReport:
    return MetricReport(
        variant=variant, seed=seed,
        auc_all=auc_all(p_all, y_all),
        auc_delay=auc_delay(p_delay, y_all, y_delay),
        nll_delay=nll_delay(p_delay, y_delay, y_all, exclude_direct=nll_exclude_direct),
        n_eval=int(y_all.size),
        n_conversions=int((y_all == 1).sum()),
        n_delayed=int((y_delay == 1).sum()),
        n_nonconv=int((y_all == 0).sum()),
        config_hash=config_hash)


def paired_t_test(deltas) -> tuple[float, float]:
    """Two-sided paired t-test on per-seed metric deltas: (t, p-value)."""
    d = np.asarray(deltas, dtype=np.float64)
    if d.size < 2:
        raise UsageError("paired t-test needs at least two seeds")
    sd = d.std(ddof=1)
    if sd == 0.0:
        return (float("inf") if d.mean() != 0 else 0.0), (0.0 if d.mean() != 0 else 1.0)
    from scipy import stats  # imported here: loading scipy.stats adds about a second to start-up

    t = float(d.mean() / (sd / np.sqrt(d.size)))
    p = float(2.0 * stats.t.sf(abs(t), df=d.size - 1))
    return t, p


def summarize(reports: list[MetricReport]) -> dict:
    """Per-variant mean/std per metric, keyed and ordered deterministically."""
    variants = sorted({r.variant for r in reports})
    summary = {}
    for v in variants:
        rows = sorted([r for r in reports if r.variant == v], key=lambda r: r.seed)
        entry = {"seeds": [r.seed for r in rows]}
        for m in METRIC_FIELDS:
            vals = np.array([getattr(r, m) for r in rows])
            entry[m] = {"mean": float(vals.mean()),
                        "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                        "values": [float(x) for x in vals]}
        summary[v] = entry
    return summary


def paired_comparisons(reports: list[MetricReport], reference: str) -> list[dict]:
    """Reference-vs-variant per-seed deltas with significance, per metric."""
    ref = {r.seed: r for r in reports if r.variant == reference}
    if not ref:
        raise UsageError(f"no reports for reference variant {reference!r}")
    out = []
    for v in sorted({r.variant for r in reports} - {reference}):
        rows = sorted([r for r in reports if r.variant == v], key=lambda r: r.seed)
        seeds = [r.seed for r in rows if r.seed in ref]
        if len(seeds) < 2:
            continue
        comp = {"reference": reference, "variant": v, "seeds": seeds}
        for m in METRIC_FIELDS:
            deltas = [getattr(ref[s], m) - getattr({r.seed: r for r in rows}[s], m)
                      for s in seeds]
            t, p = paired_t_test(deltas)
            comp[m] = {"deltas": [float(d) for d in deltas],
                       "mean_delta": float(np.mean(deltas)),
                       "t": t, "p_value": p}
        out.append(comp)
    return out


def emit_report(reports: list[MetricReport], fmt: str, path,
                reference: str | None = None, extra: dict | None = None) -> None:
    """Write reports as json or csv with a stable field order.

    Multi-seed runs include a mean/std summary block; when a reference
    variant is named, a paired per-seed comparison block is added. No
    wall-clock or environment data: identical runs produce identical bytes.
    """
    rows = sorted(reports, key=lambda r: (r.variant, r.seed))
    if fmt == "json":
        doc = {"version": REPORT_SCHEMA_VERSION,
               "reports": [r.to_dict() for r in rows],
               "summary": summarize(rows)}
        if reference is not None and len({r.seed for r in rows}) > 1:
            doc["comparisons"] = paired_comparisons(rows, reference)
        if extra:
            doc["extra"] = extra
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", "seed", *METRIC_FIELDS,
                             "n_eval", "n_conversions", "n_delayed", "n_nonconv"])
            for r in rows:
                writer.writerow([r.variant, r.seed,
                                 f"{r.auc_all:.6f}", f"{r.auc_delay:.6f}",
                                 f"{r.nll_delay:.6f}", r.n_eval, r.n_conversions,
                                 r.n_delayed, r.n_nonconv])
            summary = summarize(rows)
            for v, entry in summary.items():
                writer.writerow([f"{v}/mean", "",
                                 *(f"{entry[m]['mean']:.6f}" for m in METRIC_FIELDS),
                                 "", "", "", ""])
                writer.writerow([f"{v}/std", "",
                                 *(f"{entry[m]['std']:.6f}" for m in METRIC_FIELDS),
                                 "", "", "", ""])
    else:
        raise UsageError(f"unknown report format {fmt!r}")
