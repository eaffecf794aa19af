"""Correctness checks on a workload's outputs, computed apart from `prepromo`.

Each check returns a list of failure messages; an empty list means it passed.
Nothing here imports the program: the checks take plain arrays and objects,
so the tests beside this file can feed them deliberately broken inputs.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import stats

# The program clamps probabilities into [EPS, 1 - EPS] before taking logs
# (its documented NLL definition); the recomputation uses the same clamp.
EPS = 1e-7
# "Equal to rounding": the program and these formulas sum in different orders.
REL_TOL = 1e-9
# The oracle bounds allow this many standard errors of sampling noise.
N_SE = 3.0


def param_digest(params) -> str:
    """SHA-256 over parameter names and raw bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(params, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def rank_auc(pos, neg) -> float:
    """Mann-Whitney U of positives over negatives, divided by n_pos * n_neg."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    u = stats.mannwhitneyu(pos, neg, alternative="two-sided", method="asymptotic").statistic
    return float(u) / (pos.size * neg.size)


def bernoulli_nll(p, y) -> np.ndarray:
    """Per-sample negative log-likelihood of labels y under probabilities p."""
    p = np.clip(np.asarray(p, dtype=np.float64), EPS, 1.0 - EPS)
    y = np.asarray(y, dtype=np.float64)
    return np.where(y == 1.0, -np.log(p), -np.log1p(-p))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def reported_metrics(p_all, p_delay, y_all, y_delay, auc_all: float,
                     auc_delay: float, nll_delay: float) -> list[str]:
    """The reported AUCs and NLL equal an independent recomputation."""
    p_all, p_delay = np.asarray(p_all), np.asarray(p_delay)
    y_all, y_delay = np.asarray(y_all), np.asarray(y_delay)
    want = {
        "auc_all": rank_auc(p_all[y_all == 1], p_all[y_all == 0]),
        "auc_delay": rank_auc(p_delay[y_delay == 1], p_delay[y_all == 0]),
        "nll_delay": float(bernoulli_nll(p_delay, y_delay).mean()),
    }
    got = {"auc_all": auc_all, "auc_delay": auc_delay, "nll_delay": nll_delay}
    return [f"{k} reported {got[k]!r}, recomputed {want[k]!r}"
            for k in want if not _close(got[k], want[k])]


def score_invariants(scores: dict) -> list[str]:
    """p_all_raw is exactly p_ori_cvr + p_delay; p_delay lies in (0, 1); all finite."""
    out = []
    for key in ("p_delay", "p_all_raw", "p_ori_cvr"):
        if not np.all(np.isfinite(scores[key])):
            out.append(f"{key} has non-finite values")
    p = scores["p_delay"]
    if not np.all((p > 0.0) & (p < 1.0)):
        out.append("p_delay leaves (0, 1)")
    if not np.array_equal(scores["p_all_raw"], scores["p_ori_cvr"] + p):
        out.append("p_all_raw != p_ori_cvr + p_delay")
    return out


def probabilities(p, name: str) -> list[str]:
    p = np.asarray(p)
    if not np.all(np.isfinite(p)):
        return [f"{name} has non-finite values"]
    if not np.all((p > 0.0) & (p < 1.0)):
        return [f"{name} leaves (0, 1)"]
    return []


def frozen_base(before: str, after: str) -> list[str]:
    return [] if before == after else ["frozen base parameters changed"]


def learns(auc_delay: float, margin: float) -> list[str]:
    if auc_delay > 0.5 + margin:
        return []
    return [f"auc_delay {auc_delay:.4f} is not above 0.5 + {margin}"]


def hanley_mcneil_se(auc: float, n_pos: int, n_neg: int) -> float:
    """Standard error of an AUC (Hanley and McNeil, 1982)."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (auc * (1 - auc) + (n_pos - 1) * (q1 - auc * auc)
           + (n_neg - 1) * (q2 - auc * auc)) / (n_pos * n_neg)
    return math.sqrt(max(var, 0.0))


def bayes_bounds(p_delay, y_all, y_delay, a, mu1, mu0, q_dir) -> list[str]:
    """No model beats the generator's own probabilities, within N_SE errors.

    The delayed-conversion probability of a click is mu1 if it was carted and
    mu0 if not. Among clicks that did not convert directly, the chance of a
    delayed conversion is that probability over 1 - q_dir, which is the
    ranking no score can beat on auc_delay.
    """
    p_delay, y_all, y_delay = map(np.asarray, (p_delay, y_all, y_delay))
    q_del = np.where(np.asarray(a) == 1, mu1, mu0)
    out = []
    gap = bernoulli_nll(p_delay, y_delay) - bernoulli_nll(q_del, y_delay)
    se = gap.std(ddof=1) / math.sqrt(gap.size)
    if gap.mean() < -N_SE * se:
        out.append(f"nll_delay beats the Bayes NLL by {-gap.mean():.5f} "
                   f"(> {N_SE} x se {se:.5f})")
    bayes_score = q_del / (1.0 - np.asarray(q_dir))
    pos, neg = y_delay == 1, y_all == 0
    bayes_auc = rank_auc(bayes_score[pos], bayes_score[neg])
    model_auc = rank_auc(p_delay[pos], p_delay[neg])
    se_auc = hanley_mcneil_se(bayes_auc, int(pos.sum()), int(neg.sum()))
    if model_auc > bayes_auc + N_SE * se_auc:
        out.append(f"auc_delay {model_auc:.4f} beats the Bayes AUC {bayes_auc:.4f} "
                   f"by more than {N_SE} x se {se_auc:.4f}")
    return out


# ---------------------------------------------------------------------------
# Event-log round trip
# ---------------------------------------------------------------------------

def read_log(path) -> dict[str, np.ndarray]:
    """The benchmark's own reader for the log it wrote: one array per column."""
    import csv

    users, items, actions, ts = [], [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            users.append(row[0])
            items.append(row[1])
            actions.append(row[3])
            ts.append(int(row[4]))
    return {"user": np.array(users), "item": np.array(items),
            "action": np.array(actions), "ts": np.array(ts, dtype=np.int64)}


def brute_force_sequences(log: dict, user: str, click_ts: int, max_len: int,
                          cart: str, buy: str) -> tuple[tuple, tuple]:
    """Newest-first carted and bought items of `user` strictly before click_ts.

    Events with equal timestamps keep their order in the log.
    """
    out = []
    for action in (cart, buy):
        idx = np.flatnonzero((log["user"] == user) & (log["action"] == action)
                             & (log["ts"] < click_ts))
        idx = idx[np.argsort(-log["ts"][idx], kind="stable")]
        out.append(tuple(log["item"][idx[:max_len]].tolist()))
    return out[0], out[1]


def round_trip(samples, truth: dict, log: dict | None = None, subset=(),
               max_len: int = 0, cart: str = "cart", buy: str = "buy") -> list[str]:
    """Every generated click comes back once, with its labels and cart flag.

    truth maps (user, item, click_ts) to (y_all, y_delay, A) as generated.
    For the clicks in `subset`, the cart and buy sequences must equal a
    brute-force scan of the log.
    """
    out = []
    got = {}
    for s in samples:
        key = (s.user_id, s.item_id, int(s.click_ts))
        if key in got:
            out.append(f"click {key} comes back twice")
        got[key] = s
    missing = truth.keys() - got.keys()
    extra = got.keys() - truth.keys()
    if missing:
        out.append(f"{len(missing)} generated clicks are missing, e.g. {min(missing)}")
    if extra:
        out.append(f"{len(extra)} clicks were never generated, e.g. {min(extra)}")
    wrong = [k for k in truth.keys() & got.keys()
             if (got[k].y_all, got[k].y_delay, got[k].A) != truth[k]]
    if wrong:
        k = min(wrong)
        out.append(f"{len(wrong)} clicks carry wrong labels, e.g. {k}: "
                   f"got {(got[k].y_all, got[k].y_delay, got[k].A)}, generated {truth[k]}")
    for key in subset:
        s = got.get(key)
        if s is None:
            continue
        want = brute_force_sequences(log, key[0], key[2], max_len, cart, buy)
        if (tuple(s.atc_seq), tuple(s.pay_seq)) != want:
            out.append(f"sequences of click {key} differ from a scan of the log")
    return out
