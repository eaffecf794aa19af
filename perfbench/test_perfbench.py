"""The benchmark's own checks fail on deliberately broken inputs.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from prepromo.metrics import evaluate_scores  # noqa: E402


def _world(seed=0, n=20000):
    """Labels drawn from known probabilities, like the synthetic generator's."""
    rng = np.random.default_rng(seed)
    a = (rng.uniform(size=n) < 0.5).astype(float)
    mu0 = rng.uniform(0.001, 0.05, size=n)
    mu1 = np.minimum(mu0 * 4.0, 0.3)
    q_dir = np.full(n, 0.007)
    q_del = np.where(a == 1, mu1, mu0)
    u = rng.uniform(size=n)
    direct = u < q_dir
    y_delay = (~direct & (u < q_dir + q_del)).astype(float)
    y_all = np.maximum(direct, y_delay).astype(float)
    return SimpleNamespace(a=a, mu0=mu0, mu1=mu1, q_dir=q_dir, q_del=q_del,
                           y_all=y_all, y_delay=y_delay, rng=rng)


def _report(w, p):
    r = evaluate_scores("cmdcm", 1, p, p, w.y_all, w.y_delay)
    return dict(auc_all=r.auc_all, auc_delay=r.auc_delay, nll_delay=r.nll_delay)


def test_reported_metrics_match_and_catch_permuted_scores():
    w = _world()
    p = np.clip(w.q_del + 0.01 * w.rng.standard_normal(w.a.size), 1e-4, 0.9)
    assert checks.reported_metrics(p, p, w.y_all, w.y_delay, **_report(w, p)) == []
    shuffled = w.rng.permutation(p)
    failures = checks.reported_metrics(shuffled, shuffled, w.y_all, w.y_delay, **_report(w, p))
    assert any("auc_delay" in f for f in failures)
    assert any("auc_all" in f for f in failures)


def test_reported_nll_off_by_a_little_fails():
    w = _world()
    p = np.clip(w.q_del, 1e-4, 0.9)
    rep = _report(w, p)
    rep["nll_delay"] += 1e-6
    assert checks.reported_metrics(p, p, w.y_all, w.y_delay, **rep) == [
        f"nll_delay reported {rep['nll_delay']!r}, "
        f"recomputed {float(checks.bernoulli_nll(p, w.y_delay).mean())!r}"]


def test_score_invariants():
    rng = np.random.default_rng(1)
    p_ori = rng.uniform(0.01, 0.5, 100)
    p_delay = rng.uniform(0.01, 0.5, 100)
    good = {"p_ori_cvr": p_ori, "p_delay": p_delay, "p_all_raw": p_ori + p_delay}
    assert checks.score_invariants(good) == []
    assert checks.score_invariants({**good, "p_all_raw": p_ori + p_delay + 1e-12})
    saturated = p_delay.copy()
    saturated[3] = 1.0
    assert checks.score_invariants({**good, "p_delay": saturated,
                                    "p_all_raw": p_ori + saturated}) == ["p_delay leaves (0, 1)"]
    bad = p_delay.copy()
    bad[0] = np.nan
    assert "p_delay has non-finite values" in checks.score_invariants(
        {**good, "p_delay": bad, "p_all_raw": p_ori + bad})
    assert checks.probabilities(np.array([0.2, np.inf]), "scores")


def test_frozen_base_digest_sees_one_changed_value():
    params = [SimpleNamespace(name="w", data=np.zeros((3, 2))),
              SimpleNamespace(name="b", data=np.ones(2))]
    before = checks.param_digest(params)
    assert checks.frozen_base(before, checks.param_digest(params)) == []
    params[0].data[1, 1] = 1e-300
    assert checks.frozen_base(before, checks.param_digest(params))


def test_learns_needs_the_margin():
    assert checks.learns(0.66, 0.1) == []
    assert checks.learns(0.58, 0.1)
    assert checks.learns(0.5, 0.05)


def test_bayes_bounds_pass_for_the_truth_and_fail_for_leaked_labels():
    w = _world()
    assert checks.bayes_bounds(w.q_del, w.y_all, w.y_delay, w.a, w.mu1, w.mu0, w.q_dir) == []
    leaked = np.where(w.y_delay == 1, 0.9, 0.001)
    failures = checks.bayes_bounds(leaked, w.y_all, w.y_delay, w.a, w.mu1, w.mu0, w.q_dir)
    assert len(failures) == 2


def _sample(user, item, ts, y_all=0, y_delay=0, a=0, atc=(), pay=()):
    return SimpleNamespace(user_id=user, item_id=item, click_ts=ts, y_all=y_all,
                           y_delay=y_delay, A=a, atc_seq=tuple(atc), pay_seq=tuple(pay))


@pytest.fixture
def small_log():
    rows = [("u1", "i1", "pv", 10), ("u1", "i1", "cart", 10), ("u1", "i2", "pv", 20),
            ("u1", "i2", "buy", 20), ("u2", "i1", "pv", 30), ("u1", "i3", "pv", 40)]
    log = {"user": np.array([r[0] for r in rows]), "item": np.array([r[1] for r in rows]),
           "action": np.array([r[2] for r in rows]),
           "ts": np.array([r[3] for r in rows], dtype=np.int64)}
    samples = [_sample("u1", "i1", 10, a=1), _sample("u1", "i2", 20, 1, 0, atc=["i1"]),
               _sample("u2", "i1", 30), _sample("u1", "i3", 40, atc=["i1"], pay=["i2"])]
    truth = {("u1", "i1", 10): (0, 0, 1), ("u1", "i2", 20): (1, 0, 0),
             ("u2", "i1", 30): (0, 0, 0), ("u1", "i3", 40): (0, 0, 0)}
    return log, samples, truth


def test_round_trip_passes_on_a_faithful_assembly(small_log):
    log, samples, truth = small_log
    assert checks.round_trip(samples, truth, log, list(truth), max_len=10) == []


def test_round_trip_catches_flipped_label_lost_and_doubled_clicks(small_log):
    log, samples, truth = small_log
    flipped = [samples[0], _sample("u1", "i2", 20, 1, 1, atc=["i1"]), *samples[2:]]
    assert "wrong labels" in checks.round_trip(flipped, truth)[0]
    assert "missing" in checks.round_trip(samples[1:], truth)[0]
    assert "twice" in checks.round_trip(samples + samples[:1], truth)[0]


def test_round_trip_catches_a_wrong_sequence(small_log):
    log, samples, truth = small_log
    wrong = samples[:3] + [_sample("u1", "i3", 40, atc=["i1", "i2"], pay=["i2"])]
    failures = checks.round_trip(wrong, truth, log, [("u1", "i3", 40)], max_len=10)
    assert failures == ["sequences of click ('u1', 'i3', 40) differ from a scan of the log"]


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    ns = SimpleNamespace(inner=lambda: sum(range(20000)),
                         outer=lambda: [ns.inner() for _ in range(3)])
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.close()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0, 0]
    own = tracing.self_times(spans)
    assert own[0] + sum(own[1:]) == pytest.approx(spans[0][2] - spans[0][1])
    assert ns.inner() == sum(range(20000))  # closed: the original is back


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    printed = set(tracing.layer_metrics([])) | {"trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit(m["name"])
        assert m["better"] == tracing.better(m["name"])
