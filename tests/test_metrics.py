import json
import math

import numpy as np
import pytest
from scipy import stats

from prepromo.errors import DataError, UsageError
from prepromo.metrics import (MetricReport, auc, auc_all, auc_delay,
                              emit_report, evaluate_scores, nll_delay,
                              paired_comparisons, paired_t_test, summarize)

from oracles import brute_force_auc


class TestAuc:
    def test_single_positive_wins_both_pairs(self):
        assert auc([0.9], [0.1, 0.8]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_empty_class_errors_name_the_class(self):
        with pytest.raises(DataError, match="positive"):
            auc([], [0.1])
        with pytest.raises(DataError, match="negative"):
            auc([0.1], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            auc([0.9, bad], [0.1, 0.2])
        with pytest.raises(DataError, match="non-finite"):
            auc_delay(np.full(100, bad), np.r_[np.zeros(50), np.ones(50)],
                      np.r_[np.zeros(50), np.ones(50)])

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n_pos = int(rng.integers(1, 120))
        n_neg = int(rng.integers(1, 120))
        if rng.uniform() < 0.5:
            pos = rng.normal(size=n_pos)
            neg = rng.normal(size=n_neg)
        else:
            # Heavy ties: scores on a coarse grid.
            pos = rng.integers(0, 5, n_pos) / 4.0
            neg = rng.integers(0, 5, n_neg) / 4.0
        assert auc(pos, neg) == brute_force_auc(list(pos), list(neg))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        pos, neg = rng.normal(size=60), rng.normal(size=80)
        base = auc(pos, neg)
        assert auc(np.exp(pos), np.exp(neg)) == base
        assert auc(2 * pos + 1, 2 * neg + 1) == base

    def test_inverted_scores_flip(self):
        rng = np.random.default_rng(4)
        pos, neg = rng.normal(size=30), rng.normal(size=50)
        assert auc(1 - pos, 1 - neg) == pytest.approx(1 - auc(pos, neg), abs=1e-12)


class TestAucDelay:
    def test_direct_conversions_excluded(self):
        # delayed 0.8, direct 0.9, non-conv 0.1: the direct one is ignored.
        p = np.array([0.8, 0.9, 0.1])
        y_all = np.array([1, 1, 0])
        y_delay = np.array([1, 0, 0])
        assert auc_delay(p, y_all, y_delay) == 1.0

    def test_adding_direct_samples_never_changes_value(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=200)
        y_delay = (rng.uniform(size=200) < 0.2).astype(int)
        y_all = y_delay.copy()
        base = auc_delay(p, y_all, y_delay)
        extra_p = np.concatenate([p, rng.uniform(size=50) * 100])
        extra_all = np.concatenate([y_all, np.ones(50, dtype=int)])
        extra_delay = np.concatenate([y_delay, np.zeros(50, dtype=int)])
        assert auc_delay(extra_p, extra_all, extra_delay) == base

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(6)
        n = 4000
        y_delay = (rng.uniform(size=n) < 0.3).astype(int)
        p = rng.uniform(size=n)
        value = auc_delay(p, y_delay, y_delay)
        n_pos = y_delay.sum()
        n_neg = n - n_pos
        se = math.sqrt((n_pos + n_neg + 1) / (12 * n_pos * n_neg))
        assert abs(value - 0.5) < 3 * se

    def test_empty_class_errors(self):
        with pytest.raises(DataError, match="delayed"):
            auc_delay(np.array([0.5]), np.array([0]), np.array([0]))
        with pytest.raises(DataError, match="non-conversion"):
            auc_delay(np.array([0.5, 0.6]), np.array([1, 1]), np.array([1, 0]))


class TestAucAll:
    def test_perfect_separation(self):
        p = np.array([0.9, 0.8, 0.1, 0.2])
        y = np.array([1, 1, 0, 0])
        assert auc_all(p, y) == 1.0

    def test_brute_force_500(self):
        rng = np.random.default_rng(7)
        p = rng.integers(0, 50, 500) / 49.0
        y = (rng.uniform(size=500) < 0.3).astype(int)
        if y.sum() in (0, 500):
            y[0] = 1 - y[0]
        assert auc_all(p, y) == brute_force_auc(list(p[y == 1]), list(p[y == 0]))


class TestNllDelay:
    def test_constant_half_is_ln2(self):
        p = np.full(100, 0.5)
        y = np.zeros(100)
        y[:7] = 1
        assert nll_delay(p, y) == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_base_rate_closed_form(self):
        rng = np.random.default_rng(8)
        y = (rng.uniform(size=5000) < 0.1).astype(float)
        r = y.mean()
        got = nll_delay(np.full(y.size, r), y)
        want = -(r * math.log(r) + (1 - r) * math.log(1 - r))
        assert got == pytest.approx(want, abs=1e-9)

    def test_base_rate_minimizes_constant_predictors(self):
        rng = np.random.default_rng(9)
        y = (rng.uniform(size=3000) < 0.23).astype(float)
        r = y.mean()
        best = nll_delay(np.full(y.size, r), y)
        for c in np.linspace(0.01, 0.99, 99):
            assert nll_delay(np.full(y.size, c), y) >= best - 1e-12

    def test_empty_errors(self):
        with pytest.raises(DataError):
            nll_delay(np.array([]), np.array([]))


class TestPairedTTest:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=8)
        b = rng.normal(size=8) + 0.5
        t, p = paired_t_test(a - b)
        ref = stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_identical_pairs(self):
        t, p = paired_t_test(np.zeros(5))
        assert (t, p) == (0.0, 1.0)

    def test_needs_two_seeds(self):
        with pytest.raises(UsageError):
            paired_t_test([0.1])


def make_reports():
    rng = np.random.default_rng(11)
    reports = []
    for variant, lift in [("cmdcm", 0.05), ("pretrained_only", 0.0)]:
        for seed in range(1, 6):
            reports.append(MetricReport(
                variant=variant, seed=seed,
                auc_all=0.7 + lift + rng.normal() * 0.002,
                auc_delay=0.68 + lift + rng.normal() * 0.002,
                nll_delay=0.12 - lift / 2 + rng.normal() * 0.001,
                n_eval=1000, n_conversions=40, n_delayed=30, n_nonconv=960))
    return reports


class TestReports:
    def test_json_document(self, tmp_path):
        reports = make_reports()
        path = tmp_path / "report.json"
        emit_report(reports, "json", path, comparisons=paired_comparisons(reports, "cmdcm"))
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert len(doc["reports"]) == 10
        assert set(doc["summary"]) == {"cmdcm", "pretrained_only"}
        assert "mean" in doc["summary"]["cmdcm"]["auc_delay"]
        comp = doc["comparisons"][0]
        assert comp["reference"] == "cmdcm"
        assert comp["auc_delay"]["p_value"] < 0.05

    def test_json_deterministic_bytes(self, tmp_path):
        reports = make_reports()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            emit_report(reports, "json", p, comparisons=paired_comparisons(reports, "cmdcm"))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_given_summary_writes_the_computed_bytes(self, tmp_path, fmt):
        reports = make_reports()
        given, computed = tmp_path / "given", tmp_path / "computed"
        emit_report(reports, fmt, given, summary=summarize(reports[::-1]))
        emit_report(reports, fmt, computed)
        assert given.read_bytes() == computed.read_bytes()

    def test_csv_round_trip_six_decimals(self, tmp_path):
        reports = make_reports()
        path = tmp_path / "report.csv"
        emit_report(reports, "csv", path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        original = sorted(reports, key=lambda r: (r.variant, r.seed))[0]
        assert row["variant"] == original.variant
        assert float(row["auc_all"]) == pytest.approx(original.auc_all, abs=1e-6)
        assert float(row["nll_delay"]) == pytest.approx(original.nll_delay, abs=1e-6)

    def test_summary_values(self):
        reports = make_reports()
        summary = summarize(reports)
        vals = [r.auc_delay for r in reports if r.variant == "cmdcm"]
        assert summary["cmdcm"]["auc_delay"]["mean"] == pytest.approx(np.mean(vals))
        assert summary["cmdcm"]["auc_delay"]["std"] == pytest.approx(np.std(vals, ddof=1))

    def test_single_report_json(self, tmp_path):
        reports = make_reports()[:1]
        path = tmp_path / "one.json"
        emit_report(reports, "json", path)
        doc = json.loads(path.read_text())
        assert len(doc["reports"]) == 1

    def test_evaluate_scores_counts(self):
        y_all = np.array([1, 1, 0, 0, 0])
        y_delay = np.array([1, 0, 0, 0, 0])
        p = np.array([0.9, 0.8, 0.1, 0.2, 0.3])
        r = evaluate_scores("v", 1, p, p, y_all, y_delay)
        assert (r.n_eval, r.n_conversions, r.n_delayed, r.n_nonconv) == (5, 2, 1, 3)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UsageError):
            emit_report(make_reports(), "xml", tmp_path / "r.xml")

    def test_comparisons_need_reference(self):
        with pytest.raises(UsageError):
            paired_comparisons(make_reports(), "missing_variant")
