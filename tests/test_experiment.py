import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from prepromo.data import build_click_dataset, ingest_csv, CsvSchema
from prepromo.decode import decode
from prepromo.errors import ConfigError
from prepromo.experiment import (ABLATION_VARIANTS, VARIANT_NAMES, DatasetConfig,
                                 ExperimentConfig, ModelConfig, TrainingConfig,
                                 acquire_data, apply_variant,
                                 config_hash, format_ablation_table,
                                 load_config, make_config, run_ablation,
                                 run_experiment, stage_seed)
from prepromo.model import DelayConfig
from prepromo.pretrain import PretrainConfig

ROOT = Path(__file__).resolve().parent.parent


def tiny_config(**kw):
    cfg = make_config("desk")
    cfg.dataset = replace(cfg.dataset, n_daily=1500, n_prepromo=3000,
                          feature_dim=4, n_users=60, n_items=100,
                          n_categories=8, max_seq_len=3,
                          direct_rate_pre=0.02, delayed_rate_pre=0.05)
    cfg.model = replace(cfg.model, widths=(6, 4), embedding_dim=2,
                        imputation_widths=(8,), n_buckets=4)
    cfg.training = replace(cfg.training, batch_size=256, epochs=1,
                           pretrain_epochs=1, imputation_epochs=1)
    cfg.seeds = (1,)
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


SECTIONS = ("dataset", "model", "training")


def moved_config() -> ExperimentConfig:
    """The desk profile with every field of all four sections off its default."""
    def moved(obj):
        out = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name in SECTIONS:
                out[f.name] = moved(value)
            elif isinstance(value, bool):
                out[f.name] = not value
            elif isinstance(value, int):
                out[f.name] = value + 1
            elif isinstance(value, float):  # propensity_clip stays below 0.5
                out[f.name] = value + 0.125
            elif isinstance(value, str):    # the delimiter stays one character
                out[f.name] = "x" if len(value) <= 1 else value + "x"
            elif f.name == "variants":
                out[f.name] = VARIANT_NAMES[::-1]
            else:
                out[f.name] = value + (value[-1] + 1,)
        return replace(obj, **out)
    return moved(make_config("desk"))


class TestApplyVariant:
    def test_all_names_resolve(self):
        cfg = make_config("desk")
        for name in ("pretrained_only", "naive_finetune", "reuse_relabel",
                     "cmdcm", "wo_allcvr", "wo_pg", "wo_cm"):
            plan = apply_variant(cfg, name)
            assert plan.name == name

    def test_wo_cm_matches_cmdcm_except_counterfactual_weight(self):
        cfg = make_config("desk")
        full = apply_variant(cfg, "cmdcm")
        wo = apply_variant(cfg, "wo_cm")
        assert wo.lambda_cm == 0.0
        assert wo.lambda_all == full.lambda_all
        assert wo.use_gates == full.use_gates
        assert wo.needs_imputation  # the model is still fitted

    def test_naive_disables_everything_extra(self):
        plan = apply_variant(make_config("desk"), "naive_finetune")
        assert (plan.lambda_all, plan.lambda_cm, plan.use_gates) == (0.0, 0.0, False)
        assert not plan.needs_imputation

    def test_unknown_name_rejected(self):
        for name in ("wo_everything", "wo_ccra"):  # wo_ccra trained wo_cm's model
            with pytest.raises(ConfigError, match="unknown variant"):
                apply_variant(make_config("desk"), name)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[dataset]\n"
            "n_prepromo = 5000\n"
            "tau = 1.5\n"
            "[model]\n"
            "widths = 8,4\n"
            "lambda_cm = 0.25\n"
            "use_gates = false\n"
            "[training]\n"
            "epochs = 2\n"
            "[experiment]\n"
            "variants = pretrained_only,cmdcm\n"
            "seeds = 3,4\n"
            "out_dir = runs/test\n")
        cfg = load_config(path)
        assert cfg.dataset.n_prepromo == 5000
        assert cfg.dataset.tau == 1.5
        assert cfg.model.widths == (8, 4)
        assert cfg.model.lambda_cm == 0.25
        assert cfg.model.use_gates is False
        assert cfg.training.epochs == 2
        assert cfg.variants == ("pretrained_only", "cmdcm")
        assert cfg.seeds == (3, 4)
        assert cfg.out_dir == "runs/test"

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\nwidht = 8\n")
        with pytest.raises(ConfigError, match="widht"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[serving]\nqps = 100\n")
        with pytest.raises(ConfigError, match="serving"):
            load_config(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[training]\nepochs = few\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_config(path)

    def test_unknown_variant_in_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nvariants = cmdcm,showcase\n")
        with pytest.raises(ConfigError, match="showcase"):
            load_config(path)

    def test_iso_dates_for_calendar(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[dataset]\nmode = csv\nevents_path = x.csv\n"
                        "daily_start = 2017-11-25\ndaily_end = 2017-11-28\n"
                        "pre_start = 2017-11-29\npre_end = 2017-12-01\n"
                        "promo_days = 2017-12-02,2017-12-03\n")
        cfg = load_config(path)
        cal = cfg.dataset.calendar()
        # 1511918000s is 2017-11-29 00:33 UTC, four days after daily_start.
        assert cal.day_of(1511918000) == cfg.dataset.daily_start + 4
        assert cal.pre_promo_range[0] == cal.day_of(1511918000)
        assert len(cal.promo_days) == 2

    def test_paper_profile(self):
        cfg = make_config("paper")
        assert cfg.model.widths == (512, 256, 128)
        assert cfg.training.learning_rate == 0.001
        assert cfg.dataset.max_seq_len == 50

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            make_config("laptop")

    def test_every_config_field_is_settable_from_a_file(self, tmp_path):
        cfg, desk = moved_config(), make_config("desk")
        text = ""
        for section, obj, default in (("dataset", cfg.dataset, desk.dataset),
                                      ("model", cfg.model, desk.model),
                                      ("training", cfg.training, desk.training),
                                      ("experiment", cfg, desk)):
            text += f"[{section}]\n"
            for f in fields(obj):
                if f.name in SECTIONS:
                    continue
                value = getattr(obj, f.name)
                assert value != getattr(default, f.name), f"{section}.{f.name} not moved"
                if isinstance(value, tuple):
                    value = ",".join(map(str, value))
                text += f"{f.name} = {value}\n"
        path = tmp_path / "every.ini"
        path.write_text(text)
        assert asdict(load_config(path)) == asdict(cfg)

    def test_every_csv_schema_field_is_a_dataset_setting(self):
        # A schema field that no config file can set is a setting nothing uses.
        schema = {f.name for f in fields(CsvSchema)}
        assert schema <= {f.name for f in fields(DatasetConfig)}

    def test_demo_config_is_the_desk_profile(self):
        cfg = load_config(ROOT / "demos" / "experiment.ini")
        assert cfg == replace(make_config("desk"), out_dir=cfg.out_dir)

    def test_config_hash_ignores_out_dir(self):
        a, b = make_config("desk"), make_config("desk")
        b.out_dir = "elsewhere"
        assert config_hash(a) == config_hash(b)
        b.model = replace(b.model, lambda_cm=0.9)
        assert config_hash(a) != config_hash(b)


class TestDecode:
    """decode reads field types from the config classes' annotations."""

    @pytest.mark.parametrize("config", [
        DatasetConfig(), ModelConfig(), TrainingConfig(), PretrainConfig(), DelayConfig(),
        moved_config().dataset, moved_config().model, moved_config().training,
        PretrainConfig(tower_widths=(7, 5), learning_rate=1.0, epochs=2),
        DelayConfig(use_gates=False, lambda_cm=0.0, batch_size=3),
    ], ids=lambda c: type(c).__name__)
    def test_json_round_trip(self, config):
        cls = type(config)
        assert cls(**decode(cls, json.loads(json.dumps(asdict(config))))) == config

    @pytest.mark.parametrize("value", [True, False, 3.0, "3", [3]])
    def test_int_field_refuses_other_types(self, value):
        with pytest.raises(ConfigError, match="bad value for TrainingConfig.epochs"):
            decode(TrainingConfig, {"epochs": value})

    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_float_field_refuses_other_types(self, value):
        with pytest.raises(ConfigError, match="bad value for TrainingConfig.learning_rate"):
            decode(TrainingConfig, {"learning_rate": value})

    def test_int_is_accepted_for_a_float(self):
        value = decode(TrainingConfig, {"learning_rate": 1})["learning_rate"]
        assert value == 1.0 and type(value) is float

    @pytest.mark.parametrize("field,raw", [
        ("epochs", "true"), ("epochs", "2.0"), ("use_gates", "2"), ("widths", "8,x"),
    ])
    def test_text_that_does_not_parse_is_refused(self, field, raw):
        cls = TrainingConfig if field == "epochs" else ModelConfig
        with pytest.raises(ConfigError, match=f"bad value for {cls.__name__}.{field}"):
            decode(cls, {field: raw}, text=True)

    def test_unknown_or_nested_key_is_refused(self):
        with pytest.raises(ConfigError, match="unknown key 'model' for ExperimentConfig"):
            decode(ExperimentConfig, {"model": "x"}, text=True)
        with pytest.raises(ConfigError, match="unknown key 'learning_rat' for DelayConfig"):
            decode(DelayConfig, {"learning_rat": 0.1})

    def test_values_must_be_an_object(self):
        with pytest.raises(ConfigError, match="DelayConfig needs an object, got list"):
            decode(DelayConfig, [["lambda_cm", 0.1]])

    def test_day_fields_read_iso_dates_in_text_only(self):
        days = decode(DatasetConfig, {"pre_start": "1970-01-05", "pre_end": "+6",
                                      "promo_days": "1970-01-08, 9,"}, text=True)
        assert days == {"pre_start": 4, "pre_end": 6, "promo_days": (7, 9)}
        with pytest.raises(ConfigError, match="bad value for ModelConfig.n_buckets"):
            decode(ModelConfig, {"n_buckets": "1970-01-05"}, text=True)
        with pytest.raises(ConfigError, match="bad value for DatasetConfig.pre_start"):
            decode(DatasetConfig, {"pre_start": "1970-01-05"})


class TestStageSeeds:
    def test_stable_and_distinct(self):
        assert stage_seed(1, "daily") == stage_seed(1, "daily")
        assert stage_seed(1, "daily") != stage_seed(2, "daily")
        assert stage_seed(1, "daily") != stage_seed(1, "pretrain")


class TestAcquireData:
    def test_split_proportions_balanced(self):
        cfg = tiny_config()
        cfg.dataset = replace(cfg.dataset, n_prepromo=100_000, n_daily=2000,
                              n_users=1500, n_items=2000)
        split = acquire_data(cfg, run_seed=1)
        train_rate = np.mean([s.y_delay for s in split.prepromo_train])
        eval_rate = np.mean([s.y_delay for s in split.prepromo_eval])
        assert abs(train_rate - eval_rate) < 0.01
        n = len(split.prepromo_train) + len(split.prepromo_eval)
        assert abs(len(split.prepromo_train) - 0.8 * n) <= 1

    def test_csv_mode_round_trip(self, tmp_path):
        from prepromo.synth import (GenConfig, generate_dataset, sample_world,
                                    samples_to_events)
        from prepromo.data import write_events_csv

        world = sample_world(7, d=4, direct_rate_pre=0.02, delayed_rate_pre=0.05)
        gen = GenConfig(n_users=50, n_items=80, n_categories=8, max_seq_len=3)
        daily = generate_dataset(world, 800, "daily", seed=1, gen=gen)
        prepromo = generate_dataset(world, 1500, "prepromo", seed=2, gen=gen)
        events = samples_to_events(daily + prepromo, gen.calendar)
        path = tmp_path / "events.csv"
        schema = CsvSchema(price_col=5, discount_col=6)
        write_events_csv(events, path, schema)

        cfg = tiny_config()
        cfg.dataset = replace(
            cfg.dataset, mode="csv", events_path=str(path), price_col=5,
            discount_col=6, daily_start=0, daily_end=29, pre_start=30,
            pre_end=32, promo_days=(33,), max_seq_len=3)
        split = acquire_data(cfg, run_seed=1)
        assert len(split.daily_train) == 800
        n_pre = len(split.prepromo_train) + len(split.prepromo_eval)
        assert n_pre == 1500
        want_delay = sum(s.y_delay for s in prepromo)
        got_delay = sum(s.y_delay for s in split.prepromo_train) + \
            sum(s.y_delay for s in split.prepromo_eval)
        assert got_delay == want_delay

    def test_unknown_mode(self):
        cfg = tiny_config()
        cfg.dataset = replace(cfg.dataset, mode="parquet")
        with pytest.raises(ConfigError):
            acquire_data(cfg, run_seed=1)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = tiny_config(variants=("pretrained_only", "naive_finetune",
                                "reuse_relabel", "cmdcm"))
    cfg.out_dir = str(out)
    return cfg, run_experiment(cfg), out


class TestRunExperiment:
    def test_report_per_variant_per_seed(self, small_run):
        cfg, result, _ = small_run
        assert len(result.reports) == len(cfg.variants) * len(cfg.seeds)
        assert {r.variant for r in result.reports} == set(cfg.variants)

    def test_pretrained_only_never_steps(self, small_run):
        _, result, _ = small_run
        frozen = [r for r in result.reports if r.variant == "pretrained_only"]
        assert all(r.extras["finetune_steps"] == 0.0 for r in frozen)

    def test_trained_variants_step(self, small_run):
        _, result, _ = small_run
        for r in result.reports:
            if r.variant != "pretrained_only":
                assert r.extras["finetune_steps"] > 0

    def test_files_written(self, small_run):
        _, _, out = small_run
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "loss_traces.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["extra"]["config"]["dataset"]["mode"] == "synthetic"
        assert "1" in doc["extra"]["diagnostics"]

    def test_diagnostics_cover_oracle_values(self, small_run):
        _, result, _ = small_run
        diag = result.diagnostics[1]
        assert "bayes_nll_delay" in diag
        assert diag["bayes_nll_delay"] > 0
        # The generator's own probabilities are the ranking ceiling.
        assert diag["bayes_auc_delay"] > 0.5
        assert "naive_diff_in_means" in diag

    def test_stage_trace_shape(self, small_run):
        cfg, result, _ = small_run
        assert f"seed=1:data" in result.stage_trace
        assert f"seed=1:pretrain" in result.stage_trace
        # cmdcm requires the imputation stage
        assert f"seed=1:imputation" in result.stage_trace


def test_frozen_base_scores_the_eval_split_once(tmp_path, monkeypatch):
    # pretrained_only scores it, and seed_diagnostics reuses those scores
    # for its propensities.
    from prepromo import experiment as exp
    from prepromo.pretrain import PretrainedModel

    prepare, predict = exp.prepare_seed, PretrainedModel.predict
    prepared, scored = [], []

    def keep(*args):
        prepared.append(prepare(*args))
        return prepared[-1]

    def count(model, data):
        scored.append(data)
        return predict(model, data)

    monkeypatch.setattr(exp, "prepare_seed", keep)
    monkeypatch.setattr(PretrainedModel, "predict", count)
    result = run_experiment(tiny_config(variants=("pretrained_only", "cmdcm"),
                                        out_dir=str(tmp_path)))
    assert sum(data is prepared[0].enc_eval for data in scored) == 1
    assert "dr_ate" in result.diagnostics[1]


def test_report_blocks_are_computed_once(tmp_path, monkeypatch):
    # run_experiment hands its summary and comparisons to emit_report.
    from prepromo import experiment as exp, metrics

    calls = []
    for name in ("summarize", "paired_comparisons"):
        def counted(*args, _f=getattr(metrics, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(exp, name, counted)
        monkeypatch.setattr(metrics, name, counted)
    result = run_experiment(tiny_config(variants=("pretrained_only", "naive_finetune"),
                                        seeds=(1, 2), out_dir=str(tmp_path)))
    assert sorted(calls) == ["paired_comparisons", "summarize"]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["summary"] == result.summary
    assert doc["comparisons"] == result.comparisons != []


class TestVariantIsolation:
    def test_wo_cm_alone_builds_imputation(self, tmp_path):
        cfg = tiny_config(variants=("wo_cm",), out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert any("imputation" in s for s in result.stage_trace)

    # The two tests below keep the names they had while wo_ccra (wo_cm without
    # the imputation stage) existed; it trained the same model as wo_cm and is
    # gone, so they check the same properties on the variants that remain.
    def test_wo_ccra_alone_builds_no_imputation(self, tmp_path):
        cfg = tiny_config(variants=("reuse_relabel",), out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert not any("imputation" in s for s in result.stage_trace)

    def test_wo_cm_equals_wo_ccra_metrics(self, tmp_path):
        # Identical stage seeds: fitting the imputation model that cmdcm needs
        # must not perturb a variant that does not use it.
        naive = {}
        for variants in (("naive_finetune",), ("naive_finetune", "cmdcm")):
            cfg = tiny_config(variants=variants, out_dir=str(tmp_path / variants[-1]))
            result = run_experiment(cfg)
            imputed = any("imputation" in s for s in result.stage_trace)
            assert imputed == ("cmdcm" in variants)
            report = next(r for r in result.reports if r.variant == "naive_finetune")
            naive[variants] = {k: v for k, v in report.to_dict().items()
                               if k != "config_hash"}
        alone, beside_cmdcm = naive.values()
        assert alone == beside_cmdcm


class TestFailureHandling:
    def test_partial_reports_flushed_and_stage_named(self, tmp_path, monkeypatch):
        from prepromo import experiment as exp
        from prepromo.errors import TrainingError

        cfg = tiny_config(variants=("pretrained_only", "naive_finetune"))
        cfg.seeds = (1,)
        cfg.out_dir = str(tmp_path)
        original = exp.run_variant

        def explode_on_finetune(cfg_, seed_data, plan, run_seed, imputation, trace):
            if plan.kind == "delay":
                trace.append(f"seed={run_seed}:finetune:{plan.name}")
                raise FloatingPointError("simulated blowup")
            return original(cfg_, seed_data, plan, run_seed, imputation, trace)

        monkeypatch.setattr(exp, "run_variant", explode_on_finetune)
        with pytest.raises(TrainingError, match="finetune:naive_finetune"):
            exp.run_experiment(cfg)
        partial = json.loads((tmp_path / "report_partial.json").read_text())
        assert [r["variant"] for r in partial["reports"]] == ["pretrained_only"]


class TestNonFiniteLoss:
    def test_reuse_baseline_names_stage_and_step(self):
        from prepromo.errors import TrainingError
        from prepromo.experiment import prepare_seed, run_reuse_baseline

        cfg = tiny_config()
        seed_data = prepare_seed(cfg, 1, [])
        poisoned = seed_data.enc_train.take(np.arange(seed_data.enc_train.n))
        poisoned.dense[7, 1] = np.nan
        with pytest.raises(TrainingError, match=r"reuse_relabel: non-finite loss nan at step \d+"):
            run_reuse_baseline(seed_data.pretrained, poisoned, cfg.training, seed=0)


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        cfg1 = tiny_config(variants=("pretrained_only", "cmdcm"))
        cfg1.seeds = (1, 2)
        cfg1.out_dir = str(tmp_path / "a")
        run_experiment(cfg1)
        cfg2 = tiny_config(variants=("pretrained_only", "cmdcm"))
        cfg2.seeds = (1, 2)
        cfg2.out_dir = str(tmp_path / "b")
        run_experiment(cfg2)
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


class TestAblation:
    def test_structure(self, tmp_path):
        cfg = tiny_config()
        cfg.seeds = (1, 2)
        cfg.out_dir = str(tmp_path)
        result = run_ablation(cfg)
        assert [row["variant"] for row in result.table] == list(ABLATION_VARIANTS)
        assert (tmp_path / "ablation.csv").exists()
        lines = (tmp_path / "ablation.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + len(ABLATION_VARIANTS)
        parsed = [line.split(",")[0] for line in lines[1:]]
        assert parsed == list(ABLATION_VARIANTS)
        table = format_ablation_table(result.table)
        assert "cmdcm" in table
        # Tiny runs are noisy; the flag must exist and match the failures list.
        assert result.ordering_ok == (not result.failures)
