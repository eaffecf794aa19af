import json

import pytest

from prepromo.cli import main
from prepromo.data import CsvSchema, ingest_csv

TINY = """
[dataset]
n_daily = 1500
n_prepromo = 3000
feature_dim = 4
n_users = 60
n_items = 100
n_categories = 8
max_seq_len = 3
direct_rate_pre = 0.02
delayed_rate_pre = 0.05
[model]
widths = 6,4
embedding_dim = 2
imputation_widths = 8
n_buckets = 4
[training]
batch_size = 256
epochs = 1
pretrain_epochs = 1
imputation_epochs = 1
[experiment]
seeds = 1
variants = pretrained_only,cmdcm
"""


@pytest.fixture()
def tiny_ini(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


class TestGenerate:
    def test_writes_events_and_truth(self, tiny_ini, tmp_path):
        out = tmp_path / "gen"
        code = main(["generate", "--config", str(tiny_ini), "--out", str(out)])
        assert code == 0
        for name in ("events_daily.csv", "events_prepromo.csv",
                     "truth_daily.csv", "truth_prepromo.csv"):
            assert (out / name).exists(), name
        events = ingest_csv(out / "events_prepromo.csv",
                            CsvSchema(price_col=5, discount_col=6))
        assert len(events) >= 3000
        truth_header = (out / "truth_prepromo.csv").read_text().split("\n")[0]
        assert truth_header == "sample_id,p_a_true,mu1_true,mu0_true,ice_true"


class TestExperimentVerb:
    def test_runs_and_writes_reports(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "exp"
        code = main(["experiment", "--config", str(tiny_ini), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        printed = capsys.readouterr().out
        assert "cmdcm" in printed
        doc = json.loads((out / "report.json").read_text())
        assert {r["variant"] for r in doc["reports"]} == {"pretrained_only", "cmdcm"}

    def test_seed_flag_restricts(self, tiny_ini, tmp_path):
        out = tmp_path / "exp1"
        code = main(["experiment", "--config", str(tiny_ini), "--out", str(out),
                     "--seed", "4"])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert {r["seed"] for r in doc["reports"]} == {4}


class TestTrainEvaluate:
    def test_pretrain_then_evaluate_checkpoint(self, tiny_ini, tmp_path):
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(tiny_ini), "--out", str(out)]) == 0
        ckpt = out / "pretrained_seed1.npz"
        assert ckpt.exists()
        code = main(["evaluate", "--config", str(tiny_ini), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        assert code == 0
        doc = json.loads((out / "report_checkpoint.json").read_text())
        assert doc["reports"][0]["variant"] == "checkpoint"

    def test_train_single_variant(self, tiny_ini, tmp_path):
        out = tmp_path / "train"
        code = main(["train", "--config", str(tiny_ini), "--out", str(out),
                     "--variant", "naive_finetune"])
        assert code == 0
        assert (out / "report_naive_finetune.json").exists()

    def test_unknown_variant_is_config_error(self, tiny_ini, tmp_path):
        code = main(["train", "--config", str(tiny_ini), "--out",
                     str(tmp_path), "--variant", "wo_everything"])
        assert code == 2

    def test_missing_checkpoint_is_data_error(self, tiny_ini, tmp_path):
        code = main(["evaluate", "--config", str(tiny_ini), "--out",
                     str(tmp_path), "--checkpoint", str(tmp_path / "nope.npz")])
        assert code == 3


    def test_damaged_checkpoint_is_data_error(self, tiny_ini, tmp_path, capsys,
                                              rewrite_checkpoint):
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(tiny_ini), "--out", str(out)]) == 0
        ckpt = out / "pretrained_seed1.npz"
        rewrite_checkpoint(ckpt, reshape="pretrained/emb_user")
        code = main(["evaluate", "--config", str(tiny_ini), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        assert code == 3
        assert "parameter 'pretrained/emb_user' has shape" in capsys.readouterr().err


    def test_file_that_is_not_a_checkpoint_is_data_error(self, tiny_ini, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_text("not a checkpoint\n")
        code = main(["evaluate", "--config", str(tiny_ini), "--out", str(tmp_path),
                     "--checkpoint", str(bad)])
        assert code == 3


class TestErrorCodes:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nwidhts = 8\n")
        code = main(["experiment", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "widhts" in capsys.readouterr().err

    def test_more_clicks_than_pairs_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "crowded.ini"
        cfg.write_text("[dataset]\nn_daily = 500\nn_prepromo = 3000\n"
                       "n_users = 40\nn_items = 60\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "2400 distinct (user, item) pairs" in capsys.readouterr().err

    def test_missing_events_file_exit_3(self, tmp_path):
        cfg = tmp_path / "csv.ini"
        cfg.write_text("[dataset]\nmode = csv\nevents_path = missing.csv\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 5  # open() on a missing path surfaces as I/O

    def test_undecodable_events_file_exit_3(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_bytes(b"u1,i1,c1,pv,100\nu\xe9,i1,c1,pv,200\n")
        cfg = tmp_path / "csv.ini"
        cfg.write_text(f"[dataset]\nmode = csv\nevents_path = {log}\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert f"data error: cannot read {log} past record 0" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [";;", "\\t", ""])
    def test_delimiter_of_other_than_one_character_exit_2(self, tmp_path, capsys,
                                                          delimiter):
        cfg = tmp_path / "csv.ini"
        cfg.write_text(f"[dataset]\nmode = csv\nevents_path = x.csv\n"
                       f"delimiter = {delimiter}\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "dataset.delimiter must be one character" in capsys.readouterr().err

    @pytest.mark.parametrize("price_col,message", [
        (4, "price and timestamp columns are both 4"),  # the timestamp's column
        (-5, "price column must be non-negative"),      # -1 alone means absent
    ])
    def test_bad_price_column_exit_2(self, tmp_path, capsys, price_col, message):
        cfg = tmp_path / "csv.ini"
        cfg.write_text(f"[dataset]\nmode = csv\nevents_path = x.csv\nprice_col = {price_col}\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb,setting,message", [
        ("experiment", "batch_size = 0", "training.batch_size must be at least 1, got 0"),
        ("experiment", "batch_size = -5", "training.batch_size must be at least 1, got -5"),
        ("experiment", "epochs = 0", "training.epochs must be at least 1, got 0"),
        ("experiment", "imputation_epochs = 0", "training.imputation_epochs must be at least 1"),
        ("pretrain", "pretrain_epochs = 0", "training.pretrain_epochs must be at least 1"),
        ("experiment", "learning_rate = 0", "learning_rate must be finite and positive, got 0.0"),
        ("experiment", "learning_rate = nan", "learning_rate must be finite and positive, got nan"),
        ("experiment", "learning_rate = inf", "learning_rate must be finite and positive, got inf"),
    ])
    def test_bad_training_size_exit_2(self, tmp_path, capsys, verb, setting, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[training]\n{setting}\n"
                       "[experiment]\nseeds = 1\nvariants = pretrained_only\n")
        code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_generate_requires_synthetic_mode(self, tmp_path):
        cfg = tmp_path / "csv.ini"
        cfg.write_text("[dataset]\nmode = csv\nevents_path = x.csv\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestAblationVerb:
    def test_emits_table(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main(["ablation", "--config", str(tiny_ini), "--out", str(out)])
        printed = capsys.readouterr()
        # Tiny single-seed runs may violate the ordering; both outcomes are
        # legitimate here, but the table must be printed either way.
        assert code in (0, 1)
        assert "wo_cm" in printed.out
        assert (out / "ablation.csv").exists()
