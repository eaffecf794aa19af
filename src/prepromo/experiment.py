"""Config-driven experiment orchestration.

One seed runs the full pipeline: acquire data (synthetic world or CSV log),
pretrain the daily model, fit the imputation net if any variant wants it,
fine-tune every requested variant on the pre-promotion training split, and
score the held-out split. Every stage draws from its own deterministically
derived seed, so variants within a seed share identical initialization and
data, and a rerun reproduces every byte.

Variants:

    pretrained_only   no fine-tuning; the frozen daily head scores everything
    naive_finetune    delay head, delay loss only (no gates, no extra terms)
    reuse_relabel     unfreeze a copy of the daily model and fine-tune it on
                      pre-promotion data with delayed conversions counted as
                      positives
    cmdcm             full model: gates + additive head + both regularizers
    wo_allcvr         full model minus the additive-conversion term
    wo_pg             full model minus personalized gating (gates forced to 1)
    wo_cm             full model minus the counterfactual term (imputation
                      model still fitted, so the run's DR diagnostics remain)
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .causal import (ImputationConfig, ImputationModel, dr_ate_from_model,
                     fit_imputation, naive_diff_in_means, propensity)
from .data import (CsvSchema, DatasetSplit, EncodedDataset, PromotionCalendar,
                   build_click_dataset, ingest_csv, partition_dataset)
from .decode import decode
from .errors import ConfigError, DataError, PrepromoError, TrainingError
from .metrics import (MetricReport, auc_delay, emit_report, evaluate_scores,
                      nll_delay, paired_comparisons, summarize)
from .model import DelayConfig, DelayModel, finetune
from .pretrain import PretrainConfig, PretrainedModel, pretrain_fit
from .synth import (GenConfig, WorldParams, default_calendar, generate_dataset,
                    sample_world)

log = logging.getLogger("prepromo.experiment")

VARIANT_NAMES = ("pretrained_only", "naive_finetune", "reuse_relabel", "cmdcm",
                 "wo_allcvr", "wo_pg", "wo_cm")
ABLATION_VARIANTS = ("cmdcm", "wo_allcvr", "wo_pg", "wo_cm")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DatasetConfig:
    mode: str = "synthetic"
    # synthetic world
    n_daily: int = 100_000
    n_prepromo: int = 250_000
    feature_dim: int = 16
    tau: float = 2.0
    scale: float = 0.3
    gamma: float = 1.5
    confound_atc: float = 0.7
    confound_dir: float = 0.4
    trait_scale: float = 1.2
    direct_rate_daily: float = 0.02
    direct_rate_pre: float = 0.007
    delayed_rate_pre: float = 0.012
    world_seed: int = 7
    n_users: int = 1000
    n_items: int = 2000
    n_categories: int = 50
    # csv log: columns 0-4 are user, item, category, action and timestamp;
    # price and discount sit at distinct columns from 5 up, -1 when absent
    events_path: str = ""
    delimiter: str = ","
    price_col: int = -1
    discount_col: int = -1
    daily_start: int = field(default=0, metadata={"day": True})
    daily_end: int = field(default=3, metadata={"day": True})
    pre_start: int = field(default=4, metadata={"day": True})
    pre_end: int = field(default=6, metadata={"day": True})
    promo_days: tuple[int, ...] = field(default=(7,), metadata={"day": True})
    tz_offset: int = 0
    # shared
    split_ratio: float = 0.8
    max_seq_len: int = 10
    count_intermediate_as_all: bool = False

    def calendar(self) -> PromotionCalendar:
        if self.mode == "synthetic":
            return default_calendar()
        return PromotionCalendar(
            daily_train_range=(self.daily_start, self.daily_end),
            pre_promo_range=(self.pre_start, self.pre_end),
            promo_days=frozenset(self.promo_days), tz_offset=self.tz_offset)


@dataclass(slots=True)
class ModelConfig:
    widths: tuple[int, ...] = (32, 16, 8)
    embedding_dim: int = 8
    n_buckets: int = 16
    lambda_all: float = 1.0
    lambda_cm: float = 0.1
    cm_on_atc_only: bool = False
    use_gates: bool = True
    imputation_widths: tuple[int, ...] = (32, 16)
    nll_exclude_direct: bool = False


@dataclass(slots=True)
class TrainingConfig:
    learning_rate: float = 0.1
    batch_size: int = 1024
    epochs: int = 3
    pretrain_epochs: int = 3
    imputation_epochs: int = 6
    propensity_clip: float = 0.05


@dataclass(slots=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    variants: tuple[str, ...] = ("pretrained_only", "naive_finetune",
                                 "reuse_relabel", "cmdcm")
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    out_dir: str = "runs/default"

    def __post_init__(self):
        # Empty, any of these makes a run do nothing or fail on an index.
        for name, value in (("variants", self.variants), ("seeds", self.seeds),
                            ("model.widths", self.model.widths)):
            if not value:
                raise ConfigError(f"{name} must not be empty")
        for v in self.variants:
            if v not in VARIANT_NAMES:
                raise ConfigError(f"unknown variant {v!r}; known: {VARIANT_NAMES}")
        if len(self.dataset.delimiter) != 1:
            raise ConfigError("dataset.delimiter must be one character, "
                              f"got {self.dataset.delimiter!r}")
        t = self.training
        for name in ("batch_size", "epochs", "pretrain_epochs", "imputation_epochs"):
            if getattr(t, name) < 1:
                raise ConfigError(f"training.{name} must be at least 1, "
                                  f"got {getattr(t, name)}")
        if not 0.0 < t.learning_rate < math.inf:
            raise ConfigError("training.learning_rate must be finite and positive, "
                              f"got {t.learning_rate}")
        # propensity() clips into [clip, 1 - clip]; from 0.5 up that interval
        # is one point or empty, and every propensity becomes the same number.
        if not 0.0 <= t.propensity_clip < 0.5:
            raise ConfigError("training.propensity_clip must be in [0, 0.5), "
                              f"got {t.propensity_clip}")


def make_config(profile: str = "desk") -> ExperimentConfig:
    """Profile defaults. `desk` is sized for a workstation run; `paper` uses
    the reference scale (wide towers, learning rate 0.001, long sequences)."""
    cfg = ExperimentConfig()
    if profile == "desk":
        return cfg
    if profile == "paper":
        cfg.model = replace(cfg.model, widths=(512, 256, 128), embedding_dim=16)
        cfg.training = replace(cfg.training, learning_rate=0.001)
        cfg.dataset = replace(cfg.dataset, max_seq_len=50)
        return cfg
    raise ConfigError(f"unknown profile {profile!r}; use 'desk' or 'paper'")


_SECTIONS = {"dataset": DatasetConfig, "model": ModelConfig,
             "training": TrainingConfig, "experiment": ExperimentConfig}


def load_config(path, profile: str = "desk") -> ExperimentConfig:
    """Parse a flat-sectioned key=value file over the profile defaults.

    Unknown sections or keys are rejected by name: a config file is an
    experiment record and silent typos would corrupt it.
    """
    cfg = make_config(profile)
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    changes = {}
    for section, raw in sections.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        values = decode(_SECTIONS[section], raw, text=True)
        if section == "experiment":
            changes.update(values)
        else:
            changes[section] = replace(getattr(cfg, section), **values)
    return replace(cfg, **changes)


def config_hash(cfg: ExperimentConfig) -> str:
    doc = asdict(cfg)
    doc.pop("out_dir")  # where reports land must not change what they say
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class VariantPlan:
    name: str
    kind: str                  # "frozen" | "reuse" | "delay"
    lambda_all: float = 0.0
    lambda_cm: float = 0.0
    use_gates: bool = False
    needs_imputation: bool = False


def apply_variant(cfg: ExperimentConfig, name: str) -> VariantPlan:
    """Resolve a variant name into one concrete configuration transform."""
    m = cfg.model
    if name == "pretrained_only":
        plan = VariantPlan(name, "frozen")
    elif name == "naive_finetune":
        plan = VariantPlan(name, "delay", lambda_all=0.0, lambda_cm=0.0,
                           use_gates=False)
    elif name == "reuse_relabel":
        plan = VariantPlan(name, "reuse")
    elif name == "cmdcm":
        plan = VariantPlan(name, "delay", lambda_all=m.lambda_all,
                           lambda_cm=m.lambda_cm, use_gates=m.use_gates,
                           needs_imputation=m.lambda_cm > 0)
    elif name == "wo_allcvr":
        plan = VariantPlan(name, "delay", lambda_all=0.0, lambda_cm=m.lambda_cm,
                           use_gates=m.use_gates, needs_imputation=m.lambda_cm > 0)
    elif name == "wo_pg":
        plan = VariantPlan(name, "delay", lambda_all=m.lambda_all,
                           lambda_cm=m.lambda_cm, use_gates=False,
                           needs_imputation=m.lambda_cm > 0)
    elif name == "wo_cm":
        # The imputation model is still fitted; only the loss term is gone.
        plan = VariantPlan(name, "delay", lambda_all=m.lambda_all,
                           lambda_cm=0.0, use_gates=m.use_gates,
                           needs_imputation=True)
    else:
        raise ConfigError(f"unknown variant {name!r}")
    return plan


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def stage_seed(run_seed: int, stage: str) -> int:
    """Stable per-stage seed. Stages are variant-independent on purpose:
    every variant of a run sees identical initialization and batch order."""
    digest = hashlib.sha256(f"{run_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(slots=True)
class SeedData:
    enc_train: EncodedDataset
    enc_eval: EncodedDataset
    pretrained: PretrainedModel
    base_eval: tuple[np.ndarray, np.ndarray] | None = None

    def base_eval_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """The frozen base's (p_cvr, p_atc) on the eval split, scored once."""
        if self.base_eval is None:
            self.base_eval = self.pretrained.predict(self.enc_eval)
        return self.base_eval


def synthetic_world(ds: DatasetConfig) -> tuple[WorldParams, GenConfig]:
    """The world and the population that a synthetic dataset config describes."""
    world = sample_world(ds.world_seed, d=ds.feature_dim, tau=ds.tau,
                         scale=ds.scale, gamma=ds.gamma,
                         confound_atc=ds.confound_atc,
                         confound_dir=ds.confound_dir,
                         trait_scale=ds.trait_scale,
                         direct_rate_daily=ds.direct_rate_daily,
                         direct_rate_pre=ds.direct_rate_pre,
                         delayed_rate_pre=ds.delayed_rate_pre)
    gen = GenConfig(n_users=ds.n_users, n_items=ds.n_items,
                    n_categories=ds.n_categories, max_seq_len=ds.max_seq_len,
                    calendar=ds.calendar())
    return world, gen


def acquire_data(cfg: ExperimentConfig, run_seed: int) -> DatasetSplit:
    ds = cfg.dataset
    calendar = ds.calendar()
    if ds.mode == "synthetic":
        world, gen = synthetic_world(ds)
        # One expression, so the two halves are freed once concatenated.
        samples = (generate_dataset(world, ds.n_daily, "daily",
                                    stage_seed(run_seed, "daily"), gen)
                   + generate_dataset(world, ds.n_prepromo, "prepromo",
                                      stage_seed(run_seed, "prepromo"), gen))
    elif ds.mode == "csv":
        if not ds.events_path:
            raise ConfigError("csv mode needs dataset.events_path")
        schema = CsvSchema(
            delimiter=ds.delimiter,
            price_col=None if ds.price_col == -1 else ds.price_col,
            discount_col=None if ds.discount_col == -1 else ds.discount_col)
        events = ingest_csv(ds.events_path, schema)
        samples = build_click_dataset(events, calendar, ds.max_seq_len,
                                      ds.count_intermediate_as_all)
    else:
        raise ConfigError(f"unknown dataset mode {ds.mode!r}")
    return partition_dataset(samples, calendar, ds.split_ratio,
                             seed=stage_seed(run_seed, "partition"))


def prepare_seed(cfg: ExperimentConfig, run_seed: int, trace: list[str]) -> SeedData:
    trace.append(f"seed={run_seed}:data")
    split = acquire_data(cfg, run_seed)
    if not len(split.daily_train):
        raise DataError("no daily-training samples in calendar window")

    trace.append(f"seed={run_seed}:pretrain")
    pcfg = PretrainConfig(tower_widths=cfg.model.widths,
                          embedding_dim=cfg.model.embedding_dim,
                          n_buckets=cfg.model.n_buckets,
                          max_seq_len=cfg.dataset.max_seq_len,
                          learning_rate=cfg.training.learning_rate,
                          batch_size=cfg.training.batch_size,
                          epochs=cfg.training.pretrain_epochs)
    pretrained = pretrain_fit(split.daily_train, pcfg,
                              seed=stage_seed(run_seed, "pretrain"))
    enc_train = pretrained.encoder.encode(split.prepromo_train)
    enc_eval = pretrained.encoder.encode(split.prepromo_eval)
    return SeedData(enc_train=enc_train, enc_eval=enc_eval, pretrained=pretrained)


def fit_seed_imputation(cfg: ExperimentConfig, seed_data: SeedData,
                        run_seed: int) -> ImputationModel:
    """The imputation model of one seed, fitted on its pre-promotion train split."""
    icfg = ImputationConfig(widths=cfg.model.imputation_widths,
                            learning_rate=cfg.training.learning_rate,
                            batch_size=cfg.training.batch_size,
                            epochs=cfg.training.imputation_epochs)
    return fit_imputation(seed_data.enc_train, icfg,
                          seed=stage_seed(run_seed, "imputation"),
                          n_users=seed_data.pretrained.encoder.n_users)


def run_reuse_baseline(pretrained: PretrainedModel, train: EncodedDataset,
                       training: TrainingConfig, seed: int
                       ) -> tuple[PretrainedModel, list[float], int]:
    """Relabeling baseline: fine-tune an unfrozen copy of the daily model on
    pre-promotion data, delayed conversions counted as positives (y_all)."""
    clone = clone_unfrozen(pretrained)

    def loss_of(batch, rows):
        return ad.bce(clone.forward(batch).p_cvr, batch.y_all.reshape(-1, 1))
    trace, steps = ad.minimize(clone.parameters(), train, loss_of, training,
                               np.random.default_rng(seed), "reuse_relabel")
    return clone, trace, steps


def clone_unfrozen(model: PretrainedModel) -> PretrainedModel:
    clone = PretrainedModel(model.encoder, model.config, np.random.default_rng(0))
    for src, dst in zip(model.parameters(), clone.parameters()):
        dst.data = src.data.copy()
        dst.trainable = True
    clone.frozen = False
    return clone


def run_variant(cfg: ExperimentConfig, seed_data: SeedData, plan: VariantPlan,
                run_seed: int, imputation, trace: list[str]):
    """One variant against one prepared seed -> (report, per-epoch losses,
    trained model); the model is None for the frozen variant."""
    eval_ = seed_data.enc_eval
    stage = "score" if plan.kind == "frozen" else "finetune"
    trace.append(f"seed={run_seed}:{stage}:{plan.name}")
    if plan.kind == "frozen":
        p_all = p_delay = seed_data.base_eval_scores()[0]
        losses, steps, model = [], 0, None
    elif plan.kind == "reuse":
        model, losses, steps = run_reuse_baseline(
            seed_data.pretrained, seed_data.enc_train, cfg.training,
            stage_seed(run_seed, "finetune"))
        p_all = p_delay = model.predict(eval_)[0]
    else:
        dcfg = DelayConfig(embedding_dim=cfg.model.embedding_dim,
                           lambda_all=plan.lambda_all, lambda_cm=plan.lambda_cm,
                           use_gates=plan.use_gates,
                           cm_on_atc_only=cfg.model.cm_on_atc_only,
                           learning_rate=cfg.training.learning_rate,
                           batch_size=cfg.training.batch_size,
                           epochs=cfg.training.epochs)
        model = DelayModel(seed_data.pretrained, dcfg,
                           np.random.default_rng(stage_seed(run_seed, "delay-init")))
        losses = finetune(model, seed_data.enc_train,
                          imputation=imputation if plan.lambda_cm > 0 else None,
                          seed=stage_seed(run_seed, "finetune"))
        steps = model.n_steps
        scores = model.predict(eval_)
        p_all, p_delay = scores["p_all_raw"], scores["p_delay"]
    report = evaluate_scores(plan.name, run_seed, p_all, p_delay, eval_.y_all,
                             eval_.y_delay, config_hash(cfg),
                             cfg.model.nll_exclude_direct)
    report.extras["finetune_steps"] = float(steps)
    if model is not None:
        report.extras["final_train_loss"] = losses[-1] if losses else float("nan")
    return report, losses, model


def seed_diagnostics(cfg: ExperimentConfig, seed_data: SeedData, run_seed: int,
                     imputation) -> dict[str, float]:
    """Dataset-level numbers recorded per seed; oracle values when synthetic."""
    eval_ = seed_data.enc_eval
    out: dict[str, float] = {
        "n_train": float(seed_data.enc_train.n),
        "n_eval": float(eval_.n),
        "train_delay_rate": float(seed_data.enc_train.y_delay.mean()),
        "eval_delay_rate": float(eval_.y_delay.mean()),
    }
    if "mu1_true" in eval_.truth:
        q = np.where(eval_.A == 1, eval_.truth["mu1_true"], eval_.truth["mu0_true"])
        out["bayes_nll_delay"] = nll_delay(q, eval_.y_delay)
        losses = ad.bce_values(q, eval_.y_delay)
        out["bayes_nll_stderr"] = float(losses.std(ddof=1) / np.sqrt(losses.size))
        out["bayes_auc_delay"] = auc_delay(q, eval_.y_all, eval_.y_delay)
        out["true_ate_eval"] = float(eval_.truth["ice_true"].mean())
        naive, naive_se = naive_diff_in_means(eval_.A, eval_.y_delay)
        out["naive_diff_in_means"] = naive
        out["naive_diff_stderr"] = naive_se
    if imputation is not None:
        p_a = propensity(seed_data.base_eval_scores()[1], cfg.training.propensity_clip)
        est = dr_ate_from_model(eval_, imputation, p_a)
        out["dr_ate"] = est.mean
        out["dr_ate_stderr"] = est.stderr
        out["imputation_val_bce"] = imputation.val_bce
    return out


# ---------------------------------------------------------------------------
# Experiment and ablation drivers
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ExperimentResult:
    reports: list[MetricReport]
    summary: dict
    comparisons: list[dict]
    diagnostics: dict[int, dict[str, float]]
    loss_traces: dict[tuple[str, int], list[float]]
    stage_trace: list[str]
    config_hash: str


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """All variants over all seeds, plus report files under out_dir.

    A failing stage aborts the run with the stage name in the error; reports
    collected so far are flushed to report_partial.json first.
    """
    plans = [apply_variant(cfg, name) for name in cfg.variants]
    trace: list[str] = []
    reports: list[MetricReport] = []
    diagnostics: dict[int, dict[str, float]] = {}
    loss_traces: dict[tuple[str, int], list[float]] = {}
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        for run_seed in cfg.seeds:
            seed_data = prepare_seed(cfg, run_seed, trace)
            imputation = None
            if any(p.needs_imputation for p in plans):
                trace.append(f"seed={run_seed}:imputation")
                imputation = fit_seed_imputation(cfg, seed_data, run_seed)
            for plan in plans:
                report, losses, _ = run_variant(cfg, seed_data, plan, run_seed,
                                                imputation, trace)
                reports.append(report)
                if losses:
                    loss_traces[(plan.name, run_seed)] = losses
                log.info("seed=%d %s auc_all=%.4f auc_delay=%.4f nll=%.4f",
                         run_seed, plan.name, report.auc_all, report.auc_delay,
                         report.nll_delay)
            diagnostics[run_seed] = seed_diagnostics(cfg, seed_data, run_seed,
                                                     imputation)
            del seed_data
    except Exception as exc:
        stage = trace[-1] if trace else "setup"
        if reports:
            out.mkdir(parents=True, exist_ok=True)
            emit_report(reports, "json", out / "report_partial.json")
        if isinstance(exc, (PrepromoError, OSError)):
            raise
        raise TrainingError(f"stage {stage} failed: {exc}") from exc

    reference = "cmdcm" if "cmdcm" in cfg.variants else cfg.variants[0]
    paired = len(set(cfg.seeds)) > 1
    result = ExperimentResult(
        reports=reports, summary=summarize(reports),
        comparisons=paired_comparisons(reports, reference) if paired else [],
        diagnostics=diagnostics, loss_traces=loss_traces, stage_trace=trace,
        config_hash=config_hash(cfg))

    out.mkdir(parents=True, exist_ok=True)
    config_echo = asdict(cfg)
    config_echo.pop("out_dir")  # identical runs must produce identical bytes
    emit_report(reports, "json", out / "report.json", summary=result.summary,
                comparisons=result.comparisons if paired else None,
                extra={"config": config_echo,
                       "config_hash": result.config_hash,
                       "diagnostics": {str(k): dict(sorted(v.items()))
                                       for k, v in sorted(diagnostics.items())},
                       "stage_trace": trace})
    emit_report(reports, "csv", out / "report.csv", summary=result.summary)
    _write_loss_traces(loss_traces, out / "loss_traces.csv")
    return result


def _write_loss_traces(traces: dict[tuple[str, int], list[float]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "epoch", "mean_loss"])
        for (variant, seed), losses in sorted(traces.items()):
            for epoch, value in enumerate(losses):
                writer.writerow([variant, seed, epoch, f"{value:.6f}"])


@dataclass(slots=True)
class AblationResult:
    table: list[dict]
    ordering_ok: bool
    failures: list[str]
    experiment: ExperimentResult


def run_ablation(cfg: ExperimentConfig, out_dir=None) -> AblationResult:
    """Component-removal sweep with the expected quality ordering checked.

    Expected: the full model has the best mean delayed-ranking score; each
    removal (additive conversion term, personalized gates, counterfactual
    term) ranks at or below it. Violations are reported loudly; there is no
    silent tolerance.
    """
    cfg = replace(cfg, variants=ABLATION_VARIANTS)
    result = run_experiment(cfg, out_dir=out_dir)
    summary = result.summary
    table = []
    for name in ABLATION_VARIANTS:
        entry = summary[name]
        table.append({"variant": name,
                      "auc_all": entry["auc_all"]["mean"],
                      "auc_delay": entry["auc_delay"]["mean"],
                      "nll_delay": entry["nll_delay"]["mean"]})

    full = summary["cmdcm"]["auc_delay"]["mean"]
    failures = []
    for name in ABLATION_VARIANTS[1:]:
        if summary[name]["auc_delay"]["mean"] > full:
            failures.append(f"{name} mean auc_delay "
                            f"{summary[name]['auc_delay']['mean']:.4f} exceeds "
                            f"cmdcm {full:.4f}")

    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_ablation_table(table, out / "ablation.csv")
    return AblationResult(table=table, ordering_ok=not failures,
                          failures=failures, experiment=result)


def _write_ablation_table(table: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "auc_all", "auc_delay", "nll_delay"])
        for row in table:
            writer.writerow([row["variant"], f"{row['auc_all']:.6f}",
                             f"{row['auc_delay']:.6f}", f"{row['nll_delay']:.6f}"])


def format_ablation_table(table: list[dict]) -> str:
    lines = [f"{'variant':<12} {'auc_all':>9} {'auc_delay':>10} {'nll_delay':>10}"]
    for row in table:
        lines.append(f"{row['variant']:<12} {row['auc_all']:>9.4f} "
                     f"{row['auc_delay']:>10.4f} {row['nll_delay']:>10.4f}")
    return "\n".join(lines)
