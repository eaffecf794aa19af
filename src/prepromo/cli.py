"""Command-line entry points.

    prepromo generate    --config C --out DIR [--seed N]
    prepromo pretrain    --config C --out DIR [--seed N]
    prepromo train       --config C --variant NAME --out DIR [--seed N]
    prepromo evaluate    --config C --checkpoint PATH --out DIR [--seed N]
    prepromo experiment  --config C [--out DIR]
    prepromo ablation    --config C [--out DIR]

Every verb accepts --profile desk|paper (defaults before the config file is
applied). Log verbosity comes from the PREPROMO_LOG_LEVEL environment
variable. Exit codes: 0 success, 1 failed quality gate (ablation ordering),
2 configuration error, 3 data error, 4 training failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .data import CsvSchema, write_events_csv
from .errors import ConfigError, DataError, PrepromoError, TrainingError
from .experiment import (ExperimentConfig, apply_variant, config_to_dict,
                         fit_seed_imputation, format_ablation_table,
                         load_config, make_config, prepare_seed, run_ablation,
                         run_experiment, run_variant, stage_seed,
                         synthetic_world)
from .metrics import emit_report
from .synth import generate_dataset, samples_to_events, write_ground_truth_csv

log = logging.getLogger("prepromo.cli")

EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_IO = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prepromo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, variant=False, checkpoint=False):
        p.add_argument("--config", help="experiment config file (INI-shaped)")
        p.add_argument("--profile", choices=("desk", "paper"), default="desk")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="run a single seed")
        if variant:
            p.add_argument("--variant", required=True)
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    common(sub.add_parser("generate", help="write a synthetic event log + ground truth"))
    common(sub.add_parser("pretrain", help="fit and save the daily base model"))
    common(sub.add_parser("train", help="run one variant for one seed"), variant=True)
    common(sub.add_parser("evaluate", help="score a saved checkpoint"), checkpoint=True)
    common(sub.add_parser("experiment", help="all variants over all seeds"))
    common(sub.add_parser("ablation", help="component-removal sweep with ordering check"))
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.profile) if args.config else make_config(args.profile)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    cfg = _load(args)
    ds = cfg.dataset
    if ds.mode != "synthetic":
        raise ConfigError("generate requires dataset.mode = synthetic")
    out = _outdir(cfg)
    seed = cfg.seeds[0]
    world, gen = synthetic_world(ds)
    schema = CsvSchema(price_col=5, discount_col=6)
    for mode, n in (("daily", ds.n_daily), ("prepromo", ds.n_prepromo)):
        samples = generate_dataset(world, n, mode, stage_seed(seed, mode), gen)
        write_events_csv(samples_to_events(samples, gen.calendar),
                         out / f"events_{mode}.csv", schema)
        write_ground_truth_csv(samples, out / f"truth_{mode}.csv")
        log.info("wrote %d %s samples", n, mode)
    print(f"generated event logs in {out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    for seed in cfg.seeds:
        seed_data = prepare_seed(cfg, seed, trace=[])
        path = out / f"pretrained_seed{seed}.npz"
        seed_data.pretrained.save(path)
        print(f"seed {seed}: saved base model to {path} "
              f"(final loss {seed_data.pretrained.loss_trace[-1]:.4f})")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    out = _outdir(cfg)
    plan = apply_variant(cfg, args.variant)
    reports = []
    for seed in cfg.seeds:
        trace: list[str] = []
        seed_data = prepare_seed(cfg, seed, trace)
        imputation = (fit_seed_imputation(cfg, seed_data, seed)
                      if plan.needs_imputation else None)
        report, losses, model = run_variant(cfg, seed_data, plan, seed,
                                            imputation, trace)
        reports.append(report)
        if model is not None:
            ckpt = out / f"{plan.name}_seed{seed}.npz"
            model.save(ckpt)
            print(f"seed {seed}: checkpoint {ckpt}")
        if losses:
            trace_path = out / f"loss_{plan.name}_seed{seed}.csv"
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write("epoch,mean_loss\n")
                for epoch, value in enumerate(losses):
                    fh.write(f"{epoch},{value:.6f}\n")
        print(f"seed {seed} {plan.name}: auc_all={report.auc_all:.4f} "
              f"auc_delay={report.auc_delay:.4f} nll_delay={report.nll_delay:.4f}")
    emit_report(reports, "json", out / f"report_{plan.name}.json")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from .model import DelayModel
    from .metrics import evaluate_scores
    from .pretrain import PretrainedModel

    cfg = _load(args)
    out = _outdir(cfg)
    try:
        with np.load(args.checkpoint) as blob:
            import json as _json
            # Without metadata the pretrained loader names the problem.
            kind = (_json.loads(bytes(blob["__meta__"]).decode()).get("kind")
                    if "__meta__" in blob.files else None)
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {args.checkpoint}") from exc
    except ValueError as exc:  # not an .npz archive, or unreadable metadata
        raise DataError(f"{args.checkpoint} is not a checkpoint: {exc}") from exc
    reports = []
    for seed in cfg.seeds:
        from .experiment import acquire_data
        split = acquire_data(cfg, seed)
        if kind == "delay":
            model = DelayModel.load(args.checkpoint)
            eval_ = model.pretrained.encoder.encode(split.prepromo_eval)
            scores = model.predict(eval_)
            report = evaluate_scores("checkpoint", seed, scores["p_all_raw"],
                                     scores["p_delay"], eval_.y_all, eval_.y_delay,
                                     nll_exclude_direct=cfg.model.nll_exclude_direct)
        else:
            model = PretrainedModel.load(args.checkpoint)
            eval_ = model.encoder.encode(split.prepromo_eval)
            p_cvr, _ = model.predict(eval_)
            report = evaluate_scores("checkpoint", seed, p_cvr, p_cvr,
                                     eval_.y_all, eval_.y_delay,
                                     nll_exclude_direct=cfg.model.nll_exclude_direct)
        reports.append(report)
        print(f"seed {seed}: auc_all={report.auc_all:.4f} "
              f"auc_delay={report.auc_delay:.4f} nll_delay={report.nll_delay:.4f}")
    emit_report(reports, "json", out / "report_checkpoint.json")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    for variant in sorted(result.summary):
        entry = result.summary[variant]
        print(f"{variant:<16} auc_all={entry['auc_all']['mean']:.4f} "
              f"auc_delay={entry['auc_delay']['mean']:.4f} "
              f"nll_delay={entry['nll_delay']['mean']:.4f}")
    print(f"reports written to {cfg.out_dir}")
    return 0


def cmd_ablation(args) -> int:
    cfg = _load(args)
    result = run_ablation(cfg)
    print(format_ablation_table(result.table))
    if not result.ordering_ok:
        for failure in result.failures:
            print(f"ORDERING VIOLATION: {failure}", file=sys.stderr)
        return EXIT_GATE_FAILED
    print("component ordering holds")
    return 0


_VERBS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
    "ablation": cmd_ablation,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PREPROMO_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except PrepromoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE_FAILED


if __name__ == "__main__":
    sys.exit(main())
