"""End-to-end pipeline at reduced scale: pretrain, impute, fine-tune, score.

Walks the stages run_experiment automates, printing the pieces as they
appear. A few minutes of CPU.

Run: python3 demos/05_train_and_evaluate.py
"""

import numpy as np

from prepromo.causal import ImputationConfig, dr_ate_from_model, fit_imputation, propensity
from prepromo.data import partition_dataset
from prepromo.metrics import evaluate_scores
from prepromo.model import DelayConfig, DelayModel, finetune
from prepromo.pretrain import PretrainConfig, pretrain_fit
from prepromo.synth import default_calendar, generate_dataset, sample_world


def main():
    world = sample_world(7)
    daily = generate_dataset(world, 40_000, "daily", seed=1)
    prepromo = generate_dataset(world, 80_000, "prepromo", seed=2)
    split = partition_dataset(daily + prepromo, default_calendar(), 0.8, seed=3)
    print(f"daily {len(split.daily_train)}, pre-promo train "
          f"{len(split.prepromo_train)}, eval {len(split.prepromo_eval)}")

    print("\n[1] pretraining the daily conversion/cart model (then freezing)")
    pretrained = pretrain_fit(
        split.daily_train,
        PretrainConfig(learning_rate=0.1, epochs=3, max_seq_len=10), seed=4)
    print(f"    epoch losses: {[round(v, 4) for v in pretrained.loss_trace]}")

    train = pretrained.encoder.encode(split.prepromo_train)
    eval_ = pretrained.encoder.encode(split.prepromo_eval)

    print("\n[2] fitting the imputation model for the counterfactual target")
    imputation = fit_imputation(
        train, ImputationConfig(learning_rate=0.1, epochs=6), seed=5)
    print(f"    held-out bce: {imputation.val_bce:.4f}")

    p_a = propensity(pretrained.predict(eval_)[1])  # the frozen cart head, clipped
    est = dr_ate_from_model(eval_, imputation, p_a)
    print(f"    doubly robust cart effect (diagnostic): {est.mean:.5f} ± {est.stderr:.5f}")

    print("\n[3] fine-tuning the delay head with gates and both regularizers")
    model = DelayModel(pretrained,
                       DelayConfig(learning_rate=0.1, epochs=3),
                       np.random.default_rng(6))
    losses = finetune(model, train, imputation=imputation, seed=7)
    print(f"    epoch losses: {[round(v, 4) for v in losses]}")

    print("\n[4] scoring the held-out pre-promotion window")
    scores = model.predict(eval_)
    report = evaluate_scores("demo", 0, scores["p_all_raw"], scores["p_delay"],
                             eval_.y_all, eval_.y_delay)
    p_cvr, _ = pretrained.predict(eval_)
    frozen = evaluate_scores("frozen", 0, p_cvr, p_cvr, eval_.y_all, eval_.y_delay)
    print(f"    fine-tuned: auc_all={report.auc_all:.4f} "
          f"auc_delay={report.auc_delay:.4f} nll_delay={report.nll_delay:.4f}")
    print(f"    frozen base: auc_all={frozen.auc_all:.4f} "
          f"auc_delay={frozen.auc_delay:.4f} nll_delay={frozen.nll_delay:.4f}")


if __name__ == "__main__":
    main()
