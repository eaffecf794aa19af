"""Outcome imputation, propensity scores, and the doubly robust effect estimate.

The cart action A is treated as the intervention and the delayed conversion
Y as the outcome. The per-sample estimate combines an outcome regression
with an inverse-propensity correction:

    tau_hat = [mu(x,1) - mu(x,0)]
              + A * (Y - mu(x,1)) / p_a
              - (1 - A) * (Y - mu(x,0)) / (1 - p_a)

and stays consistent if either the imputation or the propensity is correct.
Only the imputed everyone-treated outcome mu(x,1) feeds the training loss;
the aggregate estimate ships as a validated diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import EncodedDataset
from .errors import ConfigError, DataError, UsageError
from .pretrain import PretrainedModel

Array = np.ndarray

DEFAULT_PROPENSITY_CLIP = 0.05


@dataclass(slots=True)
class ImputationConfig:
    widths: tuple[int, ...] = (32, 16)
    user_dim: int = 4
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs: int = 6
    val_fraction: float = 0.1


class ImputationModel:
    """MLP over (user embedding || dense features || A) predicting the
    delayed conversion.

    The feature bundle includes the user id, embedded in a small table of
    its own, so per-user conversion tendencies are part of the imputed
    outcome. Both potential outcomes come from the same fit: evaluate with
    the cart input forced to 0 or 1, no retraining.
    """

    def __init__(self, dense_dim: int, n_users: int, config: ImputationConfig,
                 rng: np.random.Generator):
        self.config = config
        self.user_table = ad.Parameter(
            "imputation/emb_user", ad.glorot_uniform(rng, n_users, config.user_dim))
        sizes = [config.user_dim + dense_dim + 1, *config.widths, 1]
        acts = ["tanh"] * len(config.widths) + ["linear"]
        self.net = ad.MLP("imputation/net", sizes, acts, rng, zero_last=True)
        self.val_bce = float("nan")

    def parameters(self) -> list[ad.Parameter]:
        return [self.user_table, *self.net.parameters()]

    def _forward(self, dense: Array, user_idx: Array, a: Array) -> ad.Node:
        rows = self.user_table.data.shape[0]
        idx = np.where(user_idx < rows, user_idx, 0)  # unseen ids -> reserved row
        eu = ad.embedding(self.user_table.node(), idx)
        rest = ad.constant(np.concatenate([dense, a.reshape(-1, 1)], axis=1))
        return ad.sigmoid(self.net.forward(ad.concat([eu, rest]))[-1])

    def mu(self, data: EncodedDataset, arm: int | None = None,
           chunk: int = 16384) -> Array:
        """mu(x, arm); arm=None evaluates at each sample's observed action."""
        out = []
        with ad.no_grad():
            for start in range(0, data.n, chunk):
                stop = min(start + chunk, data.n)
                dense = data.dense[start:stop]
                a = data.A[start:stop] if arm is None else np.full(stop - start, float(arm))
                out.append(self._forward(dense, data.user_idx[start:stop], a).data[:, 0])
        return np.concatenate(out)


def fit_imputation(train: EncodedDataset, config: ImputationConfig | None = None,
                   seed: int = 0, n_users: int | None = None) -> ImputationModel:
    """BCE-fit of the imputation net on observed (x, A) -> y_delay.

    A slice of the training data is held out for the reported validation
    loss. Degenerate treatment assignment is refused: with a single observed
    arm, mu(x, 1 - A) would be pure extrapolation. The user-table size is
    n_users; without it, it is inferred from the training ids, and later
    out-of-range ids fall back to the reserved row.
    """
    config = config or ImputationConfig()
    a = train.A
    if a.sum() == 0 or a.sum() == a.size:
        raise DataError("no treatment variation: every sample has the same cart action")
    if n_users is None:
        n_users = int(train.user_idx.max()) + 1

    rng = np.random.default_rng(seed)
    model = ImputationModel(train.dense.shape[1], n_users, config, rng)
    order = rng.permutation(train.n)
    n_val = int(train.n * config.val_fraction)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    fit = train.take(fit_idx)

    params = model.parameters()
    opt = ad.Adagrad(params, lr=config.learning_rate)
    step = 0
    for _ in range(config.epochs):
        for batch in fit.batches(config.batch_size, rng):
            p = model._forward(batch.dense, batch.user_idx, batch.A)
            loss = ad.bce(p, batch.y_delay.reshape(-1, 1))
            ad.finite_loss(float(loss.data), "imputation", step)
            opt.step(ad.backward(loss, params))
            step += 1
    if n_val:
        val = train.take(val_idx)
        p = model.mu(val)
        model.val_bce = bce_value(p, val.y_delay)
    return model


def bce_value(p: Array, y: Array) -> float:
    """Mean clipped binary cross-entropy of plain probability arrays."""
    return float(np.mean(ad.bce_values(p, y)))


# ---------------------------------------------------------------------------
# Propensity
# ---------------------------------------------------------------------------

class PropensitySource:
    """Where p_a(x) comes from: the frozen cart head, generator truth, or a constant.

    End-to-end training uses the pretrained head; the truth and constant
    sources exist for oracle checks and robustness probes. All scores are
    clipped into [eps, 1 - eps] so the inverse-propensity terms stay bounded.
    """

    def __init__(self, kind: str, pretrained: PretrainedModel | None = None,
                 value: float = 0.5, eps: float = DEFAULT_PROPENSITY_CLIP):
        if kind not in ("pretrained_atc", "ground_truth", "constant"):
            raise ConfigError(f"unknown propensity source {kind!r}")
        if kind == "pretrained_atc" and pretrained is None:
            raise ConfigError("pretrained_atc source needs a model")
        self.kind = kind
        self.pretrained = pretrained
        self.value = value
        self.eps = eps

    def scores(self, data: EncodedDataset) -> Array:
        if self.kind == "pretrained_atc":
            _, p_atc = self.pretrained.predict(data)
            raw = p_atc
        elif self.kind == "ground_truth":
            if "p_a_true" not in data.truth:
                raise DataError("dataset carries no ground-truth propensity")
            raw = data.truth["p_a_true"]
        else:
            raw = np.full(data.n, self.value)
        return propensity(raw, self.eps)


def propensity(raw: Array | float, eps: float = DEFAULT_PROPENSITY_CLIP) -> Array:
    """Clip raw scores into [eps, 1 - eps]."""
    return np.clip(np.asarray(raw, dtype=np.float64), eps, 1.0 - eps)


# ---------------------------------------------------------------------------
# Doubly robust estimation
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DREstimate:
    tau: Array            # per-sample estimates
    mean: float
    stderr: float

    @property
    def n(self) -> int:
        return self.tau.size


def dr_ice(a: Array | float, y: Array | float, mu1: Array | float,
           mu0: Array | float, p_a: Array | float) -> Array | float:
    """Per-sample doubly robust effect; propensities are assumed pre-clipped."""
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu0 = np.asarray(mu0, dtype=np.float64)
    p_a = np.asarray(p_a, dtype=np.float64)
    return (mu1 - mu0) + a * (y - mu1) / p_a - (1.0 - a) * (y - mu0) / (1.0 - p_a)


def dr_ate(a: Array, y: Array, mu1: Array, mu0: Array, p_a: Array) -> DREstimate:
    """Aggregate doubly robust estimate: mean and standard error."""
    if np.asarray(a).size == 0:
        raise UsageError("dr_ate of an empty dataset")
    tau = dr_ice(a, y, mu1, mu0, p_a)
    n = tau.size
    stderr = float(tau.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return DREstimate(tau=tau, mean=float(tau.mean()), stderr=stderr)


def dr_ate_from_model(data: EncodedDataset, imputation: ImputationModel,
                      source: PropensitySource) -> DREstimate:
    mu1 = imputation.mu(data, arm=1)
    mu0 = imputation.mu(data, arm=0)
    return dr_ate(data.A, data.y_delay, mu1, mu0, source.scores(data))


def naive_diff_in_means(a: Array, y: Array) -> tuple[float, float]:
    """Treated-minus-control contrast and its standard error (the biased baseline)."""
    treated, control = y[a == 1], y[a == 0]
    if treated.size == 0 or control.size == 0:
        raise UsageError("difference in means needs both arms")
    diff = float(treated.mean() - control.mean())
    se = float(np.sqrt(treated.var(ddof=1) / treated.size
                       + control.var(ddof=1) / control.size))
    return diff, se


def write_dr_diagnostics(data: EncodedDataset, imputation: ImputationModel,
                         source: PropensitySource, path) -> None:
    """Per-sample CSV: A, Y, mu0, mu1, p_a, tau_hat."""
    import csv

    mu1 = imputation.mu(data, arm=1)
    mu0 = imputation.mu(data, arm=0)
    p_a = source.scores(data)
    tau = dr_ice(data.A, data.y_delay, mu1, mu0, p_a)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "Y", "mu0", "mu1", "p_a", "tau_hat"])
        for i in range(data.n):
            writer.writerow([int(data.A[i]), int(data.y_delay[i]),
                             f"{mu0[i]:.6f}", f"{mu1[i]:.6f}",
                             f"{p_a[i]:.6f}", f"{tau[i]:.6f}"])
