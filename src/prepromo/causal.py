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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import EncodedDataset
from .decode import check_bounds
from .errors import DataError, UsageError
from .metrics import nll_delay

Array = np.ndarray

DEFAULT_PROPENSITY_CLIP = 0.05
USER_DIM = 4


@dataclass(slots=True)
class ImputationConfig:
    widths: tuple[int, ...] = field(default=(32, 16), metadata={"min": 1})
    learning_rate: float = field(default=0.001, metadata={"above": 0.0})
    batch_size: int = field(default=1024, metadata={"min": 1})
    epochs: int = field(default=6, metadata={"min": 0})
    val_fraction: float = field(default=0.1, metadata={"min": 0.0, "below": 1.0})
    __post_init__ = check_bounds


class ImputationModel:
    """MLP over (user embedding || dense features || A) predicting the
    delayed conversion.

    The feature bundle includes the user id, embedded USER_DIM wide in a
    table of its own, so per-user conversion tendencies are part of the
    imputed outcome. Both potential outcomes come from the same fit:
    evaluate with the cart input forced to 0 or 1, no retraining.
    """

    def __init__(self, dense_dim: int, n_users: int, config: ImputationConfig,
                 rng: np.random.Generator):
        self.config = config
        self.user_table = ad.Parameter(
            "imputation/emb_user", ad.glorot_uniform(rng, n_users, USER_DIM))
        sizes = [USER_DIM + dense_dim + 1, *config.widths, 1]
        acts = ["tanh"] * len(config.widths) + ["linear"]
        self.net = ad.MLP("imputation/net", sizes, acts, rng, zero_last=True)
        self.val_bce = float("nan")

    def parameters(self) -> list[ad.Parameter]:
        return [self.user_table, *self.net.parameters()]

    def _forward(self, dense: Array, user_idx: Array, a: Array) -> ad.Node:
        rows = self.user_table.data.shape[0]
        idx = np.where(user_idx < rows, user_idx, 0)  # unseen ids -> reserved row
        eu = ad.embedding(self.user_table, idx)
        rest = ad.constant(np.concatenate([dense, a.reshape(-1, 1)], axis=1))
        return ad.sigmoid(self.net.forward(ad.concat([eu, rest]))[-1])

    def mu(self, data: EncodedDataset, arm: int | None = None) -> Array:
        """mu(x, arm); arm=None evaluates at each sample's observed action."""
        def forward(rows):
            a = data.A[rows]
            if arm is not None:
                a = np.full(a.shape, float(arm))
            return (self._forward(data.dense[rows], data.user_idx[rows], a),)
        return ad.score(data.n, forward, self.parameters())[0]


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

    def loss_of(batch, rows):
        p = model._forward(batch.dense, batch.user_idx, batch.A)
        return ad.bce(p, batch.y_delay.reshape(-1, 1))
    ad.minimize(model.parameters(), fit, loss_of, config, rng, "imputation")
    if n_val:
        val = train.take(val_idx)
        p = model.mu(val)
        model.val_bce = nll_delay(p, val.y_delay)
    return model


# ---------------------------------------------------------------------------
# Propensity and doubly robust estimation
# ---------------------------------------------------------------------------

def propensity(raw: Array | float, eps: float = DEFAULT_PROPENSITY_CLIP) -> Array:
    """Clip raw scores into [eps, 1 - eps]."""
    return np.clip(np.asarray(raw, dtype=np.float64), eps, 1.0 - eps)


@dataclass(slots=True)
class DREstimate:
    tau: Array            # per-sample estimates
    mean: float
    stderr: float


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
                      p_a: Array) -> DREstimate:
    """dr_ate with both arms imputed by the fitted model; p_a is pre-clipped."""
    mu1 = imputation.mu(data, arm=1)
    mu0 = imputation.mu(data, arm=0)
    return dr_ate(data.A, data.y_delay, mu1, mu0, p_a)


def naive_diff_in_means(a: Array, y: Array) -> tuple[float, float]:
    """Treated-minus-control contrast and its standard error (the biased baseline)."""
    treated, control = y[a == 1], y[a == 0]
    if treated.size == 0 or control.size == 0:
        raise UsageError("difference in means needs both arms")
    diff = float(treated.mean() - control.mean())
    se = float(np.sqrt(treated.var(ddof=1) / treated.size
                       + control.var(ddof=1) / control.size))
    return diff, se
