"""Delay-conversion head fine-tuned on pre-promotion data.

The frozen base model supplies per-layer activations; each one is scaled by
a personalized gate (a small MLP over the user embedding and the pooled
cart/purchase history) before entering the matching delay layer. The final
conversion probability is additive:

    p_all = [[p_base_cvr]] + p_delay

where [[.]] is the stop-gradient boundary, so p_all can exceed 1 and is
clamped only inside the loss. The training objective is

    L = bce(p_delay, y_delay) + lambda_all * bce(p_all, y_all)
        + lambda_cm * mean((p_delay - mu1)^2)

with mu1 the imputed everyone-carts outcome, held constant during
fine-tuning (the imputation model must not be pulled toward p_delay).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import EncodedDataset
from .errors import ConfigError, DataError
from .pretrain import (CHECKPOINT_VERSION, PretrainConfig, PretrainedModel,
                       load_parameters, read_checkpoint_meta)

Array = np.ndarray


@dataclass(slots=True)
class DelayConfig:
    embedding_dim: int = 8
    lambda_all: float = 1.0
    lambda_cm: float = 0.1
    use_gates: bool = True
    cm_on_atc_only: bool = False
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs: int = 3

    def __post_init__(self):
        if self.lambda_all < 0 or self.lambda_cm < 0:
            raise ConfigError("loss weights must be non-negative, got "
                              f"lambda_all={self.lambda_all}, lambda_cm={self.lambda_cm}")


@dataclass(slots=True)
class DelayPrediction:
    p_delay: ad.Node          # (n, 1), sigmoid output
    p_all_raw: ad.Node        # (n, 1), p_base + p_delay, may exceed 1
    p_ori_cvr: ad.Node        # stop-gradient copy of the frozen head
    gate_values: list[tuple[ad.Node, ad.Node]] = field(default_factory=list)


def gate_forward(gate: ad.MLP, e_user: ad.Node, v_atc: ad.Node,
                 v_pay: ad.Node) -> ad.Node:
    """Sigmoid gate vector from the fixed concatenation (user || atc || pay)."""
    return gate.forward(ad.concat([e_user, v_atc, v_pay]))[-1]


def build_gated_input(h_cvr: ad.Node, h_atc: ad.Node, gate_cvr: ad.Node | None,
                      gate_atc: ad.Node | None, extras: list[ad.Node]) -> ad.Node:
    """(g_cvr * h_cvr) || (g_atc * h_atc) || extras; gates of None mean all-ones."""
    left = h_cvr if gate_cvr is None else ad.mul(gate_cvr, h_cvr)
    right = h_atc if gate_atc is None else ad.mul(gate_atc, h_atc)
    return ad.concat([left, right, *extras])


def delay_loss(pred: DelayPrediction, y_delay: Array, y_all: Array,
               mu1: Array | None, lambda_all: float, lambda_cm: float,
               cm_on_atc_only: bool = False, a: Array | None = None
               ) -> tuple[ad.Node, dict[str, float]]:
    """Combined objective and its components.

    total = bce(p_delay, y_delay) + lambda_all * bce(p_all, y_all)
            + lambda_cm * mean((p_delay - mu1)^2)

    The squared regularizer runs over the whole batch by default; with
    cm_on_atc_only it averages over carted samples only (zero if none).
    """
    if lambda_all < 0 or lambda_cm < 0:
        raise ConfigError("loss weights must be non-negative")
    l_delay = ad.bce(pred.p_delay, np.asarray(y_delay).reshape(-1, 1))
    l_all = ad.bce(pred.p_all_raw, np.asarray(y_all).reshape(-1, 1))
    total = ad.add(l_delay, ad.mul(ad.constant(lambda_all), l_all))
    l_cm_value = 0.0
    if lambda_cm > 0.0:
        if mu1 is None:
            raise ConfigError("lambda_cm > 0 requires imputed targets")
        sq = ad.square(ad.sub(pred.p_delay, ad.constant(np.asarray(mu1).reshape(-1, 1))))
        if cm_on_atc_only:
            if a is None:
                raise ConfigError("cm_on_atc_only requires the cart indicator")
            mask = np.asarray(a).reshape(-1, 1)
            scale = mask.size / max(float(mask.sum()), 1.0)
            l_cm = ad.mul(ad.constant(scale), ad.mean(ad.mul(sq, ad.constant(mask))))
        else:
            l_cm = ad.mean(sq)
        total = ad.add(total, ad.mul(ad.constant(lambda_cm), l_cm))
        l_cm_value = float(l_cm.data)
    parts = {"delay": float(l_delay.data), "all": float(l_all.data),
             "cm": l_cm_value, "total": float(total.data)}
    return total, parts


class DelayModel:
    """Trainable side of the architecture; the base model inside stays frozen."""

    def __init__(self, pretrained: PretrainedModel, config: DelayConfig,
                 rng: np.random.Generator):
        if not pretrained.frozen:
            raise ConfigError("the base model must be frozen before fine-tuning")
        self.pretrained = pretrained
        self.config = config
        enc = pretrained.encoder
        emb = config.embedding_dim
        widths = pretrained.config.tower_widths

        def table(name, rows):
            return ad.Parameter(f"delay/{name}", ad.glorot_uniform(rng, rows, emb))

        # The gate-side user table starts at zero: gates open as behavior
        # functions first and acquire per-user identity only as gradients
        # justify it, instead of injecting 5000 random vectors at step 0.
        self.emb_user = ad.Parameter("delay/emb_user", np.zeros((enc.n_users, emb)))
        self.pool_atc = table("pool_atc", enc.n_items)
        self.pool_pay = table("pool_pay", enc.n_items)
        self.emb_price = table("emb_price", len(enc.price_edges) + 1)
        self.emb_disc = table("emb_disc", len(enc.disc_edges) + 1)

        gate_in = 3 * emb
        self.gates: list[tuple[ad.MLP, ad.MLP]] = []
        for i, w in enumerate(widths):
            self.gates.append((
                ad.MLP(f"delay/gate_cvr{i}", [gate_in, w, w],
                       ["tanh", "sigmoid"], rng),
                ad.MLP(f"delay/gate_atc{i}", [gate_in, w, w],
                       ["tanh", "sigmoid"], rng)))

        extras_width = widths[-1] + 2 * emb + 2 * emb
        self.layers: list[ad.MLP] = []
        prev = None
        for i, w in enumerate(widths):
            in_w = 2 * widths[i] + (extras_width if prev is None else prev)
            self.layers.append(ad.MLP(f"delay/layer{i}", [in_w, w], ["tanh"], rng))
            prev = w
        self.head = ad.MLP("delay/head", [widths[-1], 1], ["linear"], rng,
                           zero_last=True)
        self.n_steps = 0
        self.loss_trace: list[float] = []

    def parameters(self) -> list[ad.Parameter]:
        params = [self.emb_user, self.pool_atc, self.pool_pay,
                  self.emb_price, self.emb_disc]
        for gc, ga in self.gates:
            params += gc.parameters() + ga.parameters()
        for layer in self.layers:
            params += layer.parameters()
        params += self.head.parameters()
        return params

    def forward(self, batch: EncodedDataset) -> DelayPrediction:
        base = self.pretrained.forward(batch)
        p_ori = ad.stop_gradient(base.p_cvr)
        h_cvr = [ad.stop_gradient(h) for h in base.h_cvr]
        h_atc = [ad.stop_gradient(h) for h in base.h_atc]

        v_atc = ad.embedding_bag(self.pool_atc.node(), batch.atc_seq, batch.atc_mask)
        v_pay = ad.embedding_bag(self.pool_pay.node(), batch.pay_seq, batch.pay_mask)
        e_user = ad.embedding(self.emb_user.node(), batch.user_idx)
        e_price = ad.concat([
            ad.embedding(self.emb_price.node(), batch.price_bucket),
            ad.embedding(self.emb_disc.node(), batch.disc_bucket)])

        gate_values: list[tuple[ad.Node, ad.Node]] = []
        h = None
        for i, layer in enumerate(self.layers):
            if self.config.use_gates:
                gc, ga = self.gates[i]
                g_cvr = gate_forward(gc, e_user, v_atc, v_pay)
                g_atc = gate_forward(ga, e_user, v_atc, v_pay)
                gate_values.append((g_cvr, g_atc))
            else:
                g_cvr = g_atc = None
            extras = [h_cvr[-1], e_price, v_atc, v_pay] if h is None else [h]
            h = layer.forward(build_gated_input(h_cvr[i], h_atc[i], g_cvr, g_atc,
                                                extras))[-1]
        p_delay = ad.sigmoid(self.head.forward(h)[-1])
        return DelayPrediction(p_delay=p_delay, p_all_raw=ad.add(p_ori, p_delay),
                               p_ori_cvr=p_ori, gate_values=gate_values)

    def loss(self, pred: DelayPrediction, batch: EncodedDataset,
             mu1: Array | None) -> tuple[ad.Node, dict[str, float]]:
        cfg = self.config
        return delay_loss(pred, batch.y_delay, batch.y_all, mu1,
                          lambda_all=cfg.lambda_all, lambda_cm=cfg.lambda_cm,
                          cm_on_atc_only=cfg.cm_on_atc_only, a=batch.A)

    def predict(self, data: EncodedDataset, chunk: int = 8192,
                with_gates: bool = False) -> dict[str, Array]:
        """Scores for ranking and diagnostics, as flat arrays; records no graph."""
        cols: dict[str, list[Array]] = {"p_delay": [], "p_all_raw": [], "p_ori_cvr": []}
        gate_cols: dict[str, list[Array]] = {}
        with ad.no_grad():
            for start in range(0, data.n, chunk):
                batch = data.take(np.arange(start, min(start + chunk, data.n)))
                pred = self.forward(batch)
                cols["p_delay"].append(pred.p_delay.data[:, 0])
                cols["p_all_raw"].append(pred.p_all_raw.data[:, 0])
                cols["p_ori_cvr"].append(pred.p_ori_cvr.data[:, 0])
                if with_gates:
                    for i, (gc, ga) in enumerate(pred.gate_values):
                        gate_cols.setdefault(f"gate_cvr{i}_mean", []).append(
                            gc.data.mean(axis=1))
                        gate_cols.setdefault(f"gate_atc{i}_mean", []).append(
                            ga.data.mean(axis=1))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        out.update({k: np.concatenate(v) for k, v in gate_cols.items()})
        return out

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        meta = {"version": CHECKPOINT_VERSION, "kind": "delay",
                "config": asdict(self.config),
                "pretrained_config": {**asdict(self.pretrained.config),
                                      "tower_widths": list(self.pretrained.config.tower_widths)},
                "encoder": self.pretrained.encoder.to_dict(),
                "n_steps": self.n_steps}
        arrays = {p.name: p.data for p in self.parameters()}
        arrays.update({p.name: p.data for p in self.pretrained.parameters()})
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path) -> "DelayModel":
        from .data import FeatureEncoder
        with np.load(path) as blob:
            meta = read_checkpoint_meta(blob, path, "delay")
            encoder = FeatureEncoder.from_dict(meta["encoder"])
            pcfg = PretrainConfig(**{**meta["pretrained_config"],
                                     "tower_widths": tuple(meta["pretrained_config"]["tower_widths"])})
            pretrained = PretrainedModel(encoder, pcfg, np.random.default_rng(0))
            load_parameters(blob, pretrained.parameters(), path)
            pretrained.freeze()
            model = cls(pretrained, DelayConfig(**meta["config"]),
                        np.random.default_rng(0))
            load_parameters(blob, model.parameters(), path)
            model.n_steps = meta["n_steps"]
        return model


def finetune(model: DelayModel, train: EncodedDataset, imputation=None,
             seed: int = 0) -> list[float]:
    """Minibatch Adagrad over the combined objective; returns per-epoch means.

    The imputation model is evaluated once up front (counterfactual arm,
    everyone treated); its targets stay fixed for the whole run.
    """
    cfg = model.config
    if train.n == 0:
        raise DataError("empty fine-tuning set")
    mu1 = None
    if cfg.lambda_cm > 0.0:
        if imputation is None:
            raise ConfigError("lambda_cm > 0 requires an imputation model")
        mu1 = imputation.mu(train, arm=1)

    rng = np.random.default_rng(seed)
    params = model.parameters()
    opt = ad.Adagrad(params, lr=cfg.learning_rate)
    base_hash = model.pretrained.param_hash()
    for _ in range(cfg.epochs):
        epoch = []
        order = rng.permutation(train.n)
        for start in range(0, train.n, cfg.batch_size):
            batch = train.take(order[start:start + cfg.batch_size])
            mu1_batch = None if mu1 is None else mu1[order[start:start + cfg.batch_size]]
            pred = model.forward(batch)
            total, parts = model.loss(pred, batch, mu1_batch)
            epoch.append(ad.finite_loss(parts["total"], "finetune", model.n_steps))
            opt.step(ad.backward(total, params))
            model.n_steps += 1
        model.loss_trace.append(float(np.mean(epoch)))
    if model.pretrained.param_hash() != base_hash:
        raise RuntimeError("frozen base parameters changed during fine-tuning")
    return model.loss_trace


def dump_diagnostics(model: DelayModel, data: EncodedDataset, path) -> None:
    """Per-sample probabilities and mean gate activations, for offline review."""
    scores = model.predict(data, with_gates=model.config.use_gates)
    keys = ["p_ori_cvr", "p_delay", "p_all_raw"] + sorted(
        k for k in scores if k.startswith("gate_"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", *keys])
        for i in range(data.n):
            writer.writerow([i] + [f"{scores[k][i]:.6f}" for k in keys])
