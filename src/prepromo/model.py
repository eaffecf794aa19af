"""Delay-conversion head fine-tuned on pre-promotion data.

The frozen base model supplies per-layer activations; each one is scaled by
a personalized gate (a small MLP over the user embedding and the pooled
cart/purchase history) before entering the matching delay layer. The final
conversion probability is additive:

    p_all = [[p_base_cvr]] + p_delay

where [[.]] marks a value no gradient crosses: the frozen base runs in a
no_grad pass, which records no graph. p_all can exceed 1 and is clamped only
inside the loss. The training objective is

    L = bce(p_delay, y_delay) + lambda_all * bce(p_all, y_all)
        + lambda_cm * mean((p_delay - mu1)^2)

with mu1 the imputed everyone-carts outcome, held constant during
fine-tuning (the imputation model must not be pulled toward p_delay).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .data import EncodedDataset, FeatureEncoder
from .decode import check_bounds, decode
from .errors import ConfigError, DataError
from .pretrain import PretrainConfig, PretrainedModel

Array = np.ndarray


@dataclass(slots=True)
class DelayConfig:
    embedding_dim: int = field(default=8, metadata={"min": 1})
    lambda_all: float = field(default=1.0, metadata={"min": 0.0})
    lambda_cm: float = field(default=0.1, metadata={"min": 0.0})
    use_gates: bool = True
    learning_rate: float = field(default=0.001, metadata={"above": 0.0})
    batch_size: int = field(default=1024, metadata={"min": 1})
    epochs: int = field(default=3, metadata={"min": 0})
    __post_init__ = check_bounds


@dataclass(slots=True)
class DelayPrediction:
    p_delay: ad.Node          # (n, 1), sigmoid output
    p_all_raw: ad.Node        # (n, 1), p_base + p_delay, may exceed 1
    p_ori_cvr: ad.Node        # the frozen head, a leaf of the no_grad pass
    gate_values: list[tuple[ad.Node, ad.Node]] = field(default_factory=list)


def gate_pair(gate_cvr: ad.MLP, gate_atc: ad.MLP,
              gate_in: ad.Node) -> tuple[ad.Node, ad.Node]:
    """One level's two sigmoid gate vectors from their shared input
    (user || atc || pay).

    The two first layers run as one layer over their side-by-side weights
    (the MMoE layout); each gate's second layer then reads its own half.
    Both gates are two-layer MLPs of equal widths.
    """
    w_c, w_a = gate_cvr.weights, gate_atc.weights
    b_c, b_a = gate_cvr.biases, gate_atc.biases
    hidden = ad.dense(gate_in, ad.concat([w_c[0], w_a[0]]), ad.concat([b_c[0], b_a[0]]),
                      gate_cvr.activations[0])
    width = w_c[0].data.shape[1]
    return (ad.dense(ad.columns(hidden, 0, width), w_c[1], b_c[1], gate_cvr.activations[1]),
            ad.dense(ad.columns(hidden, width, 2 * width), w_a[1], b_a[1],
                     gate_atc.activations[1]))


def build_gated_input(h_cvr: ad.Node, h_atc: ad.Node, gate_cvr: ad.Node | None,
                      gate_atc: ad.Node | None, extras: list[ad.Node]) -> ad.Node:
    """(g_cvr * h_cvr) || (g_atc * h_atc) || extras; gates of None mean all-ones."""
    left = h_cvr if gate_cvr is None else ad.mul(gate_cvr, h_cvr)
    right = h_atc if gate_atc is None else ad.mul(gate_atc, h_atc)
    return ad.concat([left, right, *extras])


def delay_loss(pred: DelayPrediction, y_delay: Array, y_all: Array,
               mu1: Array | None, lambda_all: float, lambda_cm: float
               ) -> tuple[ad.Node, dict[str, float]]:
    """Combined objective and its components.

    total = bce(p_delay, y_delay) + lambda_all * bce(p_all, y_all)
            + lambda_cm * mean((p_delay - mu1)^2)

    with the mean of the squared regularizer taken over the whole batch.
    """
    l_delay = ad.bce(pred.p_delay, np.asarray(y_delay).reshape(-1, 1))
    l_all = ad.bce(pred.p_all_raw, np.asarray(y_all).reshape(-1, 1))
    total = ad.add(l_delay, ad.mul(ad.constant(lambda_all), l_all))
    l_cm_value = 0.0
    if lambda_cm > 0.0:
        if mu1 is None:
            raise ConfigError("lambda_cm > 0 requires imputed targets")
        l_cm = ad.mean(ad.square(ad.sub(pred.p_delay,
                                        ad.constant(np.asarray(mu1).reshape(-1, 1)))))
        total = ad.add(total, ad.mul(ad.constant(lambda_cm), l_cm))
        l_cm_value = float(l_cm.data)
    parts = {"delay": float(l_delay.data), "all": float(l_all.data),
             "cm": l_cm_value, "total": float(total.data)}
    return total, parts


class DelayModel:
    """Trainable side of the architecture; the base model inside stays frozen."""

    n_steps: int

    def __init__(self, pretrained: PretrainedModel, config: DelayConfig,
                 rng: np.random.Generator):
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
        # The frozen base never gets a gradient, so its pass records no
        # graph: its outputs are leaves, and backward stops at them.
        with ad.no_grad():
            base = self.pretrained.forward(batch)

        v_atc = ad.embedding_bag(self.pool_atc, batch.atc_seq, batch.atc_mask)
        v_pay = ad.embedding_bag(self.pool_pay, batch.pay_seq, batch.pay_mask)
        e_price = ad.concat([
            ad.embedding(self.emb_price, batch.price_bucket),
            ad.embedding(self.emb_disc, batch.disc_bucket)])
        if self.config.use_gates:
            e_user = ad.embedding(self.emb_user, batch.user_idx)
            gate_in = ad.concat([e_user, v_atc, v_pay])

        gate_values: list[tuple[ad.Node, ad.Node]] = []
        h = None
        for i, layer in enumerate(self.layers):
            if self.config.use_gates:
                g_cvr, g_atc = gate_pair(*self.gates[i], gate_in)
                gate_values.append((g_cvr, g_atc))
            else:
                g_cvr = g_atc = None
            extras = [base.h_cvr[-1], e_price, v_atc, v_pay] if h is None else [h]
            h = layer.forward(build_gated_input(base.h_cvr[i], base.h_atc[i], g_cvr,
                                                g_atc, extras))[-1]
        p_delay = ad.sigmoid(self.head.forward(h)[-1])
        return DelayPrediction(p_delay=p_delay, p_all_raw=ad.add(base.p_cvr, p_delay),
                               p_ori_cvr=base.p_cvr, gate_values=gate_values)

    def loss(self, pred: DelayPrediction, batch: EncodedDataset,
             mu1: Array | None) -> tuple[ad.Node, dict[str, float]]:
        cfg = self.config
        return delay_loss(pred, batch.y_delay, batch.y_all, mu1,
                          lambda_all=cfg.lambda_all, lambda_cm=cfg.lambda_cm)

    def predict(self, data: EncodedDataset) -> dict[str, Array]:
        """Scores for ranking, as flat arrays; records no graph."""
        def scores(rows):
            pred = self.forward(data.take(rows))
            return pred.p_delay, pred.p_all_raw, pred.p_ori_cvr
        params = self.parameters() + self.pretrained.parameters()
        return dict(zip(("p_delay", "p_all_raw", "p_ori_cvr"),
                        ad.score(data.n, scores, params)))


def finetune(model: DelayModel, train: EncodedDataset, imputation=None,
             seed: int = 0) -> list[float]:
    """Minibatch Adagrad over the combined objective; returns per-epoch means.

    The imputation model is evaluated once up front (counterfactual arm,
    everyone treated); its targets stay fixed for the whole run.
    """
    cfg = model.config
    mu1 = None
    if cfg.lambda_cm > 0.0:
        if imputation is None:
            raise ConfigError("lambda_cm > 0 requires an imputation model")
        mu1 = imputation.mu(train, arm=1)

    def loss_of(batch, rows):
        total, _ = model.loss(model.forward(batch), batch,
                              None if mu1 is None else mu1[rows])
        return total
    base_hash = model.pretrained.param_hash()
    losses, steps = ad.minimize(model.parameters(), train, loss_of, cfg,
                                np.random.default_rng(seed), "finetune")
    model.n_steps += steps
    if model.pretrained.param_hash() != base_hash:
        raise RuntimeError("frozen base parameters changed during fine-tuning")
    return losses


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(model: PretrainedModel | DelayModel, path) -> None:
    """Write a base model, or a delay model with its base, as one .npz archive.

    Its `__meta__` entry is the JSON that rebuilds the model: the version,
    the kind ("pretrained" or "delay"), the configs and the encoder, plus the
    delay model's step count. Every parameter is stored under its name, the
    delay model's before its base's.
    """
    if isinstance(model, DelayModel):
        base = model.pretrained
        meta = {"version": CHECKPOINT_VERSION, "kind": "delay",
                "config": asdict(model.config),
                "pretrained_config": asdict(base.config),
                "encoder": base.encoder.to_dict(), "n_steps": model.n_steps}
        params = model.parameters() + base.parameters()
    else:
        meta = {"version": CHECKPOINT_VERSION, "kind": "pretrained",
                "config": asdict(model.config), "encoder": model.encoder.to_dict()}
        params = model.parameters()
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **{p.name: p.data for p in params})


def load_checkpoint(path) -> PretrainedModel | DelayModel:
    """The model that save_checkpoint wrote, of the kind its metadata names.

    DataError, naming the file, when the file is missing or not an .npz
    archive; when the metadata is missing or no JSON object, of another version
    or kind, lacks a field, or holds a value of the wrong type or out of its
    config field's bounds; and when a parameter's array is missing, misshapen
    or not float64. The `frozen` field of older base checkpoints is ignored.
    """
    try:
        blob = np.load(path)
        if not isinstance(blob, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not an .npz archive")
        with blob:
            if "__meta__" not in blob.files:
                raise DataError(f"{path} has no checkpoint metadata")
            meta = json.loads(bytes(blob["__meta__"]).decode())
            if not isinstance(meta, dict):
                raise DataError(f"{path}: checkpoint metadata is not a JSON object")
            version = meta.get("version")
            if type(version) is not int or version != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {version} in {path}")
            kind = meta.get("kind")
            if kind not in ("pretrained", "delay"):
                raise DataError(f"{path} holds an unknown checkpoint kind {kind!r}")

            def entry(key, build):
                if key not in meta:
                    raise DataError(f"{path}: checkpoint metadata has no {key!r} field")
                try:
                    return build(meta[key])
                except (KeyError, TypeError, ValueError, ConfigError) as exc:
                    raise DataError(f"{path}: checkpoint metadata field {key!r} "
                                    f"is malformed: {exc}") from exc

            def config(cls):
                return lambda d: cls(**decode(cls, d))

            rng = np.random.default_rng(0)
            base = PretrainedModel(
                entry("encoder", FeatureEncoder.from_dict),
                entry("config" if kind == "pretrained" else "pretrained_config",
                      config(PretrainConfig)), rng)
            _load_parameters(blob, base.parameters(), path)
            if kind == "pretrained":
                return base
            model = DelayModel(base, entry("config", config(DelayConfig)), rng)
            _load_parameters(blob, model.parameters(), path)
            model.n_steps = entry("n_steps",
                                  lambda v: decode(DelayModel, {"n_steps": v})["n_steps"])
            return model
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint not found: {path}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:  # not an archive, or damaged
        raise DataError(f"{path} is not a checkpoint: {exc}") from exc


def _load_parameters(blob, params: list[ad.Parameter], path) -> None:
    """Copy each parameter's array out of a checkpoint, checking it is there
    and has the parameter's shape and float64 dtype (DataError naming the
    parameter if not): a cast would quietly truncate or round the weights."""
    for p in params:
        if p.name not in blob.files:
            raise DataError(f"{path} has no array for parameter {p.name!r}")
        data = blob[p.name]
        if data.shape != p.data.shape:
            raise DataError(f"{path}: parameter {p.name!r} has shape {data.shape}, "
                            f"the model expects {p.data.shape}")
        if data.dtype != np.float64:
            raise DataError(f"{path}: parameter {p.name!r} has dtype {data.dtype}, "
                            "the model expects float64")
        p.data = data.copy()
