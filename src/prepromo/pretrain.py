"""Two-headed base model trained on daily logs: same-day conversion + add-to-cart.

Both towers sit on a shared input assembly (id embeddings plus dense
context). After fitting it is frozen: every parameter becomes non-trainable
and later stages transfer its per-layer activations through stop-gradient
boundaries, so the daily task can never degrade during fine-tuning.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .data import ClickTable, EncodedDataset, FeatureEncoder
from .errors import DataError

CHECKPOINT_VERSION = 1


@dataclass(slots=True)
class PretrainConfig:
    tower_widths: tuple[int, ...] = (32, 16, 8)
    embedding_dim: int = 8
    n_buckets: int = 16
    max_seq_len: int = 10
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs: int = 3


@dataclass(slots=True)
class PretrainedForwardResult:
    """Head probabilities plus every hidden activation of both towers."""

    p_cvr: ad.Node
    p_atc: ad.Node
    h_cvr: list[ad.Node]
    h_atc: list[ad.Node]


class PretrainedModel:

    def __init__(self, encoder: FeatureEncoder, config: PretrainConfig,
                 rng: np.random.Generator):
        self.encoder = encoder
        self.config = config
        self.frozen = False
        emb = config.embedding_dim

        def table(name, rows):
            return ad.Parameter(f"pretrained/{name}",
                                ad.glorot_uniform(rng, rows, emb))

        self.emb_user = table("emb_user", encoder.n_users)
        self.emb_item = table("emb_item", encoder.n_items)
        self.emb_cat = table("emb_cat", encoder.n_categories)
        self.emb_price = table("emb_price", len(encoder.price_edges) + 1)

        in_width = 4 * emb + encoder.dense_dim
        sizes = [in_width, *config.tower_widths, 1]
        acts = ["tanh"] * len(config.tower_widths) + ["linear"]
        self.cvr_tower = ad.MLP("pretrained/cvr", sizes, acts, rng, zero_last=True)
        self.atc_tower = ad.MLP("pretrained/atc", sizes, acts, rng, zero_last=True)

    def parameters(self) -> list[ad.Parameter]:
        return [self.emb_user, self.emb_item, self.emb_cat, self.emb_price,
                *self.cvr_tower.parameters(), *self.atc_tower.parameters()]

    def input_node(self, batch: EncodedDataset) -> ad.Node:
        return ad.concat([
            ad.embedding(self.emb_user.node(), batch.user_idx),
            ad.embedding(self.emb_item.node(), batch.item_idx),
            ad.embedding(self.emb_cat.node(), batch.cat_idx),
            ad.embedding(self.emb_price.node(), batch.price_bucket),
            ad.constant(batch.dense),
        ])

    def forward(self, batch: EncodedDataset) -> PretrainedForwardResult:
        """Deterministic forward pass; unknown ids hit the reserved row 0."""
        x = self.input_node(batch)
        cvr = self.cvr_tower.forward(x)
        atc = self.atc_tower.forward(x)
        return PretrainedForwardResult(
            p_cvr=ad.sigmoid(cvr[-1]), p_atc=ad.sigmoid(atc[-1]),
            h_cvr=cvr[:-1], h_atc=atc[:-1])

    def predict(self, data: EncodedDataset, chunk: int = 8192
                ) -> tuple[np.ndarray, np.ndarray]:
        """Head probabilities as flat arrays, computed in chunks with no graph."""
        p_cvr, p_atc = [], []
        with ad.no_grad():
            for start in range(0, data.n, chunk):
                batch = data.take(np.arange(start, min(start + chunk, data.n)))
                out = self.forward(batch)
                p_cvr.append(out.p_cvr.data[:, 0])
                p_atc.append(out.p_atc.data[:, 0])
        return np.concatenate(p_cvr), np.concatenate(p_atc)

    def freeze(self) -> "PretrainedModel":
        for p in self.parameters():
            p.trainable = False
        self.frozen = True
        return self

    def param_hash(self) -> str:
        return ad.param_hash(self.parameters())

    # -- checkpointing -----------------------------------------------------

    def save(self, path) -> None:
        meta = {"version": CHECKPOINT_VERSION, "kind": "pretrained",
                "frozen": self.frozen, "config": _config_dict(self.config),
                "encoder": self.encoder.to_dict()}
        arrays = {p.name: p.data for p in self.parameters()}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)

    @classmethod
    def load(cls, path) -> "PretrainedModel":
        with np.load(path) as blob:
            meta = read_checkpoint_meta(blob, path, "pretrained")
            encoder = FeatureEncoder.from_dict(meta["encoder"])
            config = PretrainConfig(**{**meta["config"],
                                       "tower_widths": tuple(meta["config"]["tower_widths"])})
            model = cls(encoder, config, np.random.default_rng(0))
            load_parameters(blob, model.parameters(), path)
        if meta["frozen"]:
            model.freeze()
        return model


def read_checkpoint_meta(blob, path, kind: str) -> dict:
    """A checkpoint's metadata; DataError unless it is a current `kind` one."""
    if "__meta__" not in blob.files:
        raise DataError(f"{path} has no checkpoint metadata")
    meta = json.loads(bytes(blob["__meta__"]).decode())
    if meta.get("kind") != kind:
        raise DataError(f"{path} is not a {kind} checkpoint")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {meta.get('version')} in {path}")
    return meta


def load_parameters(blob, params: Sequence[ad.Parameter], path) -> None:
    """Copy each parameter's array out of a checkpoint, checking it is there
    and has the parameter's shape (DataError naming the parameter if not)."""
    for p in params:
        if p.name not in blob.files:
            raise DataError(f"{path} has no array for parameter {p.name!r}")
        data = blob[p.name]
        if data.shape != p.data.shape:
            raise DataError(f"{path}: parameter {p.name!r} has shape {data.shape}, "
                            f"the model expects {p.data.shape}")
        p.data = data.copy()


def _config_dict(config: PretrainConfig) -> dict:
    d = asdict(config)
    d["tower_widths"] = list(config.tower_widths)
    return d


def pretrain_fit(daily: ClickTable, config: PretrainConfig, seed: int) -> PretrainedModel:
    """Fit both heads on daily data by minibatch Adagrad, then freeze.

    Daily samples must carry the same-day conversion label in y_all and the
    same-day cart label in A; the training objective is the sum of the two
    binary cross-entropies.
    """
    rng = np.random.default_rng(seed)
    if not len(daily):
        raise DataError("pretrain_fit needs a non-empty daily dataset")
    encoder = FeatureEncoder(n_buckets=config.n_buckets,
                             max_seq_len=config.max_seq_len).fit(daily)
    model = PretrainedModel(encoder, config, rng)
    data = encoder.encode(daily)
    params = model.parameters()
    opt = ad.Adagrad(params, lr=config.learning_rate)
    model.loss_trace = []
    step = 0
    for _ in range(config.epochs):
        epoch_losses = []
        for batch in data.batches(config.batch_size, rng):
            out = model.forward(batch)
            loss = ad.add(ad.bce(out.p_cvr, batch.y_all.reshape(-1, 1)),
                          ad.bce(out.p_atc, batch.A.reshape(-1, 1)))
            epoch_losses.append(ad.finite_loss(float(loss.data), "pretrain", step))
            opt.step(ad.backward(loss, params))
            step += 1
        model.loss_trace.append(float(np.mean(epoch_losses)))
    return model.freeze()
