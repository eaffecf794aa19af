"""Two-headed base model trained on daily logs: same-day conversion + add-to-cart.

Both towers sit on a shared input assembly (id embeddings plus dense
context). After fitting it is the frozen base: later stages read its
per-layer activations from a pass that records no graph and give its
parameters to no optimizer, so the daily task can never degrade during
fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import ClickTable, EncodedDataset, FeatureEncoder
from .errors import DataError


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
            ad.embedding(self.emb_user, batch.user_idx),
            ad.embedding(self.emb_item, batch.item_idx),
            ad.embedding(self.emb_cat, batch.cat_idx),
            ad.embedding(self.emb_price, batch.price_bucket),
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

    def predict(self, data: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
        """Head probabilities as flat arrays, computed in chunks with no graph."""
        def heads(rows):
            out = self.forward(data.take(rows))
            return out.p_cvr, out.p_atc
        return tuple(ad.score(data.n, heads, self.parameters()))

    def param_hash(self) -> str:
        return ad.param_hash(self.parameters())


def pretrain_fit(daily: ClickTable, config: PretrainConfig, seed: int) -> PretrainedModel:
    """Fit both heads on daily data by minibatch Adagrad.

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

    def loss_of(batch, rows):
        out = model.forward(batch)
        return ad.add(ad.bce(out.p_cvr, batch.y_all.reshape(-1, 1)),
                      ad.bce(out.p_atc, batch.A.reshape(-1, 1)))
    model.loss_trace, _ = ad.minimize(model.parameters(), data, loss_of, config,
                                      rng, "pretrain")
    return model
