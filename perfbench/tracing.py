"""Spans around public functions of `prepromo`, recorded from outside the program.

A probe replaces a function at the name where its caller looks it up (a
module attribute or a class attribute) with a wrapper that records one span
per call: name, start, end, the enclosing span, and an optional value taken
from the call. Spans stay in memory; `layer_metrics` turns them into the
per-layer figures after the run.

Every `*_ms` figure is self time: a span's duration minus the part covered by
the spans nested inside it. Every `*_s` figure is the inclusive duration of
the named call, summed over the round.

Durations are CPU seconds of the process, not wall-clock seconds. The
program runs one thread, so the two differ only by the time the process was
not given a CPU; on a virtual machine that includes time stolen by the host,
which made wall-clock figures drift by 10% between runs minutes apart.
"""

from __future__ import annotations

import os
import time

CLOCK = time.process_time   # counts from the start of the process

RAISED = object()        # info of a span whose call raised


def current_rss_mb() -> float:
    """Resident set size of this process right now, in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """In-memory span recorder. Span i is (name, t0, t1, parent index, info)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, info=None, before=None) -> None:
        """Replace owner.attr by a recording wrapper.

        info(args, kwargs, result, pre) computes the span's value after the
        call returns; pre is what before() returned just before the call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            pre = before() if before is not None else None
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
                t1 = CLOCK()
            except BaseException:
                spans[idx] = (name, t0, CLOCK(), parent, RAISED)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, t0, t1, parent,
                          None if info is None else info(args, kwargs, result, pre))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._restore.append((owner, attr, raw))

    def close(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _n_rows(data):
    return int(len(data.y_all))


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the stage calls (always) and, when `full`, every traced layer."""
    from prepromo import autodiff, causal, cli, data, experiment, metrics, model, pretrain

    from checks import param_digest, score_invariants

    E = experiment
    # Stage timers and the captures the correctness checks read. These stay
    # on in the untraced run: a dozen calls per round.
    tracer.wrap(E, "acquire_data", "experiment.acquire_data",
                before=current_rss_mb if full else None,
                info=(lambda a, k, r, pre: current_rss_mb() - pre) if full else None)
    tracer.wrap(E, "prepare_seed", "experiment.prepare_seed",
                info=lambda a, k, r, pre: {
                    "truth": r.enc_eval.truth, "A": r.enc_eval.A,
                    "y_all": r.enc_eval.y_all, "y_delay": r.enc_eval.y_delay})
    tracer.wrap(E, "pretrain_fit", "pretrain.fit",
                info=lambda a, k, r, pre: {"samples": len(a[0]) * a[1].epochs,
                                           "digest": param_digest(r.parameters())})
    tracer.wrap(E, "fit_imputation", "causal.fit_imputation",
                info=lambda a, k, r, pre: {
                    "samples": (a[0].n - int(a[0].n * a[1].val_fraction)) * a[1].epochs,
                    "val_bce": r.val_bce})
    tracer.wrap(E, "finetune", "model.finetune",
                info=lambda a, k, r, pre: {"samples": a[1].n * a[0].config.epochs})
    tracer.wrap(E, "run_reuse_baseline", "experiment.reuse_baseline",
                info=lambda a, k, r, pre: {"samples": a[1].n * a[2].epochs})
    tracer.wrap(E, "run_variant", "experiment.run_variant",
                info=lambda a, k, r, pre: {
                    "variant": a[2].name,
                    "digest": param_digest(a[1].pretrained.parameters())})
    tracer.wrap(pretrain.PretrainedModel, "predict", "pretrain.predict",
                info=lambda a, k, r, pre: {"n": _n_rows(a[1])})
    tracer.wrap(model.DelayModel, "predict", "model.predict",
                info=lambda a, k, r, pre: {"n": _n_rows(a[1]),
                                           "failures": score_invariants(r)})
    tracer.wrap(E, "evaluate_scores", "metrics.evaluate_scores",
                info=lambda a, k, r, pre: {
                    "variant": a[0], "p_all": a[2], "p_delay": a[3],
                    "y_all": a[4], "y_delay": a[5], "report": r})
    tracer.wrap(E, "build_click_dataset", "data.build_click_dataset",
                info=lambda a, k, r, pre: {"samples": r})
    tracer.wrap(cli, "run_experiment", "experiment.run_experiment")
    if not full:
        return

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(E, "sample_world", "synth.sample_world")
    tracer.wrap(E, "generate_dataset", "synth.generate_dataset",
                info=lambda a, k, r, pre: {"n": len(r)})
    tracer.wrap(E, "ingest_csv", "data.ingest_csv",
                info=lambda a, k, r, pre: {"n": len(r)})
    tracer.wrap(E, "partition_dataset", "data.partition")
    tracer.wrap(data.FeatureEncoder, "fit", "data.encoder_fit")
    tracer.wrap(data.FeatureEncoder, "encode", "data.encode", before=current_rss_mb,
                info=lambda a, k, r, pre: {"n": _n_rows(r),
                                           "rss_mb": current_rss_mb() - pre})
    tracer.wrap(data.EncodedDataset, "take", "data.take")
    tracer.wrap(E, "seed_diagnostics", "experiment.seed_diagnostics")
    tracer.wrap(E, "dr_ate_from_model", "causal.dr_ate")
    tracer.wrap(E, "emit_report", "metrics.emit_report")
    tracer.wrap(metrics, "auc", "metrics.auc")
    tracer.wrap(pretrain.PretrainedModel, "forward", "pretrain.forward")
    tracer.wrap(causal.ImputationModel, "mu", "causal.mu",
                info=lambda a, k, r, pre: {"n": int(r.size)})
    tracer.wrap(model.DelayModel, "forward", "model.forward")
    tracer.wrap(model.DelayModel, "loss", "model.loss")
    for op in ("matmul", "sigmoid", "tanh", "embedding_bag", "embedding", "concat", "bce"):
        tracer.wrap(autodiff, op, f"autodiff.{op}")
    tracer.wrap(autodiff.Tape, "trace", "autodiff.tape_trace",
                info=lambda a, k, r, pre: {"nodes": len(r.nodes)})
    tracer.wrap(autodiff.Tape, "backward", "autodiff.backward")
    tracer.wrap(autodiff.Adagrad, "step", "autodiff.adagrad_step")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def unit(name: str) -> str:
    """The unit of a per-layer figure, read from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("events_per_s"):
        return "events/s"
    if name.endswith("samples_per_s"):
        return "samples/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def better(name: str) -> str:
    return "higher" if name.endswith("_per_s") else "lower"


TRAIN_SPANS = ("pretrain.fit", "causal.fit_imputation", "model.finetune",
               "experiment.reuse_baseline")
SCORE_SPANS = ("pretrain.predict", "model.predict")


def contexts(spans: list) -> list[str]:
    """The training context of every span: which fit or fine-tune it ran in.

    Parents precede their children in the list, so one forward pass suffices.
    Imputation targets computed inside a fine-tune get their own context, so
    per-step figures count only the steps themselves.
    """
    ctx: list[str] = []
    for name, _t0, _t1, parent, info in spans:
        up = ctx[parent] if parent >= 0 else "top"
        if name == "experiment.run_variant":
            up = "variant:" + (info["variant"] if isinstance(info, dict) else "?")
        elif name == "model.finetune":
            up = "finetune:" + up.split(":", 1)[-1]
        elif name == "experiment.reuse_baseline":
            up = "finetune:reuse_relabel"
        elif name == "pretrain.fit":
            up = "pretrain"
        elif name == "causal.fit_imputation":
            up = "imputation"
        elif name == "causal.mu":
            up = "mu"
        ctx.append(up)
    return ctx


def self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def end_to_end(spans: list) -> dict:
    """Set-up time; once the experiment has run, its time and throughputs.

    Set-up runs from the start of the process, so it covers the interpreter
    and the imports too.
    """
    acquire = [s for s in spans if s[0] == "experiment.acquire_data"]
    run = [s for s in spans if s[0] == "experiment.run_experiment"]
    ctx = contexts(spans)
    train_n = train_s = score_n = score_s = 0.0
    for s, c in zip(spans, ctx):
        name, t0, t1, _parent, info = s
        if name in TRAIN_SPANS and isinstance(info, dict):
            train_n += info["samples"]
            train_s += t1 - t0
        elif name in SCORE_SPANS and c.startswith("variant:") and isinstance(info, dict):
            score_n += info["n"]
            score_s += t1 - t0
    out = {"setup_s": acquire[0][2]}
    if run:
        out.update(experiment_s=run[0][2] - acquire[0][2],
                   train_samples_per_s=train_n / train_s if train_s else 0.0,
                   score_samples_per_s=score_n / score_s if score_s else 0.0)
    return out


def layer_metrics(spans: list) -> dict[str, float]:
    """Every per-layer figure; a layer that did not run reports 0."""
    ctx = contexts(spans)
    own = self_times(spans)

    def total(name, where=None):
        return sum(s[2] - s[1] for s, c in zip(spans, ctx)
                   if s[0] == name and (where is None or c == where))

    def self_sum(name, where):
        return sum(o for s, c, o in zip(spans, ctx, own) if s[0] == name and c == where)

    def count(name, where):
        return sum(1 for s, c in zip(spans, ctx) if s[0] == name and c == where)

    def info_sum(name, key, where=None):
        return sum(s[4][key] for s, c in zip(spans, ctx)
                   if s[0] == name and isinstance(s[4], dict)
                   and (where is None or c == where))

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    cm = "finetune:cmdcm"
    cm_steps = count("autodiff.adagrad_step", cm)
    pre_steps = count("autodiff.adagrad_step", "pretrain")

    def per_cm_step(name):
        return 1000.0 * self_sum(name, cm) / cm_steps if cm_steps else 0.0

    ft_cm = [i for i, (s, c) in enumerate(zip(spans, ctx))
             if s[0] == "model.finetune" and c == cm]
    ft_cm_s = sum(spans[i][2] - spans[i][1] for i in ft_cm)
    mu_in_ft = sum(s[2] - s[1] for s in spans if s[0] == "causal.mu" and s[3] in ft_cm)
    fit = [i for i, s in enumerate(spans) if s[0] == "pretrain.fit"]
    fit_s = sum(spans[i][2] - spans[i][1] for i in fit)
    data_in_fit = sum(s[2] - s[1] for s in spans
                      if s[0] in ("data.encoder_fit", "data.encode") and s[3] in fit)
    cli_main = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    events = info_sum("data.ingest_csv", "n")
    data_s = total("data.ingest_csv") + total("data.build_click_dataset")
    acquire_rss = sum(s[4] for s in spans
                      if s[0] == "experiment.acquire_data" and isinstance(s[4], float))

    return {
        "cli.overhead_s": sum(own[i] for i in cli_main),
        "experiment.acquire_data_s": total("experiment.acquire_data"),
        "experiment.prepare_seed_s": total("experiment.prepare_seed"),
        "experiment.reuse_baseline_s": total("experiment.reuse_baseline"),
        "experiment.seed_diagnostics_s": total("experiment.seed_diagnostics"),
        "synth.sample_world_s": total("synth.sample_world"),
        "synth.generate_s": total("synth.generate_dataset"),
        "synth.generate_samples_per_s": rate(info_sum("synth.generate_dataset", "n"),
                                             total("synth.generate_dataset")),
        "data.ingest_csv_s": total("data.ingest_csv"),
        "data.build_click_dataset_s": total("data.build_click_dataset"),
        "data.events_per_s": rate(events, data_s),
        "data.partition_s": total("data.partition"),
        "data.encoder_fit_s": total("data.encoder_fit"),
        "data.encode_s": total("data.encode"),
        "data.encode_samples_per_s": rate(info_sum("data.encode", "n"), total("data.encode")),
        "data.rss_growth_mb": acquire_rss + info_sum("data.encode", "rss_mb"),
        "data.take_ms": per_cm_step("data.take"),
        "pretrain.fit_s": fit_s,
        "pretrain.steps": float(pre_steps),
        "pretrain.step_ms": 1000.0 * (fit_s - data_in_fit) / pre_steps if pre_steps else 0.0,
        "pretrain.forward_ms": (1000.0 * self_sum("pretrain.forward", "pretrain") / pre_steps
                                if pre_steps else 0.0),
        "pretrain.predict_samples_per_s": rate(info_sum("pretrain.predict", "n"),
                                               total("pretrain.predict")),
        "causal.fit_imputation_s": total("causal.fit_imputation"),
        "causal.mu_samples_per_s": rate(info_sum("causal.mu", "n"), total("causal.mu")),
        "causal.dr_ate_s": total("causal.dr_ate"),
        "model.finetune_s.naive_finetune": total("model.finetune", "finetune:naive_finetune"),
        "model.finetune_s.cmdcm": ft_cm_s,
        "model.steps": float(cm_steps),
        "model.step_ms": 1000.0 * (ft_cm_s - mu_in_ft) / cm_steps if cm_steps else 0.0,
        "model.forward_ms": per_cm_step("model.forward"),
        "model.loss_ms": per_cm_step("model.loss"),
        "model.predict_samples_per_s": rate(info_sum("model.predict", "n"),
                                            total("model.predict")),
        "autodiff.backward_ms": per_cm_step("autodiff.backward"),
        "autodiff.tape_trace_ms": per_cm_step("autodiff.tape_trace"),
        "autodiff.adagrad_step_ms": per_cm_step("autodiff.adagrad_step"),
        "autodiff.nodes_per_step": (info_sum("autodiff.tape_trace", "nodes", cm) / cm_steps
                                    if cm_steps else 0.0),
        "autodiff.matmul_ms": per_cm_step("autodiff.matmul"),
        "autodiff.sigmoid_ms": per_cm_step("autodiff.sigmoid"),
        "autodiff.tanh_ms": per_cm_step("autodiff.tanh"),
        "autodiff.embedding_bag_ms": per_cm_step("autodiff.embedding_bag"),
        "autodiff.embedding_ms": per_cm_step("autodiff.embedding"),
        "autodiff.concat_ms": per_cm_step("autodiff.concat"),
        "autodiff.bce_ms": per_cm_step("autodiff.bce"),
        "autodiff.sigmoid_calls_per_step": (count("autodiff.sigmoid", cm) / cm_steps
                                            if cm_steps else 0.0),
        "autodiff.matmul_calls_per_step": (count("autodiff.matmul", cm) / cm_steps
                                           if cm_steps else 0.0),
        "metrics.auc_s": total("metrics.auc"),
        "metrics.emit_report_s": total("metrics.emit_report"),
    }
