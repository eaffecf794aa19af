"""One round of a workload, in its own process: `prepromo experiment` for one seed.

    python3 perfbench/workload.py --workload NAME --seed N --dir DIR --result FILE
                                  [--trace] [--setup-only]

The process imports the program from `src/`, wraps its stage calls (and,
with --trace, every traced layer), calls `prepromo.cli.main(["experiment",
...])` with the config and event log in DIR, checks the outputs, and
writes its figures to FILE as JSON. With --setup-only the process stops as
soon as the data is in memory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(BaseException):
    """Unwinds a --setup-only process through the program's error handlers."""


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _info(spans, name):
    return [s[4] for s in spans if s[0] == name and isinstance(s[4], dict)]


def evaluate_ops(name: str, spans: list, run_dir: Path) -> list[list]:
    """[operation, ok, reason] for every operation of the round, in order."""
    spec = workloads.WORKLOADS[name]
    results = {}

    if any(s[0] == "experiment.acquire_data" and s[4] is not tracing.RAISED
           for s in spans):
        problems = []
        if spec["dataset"].get("mode") == "csv":
            from prepromo.experiment import make_config

            built = _info(spans, "data.build_click_dataset")
            log = checks.read_log(run_dir / "events.csv")
            problems = checks.round_trip(
                built[0]["samples"], workloads.read_truth(run_dir / "truth.csv"), log,
                workloads.read_subset(run_dir / "subset.csv"),
                max_len=make_config(spec["profile"]).dataset.max_seq_len,
                cart=workloads.CART, buy=workloads.BUY)
        results["data"] = problems

    fits = _info(spans, "pretrain.fit")
    if fits:
        results["pretrain"] = []
    imputations = _info(spans, "causal.fit_imputation")
    if imputations:
        val = imputations[0]["val_bce"]
        results["imputation"] = [] if math.isfinite(val) else [f"val_bce {val}"]

    truth = _info(spans, "experiment.prepare_seed")
    scored = {i["variant"]: i for i in _info(spans, "metrics.evaluate_scores")}
    for idx, s in enumerate(spans):
        if s[0] != "experiment.run_variant" or not isinstance(s[4], dict):
            continue
        variant = s[4]["variant"]
        problems = checks.frozen_base(fits[0]["digest"], s[4]["digest"])
        ev = scored.get(variant)
        if ev is None:
            results[f"variant:{variant}"] = ["no scores were evaluated"]
            continue
        r = ev["report"]
        problems += checks.reported_metrics(ev["p_all"], ev["p_delay"], ev["y_all"],
                                            ev["y_delay"], r.auc_all, r.auc_delay,
                                            r.nll_delay)
        problems += checks.probabilities(ev["p_delay"], "scores")
        for p in spans[idx + 1:]:
            if p[3] == idx and p[0] == "model.predict" and isinstance(p[4], dict):
                problems += p[4]["failures"]
        if variant == "cmdcm":
            problems += checks.learns(r.auc_delay, spec["learn_margin"])
            t = truth[0]
            if "mu1_true" in t["truth"]:
                problems += checks.bayes_bounds(
                    ev["p_delay"], ev["y_all"], ev["y_delay"], t["A"],
                    t["truth"]["mu1_true"], t["truth"]["mu0_true"],
                    t["truth"]["q_dir_true"])
        results[f"variant:{variant}"] = problems

    out = []
    for op in workloads.ops(name):
        if op not in results:
            out.append([op, False, "not completed"])
        else:
            out.append([op, not results[op], "; ".join(results[op])])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from prepromo import cli, experiment

    tracer = tracing.Tracer()
    tracing.install(tracer, full=args.trace)
    if args.setup_only:
        acquire = experiment.acquire_data

        def stop_after(*a, **k):
            acquire(*a, **k)
            raise SetupDone
        experiment.acquire_data = stop_after

    spec = workloads.WORKLOADS[args.workload]
    argv_cli = ["experiment", "--config", str(args.dir / "workload.ini"),
                "--profile", spec["profile"], "--seed", str(args.seed),
                "--out", str(args.dir / "report")]
    try:
        code = cli.main(argv_cli)
    except SetupDone:
        code = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spans = tracer.spans
    tracer.close()

    if args.setup_only:
        result = {"setup_s": tracing.end_to_end(spans)["setup_s"]}
    else:
        result = {"exit_code": code, "blas_threads": blas_threads(),
                  "peak_rss_mb": peak_rss_mb, "ops": evaluate_ops(args.workload, spans, args.dir)}
        if code == 0:
            result.update(tracing.end_to_end(spans))
            report = {i["variant"]: i["report"]
                      for i in _info(spans, "metrics.evaluate_scores")}["cmdcm"]
            result["auc_delay"] = report.auc_delay
            result["nll_delay"] = report.nll_delay
        if args.trace:
            result["layers"] = tracing.layer_metrics(spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
