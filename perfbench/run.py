"""Benchmark driver for `prepromo`: one workload, whole rounds, one JSON line.

    python3 perfbench/run.py --workload desk_synth --seed 1 --seconds 40 --trace 0

Each round starts `workload.py` as its own process with one BLAS thread;
that process runs `prepromo experiment` for the seed and checks its outputs.
Rounds repeat while another one fits in --seconds. With --trace 0 the last
line printed holds the end-to-end metrics (medians over the rounds); with
--trace 1 rounds alternate untraced and traced, and it holds the per-layer
metrics of the traced rounds plus the tracing overhead. Raw figures of every
round go to perfbench/out/<workload>-seed<seed>-trace<t>/summary.json.
Exit code 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
MIN_SETUPS = 3          # set-up time is the median of at least this many set-ups
RUN_LIMIT_S = 170.0     # a run, log writing included, ends within this

END_TO_END = {"setup_s": "s", "experiment_s": "s",
              "train_samples_per_s": "samples/s", "score_samples_per_s": "samples/s",
              "peak_rss_mb": "MB", "auc_delay": "1", "nll_delay": "nats"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_round(args, run_dir: Path, k: int, traced: bool, setup_only: bool,
              deadline: float) -> dict:
    result = run_dir / f"result{k}.json"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(run_dir), "--result", str(result)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round {k} did not finish within the run limit") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"round {k} exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["wall_s"] = time.monotonic() - launch
    return out


def median_of(rounds: list[dict], key: str) -> float | None:
    values = [r[key] for r in rounds if key in r]
    return statistics.median(values) if values else None


def measure(args, run_dir: Path, deadline: float) -> dict:
    """Run whole rounds (pairs of rounds when tracing) for --seconds."""
    per_unit = 2 if args.trace else 1
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, run_dir, len(rounds), traced, False, deadline))
        if len(rounds) % per_unit:
            continue
        unit_s = per_unit * statistics.median(r["wall_s"] for r in rounds)
        if time.monotonic() - start + unit_s > args.seconds:
            break
    setups = [] if args.trace else [r["setup_s"] for r in rounds if "setup_s" in r]
    while not args.trace and len(setups) < MIN_SETUPS:
        extra = run_round(args, run_dir, len(rounds) + len(setups), False, True, deadline)
        setups.append(extra["setup_s"])
    return {"rounds": rounds, "setups": setups}


def summarize(args, measured: dict) -> dict:
    rounds = measured["rounds"]
    threads = {r.get("blas_threads") for r in rounds} - {None}
    if threads - {BLAS_THREADS}:
        raise BenchError(f"OpenBLAS used {sorted(threads)} threads, not {BLAS_THREADS}")
    done = [r for r in rounds if r.get("exit_code") == 0]
    if not done:
        raise BenchError("no round ran the experiment to its end")
    ops = [op for r in rounds for op in r["ops"]]
    # Same seed, same program: every round must score the same numbers.
    correct = all(len({r[k] for r in done}) == 1 for k in ("auc_delay", "nll_delay"))
    out = {"correct": correct, "attempted": len(ops),
           "failed": sum(1 for op in ops if not op[1])}
    if not args.trace:
        values = {"setup_s": statistics.median(measured["setups"]),
                  **{k: median_of(done, k) for k in END_TO_END if k != "setup_s"}}
        out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return out
    traced = [r for r in done if "layers" in r]
    plain = [r for r in done if "layers" not in r]
    if not traced or not plain:
        raise BenchError("tracing needs one untraced and one traced round")
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}

    def wall(rs):
        return statistics.median(r["setup_s"] + r["experiment_s"] for r in rs)

    metrics["trace.overhead_pct"] = 100.0 * (wall(traced) - wall(plain)) / wall(plain)
    out["metrics"] = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # Unwind on SIGTERM, so subprocess.run kills and reaps the running round.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if not (ROOT / "src" / "prepromo" / "cli.py").is_file():
            raise BenchError(f"no program source under {ROOT / 'src'}")
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        events = None
        if workloads.WORKLOADS[args.workload]["dataset"].get("mode") == "csv":
            sys.path.insert(0, str(ROOT / "src"))
            events = workloads.write_event_log(args.seed, run_dir)["events"]
        workloads.write_config(args.workload, run_dir / "workload.ini", events)
        measured = measure(args, run_dir, deadline)
        result = summarize(args, measured)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failed = [op for r in measured["rounds"] for op in r["ops"] if not op[1]]
    for op, _ok, why in failed:
        print(f"FAILED {op}: {why}", file=sys.stderr)
    with open(run_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, **measured}, fh, indent=1)
    shutil.rmtree(run_dir / "report", ignore_errors=True)
    for name in ("events.csv", "truth.csv", "subset.csv"):
        (run_dir / name).unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
