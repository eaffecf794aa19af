"""Run every workload on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 36 --out perfbench/out/set-a.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
distance between the quartiles as a share of the median. The benchmark is
steady when every spread but that of setup_s stays below a third of the
metric's bound in BENCHMARK.json. With --compare it also prints, per metric,
how far this set's median moved from an earlier set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--compare", type=Path, help="an earlier --out file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        stats = {name: describe([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        report[workload] = {"seeds": args.seeds, "metrics": stats,
                            "attempted": sum(r["attempted"] for r in runs),
                            "failed": sum(r["failed"] for r in runs),
                            "correct": all(r["correct"] for r in runs)}
        print(f"{workload}: attempted {report[workload]['attempted']}, "
              f"failed {report[workload]['failed']}, correct {report[workload]['correct']}")
        for name, s in stats.items():
            line = (f"  {name:<20} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                    f"(bound/3 {bounds[name] / 3:.4f})")
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                line += f" moved {(s['median'] - before) / before:+.4f}"
            print(line, flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
