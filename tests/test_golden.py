"""Golden outputs: every report and checkpoint byte of a few tiny runs.

Four tiny runs go through the command line: a desk experiment with all seven
variants at seeds 1 and 2, a paper-width experiment, `prepromo generate`,
and an experiment that reads the generated event logs back as one CSV log;
then `pretrain`, `train --variant cmdcm` and `evaluate` on the desk config.
Their `report.json`, `report.csv` and `loss_traces.csv`, and each
checkpoint's `__meta__` as indented JSON (`checkpoint/<name>.meta.json`), are
compared byte for byte with the files under `tests/golden/`, and the
generated CSVs, the checkpoints and `evaluate`'s report with the sha256 sums
in `tests/golden/sha256.json`.

A change that moves a number on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and names the fields that moved in CHANGES.md. A failure lists every JSON
path and CSV cell that differs, up to MAX_LISTED per file, so it shows all
that moved. `tests/golden/build.json`
records the numpy and BLAS build the goldens came from: another build may
round differently, so a failure prints both builds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

from prepromo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

TRAINING = """
[training]
epochs = 1
pretrain_epochs = 1
imputation_epochs = 1
"""
DESK = TRAINING + """batch_size = 256
[dataset]
n_daily = 3000
n_prepromo = 8000
[experiment]
seeds = 1,2
variants = pretrained_only,naive_finetune,reuse_relabel,cmdcm,wo_allcvr,wo_pg,wo_cm
"""
PAPER = TRAINING + """batch_size = 64
[dataset]
n_daily = 1500
n_prepromo = 5000
delayed_rate_pre = 0.05
[experiment]
seeds = 1
variants = pretrained_only,cmdcm
"""
# The generated daily and pre-promotion logs, read back as one file.
CSV_LOG = TRAINING + """batch_size = 256
[dataset]
mode = csv
events_path = events.csv
price_col = 5
discount_col = 6
daily_start = 0
daily_end = 29
pre_start = 30
pre_end = 32
promo_days = 33
split_ratio = 0.5
[experiment]
seeds = 1
variants = pretrained_only,cmdcm
"""
REPORTS = ("report.json", "report.csv", "loss_traces.csv")
# Differing fields listed per golden file; a changed header can move them all.
MAX_LISTED = 40
HASHED = ("generate/events_daily.csv", "generate/events_prepromo.csv",
          "generate/truth_daily.csv", "generate/truth_prepromo.csv",
          "checkpoint/pretrained_seed1.npz", "checkpoint/cmdcm_seed1.npz",
          "checkpoint/report_checkpoint.json")


def build() -> dict:
    """The numpy version and BLAS library this process computes with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def produce(work: Path) -> tuple[dict[str, bytes], dict[str, str]]:
    """Run everything in `work`: the report files and checkpoint metadata
    by golden name, and the sha256 of each HASHED file."""
    def run(*argv):
        assert main(list(argv)) == 0, argv

    with contextlib.chdir(work):
        for name, text in (("desk", DESK), ("paper", PAPER), ("csv_log", CSV_LOG)):
            Path(f"{name}.ini").write_text(text, encoding="utf-8")
        run("experiment", "--config", "desk.ini", "--out", "desk")
        run("experiment", "--profile", "paper", "--config", "paper.ini", "--out", "paper")
        run("generate", "--config", "desk.ini", "--out", "generate")
        Path("events.csv").write_bytes(b"".join(
            Path(f"generate/events_{mode}.csv").read_bytes() for mode in ("daily", "prepromo")))
        run("experiment", "--config", "csv_log.ini", "--out", "csv_log")
        seed = ("--config", "desk.ini", "--seed", "1", "--out", "checkpoint")
        run("pretrain", *seed)
        run("train", *seed, "--variant", "cmdcm")
        run("evaluate", *seed, "--checkpoint", "checkpoint/cmdcm_seed1.npz")
        reports = {f"{run_}/{name}": Path(run_, name).read_bytes()
                   for run_ in ("desk", "paper", "csv_log") for name in REPORTS}
        for name in HASHED:
            if name.endswith(".npz"):
                with np.load(name) as blob:
                    meta = json.loads(bytes(blob["__meta__"]))
                reports[name.removesuffix(".npz") + ".meta.json"] = (
                    json.dumps(meta, indent=2) + "\n").encode()
        hashes = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                  for name in HASHED}
    return reports, hashes


def json_differences(want, got, path: str):
    """Every JSON path at which two parsed documents differ, with both values."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in list(want) + [k for k in got if k not in want]:
            if k not in got:
                yield f"{path}.{k}: {want[k]!r} removed"
            elif k not in want:
                yield f"{path}.{k}: {got[k]!r} added"
            else:
                yield from json_differences(want[k], got[k], f"{path}.{k}")
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for k, (a, b) in enumerate(zip(want, got)):
            yield from json_differences(a, b, f"{path}[{k}]")
    elif json.dumps(want) != json.dumps(got):
        yield f"{path}: {want!r} -> {got!r}"


def csv_differences(name: str, want: bytes, got: bytes):
    """Every CSV cell, by row and column name, where two files differ."""
    (header, *want_rows), got_rows = (list(csv.reader(io.StringIO(b.decode())))
                                      for b in (want, got))
    for r, (w, g) in enumerate(zip_longest(want_rows, got_rows[1:], fillvalue=[]), 1):
        for c, a, b in zip_longest(header, w, g):
            if a != b:
                yield f"{name} row {r} {c}: {a!r} -> {b!r}"


def differences(name: str, want: bytes, got: bytes) -> list[str]:
    """The fields where a golden file differs from its golden, at most
    MAX_LISTED of them and then a count of the rest."""
    found = list(json_differences(json.loads(want), json.loads(got), name)
                 if name.endswith(".json") else csv_differences(name, want, got))
    if len(found) > MAX_LISTED:
        found[MAX_LISTED:] = [f"{name}: {len(found) - MAX_LISTED} more differences"]
    return found or [f"{name}: the bytes differ"]


def test_differences_lists_every_field_up_to_the_cap():
    want = {"a": 1, "b": [1, 2], "c": {"d": 3}}
    got = {"a": 2, "b": [1, 5], "e": 4}
    assert differences("r.json", *(json.dumps(d).encode() for d in (want, got))) == [
        "r.json.a: 1 -> 2", "r.json.b[1]: 2 -> 5", "r.json.c: {'d': 3} removed",
        "r.json.e: 4 added"]
    assert differences("r.csv", b"x,y\n1,2\n3,4\n", b"x,y\n1,0\n5,4\n6,7\n") == [
        "r.csv row 1 y: '2' -> '0'", "r.csv row 2 x: '3' -> '5'",
        "r.csv row 3 x: None -> '6'", "r.csv row 3 y: None -> '7'"]
    many = differences("r.json", json.dumps(list(range(50))).encode(),
                       json.dumps(list(range(1, 51))).encode())
    assert len(many) == MAX_LISTED + 1
    assert many[-1] == f"r.json: {50 - MAX_LISTED} more differences"


def test_outputs_match_goldens(tmp_path):
    reports, hashes = produce(tmp_path)
    recorded = json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    problems = [line for name, got in reports.items()
                if (GOLDEN / name).read_bytes() != got
                for line in differences(name, (GOLDEN / name).read_bytes(), got)]
    problems += [f"{name}: sha256 {recorded.get(name)} -> {digest}"
                 for name, digest in hashes.items() if recorded.get(name) != digest]
    assert not problems, (
        f"outputs differ from tests/golden/; recorded build "
        f"{json.dumps(json.loads((GOLDEN / 'build.json').read_text(encoding='utf-8')))}, "
        f"current build {json.dumps(build())}:\n" + "\n".join(problems))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports, hashes = produce(Path(tmp))
    for name, content in reports.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(content)
    for name, content in (("sha256.json", hashes), ("build.json", build())):
        (GOLDEN / name).write_text(json.dumps(content, indent=2) + "\n", encoding="utf-8")
    print(f"wrote goldens to {GOLDEN}", file=sys.stderr)
