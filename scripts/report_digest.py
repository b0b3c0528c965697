#!/usr/bin/env python3
"""Print one sha256 digest per CLI report, to check reports stay byte-identical.

Each line is

    <sha256>  <input> degree=<d> seed=<s> stage=<stage|full> format=<text|json> exit=<code>

where the digest is taken over exactly what ``ncquadric`` prints when run
from the repo root with that relative input path (the report names it).  By
default the set is every ``inputs/*.pres`` at degree 6 with seeds 0-3, and
the benchmark corpus (``bench/workloads.py``) at its degrees and stop
stages with seeds 0-1.  Run it before and after a change and ``diff`` the
two outputs; stdlib only, so it also runs where pytest is not installed:

    python3 scripts/report_digest.py > before.txt
    python3 scripts/report_digest.py --input inputs/node.pres --degree 4 --seeds 0
    python3 scripts/report_digest.py --input bench/corpus/comm4.pres --stage verdict
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ncquadric import cli


def bench_runs():
    """(input, degree, stage) of every benchmark corpus run."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for workload in workloads.WORKLOADS.values():
        for path in workload["inputs"]:
            runs.append((path, workload["degree"], workload["stage"]))
    return runs


def default_runs():
    """(input, degree, stage, seeds) of the default digest set."""
    runs = [(f"inputs/{p.name}", 6, None, range(4))
            for p in sorted((ROOT / "inputs").glob("*.pres"))]
    runs += [(path, degree, stage, range(2))
             for path, degree, stage in bench_runs()]
    return runs


def digest(path, degree, seed, stage, fmt):
    argv = [path, "--degree", str(degree), "--seed", str(seed)]
    if stage:
        argv += ["--stage", stage]
    if fmt == "json":
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--input", default=None,
                    help="one presentation file, relative to the repo root "
                         "(default: the whole digest set)")
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--stage", default=None,
                    help="with --input, stop after this stage "
                         "(default: the full run)")
    args = ap.parse_args()

    os.chdir(ROOT)
    if args.input:
        runs = [(args.input, args.degree, args.stage, args.seeds)]
    else:
        runs = default_runs()
    for path, degree, stage, seeds in runs:
        for seed in seeds:
            for fmt in ("text", "json"):
                sha, code = digest(path, degree, seed, stage, fmt)
                print(f"{sha}  {path} degree={degree} seed={seed} "
                      f"stage={stage or 'full'} format={fmt} exit={code}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
