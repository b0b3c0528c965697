#!/usr/bin/env python3
"""Print one sha256 digest per CLI report, to check reports stay byte-identical.

Each line is

    <sha256>  <input> degree=<d> seed=<s> stage=<stage|full> format=<text|json> exit=<code>

where the digest is taken over exactly what ``ncquadric`` prints when run
from the repo root with that relative input path (the report names it).  By
default the set is every ``inputs/*.pres`` at degree 6 with seeds 0-3, and
the benchmark corpus (``bench/workloads.py``) at its degrees and stop
stages with seeds 0-1.  Run it before and after a change and ``diff`` the
two outputs; stdlib only, so it also runs where pytest is not installed.
``--pinned`` prints the set that tests/report_digests.txt pins, so a change
that alters a report on purpose regenerates that file with one command:

    python3 scripts/report_digest.py > before.txt
    python3 scripts/report_digest.py --pinned > tests/report_digests.txt
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


def pinned_runs():
    """(input, degree, stage, seeds) of the set tests/report_digests.txt pins.

    - every inputs/*.pres at degree 6, seeds 0 and 1, among them
      inputs/comm3_rational.pres, whose End(M) is a division algebra and
      whose blocks read "unavailable";
    - bench/corpus/comm4.pres in full at degree 6, seeds 0 and 1, the runs
      that take the rank-2 summand path, the only ones whose summand
      relations span two generator blocks;
    - bench/corpus/skew3.pres at degree 12, seed 0, the deep Hom table over
      an extension field;
    - inputs/quadric3.pres at degree 12, seed 0, the other input of the
      g3-deep bench workload, with a 5 x 5 Hom table over Q(i) from
      degree -3 to 12;
    - bench/corpus/skew4.pres at degree 6, seed 0, with 8 summands, a
      9 x 9 Hom table and End(M) = Q(i)^8;
    - bench/corpus/comm4.pres and bench/corpus/skew4q.pres stopped after
      the verdict at degree 6, seed 0, the runs of the verdict bench
      workload;
    - bench/corpus/skew4q.pres in full at degree 6, seeds 0 and 1, where
      End(M) does not split over Q and dual-crosscheck reads the same
      NonSplit again;
    - at seed 1, bench/corpus/skew4.pres at degree 6 and
      bench/corpus/skew3.pres at degree 12, in full: each seed cuts other
      summand presentations out of M, so these check the summand cuts and
      the direct sum of the pre-resolution algebra on a second set of
      relation rows;
    - the two Sklyanin inputs of tests/data at degree 4, seed 0, the only
      inputs whose relations are not binomials.
    """
    runs = [(f"inputs/{p.name}", 6, None, (0, 1))
            for p in sorted((ROOT / "inputs").glob("*.pres"))]
    runs += [("bench/corpus/comm4.pres", 6, None, (0, 1)),
             ("bench/corpus/skew3.pres", 12, None, (0,)),
             ("inputs/quadric3.pres", 12, None, (0,)),
             ("bench/corpus/skew4.pres", 6, None, (0,)),
             ("bench/corpus/comm4.pres", 6, "verdict", (0,)),
             ("bench/corpus/skew4q.pres", 6, "verdict", (0,)),
             ("bench/corpus/skew4q.pres", 6, None, (0, 1)),
             ("bench/corpus/skew4.pres", 6, None, (1,)),
             ("bench/corpus/skew3.pres", 12, None, (1,)),
             ("tests/data/sklyanin_omega1.pres", 4, None, (0,)),
             ("tests/data/sklyanin_omega2.pres", 4, None, (0,))]
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
    ap.add_argument("--pinned", action="store_true",
                    help="the set tests/report_digests.txt pins")
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
    if args.pinned:
        runs = pinned_runs()
    elif args.input:
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
