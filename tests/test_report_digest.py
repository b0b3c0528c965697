import re
import subprocess
import sys

from conftest import ROOT

LINE = re.compile(r"^[0-9a-f]{64}  inputs/node\.pres degree=4 seed=(\d) "
                  r"stage=full format=(text|json) exit=0$")


def digest_node():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"),
         "--input", "inputs/node.pres", "--degree", "4", "--seeds", "0", "1"],
        capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_report_digest_repeats():
    first = digest_node()
    assert [LINE.match(line).groups() for line in first] == [
        ("0", "text"), ("0", "json"), ("1", "text"), ("1", "json")]
    assert len({line.split()[0] for line in first}) == 4
    assert digest_node() == first


def test_input_reports_match_the_pinned_digests():
    # tests/report_digests.txt pins the reports of every inputs/*.pres at
    # degree 6, seeds 0 and 1, among them inputs/comm3_rational.pres, whose
    # End(M) is a division algebra and whose blocks read "unavailable";
    # bench/corpus/comm4.pres in full at degree 6,
    # seeds 0 and 1, the runs that take the rank-2 summand path, the only
    # ones whose summand relations span two generator blocks;
    # bench/corpus/skew3.pres at degree 12, seed 0, the deep Hom table over
    # an extension field; inputs/quadric3.pres at degree 12, seed 0, the
    # other input of the g3-deep bench workload, with a 5 x 5 Hom table
    # over Q(i) from degree -3 to 12; and bench/corpus/skew4.pres at degree
    # 6, seed 0, with 8 summands, a 9 x 9 Hom table and End(M) = Q(i)^8;
    # bench/corpus/comm4.pres and bench/corpus/skew4q.pres stopped after
    # the verdict at degree 6, seed 0, the runs of the verdict bench
    # workload; and bench/corpus/skew4q.pres in full at degree 6, seeds 0
    # and 1, where End(M) does not split over Q and dual-crosscheck reads
    # the same NonSplit again; and, at seed 1, bench/corpus/skew4.pres at
    # degree 6 and bench/corpus/skew3.pres at degree 12, in full: each seed
    # cuts other summand presentations out of M, so these check the
    # summand cuts and the direct sum of the pre-resolution algebra on a
    # second set of relation rows.
    # A change that alters a report on purpose regenerates the file with
    # the same command per input
    pinned = (ROOT / "tests" / "report_digests.txt").read_text().splitlines()
    runs = [(f"inputs/{path.name}", "6", ["0", "1"], [])
            for path in sorted((ROOT / "inputs").glob("*.pres"))]
    runs.append(("bench/corpus/comm4.pres", "6", ["0", "1"], []))
    runs.append(("bench/corpus/skew3.pres", "12", ["0"], []))
    runs.append(("inputs/quadric3.pres", "12", ["0"], []))
    runs.append(("bench/corpus/skew4.pres", "6", ["0"], []))
    for path in ("bench/corpus/comm4.pres", "bench/corpus/skew4q.pres"):
        runs.append((path, "6", ["0"], ["--stage", "verdict"]))
    runs.append(("bench/corpus/skew4q.pres", "6", ["0", "1"], []))
    runs.append(("bench/corpus/skew4.pres", "6", ["1"], []))
    runs.append(("bench/corpus/skew3.pres", "12", ["1"], []))
    got = []
    for path, degree, seeds, stage in runs:
        got += subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_digest.py"),
             "--input", path, "--degree", degree, "--seeds", *seeds,
             *stage],
            capture_output=True, text=True, check=True).stdout.splitlines()
    assert got == pinned
