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
    # scripts/report_digest.py --pinned lists the pinned runs and why each
    # is there.  A change that alters a report on purpose regenerates the
    # file with
    #     python3 scripts/report_digest.py --pinned > tests/report_digests.txt
    pinned = (ROOT / "tests" / "report_digests.txt").read_text().splitlines()
    got = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"),
         "--pinned"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert got == pinned
