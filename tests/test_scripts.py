import subprocess
import sys

from conftest import ROOT


def test_dimension_table_on_the_node():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dimension_table.py"),
         str(ROOT / "inputs" / "node.pres"), "--degree", "4"],
        capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0].endswith("node.pres (d = 1)")
    assert lines[1].split() == ["n", "S_n", "A_n", "A!_n", "C_n", "M_n"]
    rows = [[int(x) for x in line.split()] for line in lines[3:]]
    assert rows == [[0, 1, 1, 1, 1, 2],
                    [1, 2, 2, 2, 2, 2],
                    [2, 3, 2, 2, 2, 2],
                    [3, 4, 2, 2, 2, 2],
                    [4, 5, 2, 2, 2, 2]]


def test_run_all_inputs_prints_one_report_per_input():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_inputs.py"),
         "--degree", "4"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    reports = done.stdout.split("=" * 72 + "\n")
    assert reports[-1] == ""
    assert [r.splitlines()[0] for r in reports[:-1]] == [
        f"quadric hypersurface analysis: {p.name}"
        for p in sorted((ROOT / "inputs").glob("*.pres"))]
