import json

import pytest

from ncquadric import STAGES
from ncquadric.cli import main

from helpers import break_stage

GOLDEN = "inputs/quadric3.pres"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_golden_text(capsys):
    rc, out, err = run(capsys, GOLDEN)
    assert rc == 0
    assert err == ""
    assert out.startswith("quadric hypersurface analysis")
    assert "verdict: isolated singularity: yes" in out


def test_golden_json(capsys):
    rc, out, err = run(capsys, GOLDEN, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert [s["name"] for s in doc["stages"]] == list(STAGES)


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, GOLDEN, "--json", "--degree", "5")
    _, out2, _ = run(capsys, GOLDEN, "--json", "--degree", "5")
    assert out1 == out2


def test_stage_flag(capsys):
    rc, out, err = run(capsys, GOLDEN, "--stage", "verdict")
    assert rc == 0
    assert "[verdict]" in out
    assert "[idempotents]" not in out


def test_stage_flag_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as ei:
        main([GOLDEN, "--stage", "nonsense"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_degree_too_small(capsys):
    rc, out, err = run(capsys, GOLDEN, "--degree", "3")
    assert rc == 2
    assert "error:" in err
    assert "degree" in err


def test_missing_file(capsys):
    rc, out, err = run(capsys, "inputs/absent.pres")
    assert rc == 2
    assert err.startswith("error:")


def test_non_utf8_file_is_unreadable_input(tmp_path, capsys):
    bad = tmp_path / "latin1.pres"
    bad.write_bytes(b"field = Q\nvars = x, y\n# \xff\n")
    rc, out, err = run(capsys, str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "can't decode byte 0xff" in err


def test_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("field = Q(i)\nvars = x, y\nrel = x*q\ncentral = x*x\n")
    rc, out, err = run(capsys, str(bad))
    assert rc == 2
    assert "line 3" in err and "unknown variable 'q'" in err


def test_pipeline_failure_exit_code(tmp_path, capsys):
    notqp = tmp_path / "notqp.pres"
    notqp.write_text("field = Q\nvars = x, y\nrel = x*x\ncentral = y*y\n")
    rc, out, err = run(capsys, str(notqp))
    assert rc == 1
    assert "[qp-certificate] failed" in out


def test_skip_qp_check_flag(tmp_path, capsys):
    notqp = tmp_path / "notqp.pres"
    notqp.write_text("field = Q\nvars = x, y\nrel = x*x\ncentral = y*y\n")
    rc, out, err = run(capsys, str(notqp), "--skip-qp-check")
    assert "[qp-certificate] warning" in out
    assert rc == 1  # the centrality stage still fails for this input


def test_nonsplit_exit_zero(capsys):
    rc, out, err = run(capsys, "inputs/node_rational.pres")
    assert rc == 0
    assert "[idempotents] warning" in out
    assert "[mcm-classification] skipped" in out


def test_a_division_algebra_block_has_no_matrix_size(capsys):
    # End(M) is the quaternions (-1, -1) over Q: the split gives up, and
    # the cross-check must not print a 2 x 2 matrix block for it
    rc, out, _ = run(capsys, "inputs/comm3_rational.pres")
    assert rc == 0
    lines = out.splitlines()
    assert ("[idempotents] warning  (no in-field eigenvalue produced a "
            "proper idempotent in a simple block of dimension 4 over Q)"
            in lines)
    assert "  dual blocks: unavailable over this field" in lines
    assert "  end blocks: unavailable over this field" in lines
    assert "  blocks match: -" in lines
    assert "[dual-crosscheck] ok" in lines


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "ncquadric", GOLDEN, "--stage",
         "build-quotient"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[build-quotient] ok" in proc.stdout


def test_algebra_error_in_a_stage_exits_one(monkeypatch, capsys):
    break_stage(monkeypatch, "idempotents")
    rc, out, err = run(capsys, "inputs/node.pres")
    assert rc == 1
    assert err == ""
    assert ("[idempotents] failed  (central splitting found no usable "
            "element)") in out
    assert "[mcm-classification]" not in out


@pytest.mark.parametrize("modulus", ["t^4+3*t^2+2", "t^4+4"])
def test_reducible_quartic_modulus_exits_2(capsys, tmp_path, modulus):
    pres = tmp_path / "node.pres"
    pres.write_text(f"field = Q[t]/({modulus})\nvars = x, y\n"
                    "rel = x*y - y*x\ncentral = x*x + y*y\n")
    rc, out, err = run(capsys, str(pres))
    assert rc == 2
    assert out == ""
    assert "modulus is reducible over Q (has a quadratic factor" in err


def write_node(tmp_path, modulus):
    pres = tmp_path / "node.pres"
    pres.write_text(f"field = Q[t]/({modulus})\nvars = x, y\n"
                    "rel = x*y - y*x\ncentral = x*x + y*y\n")
    return str(pres)


def test_reducible_sextic_modulus_exits_2(capsys, tmp_path):
    # (t^3+2)(t^3+3): no rational root and no quadratic factor
    rc, out, err = run(capsys, write_node(tmp_path, "t^6+5*t^3+6"))
    assert rc == 2
    assert out == ""
    assert "modulus is reducible over Q (has a factor t^3+2 of degree 3)" \
        in err


@pytest.mark.parametrize("modulus, summands", [
    ("t^6-2", None),    # i is not in Q(2^(1/6)): proved not to split
    ("t^8+1", 2),       # t^4 is a square root of -1
])
def test_irreducible_high_degree_moduli_are_accepted(capsys, tmp_path,
                                                     modulus, summands):
    rc, out, err = run(capsys, write_node(tmp_path, modulus), "--json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    mcm = next(s for s in doc["stages"] if s["name"] == "mcm-classification")
    if summands is None:
        assert mcm["message"] == "idempotents do not split over this field"
    else:
        assert len(mcm["data"]["summands"]) == summands
