import json

import pytest

from ncquadric import FiniteDimAlgebra, STAGES, end_algebra, parse_source, \
    run_pipeline, stable_dual_algebra

from helpers import STAGE_CALLS, break_stage, load_context

NOTQP = "field = Q\nvars = x, y\nrel = x*x\ncentral = y*y\n"


def stage_status(report):
    return {s.name: s.status for s in report.stages}


def test_stage_catalogue():
    assert STAGES == (
        "qp-certificate", "centrality", "regularity", "build-quotient",
        "dual-hilbert", "koszul-spaces", "end-algebra", "verdict",
        "idempotents", "mcm-classification", "syzygy-shift",
        "preresolution", "dual-crosscheck")


def test_golden_all_ok(golden_report):
    assert [s.name for s in golden_report.stages] == list(STAGES)
    assert all(s.status == "ok" for s in golden_report.stages)
    assert golden_report.verdict is True
    assert golden_report.exit_code == 0
    assert golden_report.warnings == []
    assert golden_report.stage("end-algebra").data["dim end algebra"] == 4
    assert golden_report.stage("verdict").data["radical dim"] == 0
    assert golden_report.stage("preresolution").data[
        "degree-0 algebra dim"] == 9
    cross = golden_report.stage("dual-crosscheck").data
    assert cross["dims match"] is True
    assert cross["radicals match"] is True
    assert cross["blocks match"] is True
    assert cross["dual blocks"] == cross["end blocks"] == [1, 1, 1, 1]


def test_golden_summands(golden_report):
    mcm = golden_report.stage("mcm-classification").data
    assert mcm["hilbert additivity"] is True
    summands = mcm["summands"]
    assert len(summands) == 4
    assert sorted(s["annihilator"] for s in summands) == sorted(
        ["y+i*z", "y-i*z", "x+z", "x-z"])
    assert all(s["cyclic"] for s in summands)
    assert all(s["hilbert"] == s["quotient hilbert"] for s in summands)
    shift = golden_report.stage("syzygy-shift").data
    assert shift["annihilator permutation"] == [1, 2, 3, 4]
    assert shift["dims match"] is True


@pytest.fixture(scope="module")
def nodeq_report():
    with open("inputs/node_rational.pres") as fh:
        parsed = parse_source(fh.read())
    return run_pipeline(parsed, degree=6, seed=0,
                        input_label="node_rational")


@pytest.fixture(scope="module")
def cusp_report():
    with open("inputs/cusp.pres") as fh:
        parsed = parse_source(fh.read())
    return run_pipeline(parsed, degree=6, seed=0, input_label="cusp")


def test_nonsplit_path(nodeq_report):
    st = stage_status(nodeq_report)
    assert st["idempotents"] == "warning"
    assert st["mcm-classification"] == "skipped"
    assert st["syzygy-shift"] == "skipped"
    assert st["preresolution"] == "skipped"
    assert st["dual-crosscheck"] == "ok"
    assert nodeq_report.verdict is True
    assert nodeq_report.exit_code == 0
    assert any("does not split" in w for w in nodeq_report.warnings)
    idem = nodeq_report.stage("idempotents").data
    assert idem["missing factor"] == "t^2+1"
    assert idem["partial decomposition size"] == 1
    cross = nodeq_report.stage("dual-crosscheck").data
    assert cross["dims match"] is True
    assert cross["radicals match"] is True
    assert cross["blocks match"] is None  # neither side splits over Q


def test_not_isolated_path(cusp_report):
    st = stage_status(cusp_report)
    assert st["verdict"] == "ok"
    assert cusp_report.verdict is False
    for name in ("idempotents", "mcm-classification", "syzygy-shift",
                 "preresolution"):
        assert st[name] == "skipped"
    assert st["dual-crosscheck"] == "ok"
    assert cusp_report.exit_code == 0
    assert cusp_report.stage("verdict").data["radical dim"] == 1
    cross = cusp_report.stage("dual-crosscheck").data
    assert cross["dual radical dim"] == 1
    assert cross["radicals match"] is True


def test_qp_failure_aborts():
    report = run_pipeline(parse_source(NOTQP), degree=6, seed=0)
    assert [(s.name, s.status) for s in report.stages] == [
        ("qp-certificate", "failed")]
    assert report.exit_code == 1
    assert report.verdict is None


def test_skip_qp_check_demotes_to_warning():
    report = run_pipeline(parse_source(NOTQP), degree=6, seed=0,
                          skip_qp_check=True)
    st = stage_status(report)
    assert st["qp-certificate"] == "warning"
    assert "centrality" in st  # pipeline kept going past the certificate
    assert report.exit_code == 1  # later stages still fail honestly
    assert any("certificate" in w for w in report.warnings)


def test_stop_after(golden_parsed):
    report = run_pipeline(golden_parsed, degree=6, seed=0,
                          stop_after="verdict")
    assert [s.name for s in report.stages] == list(STAGES[:8])
    assert report.verdict is True
    assert report.exit_code == 0


def test_reports_are_deterministic(golden_parsed):
    a = run_pipeline(golden_parsed, degree=6, seed=0, input_label="x")
    b = run_pipeline(golden_parsed, degree=6, seed=0, input_label="x")
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_json_shape(golden_report):
    doc = json.loads(golden_report.to_json())
    assert set(doc) == {"input", "field", "generators", "degree", "seed",
                        "verdict", "warnings", "stages"}
    assert doc["field"] == "Q(i)"
    assert doc["generators"] == ["x", "y", "z"]
    assert doc["degree"] == 8
    assert [s["name"] for s in doc["stages"]] == list(STAGES)
    for s in doc["stages"]:
        assert set(s) == {"name", "status", "message", "data"}


def test_text_shape(golden_report):
    text = golden_report.to_text()
    assert text.startswith("quadric hypersurface analysis: quadric3")
    for name in STAGES:
        assert f"[{name}] ok" in text
    assert "verdict: isolated singularity: yes" in text
    assert text.endswith("exit code: 0\n")


def test_unknown_stage_lookup(golden_report):
    assert golden_report.stage("nonexistent") is None


NODE_T4 = ("field = Q[t]/(t^4+1)\nvars = x, y\nrel = x*y - y*x\n"
           "central = x*x + y*y\n")
COMM3 = ("field = Q(i)\nvars = x, y, z\n"
         "rel = x*y - y*x\nrel = x*z - z*x\nrel = y*z - z*y\n"
         "central = x*x + y*y + z*z\n")
COMM5 = ("field = Q(i)\nvars = x, y, z, u, w\n"
         "rel = x*y - y*x\nrel = x*z - z*x\nrel = x*u - u*x\n"
         "rel = x*w - w*x\nrel = y*z - z*y\nrel = y*u - u*y\n"
         "rel = y*w - w*y\nrel = z*u - u*z\nrel = z*w - w*z\n"
         "rel = u*w - w*u\n"
         "central = x*x + y*y + z*z + u*u + w*w\n")


def test_undecided_split_is_reported_as_undecided(monkeypatch):
    # End(M) is M_2(Q(i)) here; stub the right unit of every left ideal so
    # the search for a proper idempotent gives up
    monkeypatch.setattr(FiniteDimAlgebra, "_right_unit_of",
                        lambda self, ideal: None)
    report = run_pipeline(parse_source(COMM3), degree=5, seed=0,
                          stop_after="mcm-classification")
    idem = report.stage("idempotents")
    assert idem.status == "warning"
    assert idem.data["missing factor"] == "-"
    assert report.stage("mcm-classification").message == (
        "idempotent splitting is undecided over this field")
    assert not any("does not split" in w for w in report.warnings)
    assert report.verdict is True


def test_a_matrix_block_of_size_4_splits_by_a_rank_2_idempotent(
        monkeypatch, tmp_path):
    # End(M) is M_4(Q(i)) here; its first proper left ideal has dimension
    # 8, so the block splits into two halves of matrix size 2 first
    real = FiniteDimAlgebra._right_unit_of
    ideal_dims = []

    def recording(self, ideal):
        ideal_dims.append(ideal.dim)
        return real(self, ideal)

    monkeypatch.setattr(FiniteDimAlgebra, "_right_unit_of", recording)
    report = run_pipeline(parse_source(COMM5), degree=4, seed=0,
                          input_label="comm5")
    assert ideal_dims[0] == 8
    idem = report.stage("idempotents")
    assert idem.status == "ok"
    assert idem.data["count"] == 4
    mcm = report.stage("mcm-classification").data
    assert [s["hilbert"] for s in mcm["summands"]] == [
        [4, 16, 40, 80, 140]] * 4
    assert mcm["hilbert additivity"] is True
    # as on comm4, no summand is cyclic, and the shift test reads only
    # cyclic summands
    assert report.stage("syzygy-shift").status == "failed"
    assert report.exit_code == 1
    # dual-crosscheck does not run after that failure: read its two block
    # lists directly
    path = tmp_path / "comm5.pres"
    path.write_text(COMM5)
    ctx = load_context(path, bound=4)
    for alg in (end_algebra(ctx).algebra, stable_dual_algebra(ctx).algebra):
        assert alg.quotient_by_radical().block_structure(seed=0) == (4,)


def test_node_over_the_eighth_cyclotomic_field_splits():
    # t^2 is a square root of -1 in Q[t]/(t^4+1)
    report = run_pipeline(parse_source(NODE_T4), degree=6, seed=0)
    assert all(s.status == "ok" for s in report.stages)
    assert report.exit_code == 0 and report.warnings == []
    summands = report.stage("mcm-classification").data["summands"]
    assert [s["cyclic"] for s in summands] == [True, True]
    assert sorted(s["annihilator"] for s in summands) == ["x+t^2*y",
                                                          "x-t^2*y"]
    assert report.stage("dual-crosscheck").data["blocks match"] is True


NODE_SQRT2 = NODE_T4.replace("t^4+1", "t^2-2")


def test_factor_variable_differs_from_the_field_generator():
    # over Q[t]/(m) a factor printed in t would read as a field element;
    # i is not in Q(sqrt 2), so X^2+1 is proved not to split there
    report = run_pipeline(parse_source(NODE_SQRT2), degree=6, seed=0)
    warning = "central characteristic factor does not split over Q[t]/(t^2-2)"
    text = report.to_text()
    assert "\n  missing factor: X^2+1\n" in text
    assert f"\nwarning: {warning}\n" in text
    assert "t^2+1" not in text
    data = json.loads(report.to_json())
    assert data["warnings"] == [warning]
    idem = next(s for s in data["stages"] if s["name"] == "idempotents")
    assert idem["data"]["missing factor"] == "X^2+1"
    assert report.stage("mcm-classification").message == (
        "idempotents do not split over this field")


def test_corrupt_koszul_space_fails_its_stage(golden_parsed, monkeypatch):
    from ncquadric import Subspace, pipeline

    real_build = pipeline.build_context

    def corrupted(*args, **kwargs):
        ctx = real_build(*args, **kwargs)
        field = ctx.quotient.field
        dim = pipeline.koszul_component(ctx, 4).dim
        # same dimension as C_4, so only the nesting check can notice
        ctx.koszul_cache[4] = Subspace.span(field, 81, [
            [field.one if c == k else field.zero for c in range(81)]
            for k in range(dim)])
        return ctx

    monkeypatch.setattr(pipeline, "build_context", corrupted)
    report = run_pipeline(golden_parsed, degree=6, seed=0)
    stage = report.stage("koszul-spaces")
    assert stage.status == "failed"
    assert stage.message.startswith("C_4 is not nested in C_3")
    assert stage.data["agrees with dual dims"] is True
    assert report.stages[-1] is stage
    assert report.exit_code == 1


@pytest.mark.parametrize("name", sorted(STAGE_CALLS))
def test_algebra_error_fails_its_stage(name, monkeypatch):
    break_stage(monkeypatch, name)
    with open("inputs/node.pres") as fh:
        report = run_pipeline(parse_source(fh.read()), degree=6, seed=0)
    last = report.stages[-1]
    assert (last.name, last.status) == (name, "failed")
    assert last.message == "central splitting found no usable element"
    assert [s.name for s in report.stages] == \
        list(STAGES[:STAGES.index(name) + 1])
    assert all(s.status == "ok" for s in report.stages[:-1])
    assert report.exit_code == 1


def test_quotient_is_built_once(golden_parsed, monkeypatch):
    from ncquadric import QuadraticPresentation

    real_init = QuadraticPresentation.__init__
    built = []

    def counting(self, field, generators, relation_vectors):
        built.append(len(relation_vectors))
        real_init(self, field, generators, relation_vectors)

    monkeypatch.setattr(QuadraticPresentation, "__init__", counting)
    report = run_pipeline(golden_parsed, degree=6, seed=0,
                          stop_after="build-quotient")
    assert report.stage("build-quotient").status == "ok"
    # 3 ambient relations plus the central element
    assert built.count(4) == 1


def test_ambient_dual_is_built_once(golden_parsed, monkeypatch):
    from ncquadric import QuadraticPresentation

    real_init = QuadraticPresentation.__init__
    built = []

    def counting(self, field, generators, relation_vectors):
        built.append(len(relation_vectors))
        real_init(self, field, generators, relation_vectors)

    monkeypatch.setattr(QuadraticPresentation, "__init__", counting)
    report = run_pipeline(golden_parsed, degree=6, seed=0)
    assert report.exit_code == 0
    # S^! has 9 - 3 = 6 relations; the qp-certificate and dual-hilbert
    # stages read the same one
    assert built.count(6) == 1


def test_center_is_split_once_per_algebra_and_seed(monkeypatch):
    # End(M) and the dual algebra are split once each.  On skew4q, End(M)
    # does not split over Q, and dual-crosscheck raises the kept NonSplit
    # again instead of splitting End(M) a second time
    from pathlib import Path

    from ncquadric.presentation import parse_file

    real = FiniteDimAlgebra._split_center
    splits = []

    def counting(self, seed):
        splits.append((id(self), seed))
        return real(self, seed)

    monkeypatch.setattr(FiniteDimAlgebra, "_split_center", counting)
    root = Path(__file__).resolve().parent.parent
    for path, degree, seed in (("bench/corpus/skew4.pres", 4, 3),
                               ("bench/corpus/skew4.pres", 6, 0),
                               ("bench/corpus/skew4q.pres", 6, 0),
                               ("inputs/quadric3.pres", 6, 0)):
        splits.clear()
        report = run_pipeline(parse_file(str(root / path)), degree=degree,
                              seed=seed)
        assert report.stage("dual-crosscheck").status == "ok"
        assert len(splits) == len(set(splits)) == 2, path
