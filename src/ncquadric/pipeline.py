"""Staged analysis of a quadric hypersurface presentation.

The pipeline validates the ambient algebra, builds the quotient, solves the
graded endomorphism algebra of the syzygy module, and decides whether the
quotient is an isolated singularity.  On a positive verdict it decomposes
the module along primitive idempotents, identifies the summands, gathers
syzygy-shift evidence, and assembles the degree-0 pre-resolution algebra.
A second, independent construction through the quadratic dual cross-checks
the endomorphism algebra at the end.  Reports are deterministic: the same
input, degree, and seed produce identical text and JSON output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

from .errors import (AlgebraError, ContainmentViolated, NonSplit,
                     NoStableCentral)
from .hypersurface import (build_context, dimension_identities, end_algebra,
                           koszul_component, stable_dual_algebra)
from .modules import classify_mcm, preresolution_table, syzygy_shift_evidence
from .quadratic import (QuadraticPresentation, is_regular_deg2,
                        koszul_numeric_check, linear_string,
                        quantum_polynomial_certificate, tensor2_string)
from .tensors import check_koszul_nesting

STAGES = ("qp-certificate", "centrality", "regularity", "build-quotient",
          "dual-hilbert", "koszul-spaces", "end-algebra", "verdict",
          "idempotents", "mcm-classification", "syzygy-shift",
          "preresolution", "dual-crosscheck")


@dataclass
class StageReport:
    name: str
    status: str  # ok | failed | skipped | warning
    message: str = ""
    data: dict = dataclass_field(default_factory=dict)


@dataclass
class PipelineReport:
    input_label: str
    field: str
    generators: tuple
    degree: int
    seed: int
    stages: list
    verdict: object = None
    warnings: list = dataclass_field(default_factory=list)

    @property
    def exit_code(self):
        return 1 if any(s.status == "failed" for s in self.stages) else 0

    def stage(self, name):
        for s in self.stages:
            if s.name == name:
                return s
        return None

    def to_json_dict(self):
        return {
            "input": self.input_label,
            "field": self.field,
            "generators": list(self.generators),
            "degree": self.degree,
            "seed": self.seed,
            "verdict": self.verdict,
            "warnings": list(self.warnings),
            "stages": [{"name": s.name, "status": s.status,
                        "message": s.message, "data": _jsonable(s.data)}
                       for s in self.stages],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self):
        lines = [f"quadric hypersurface analysis: {self.input_label}",
                 f"field {self.field}, generators "
                 f"{', '.join(self.generators)}, degree bound {self.degree}, "
                 f"seed {self.seed}", ""]
        for s in self.stages:
            head = f"[{s.name}] {s.status}"
            if s.message:
                head += f"  ({s.message})"
            lines.append(head)
            for key, value in s.data.items():
                lines.append(f"  {key}: {_fmt(value)}")
        lines.append("")
        if self.verdict is None:
            lines.append("verdict: undetermined")
        else:
            lines.append("verdict: isolated singularity: "
                         + ("yes" if self.verdict else "no"))
        if self.warnings:
            for w in self.warnings:
                lines.append(f"warning: {w}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _matrix_rows(mat):
    return [[str(mat.entry(r, c)) for c in range(mat.ncols)]
            for r in range(mat.nrows)]


def run_pipeline(parsed, degree=6, seed=0, skip_qp_check=False,
                 stop_after=None, input_label="<input>"):
    """Run all stages on a ParsedInput and return the report.

    An AlgebraError raised inside a stage fails that stage with the error's
    message, and the stages after it do not run.
    """
    report = PipelineReport(input_label, parsed.field.describe(),
                            tuple(parsed.generators), degree, seed, [])
    try:
        _run_stages(report, parsed, degree, seed, skip_qp_check, stop_after)
    except AlgebraError as exc:
        # every stage reports exactly once, in order, so the one that raised
        # is the first without a report
        report.stages.append(
            StageReport(STAGES[len(report.stages)], "failed", str(exc)))
    return report


def _run_stages(report, parsed, degree, seed, skip_qp_check, stop_after):
    names = tuple(parsed.generators)

    def add(name, status, message="", **data):
        report.stages.append(StageReport(name, status, message, dict(data)))
        return status != "failed" and name != stop_after

    # qp-certificate ---------------------------------------------------------
    ambient = QuadraticPresentation(
        parsed.field, names, [row for _, row in parsed.relation_rows])
    cert = quantum_polynomial_certificate(ambient, degree)
    status = "ok"
    message = ""
    if not cert.passed:
        if skip_qp_check:
            status = "warning"
            message = ("certificate failed; continuing because the check "
                       "was explicitly skipped")
            report.warnings.append(
                "ambient algebra failed the quantum polynomial certificate: "
                + "; ".join(cert.failures))
        else:
            status = "failed"
            message = "; ".join(cert.failures)
    if not add("qp-certificate", status, message,
               **{"hilbert": list(cert.hilbert),
                  "expected hilbert": list(cert.expected_hilbert),
                  "dual hilbert": list(cert.dual_hilbert),
                  "expected dual hilbert": list(cert.expected_dual_hilbert),
                  "series product coefficients":
                      list(cert.numeric.coefficients)}):
        return

    # centrality -------------------------------------------------------------
    central_str = tensor2_string(names, parsed.central_row)
    if ambient.is_central_deg2(parsed.central_row):
        ok = add("centrality", "ok", "", **{"central element": central_str})
    else:
        ok = add("centrality", "failed",
                 "candidate fails the degree-3 commutation test",
                 **{"central element": central_str})
    if not ok:
        return

    # regularity -------------------------------------------------------------
    reg = is_regular_deg2(ambient, parsed.central_row, degree)
    data = {"checked degrees": [r[0] for r in reg.rows],
            "expected dims": [r[1] for r in reg.rows],
            "actual dims": [r[2] for r in reg.rows]}
    if reg.passed:
        ok = add("regularity", "ok", "", **data)
    else:
        ok = add("regularity", "failed",
                 f"rank drops at degree {reg.first_failure}", **data)
    if not ok:
        return

    # build-quotient ---------------------------------------------------------
    ctx = build_context(ambient, parsed.central_row, bound=degree,
                        regularity=reg)
    if not add("build-quotient", "ok", "",
               **{"d": ctx.d,
                  "gorenstein parameter": ctx.gorenstein_parameter,
                  "quotient relation count":
                      ctx.quotient.relation_space.dim,
                  "quotient hilbert": ctx.quotient.hilbert(degree)}):
        return

    # dual-hilbert -----------------------------------------------------------
    adual = ctx.quotient_dual
    sdual = ctx.ambient_dual
    g = ambient.gdim
    numeric = koszul_numeric_check(ctx.quotient, degree)
    sdual_h = [sdual.graded_dim(n) for n in range(g + 2)]
    total = sum(sdual_h)
    data = {"quotient dual hilbert": adual.hilbert(degree),
            "series product coefficients": list(numeric.coefficients),
            "ambient dual hilbert": sdual_h,
            "ambient dual total dim": total,
            "half ambient dual dim": total // 2}
    if numeric.passed:
        ok = add("dual-hilbert", "ok", "", **data)
    else:
        ok = add("dual-hilbert", "failed",
                 f"series product fails at degree {numeric.first_failure}",
                 **data)
    if not ok:
        return

    # koszul-spaces ----------------------------------------------------------
    dims = [koszul_component(ctx, n).dim for n in range(ctx.d + 4)]
    match = dims == [adual.graded_dim(n) for n in range(ctx.d + 4)]
    problem = "" if match else "koszul spaces disagree with the dual"
    for n in range(3, ctx.d + 4):
        try:
            check_koszul_nesting(ctx.quotient.relation_space, n, g,
                                 ctx.koszul_cache)
        except ContainmentViolated as exc:
            problem = f"C_{n} is not nested in C_{n - 1}: {exc}"
            break
    data = {"koszul dims": dims, "agrees with dual dims": match}
    if not add("koszul-spaces", "failed" if problem else "ok", problem,
               **data):
        return

    # end-algebra ------------------------------------------------------------
    end = end_algebra(ctx)
    module = end.module
    idents = dimension_identities(ctx, end)
    idents_ok = all(c.ok for c in idents)
    data = {"dim end algebra": end.solution.dim,
            "module hilbert": module.hilbert(degree),
            "endomorphism basis": [_matrix_rows(m)
                                   for m in end.basis_matrices],
            "identities": [[c.label, c.lhs, c.rhs, c.ok] for c in idents]}
    if not add("end-algebra", "ok" if idents_ok else "failed",
               "" if idents_ok else "a dimension identity failed", **data):
        return

    # verdict ----------------------------------------------------------------
    radical_dim = end.algebra.radical().dim
    isolated = radical_dim == 0
    report.verdict = isolated
    if not add("verdict", "ok", "",
               **{"radical dim": radical_dim, "isolated": isolated}):
        return

    # idempotents ------------------------------------------------------------
    idem_mats = None
    skip_reason = None
    if not isolated:
        skip_reason = "not an isolated singularity"
        proceed = add("idempotents", "skipped", skip_reason)
    else:
        try:
            idem_mats = [end.matrix(coords) for coords in
                         end.algebra.primitive_idempotents(seed=seed)]
            proceed = add("idempotents", "ok", "",
                          **{"count": len(idem_mats),
                             "idempotent matrices":
                                 [_matrix_rows(m) for m in idem_mats]})
        except NonSplit as exc:
            skip_reason = ("idempotents do not split over this field"
                           if exc.decided else
                           "idempotent splitting is undecided over this field")
            report.warnings.append(str(exc))
            proceed = add("idempotents", "warning", str(exc),
                          **{"missing factor":
                                 str(exc.factor) if exc.factor else "-",
                             "partial decomposition size": len(exc.partial)})
    if not proceed:
        return

    # mcm-classification -----------------------------------------------------
    classification = None
    if idem_mats is None:
        proceed = add("mcm-classification", "skipped", skip_reason)
    else:
        classification = classify_mcm(module, idem_mats, ctx.quotient, degree)
        summands = []
        for info in classification.summands:
            entry = {"index": info.index + 1,
                     "generators": [[str(c) for c in row]
                                    for row in info.image_basis],
                     "hilbert": list(info.hilbert),
                     "cyclic": info.cyclic.matched}
            if info.cyclic.matched:
                entry["annihilator"] = linear_string(names,
                                                     info.cyclic.element)
                entry["quotient hilbert"] = list(info.hilbert)
            else:
                entry["reason"] = info.cyclic.reason
            summands.append(entry)
        proceed = add("mcm-classification", "ok", "",
                      **{"summands": summands,
                         "hilbert additivity": classification.additivity_ok})
    if not proceed:
        return

    # syzygy-shift -----------------------------------------------------------
    if classification is None:
        proceed = add("syzygy-shift", "skipped", skip_reason)
    else:
        evidence = syzygy_shift_evidence(classification, ctx.quotient,
                                         degree)
        ev_ok = evidence.dims_ok and evidence.permutation_ok
        data = {"syzygy dims": [r[1] for r in evidence.rows],
                "module dims shifted": [r[2] for r in evidence.rows],
                "dims match": evidence.dims_ok,
                "annihilator permutation":
                    [None if p is None else p + 1
                     for p in evidence.permutation],
                "permutation ok": evidence.permutation_ok}
        if evidence.notes:
            data["notes"] = list(evidence.notes)
        proceed = add("syzygy-shift", "ok" if ev_ok else "failed",
                      "" if ev_ok else "syzygy-shift evidence failed", **data)
    if not proceed:
        return

    # preresolution ----------------------------------------------------------
    if classification is None:
        proceed = add("preresolution", "skipped", skip_reason)
    else:
        table = preresolution_table(
            [info.module for info in classification.summands],
            ctx.quotient, degree)
        shape_ok = (table.negative_ok and table.corner_zero
                    and table.diagonal_semisimple
                    and sum(table.diagonal_dims) == end.solution.dim)
        data = {"module labels": list(table.labels),
                "hom degrees": list(table.degrees),
                "hom table": [[list(cell) for cell in row]
                              for row in table.table],
                "negative degrees vanish": table.negative_ok,
                "corner homs vanish": table.corner_zero,
                "diagonal dims": list(table.diagonal_dims),
                "diagonal semisimple": table.diagonal_semisimple,
                "degree-0 algebra dim": table.algebra.dim,
                "global dimension at most 1": table.gldim_le_1}
        proceed = add("preresolution", "ok" if shape_ok else "failed",
                      "" if shape_ok else "pre-resolution shape is off",
                      **data)
    if not proceed:
        return

    # dual-crosscheck ---------------------------------------------------------
    try:
        dual_real = stable_dual_algebra(ctx)
    except NoStableCentral as exc:
        report.warnings.append(str(exc))
        add("dual-crosscheck", "warning",
            str(exc) + "; falling back to the endomorphism route only")
        return
    end_alg = end.algebra
    dual_alg = dual_real.algebra
    end_rad = end_alg.radical().dim
    dual_rad = dual_alg.radical().dim

    def quotient_blocks(alg):
        try:
            return list(alg.quotient_by_radical().block_structure(seed=seed))
        except NonSplit:
            return "unavailable over this field"

    end_blocks = quotient_blocks(end_alg)
    dual_blocks = quotient_blocks(dual_alg)
    dims_match = dual_alg.dim == end_alg.dim
    rad_match = dual_rad == end_rad
    blocks_match = (end_blocks == dual_blocks
                    if isinstance(end_blocks, list)
                    and isinstance(dual_blocks, list) else None)
    agrees = dims_match and rad_match and blocks_match is not False
    data = {"dual algebra dim": dual_alg.dim,
            "end algebra dim": end_alg.dim,
            "dims match": dims_match,
            "dual radical dim": dual_rad,
            "end radical dim": end_rad,
            "radicals match": rad_match,
            "dual blocks": dual_blocks,
            "end blocks": end_blocks,
            "blocks match": blocks_match,
            "localizing element": _dual_element_string(dual_real),
            "realization degree": 2 * dual_real.half,
            "bijectivity checked degrees": list(dual_real.checked_range)}
    add("dual-crosscheck", "ok" if agrees else "failed",
        "" if agrees else "the two constructions disagree", **data)


def _dual_element_string(dual_real):
    words = dual_real.dual.basis_words(2)
    labels = ["".join(dual_real.dual.generators[l] for l in word)
              for word in words]
    return linear_string(labels, dual_real.pi)
