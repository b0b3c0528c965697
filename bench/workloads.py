"""Benchmark workloads and the invariants each report must show.

A workload is a list of corpus inputs run in order through
``ncquadric.cli.main`` at one degree, optionally stopping after a stage.
Every report is checked against invariants stored in
``bench/corpus/expected.json`` (verdict, dim End, radical dim, number of
summands, dual-crosscheck status and exit code), not against byte goldens,
so a later change that rewords a report does not fail the benchmark.
"""

from __future__ import annotations

import json
import os
import re

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(BENCH_DIR, "corpus")

WORKLOADS = {
    "g4-full": {
        "inputs": ["bench/corpus/skew4.pres"],
        "degree": 6,
        "stage": None,
        "why": "4 anticommuting generators over Q(i) through all 13 stages: "
               "the frontier input, and the only one where every layer "
               "does real work",
    },
    "verdict": {
        "inputs": ["bench/corpus/comm4.pres", "bench/corpus/skew4q.pres"],
        "degree": 6,
        "stage": "verdict",
        "why": "4-generator commutative (Q(i)) and skew (Q) quadrics up to "
               "the verdict: Koszul spaces and rref dominate, Hom is never "
               "called",
    },
    "g3-deep": {
        "inputs": ["inputs/quadric3.pres", "bench/corpus/skew3.pres"],
        "degree": 12,
        "stage": None,
        "why": "3-generator quadrics over Q(i) and Q[t]/(t^2+1) at degree "
               "12: graded multiplication and many small Hom calls, little "
               "Koszul work",
    },
}

# Keys of expected.json are "<file name>@<degree>/<stage or full>".
INVARIANT_KEYS = ("exit code", "verdict", "dim end algebra", "radical dim",
                  "summands", "dual-crosscheck")


def expected_key(path, degree, stage):
    return f"{os.path.basename(path)}@{degree}/{stage or 'full'}"


def load_expected():
    with open(os.path.join(CORPUS, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


_STAGE_HEAD = re.compile(r"^\[([a-z-]+)\] (\w+)")
_FIELD = re.compile(r"^  ([a-z -]+): (.*)$")


def invariants(report):
    """The checked invariants of one text report; missing ones are None."""
    out = dict.fromkeys(INVARIANT_KEYS)
    stage = None
    for line in report.splitlines():
        head = _STAGE_HEAD.match(line)
        if head:
            stage = head.group(1)
            if stage == "dual-crosscheck":
                out["dual-crosscheck"] = head.group(2)
            continue
        field = _FIELD.match(line)
        if field:
            key, value = field.groups()
            if stage == "end-algebra" and key == "dim end algebra":
                out[key] = int(value)
            elif stage == "verdict" and key == "radical dim":
                out[key] = int(value)
            elif stage == "idempotents" and key == "count":
                out["summands"] = int(value)
            continue
        stage = None
        if line.startswith("verdict: "):
            out["verdict"] = line[len("verdict: "):]
        elif line.startswith("exit code: "):
            out["exit code"] = int(line[len("exit code: "):])
    return out


def mismatches(report, expected):
    """Descriptions of every invariant that differs from the expectation."""
    got = invariants(report)
    return [f"{key}: expected {expected.get(key)!r}, got {got[key]!r}"
            for key in INVARIANT_KEYS if got[key] != expected.get(key)]
