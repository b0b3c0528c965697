"""ncquadric benchmark: one command, named workloads, checked reports.

Usage, from the root of a checkout::

    python3 bench/run.py --workload g4-full --seed 0 --seconds 44 --trace 0

Load is a closed loop from one process: one pipeline pass at a time, each
pass in a fresh interpreter (``bench/child.py``) that calls
``ncquadric.cli.main`` on every input of the workload, the same code path
as the ``ncquadric`` command.  Every pass gets the workload seed as the
pipeline ``--seed``.

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over fresh processes of interpreter start,
``import ncquadric`` and parsing the workload's inputs), then passes until
the next one would overrun ``--seconds``.  Each pass also times a fixed
reference computation in short bursts (``reference.py``).  ``wall_per_ref``
is the pass's wall time without the bursts in units of the burst time
around it, the median over the passes: the machine is shared, other
tenants slow it by up to a factor of 2 for whole runs, and the ratio
cancels most of that.
``peak_rss_mb`` is the median over the passes.

``--trace 1`` gives the per-layer metrics: the seeded layer probes, then
pairs of an untraced and a traced pass with the workload seed (their
reports must be identical text) while time permits.  The spans of the first
traced pass go to ``.bench_out/`` at its end.

Every report is checked against the invariants in
``bench/corpus/expected.json``, and a report must repeat byte for byte when
its input, degree and seed repeat.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

from reference import in_reference_units
from workloads import (BENCH_DIR, WORKLOADS, expected_key, load_expected,
                       mismatches)

ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 9
SETUP_CODE = ("import sys\nimport ncquadric\n"
              "for path in sys.argv[1:]:\n    ncquadric.parse_file(path)\n")

STAGES = ("qp-certificate", "centrality", "regularity", "build-quotient",
          "dual-hilbert", "koszul-spaces", "end-algebra", "verdict",
          "idempotents", "mcm-classification", "syzygy-shift",
          "preresolution", "dual-crosscheck")

END_TO_END = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

# (per-layer metric, span or counter it is read from, kind of reading)
_LAYER_SOURCES = [
    ("presentation.parse_file_s", "presentation.parse_file", "self"),
    ("tensors.koszul_space_s", "tensors.koszul_space", "self"),
    ("tensors.koszul_cache_hit_ratio",
     ("tensors.koszul_cache_hits", "tensors.koszul_cached_calls"), "ratio"),
    ("linalg.intersect_s", "linalg.intersect", "self"),
    ("modules.hom_space_calls", "modules.hom_space", "calls"),
    ("modules.hom_space_s", "modules.hom_space", "self"),
    ("modules.mult_by_element_calls", "modules.mult_by_element", "calls"),
    ("modules.mult_by_element_s", "modules.mult_by_element", "self"),
    ("modules.level_calls", "modules.level", "calls"),
    ("modules.level_s", "modules.level", "self"),
    ("modules.idempotent_summand_s", "modules.idempotent_summand", "self"),
    ("quadratic.multiply_calls", "quadratic.multiply", "calls"),
    ("quadratic.multiply_s", "quadratic.multiply", "self"),
    ("quadratic.component_calls", "quadratic.component", "calls"),
    ("quadratic.component_hit_ratio",
     ("quadratic.component_hits", "quadratic.component"), "ratio"),
    ("linalg.rref_calls", "linalg.rref", "calls"),
    ("linalg.rref_hit_ratio", ("linalg.rref_hits", "linalg.rref"), "ratio"),
    ("linalg.rref_s", "linalg.rref", "self"),
    ("linalg.rref_max_cells", "linalg.rref_max_cells", "counter"),
    ("linalg.rref_cells_total", "linalg.rref_cells_total", "counter"),
    ("linalg.reduce_calls", "linalg.reduce", "calls"),
    ("linalg.reduce_s", "linalg.reduce", "self"),
    ("linalg.kernel_calls", "linalg.kernel", "calls"),
    ("findim.primitive_idempotents_s", "findim.primitive_idempotents",
     "self"),
    ("findim.block_structure_s", "findim.block_structure", "self"),
    ("findim.radical_s", "findim.radical", "self"),
    ("findim.algebra_build_s", "findim.algebra_build", "self"),
    ("findim.min_poly_calls", "findim.min_poly", "calls"),
    ("hypersurface.end_algebra_s", "hypersurface.end_algebra", "self"),
    ("hypersurface.stable_dual_algebra_s", "hypersurface.stable_dual_algebra",
     "self"),
]
_UNITS = {"self": "s", "calls": "count", "counter": "cells", "ratio": "ratio"}
PROBES = {"fields.mul_ns.Q": "ns", "fields.mul_ns.Qi": "ns",
          "fields.mul_ns.quartic": "ns", "fields.inverse_ns.Qi": "ns",
          "linalg.rank50_s.Q": "s", "linalg.rank50_fraction_ratio": "ratio"}
PER_LAYER = {f"stage.{name}_s": "s" for name in STAGES}
PER_LAYER.update({name: _UNITS[kind] for name, _, kind in _LAYER_SOURCES})
PER_LAYER.update(PROBES)
PER_LAYER["trace_overhead_ratio"] = "ratio"
PER_LAYER["trace.stage_coverage_ratio"] = "ratio"


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Run:
    """State of one benchmark run: deadline, op counts and known reports."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = perf_counter()
        self.expected = load_expected()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reports = {}  # input -> first report text

    def remaining(self):
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def child(self, spec):
        """Run bench/child.py on a spec and return its JSON result."""
        spec = dict(spec, root=ROOT, seed=self.seed)
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            raise HarnessError(f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def run_pass(self, trace=False, spans_out=None, reference=False):
        """One pass over the workload; returns (wall, result) and checks it."""
        w = self.workload
        result = self.child({"mode": "pass", "inputs": w["inputs"],
                             "degree": w["degree"], "stage": w["stage"],
                             "trace": trace, "spans_out": spans_out,
                             "reference": reference})
        for run in result["runs"]:
            self.check(run)
        return sum(run["wall_s"] for run in result["runs"]), result

    def check(self, run):
        self.attempted += 1
        w = self.workload
        problems = []
        if run["error"]:
            problems.append(run["error"].strip().splitlines()[-1])
        elif run["exit"] != 0:
            problems.append(f"exit code {run['exit']}")
        key = expected_key(run["input"], w["degree"], w["stage"])
        problems += mismatches(run["report"], self.expected[key])
        earlier = self.reports.setdefault(run["input"], run["report"])
        if earlier != run["report"]:
            problems.append("report differs from an earlier run with the "
                            "same input, degree and seed")
        if problems:
            self.failed += 1
            self.problems += [f"{run['input']}: {p}" for p in problems]


def measure_setup(run):
    """Median seconds to start Python, import ncquadric and parse inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *run.workload["inputs"]],
            cwd=ROOT, env=run.env, capture_output=True, text=True,
            timeout=max(run.remaining(), 1.0))
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise HarnessError(f"set-up failed: {proc.stderr.strip()}")
    return median(samples)


def repeat(run, step):
    """Call step(k) for k = 0, 1, ... until the next call would overrun."""
    durations = []
    while True:
        t0 = perf_counter()
        step(len(durations))
        durations.append(perf_counter() - t0)
        longest = max(durations)
        if (perf_counter() - run.start + longest > run.seconds
                or run.remaining() < 2 * longest):
            return len(durations)


def end_to_end(run):
    setup = measure_setup(run)
    ratios, rss = [], []

    def step(k):
        _, result = run.run_pass(reference=True)
        if any(not one["bursts"] for one in result["runs"]):
            raise HarnessError("an input ran without a reference burst")
        ratios.append(sum(in_reference_units(one["wall_s"], one["bursts"])
                          for one in result["runs"]))
        rss.append(result["maxrss_kb"] / 1024.0)
        bursts = [d for one in result["runs"] for _, d in one["bursts"]]
        program = sum(one["wall_s"] for one in result["runs"]) - sum(bursts)
        print(f"pass {k}: {program:.3f} s without {len(bursts)} reference "
              f"bursts of median {median(bursts) * 1e3:.3f} ms, "
              f"ratio {ratios[-1]:.1f}")

    repeat(run, step)
    return {"wall_per_ref": median(ratios), "setup_s": setup,
            "peak_rss_mb": median(rss)}


def layer_metrics(trace):
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    out = {f"stage.{name}_s": trace["stages_s"].get(name, 0.0)
           for name in STAGES}
    for name, source, kind in _LAYER_SOURCES:
        if kind == "self":
            out[name] = self_s.get(source, 0.0)
        elif kind == "calls":
            out[name] = calls.get(source, 0)
        elif kind == "counter":
            out[name] = counters.get(source, 0)
        else:
            hits, base = source
            total = counters.get(base, calls.get(base, 0))
            out[name] = counters.get(hits, 0) / total if total else 0.0
    return out


def per_layer(run, name):
    """Probes, then untraced and traced passes in pairs while time permits.

    Every pass uses the workload seed, so counts repeat exactly.  Layer
    timings come from the fastest traced pass, and the overhead ratio is
    the fastest traced over the fastest untraced wall.  run.check fails any
    traced report that differs from the untraced one.
    """
    probes = run.child({"mode": "probes"})
    if probes["ranks"][0] != probes["ranks"][1]:
        run.problems.append(f"rank probe: Matrix.rank {probes['ranks'][0]} "
                            f"!= Fraction rank {probes['ranks'][1]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{name}-seed{run.seed}.jsonl")
    plain_walls, traced = [], []  # traced: (wall, layer metrics)

    def step(k):
        plain_walls.append(run.run_pass()[0])
        wall, result = run.run_pass(trace=True,
                                    spans_out=spans_out if k == 0 else None)
        trace = result["trace"]
        metrics = layer_metrics(trace)
        covered = (sum(trace["stages_s"].values())
                   + trace["total_s"].get("presentation.parse_file", 0.0))
        metrics["trace.stage_coverage_ratio"] = covered / wall
        traced.append((wall, metrics))

    count = repeat(run, step)
    fastest, metrics = min(traced, key=lambda t: t[0])
    metrics.update(probes["metrics"])
    metrics["trace_overhead_ratio"] = fastest / min(plain_walls)
    print(f"pairs: {count}, untraced walls: "
          + ", ".join(f"{w:.3f}" for w in plain_walls) + "; traced walls: "
          + ", ".join(f"{t[0]:.3f}" for t in traced)
          + f"; spans written to {os.path.relpath(spans_out, ROOT)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "ncquadric",
                                       "__init__.py")):
        raise HarnessError(f"no ncquadric sources under {ROOT}/src")
    for w in WORKLOADS.values():
        for path in w["inputs"]:
            if not os.path.isfile(os.path.join(ROOT, path)):
                raise HarnessError(f"missing corpus input {path}")


def main(argv=None):
    args = parse_args(argv)
    try:
        check_checkout()
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
        if args.trace:
            metrics = per_layer(run, args.workload)
            units = PER_LAYER
        else:
            metrics = end_to_end(run)
            units = END_TO_END
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"check failed: {problem}")
    for key in units:
        print(f"{key:36s} {metrics[key]:>16.6g} {units[key]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
