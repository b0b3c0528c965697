"""Span recorder that measures the ncquadric layers from outside.

The tracer replaces public callables with timing wrappers in the namespace
their caller looks them up in (for example ``ncquadric.pipeline.end_algebra``
or the ``Matrix.rref`` method), records one span per call, and puts every
original back on exit.  The program itself is not changed.

A span is (name, start, end, parent, run id).  Spans stay in memory in
compact arrays and are written out only when asked, after the traced run.
Self time of a span is its duration minus the time covered by its child
spans, so the self times of all spans plus the time outside any span add
up to the wall time of the run.

Stage times come from a timestamp taken at each ``StageReport``
construction inside ``ncquadric.pipeline``: stage k lasts from the previous
stage report (or the start of ``run_pipeline``) to its own.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter


def _rref_probe(args, kwargs, tracer):
    mat = args[0]
    if mat._rref is not None:
        tracer.count("linalg.rref_hits")
    else:
        cells = mat.nrows * mat.ncols
        tracer.count("linalg.rref_cells_total", cells)
        tracer.maximum("linalg.rref_max_cells", cells)


def _component_probe(args, kwargs, tracer):
    if args[1] in args[0]._components:
        tracer.count("quadratic.component_hits")


def _koszul_probe(args, kwargs, tracer):
    cache = args[3] if len(args) > 3 else kwargs.get("cache")
    if cache is not None:
        tracer.count("tensors.koszul_cached_calls")
        if args[1] in cache:
            tracer.count("tensors.koszul_cache_hits")


def targets():
    """(owner, attribute, span name, probe) for every wrapped callable.

    Functions are wrapped in the module that calls them; methods are
    wrapped on their class.
    """
    from ncquadric import (cli, findim, hypersurface, linalg, modules,
                           pipeline, quadratic, tensors)
    fda = findim.FiniteDimAlgebra
    qp = quadratic.QuadraticPresentation
    gm = modules.GradedModule
    return [
        (cli, "parse_file", "presentation.parse_file", None),
        (cli, "run_pipeline", "pipeline.run_pipeline", None),
        (pipeline, "end_algebra", "hypersurface.end_algebra", None),
        (pipeline, "stable_dual_algebra",
         "hypersurface.stable_dual_algebra", None),
        (hypersurface, "koszul_space", "tensors.koszul_space",
         _koszul_probe),
        (tensors, "koszul_space", "tensors.koszul_space", _koszul_probe),
        (modules, "hom_space", "modules.hom_space", None),
        (modules, "idempotent_summand", "modules.idempotent_summand", None),
        (gm, "level", "modules.level", None),
        (gm, "mult_by_element", "modules.mult_by_element", None),
        (qp, "component", "quadratic.component", _component_probe),
        (qp, "multiply", "quadratic.multiply", None),
        (fda, "__init__", "findim.algebra_build", None),
        (fda, "radical", "findim.radical", None),
        (fda, "primitive_idempotents", "findim.primitive_idempotents", None),
        (fda, "block_structure", "findim.block_structure", None),
        (fda, "min_poly", "findim.min_poly", None),
        (linalg.Matrix, "rref", "linalg.rref", _rref_probe),
        (linalg.Matrix, "kernel", "linalg.kernel", None),
        (linalg.Subspace, "reduce", "linalg.reduce", None),
        (linalg.Subspace, "intersect", "linalg.intersect", None),
    ]


class Tracer:
    """Records spans and counters while installed; restores on exit."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.run_ids = array("i")
        self.runs = []
        self.counters = {}
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.stage_marks = []  # (run id, stage name, timestamp)
        self._stack = []       # open span indices
        self._child = []       # child time accumulated per open span
        self._saved = []
        self._run = -1

    # -- counters --------------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- runs and stages -------------------------------------------------------

    def begin_run(self, label):
        """Start a new request; spans recorded from now on carry its id."""
        self.runs.append(label)
        self._run = len(self.runs) - 1

    def _mark_stage(self, name):
        self.stage_marks.append((self._run, name, perf_counter()))

    def stage_seconds(self):
        """Seconds per stage name, summed over runs."""
        out = {}
        starts = {}
        for idx in range(len(self.starts)):
            if self.names[self.name_ids[idx]] == "pipeline.run_pipeline":
                starts[self.run_ids[idx]] = self.starts[idx]
        prev = {}
        for run, name, stamp in self.stage_marks:
            begin = prev.get(run, starts.get(run, stamp))
            out[name] = out.get(name, 0.0) + (stamp - begin)
            prev[run] = stamp
        return out

    # -- wrapping --------------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def _wrap(self, fn, name, probe):
        nid = self._name_id(name)
        starts, ends = self.starts, self.ends
        name_ids, parents, run_ids = self.name_ids, self.parents, self.run_ids
        stack, child = self._stack, self._child
        calls, total, self_time = self.calls, self.total, self.self_time
        tracer = self

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs, tracer)
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            run_ids.append(tracer._run)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + dur
                self_time[name] = self_time.get(name, 0.0) + dur - inner

        return wrapper

    def install(self):
        """Wrap every target and patch the stage-report timestamp."""
        from ncquadric import pipeline
        for owner, attr, name, probe in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, probe))
        original_report = pipeline.StageReport
        tracer = self

        def timed_report(*args, **kwargs):
            report = original_report(*args, **kwargs)
            tracer._mark_stage(report.name)
            return report

        self._saved.append((pipeline, "StageReport", original_report))
        pipeline.StageReport = timed_report

    def restore(self):
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        """Write one JSON line per span: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx in range(len(self.starts)):
                fh.write(json.dumps([
                    self.names[self.name_ids[idx]], self.starts[idx],
                    self.ends[idx], self.parents[idx],
                    self.runs[self.run_ids[idx]]
                    if self.run_ids[idx] >= 0 else None]) + "\n")
