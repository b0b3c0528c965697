"""One benchmark pass in a fresh interpreter.

Usage: ``python3 bench/child.py '<json spec>'``.  The spec names the mode:

* ``pass``: run ``ncquadric.cli.main`` on each input of a workload, in
  order, with the given degree, stage and seed, optionally under the tracer
  or with the timed reference bursts of ``reference.py``;
* ``probes``: time the field and elimination layer probes.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _check_package(root):
    import ncquadric
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(ncquadric.__file__).startswith(src + os.sep):
        raise SystemExit(f"ncquadric imported from {ncquadric.__file__}, "
                         f"not from {src}")


def run_pass(spec):
    from ncquadric import cli
    tracer = bursts = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    elif spec.get("reference"):
        from reference import ReferenceBursts
        bursts = ReferenceBursts()
    runs = []
    with tracer or bursts or contextlib.nullcontext():
        for path in spec["inputs"]:
            argv = [path, "--degree", str(spec["degree"]),
                    "--seed", str(spec["seed"])]
            if spec["stage"]:
                argv += ["--stage", spec["stage"]]
            if tracer is not None:
                tracer.begin_run(os.path.basename(path))
            out = io.StringIO()
            error = ""
            first_burst = len(bursts.bursts) if bursts else 0
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:
                code = None
                error = traceback.format_exc()
            wall = perf_counter() - t0
            run = {"input": path, "exit": code, "wall_s": wall,
                   "report": out.getvalue(), "error": error}
            if bursts is not None:
                run["bursts"] = [(start - t0, duration) for start, duration
                                 in bursts.bursts[first_burst:]]
            runs.append(run)
    result = {"runs": runs,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = {
            "calls": tracer.calls, "self_s": tracer.self_time,
            "total_s": tracer.total, "counters": tracer.counters,
            "stages_s": tracer.stage_seconds()}
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    return result


def main():
    spec = json.loads(sys.argv[1])
    _check_package(spec["root"])
    if spec["mode"] == "pass":
        result = run_pass(spec)
    else:
        from probes import run_probes
        result = run_probes(spec["seed"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
