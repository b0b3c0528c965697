"""The traced benchmark wraps callables by owner and attribute name.

``bench/tracer.py`` looks each target up in ``owner.__dict__``, so a target
that is renamed, moved or deleted in the package breaks every traced run.
"""

import importlib.util
import pathlib

from conftest import ROOT

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_defined_on_its_owner():
    targets = load_tracer().targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


def traced_calls(capsys, *argv):
    """Span counts of one traced CLI run, by span name."""
    from ncquadric import cli

    with load_tracer().Tracer() as tracer:
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    return tracer.calls


def test_the_end_algebra_hom_call_is_traced(capsys):
    calls = traced_calls(capsys, str(ROOT / "inputs" / "quadric3.pres"),
                         "--degree", "4", "--stage", "end-algebra")
    assert calls["modules.hom_space"] == 1


def test_a_full_run_reaches_every_traced_target(capsys):
    calls = traced_calls(capsys, str(ROOT / "inputs" / "quadric3.pres"),
                         "--degree", "4")
    names = {name for _, _, name, _ in load_tracer().targets()}
    # intersect, reduce and mult_by_element have no caller in the package;
    # quadratic.multiply runs only for powers of the dual's central element,
    # which a three-generator input (half = 1) does not take
    assert names - set(calls) == {"linalg.intersect", "linalg.reduce",
                                  "modules.mult_by_element",
                                  "quadratic.multiply"}


class StubTracer:
    def __init__(self):
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)


def test_probes_read_live_objects(golden_ctx):
    """Each probe runs on the objects the traced call receives, so an
    attribute it reads that the package renamed fails here."""
    from ncquadric import Field, Matrix, QuadraticPresentation
    from ncquadric.tensors import koszul_space

    tracer = load_tracer()
    stub = StubTracer()
    field = Field.rationals()
    mat = Matrix(field, [[1, 2, 0], [0, 0, 3]])
    tracer._rref_probe((mat,), {}, stub)
    assert stub.counters == {"linalg.rref_cells_total": 6,
                             "linalg.rref_max_cells": 6}
    mat.rref()
    tracer._rref_probe((mat,), {}, stub)
    assert stub.counters["linalg.rref_hits"] == 1

    algebra = golden_ctx.quotient
    assert isinstance(algebra, QuadraticPresentation)
    tracer._component_probe((algebra, 2), {}, stub)
    assert stub.counters["quadratic.component_hits"] == 1

    rel = algebra.relation_space
    cache = golden_ctx.koszul_cache
    koszul_space(rel, 3, algebra.gdim, cache)
    tracer._koszul_probe((rel, 3, algebra.gdim, cache), {}, stub)
    tracer._koszul_probe((rel, 3, algebra.gdim), {"cache": cache}, stub)
    assert stub.counters["tensors.koszul_cached_calls"] == 2
    assert stub.counters["tensors.koszul_cache_hits"] == 2
