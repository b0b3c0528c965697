"""The traced benchmark wraps callables by owner and attribute name.

``bench/tracer.py`` looks each target up in ``owner.__dict__``, so a target
that is renamed, moved or deleted in the package breaks every traced run.
"""

import importlib.util
import pathlib

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
