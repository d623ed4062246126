"""The benchmark's tracer wraps ncqo functions by name; every name must still resolve."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_traced_functions_resolve():
    # Tracer.install looks each name up with getattr, so a missing one fails --trace 1
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ncqo.{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ncqo.{mod}"), fn, None))
    ]
    assert tracing.TRACED and not missing, missing
