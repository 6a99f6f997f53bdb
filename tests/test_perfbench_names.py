"""The benchmark tracer's function names resolve in the library.

perfbench/tracer.py wraps library functions by name; a renamed function
would otherwise show up only as a crash in a traced benchmark run. The
tracer module imports only the standard library, so it loads by path here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_to_library_functions():
    tracer = load_tracer()
    named = [
        (module, fname)
        for table in (tracer.TIMED, tracer.COUNTED)
        for module, names in table.items()
        for fname in names
    ]
    assert named
    for module, fname in named:
        mod = importlib.import_module(f"vrecover.{module}")
        assert callable(getattr(mod, fname, None)), f"vrecover.{module}.{fname}"
    for name in tracer.RESULT_LENGTHS:
        module, fname = name.split(".")
        assert fname in tracer.TIMED[module], name
    # the benchmark's capture patches these harness bindings by name
    harness = importlib.import_module("vrecover.harness")
    for fname in ("recover_r1", "recover_r5"):
        assert callable(getattr(harness, fname, None)), f"vrecover.harness.{fname}"
