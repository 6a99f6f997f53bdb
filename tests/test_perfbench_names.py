"""The benchmark tracer's function names resolve in the library, and its
wrappers see the calls that the pipelines make.

perfbench/tracer.py wraps library functions by name; a renamed function
would otherwise show up only as a crash in a traced benchmark run, and a
pipeline that reaches a stage through another name would read 0 for it. The
tracer module imports only the standard library, so it loads by path here.
"""

import importlib
import importlib.util
from pathlib import Path

from vrecover.harness import ExperimentConfig, generate_trial, run_trial

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


def test_tracer_sees_the_phaseless_builds():
    """The phaseless descents build G~ and G through the names the tracer wraps."""
    tracer = load_tracer().Tracer()
    configs = [
        dict(mode="r4", s_list=[2], n_rule="4s-1", m_rule="4s-1", sample_mode="harmonic"),
        dict(mode="r5", s_list=[2], n_rule="4s-1", m_rule="8s-3", sample_mode="arbitrary"),
    ]
    with tracer.installed():
        for raw in configs:
            config = ExperimentConfig.from_dict(dict(raw, trials=1, master_seed=5))
            run_trial(generate_trial(config, 2, 0))
    assert tracer.calls["structmat.build_Gtilde"] >= 1
    assert tracer.calls["structmat.build_G"] >= 1
