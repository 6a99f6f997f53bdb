"""Smoke test of the benchmark at a tiny trial count.

    python -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
two runs of one seed give the same outcome digest, that the traced run
agrees with the untraced one, and that the benchmark refuses to run without
the library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    """The declared benchmark command, run from `cwd` with this interpreter."""
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc, kind: str) -> str:
    return re.search(rf"^{kind} digest=(\w+)", proc.stdout, re.M).group(1)


def check_metrics(res: dict, declared: list):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    for metric in declared:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    assert set(res["metrics"]) == {m["name"] for m in declared}


def test_untraced_metrics_and_repeatable_digest():
    args = ("--workload", "phase_aware", "--seed", "3", "--seconds", "0.02", "--trace", "0")
    first, second = bench(*args), bench(*args)
    check_metrics(result(first), SPEC["end_to_end"])
    check_metrics(result(second), SPEC["end_to_end"])
    assert digest(first, "untraced") == digest(second, "untraced")
    for metric in SPEC["end_to_end"]:
        assert re.search(rf"^metric {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])} "
                         rf"\(n=\d+\)$", first.stdout, re.M)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_matches_untraced(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.02", "--trace", "1")
    check_metrics(result(proc), SPEC["per_layer"])
    assert digest(proc, "traced") == digest(proc, "untraced")


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = bench("--workload", "phase_aware", "--seed", "1", "--seconds", "0.02", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
