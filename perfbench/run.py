#!/usr/bin/env python3
"""vrecover benchmark: recovery throughput and time to solution, and a traced per-module run.

    python3 perfbench/run.py --workload harmonic_set --seed 1 --seconds 16 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
this file sits in. For one seed the run generates the workload's trials with
``harness.generate_trial``, recovers and scores each with ``harness.run_trial``
in ``vrecover montecarlo`` order, and checks every solved trial's output
against the stored ground truth. It prints a report, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
trials untraced and then traced, exits 1 if the two per-trial outcome
digests differ, reports the per-layer metrics, and writes the spans to
``perfbench/traces/``. ``--workload all`` runs every workload in turn, each
in its own process. See README.md for the metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# cold starts before the trials and as many after, so that setup_s is a
# median over two moments of the run
SETUP_RUNS_PER_SIDE = 6
CALIBRATION_REPEATS = 5
# BLAS threads only add noise on matrices of at most 46 columns
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=16,
                   help="sizes the trial count to about this much loop time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed <= workloads.MAX_SEED:
        p.error(f"--seed must lie in [0, {workloads.MAX_SEED}]")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int, env: dict, runs: int) -> tuple[list, list]:
    """Import and first-trial seconds from `runs` fresh interpreters."""
    imports, firsts = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(probe["import_s"])
        firsts.append(probe["first_trial_s"])
    return imports, firsts


def environment_line(np, scipy) -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ",".join(f"{k}={os.environ.get(k, '')}" for k in BLAS_ENV)
    return (
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={sys.version.split()[0]} numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('name')}-{blas.get('version')} {threads}"
    )


def print_metrics(metrics: dict):
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, *rest]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "vrecover", "__init__.py")):
        print(f"error: no vrecover sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import measure
    import vrecover

    if os.path.dirname(os.path.abspath(vrecover.__file__)) != os.path.join(SRC, "vrecover"):
        print(f"error: imported vrecover from {vrecover.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trials = workloads.trials_per_slot(args.workload, args.seconds)
    cfgs = measure.configs(args.workload, args.seed, trials)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    imports, firsts = measure_setup(args.workload, args.seed, child_env, SETUP_RUNS_PER_SIDE)

    print(environment_line(np, scipy))
    print(f"workload={args.workload} seed={args.seed} trials_per_slot={trials} "
          f"slots={workloads.slot_count(args.workload)} trace={args.trace}")
    calib = measure.calibrate(CALIBRATION_REPEATS)
    # warm caches and lazy imports on each slot's first trial, untimed
    measure.run_loop(measure.configs(args.workload, args.seed, 1))
    loop = measure.run_loop(cfgs)
    calib += measure.calibrate(CALIBRATION_REPEATS)
    more_imports, more_firsts = measure_setup(
        args.workload, args.seed, child_env, SETUP_RUNS_PER_SIDE)
    imports += more_imports
    firsts += more_firsts
    setup = [a + b for a, b in zip(imports, firsts)]
    print(f"calibration median_ms={statistics.median(calib) * 1000:.3f} "
          f"spread={measure.spread(calib):.4f} repeats={len(calib)}")
    e2e = measure.end_to_end(loop)
    e2e["setup_s"] = (statistics.median(setup), "s", len(setup))
    print(f"untraced digest={loop.digest()} attempted={loop.attempted} solved={loop.solved} "
          f"wall_s={loop.wall_s:.3f} wrong={loop.wrong} unexpected={loop.unexpected}")
    print_metrics(e2e)
    print("waited: none; one process, no queues, so no layer waits for another")
    if not args.trace:
        print(result_line(loop.wrong == 0, loop.attempted, loop.wrong + loop.unexpected, e2e))
        return 0

    from tracer import Tracer

    tracer = Tracer()
    origin = time.perf_counter()
    traced = measure.run_loop(cfgs, tracer)
    print(f"traced digest={traced.digest()} attempted={traced.attempted} "
          f"solved={traced.solved} wall_s={traced.wall_s:.3f} spans={len(tracer.spans)}")
    if traced.digest() != loop.digest():
        print("error: traced and untraced runs of one seed gave different outcomes",
              file=sys.stderr)
        return 1
    layers = measure.per_layer(tracer, traced)
    layers["setup.import_s"] = (statistics.median(imports), "s", len(imports))
    layers["setup.first_trial_ms"] = (statistics.median(firsts) * 1000.0, "ms", len(firsts))
    # equal solved counts (same digest) make the solved_per_s ratio a wall-time ratio
    layers["trace.overhead"] = (loop.wall_s / traced.wall_s, "ratio", traced.solved)
    for key, count in sorted(traced.failures.items()):
        print(f"failures {key} = {count}")
    print_metrics(layers)
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(path, origin)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    correct = loop.wrong == 0 and traced.wrong == 0
    print(result_line(correct, traced.attempted, traced.wrong + traced.unexpected, layers))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
