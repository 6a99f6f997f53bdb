"""Time a cold start: import vrecover, then generate and run a workload's first trial.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH and BLAS pinned to one thread. Prints one JSON line with
``import_s`` and ``first_trial_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

import workloads


def main(argv: list) -> int:
    workload, seed = argv[0], int(argv[1])
    raw = workloads.campaign_dicts(workload, seed, 1)[0]
    t0 = time.perf_counter()
    from vrecover import harness

    t1 = time.perf_counter()
    config = harness.ExperimentConfig.from_dict(raw)
    payload = harness.generate_trial(config, config.s_list[0], 0)
    payload["trial"] = 0
    harness.run_trial(payload)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_trial_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
