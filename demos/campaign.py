"""A small deterministic Monte Carlo campaign, end to end.

Builds a config in memory, runs every trial through the generator and the
matching recovery pipeline, and writes the same CSV the command line
`vrecover montecarlo` produces into a fresh temporary directory, whose path
it prints. Rerunning with the same master seed gives identical trials; only
the runtime column moves.
"""

import tempfile
from pathlib import Path

from vrecover.harness import ExperimentConfig, derive_seed, run_campaign, write_csv


def main():
    config = ExperimentConfig.from_dict({
        "mode": "r5",
        "s_list": [2, 3],
        "n_rule": "4s-1",
        "m_rule": "8s-3",
        "trials": 25,
        "master_seed": 20260817,
        "sample_mode": "arbitrary",
        "gamma": 1.0,
    })

    records, summaries = run_campaign(config)
    out = Path(tempfile.mkdtemp(prefix="vrecover-campaign-")) / "campaign_r5.csv"
    write_csv(out, records, summaries)

    for row in summaries:
        print(
            f"s={row.s}: success rate {row.success:.3f} over {config.trials} trials,"
            f" p95 theta err {row.theta_err:.2e}, p95 g err {row.g_err:.2e}"
        )
    print(f"wrote {out} ({len(records)} trial rows + {len(summaries)} summary rows)")

    # any single trial can be replayed without the campaign
    print(f"trial 7 seed: {derive_seed(config.master_seed, 7)}")


if __name__ == "__main__":
    main()
