"""Sparse recovery over a known dictionary grid, checked against brute force.

When the frequencies are known to lie on a grid of n candidate points, the
measurement map becomes an ordinary m x n sensing matrix and the task is
classical compressed sensing. recover_r2 still goes through the null-space
pipeline (no combinatorial search); here we replay its answers against the
exhaustive minimal-support solver.
"""

import numpy as np

from vrecover import (
    PhaseInstance,
    SampleSet,
    brute_force_cs,
    forward_phase,
    measurement_matrix,
    recover_r2,
)


def main():
    rng = np.random.default_rng(3)
    n, s, m = 8, 2, 6
    trials = 5

    for trial in range(trials):
        grid = rng.uniform(0.4, 1.3, size=n) * np.exp(
            2j * np.pi * rng.uniform(size=n)
        )
        support = rng.choice(n, size=s, replace=False)
        x = np.zeros(n, dtype=complex)
        x[support] = rng.normal(size=s) + 1j * rng.normal(size=s)

        z = SampleSet(rng.uniform(0.5, 1.2, size=m) * np.exp(
            2j * np.pi * rng.uniform(size=m)
        ))
        y = forward_phase(grid[support], x[support], z, n)

        x_hat = recover_r2(PhaseInstance(n, s, y, z, grid=grid))

        # the same y through the dense sensing matrix, solved by enumeration
        A = measurement_matrix(z, grid, n)
        x_bf = brute_force_cs(y, A, s)

        gap = np.max(np.abs(x_hat - x_bf))
        sup_hat = [int(i) for i in np.flatnonzero(np.abs(x_hat) > 1e-9)]
        print(
            f"trial {trial}: support {sorted(support.tolist())} -> {sup_hat}"
            f"  pipeline vs brute force max gap {gap:.2e}"
        )
        assert gap < 1e-8

    print("all trials agree with the exhaustive solver")


if __name__ == "__main__":
    main()
