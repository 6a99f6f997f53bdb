"""Phase-aware recovery from the minimum number of measurements.

Draws an s-sparse model (theta in the unit disk, complex weights g),
measures it at m = 2s rotated roots of unity and again at m = 3s generic
disk points, and recovers (theta, g) exactly from each set.
"""

import numpy as np

from vrecover import (
    PhaseInstance,
    SampleSet,
    forward_phase,
    recover_r1,
    shifted_harmonics,
)


def draw_model(rng, n, s):
    radius = rng.uniform(0.35, 1.4, size=s)
    angle = rng.uniform(0.0, 2 * np.pi, size=s)
    theta = radius * np.exp(1j * angle)
    g = rng.normal(size=s) + 1j * rng.normal(size=s)
    return theta, g


def report(label, theta, g, res):
    order_true = np.lexsort((np.abs(theta), np.angle(theta)))
    t_err = np.max(np.abs(res.theta - theta[order_true]))
    g_err = np.max(np.abs(res.g - g[order_true]))
    print(f"{label}: S={res.S}  max|theta err|={t_err:.2e}  max|g err|={g_err:.2e}")


def main():
    rng = np.random.default_rng(42)
    n, s = 9, 3
    theta, g = draw_model(rng, n, s)
    print(f"model: n={n}, s={s}")
    for k in range(s):
        print(f"  theta_{k} = {theta[k]:.4f}   g_{k} = {g[k]:.4f}")

    # 2s rotated nth roots of unity, the cheapest admissible sample set
    z_harm = shifted_harmonics(n, 2 * s, gamma=0.9)
    y = forward_phase(theta, g, z_harm, n)
    res = recover_r1(PhaseInstance(n, s, y, z_harm))
    report(f"harmonic m={2 * s}", theta, g, res)

    # generic disk points need 3s of them
    z_arb = SampleSet(0.95 * np.exp(2j * np.pi * rng.uniform(size=3 * s)))
    y = forward_phase(theta, g, z_arb, n)
    res = recover_r1(PhaseInstance(n, s, y, z_arb))
    report(f"arbitrary m={3 * s}", theta, g, res)

    # the declared sparsity is only an upper bound; the pipeline finds S itself
    z_wide = shifted_harmonics(n, 2 * (s + 1), gamma=0.9)
    y = forward_phase(theta, g, z_wide, n)
    res = recover_r1(PhaseInstance(n, s + 1, y, z_wide))
    report(f"s_max={s + 1} bound ", theta, g, res)


if __name__ == "__main__":
    main()
