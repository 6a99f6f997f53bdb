"""Phaseless recovery: the full candidate set, then disambiguation.

Squared-modulus measurements cannot identify g uniquely. The pipeline
recovers theta exactly, the magnitude profile up to one positive scalar,
and every signal consistent with the data:

  * rotated-roots-of-unity samples leave a 2^(S-1) family,
  * generic circle samples leave a single conjugate pair tied together
    by an explicit dual transform.

One extra measurement row |a . V(theta) g|^2 picks the true signal out.
"""

import numpy as np

from vrecover import (
    PhaselessInstance,
    SampleSet,
    dual_transform,
    forward_phase,
    forward_phaseless,
    recover_r5,
    shifted_harmonics,
    vandermonde,
)


def draw_circle_model(rng, s, n):
    while True:
        theta = np.exp(2j * np.pi * rng.uniform(size=s))
        if s == 1 or np.min(np.abs(np.subtract.outer(theta, theta))
                            + np.eye(s)) > 0.15:
            break
    g = rng.normal(size=s) + 1j * rng.normal(size=s)
    return theta, g


def stratified_circle(rng, m):
    slots = (np.arange(m) + 0.5 + rng.uniform(-0.45, 0.45, size=m)) / m
    return SampleSet(np.exp(2j * np.pi * (slots + rng.uniform())))


def phase_gap(a, b):
    k = int(np.argmax(np.abs(b)))
    if abs(a[k]) < 1e-14 or abs(b[k]) < 1e-14:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a * (b[k] / a[k]) - b)))


def extra_row(rng, theta, g, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    row = vandermonde(theta, n).T @ a
    return (a, float(abs(row @ g) ** 2))


def main():
    rng = np.random.default_rng(11)
    s = 3
    n = 4 * s - 1

    theta, g = draw_circle_model(rng, s, n)

    # harmonic samples: a 2^(S-1) family, all with the same magnitudes
    z = shifted_harmonics(n, 4 * s - 1, gamma=1.1)
    y = forward_phaseless(theta, g, z, n)
    res = recover_r5(PhaselessInstance(n, s, y, z, extra_row=extra_row(rng, theta, g, n)))
    cands = res.candidates
    print(f"harmonic branch {res.branch}: {len(cands)} candidates (expect {2 ** (s - 1)})")
    spread = np.max(np.abs(np.abs(cands) - np.abs(cands[0])))
    print(f"  shared magnitudes, spread {spread:.2e}")
    picked = cands[res.selected]
    order = np.lexsort((np.abs(theta), np.angle(theta)))
    print(f"  extra row selected candidate {res.selected}, "
          f"error vs truth {phase_gap(picked, g[order]):.2e}")

    # generic circle samples: exactly two candidates, dual images of each other
    z = stratified_circle(rng, 8 * s - 3)
    y = forward_phaseless(theta, g, z, n)
    res = recover_r5(PhaselessInstance(n, s, y, z, extra_row=extra_row(rng, theta, g, n)))
    cands = res.candidates
    print(f"generic branch {res.branch}: {len(cands)} candidates (expect 2)")
    mapped = dual_transform(cands[0], res.theta, n)
    print(f"  dual_transform(candidate 0) vs candidate 1: {phase_gap(mapped, cands[1]):.2e}")
    picked = cands[res.selected]
    print(f"  extra row selected candidate {res.selected}, "
          f"error vs truth {phase_gap(picked, g[order]):.2e}")

    # both candidates reproduce the data exactly; that is the point
    for k, c in enumerate(cands):
        resid = np.max(np.abs(forward_phaseless(res.theta, c, z, n) - y))
        print(f"  candidate {k} forward residual {resid:.2e}")


if __name__ == "__main__":
    main()
