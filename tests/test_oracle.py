"""Forward models and the brute-force baselines that certify the solvers."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vrecover import oracle
from vrecover.cpoly import forward_polys, laurent_eval, laurent_from_products
from vrecover.errors import (
    InvalidInputError,
    ModelMismatchError,
    NonIdentifiableError,
    NumericalFailureError,
    ResolutionError,
)
from vrecover.oracle import (
    _phaseless_magnitudes,
    brute_force_cs,
    brute_force_phaseless_candidates,
    draw_g,
    draw_theta_circle,
    draw_theta_dft,
    draw_theta_disk,
    forward_phase,
    forward_phase_matrix,
    forward_phase_rational,
    forward_phaseless,
)
from vrecover.structmat import measurement_matrix, shifted_harmonics, vandermonde

from test_recover_phase import _count_svds


def disk_points(rng, m):
    return rng.uniform(0.5, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))


def test_forward_phase_frozen():
    assert np.allclose(forward_phase([2.0], [3.0], [1.0], 2), [9.0])
    assert np.allclose(forward_phase([2.0], [0.0], [1.0, 0.5], 2), [0.0, 0.0])
    # ratio z*theta = 1 hits the singular branch of the rational form
    for g0 in (1.0, 2.5 - 1j):
        assert np.allclose(forward_phase([1.0], [g0], [1.0], 3), [3 * g0])


def test_forward_phase_route_agreement():
    rng = np.random.default_rng(211)
    for _ in range(100):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(2 * s, 2 * s + 6))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        m = int(rng.integers(2 * s, 3 * s + 3))
        z = rng.uniform(0.5, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        a = forward_phase_matrix(theta, g, z, n)
        b = forward_phase_rational(theta, g, z, n)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-10 * scale


def test_forward_phaseless_nonnegative_and_phase_blind():
    rng = np.random.default_rng(223)
    for _ in range(30):
        s = int(rng.integers(1, 4))
        n = 4 * s - 1
        theta = draw_theta_circle(rng, s)
        g = draw_g(rng, s)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 8 * s - 3))
        y = forward_phaseless(theta, g, z, n)
        assert np.all(y >= 0)
        alpha = rng.uniform(0, 2 * np.pi)
        y_rot = forward_phaseless(theta, np.exp(1j * alpha) * g, z, n)
        assert np.max(np.abs(y - y_rot)) <= 1e-10 * max(1.0, float(np.max(y)))


def test_forward_phaseless_rejects_off_circle():
    with pytest.raises(InvalidInputError):
        forward_phaseless([0.5], [1.0], [1.0], 3)
    with pytest.raises(InvalidInputError):
        forward_phaseless([1j], [1.0], [0.5], 3)


def test_forward_models_reject_non_finite_input():
    theta, g, z = [1j, -1.0], [1.0, 0.5j], [1.0, 1j, -1.0]
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        for which in range(3):
            args = [np.array(a, dtype=complex) for a in (theta, g, z)]
            args[which][1] = bad
            for forward in (forward_phase, forward_phaseless):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InvalidInputError, match="finite"):
                        forward(*args, 4)


def test_forward_phaseless_laurent_cross_check():
    """The embedded Laurent-ratio check stays quiet on valid instances."""
    rng = np.random.default_rng(227)
    for _ in range(100):
        s = int(rng.integers(1, 4))
        n = 4 * s - 1
        theta = draw_theta_circle(rng, s)
        g = draw_g(rng, s)
        if rng.uniform() < 0.5:
            gamma = rng.uniform(0.1, 2 * np.pi - 0.1)
            z = shifted_harmonics(n, n, gamma).z
        else:
            z = np.exp(1j * rng.uniform(0, 2 * np.pi, 8 * s - 3))
        forward_phaseless(theta, g, z, n)


def _first_laurent_failure(theta, g, z, n, scale_tilde):
    """Sample index where the Laurent-ratio check fails, one Horner per sample.

    Mirrors the per-sample form of the check: each value comes from a scalar
    `laurent_eval` call, with `L_tilde` scaled by `scale_tilde`.
    """
    y = np.abs(forward_phase_matrix(theta, g, z, n)) ** 2
    L, L_tilde, L_hat = laurent_from_products(*forward_polys(theta, g, n))
    L_tilde = L_tilde * scale_tilde
    scale = max(1.0, float(np.max(y)))
    denom = [laurent_eval(L_hat, p) for p in z]
    denom_scale = max(abs(d) for d in denom)
    for j, point in enumerate(z):
        amp = denom_scale / max(abs(denom[j]), 1e-300)
        if amp > 1e8:
            continue
        cross = laurent_eval(L_tilde, point)
        ratio = (laurent_eval(L, point) + point**n * cross
                 + point ** (-n) * np.conj(cross)) / denom[j]
        if abs(ratio - y[j]) > 1e-10 * scale * max(1.0, amp):
            return j
    return None


def test_forward_phaseless_cross_check_fires_at_the_first_bad_sample(monkeypatch):
    """A perturbed Laurent form is caught at the sample a scalar loop names."""
    rng = np.random.default_rng(233)
    for scale_tilde in (1 + 1e-6, 1 + 1e-8):
        def perturbed(u_hat, u_tilde, v, scale_tilde=scale_tilde):
            L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
            return L, L_tilde * scale_tilde, L_hat

        monkeypatch.setattr(oracle, "laurent_from_products", perturbed)
        seen = set()
        for _ in range(30):
            s = int(rng.integers(1, 5))
            n = 4 * s - 1
            theta = draw_theta_circle(rng, s)
            g = draw_g(rng, s)
            z = np.exp(1j * rng.uniform(0, 2 * np.pi, 8 * s - 3))
            expect = _first_laurent_failure(theta, g, z, n, scale_tilde)
            if expect is None:
                forward_phaseless(theta, g, z, n)
                seen.add("quiet")
            else:
                with pytest.raises(NumericalFailureError,
                                   match=rf"^Laurent form disagrees at sample {expect}: "):
                    forward_phaseless(theta, g, z, n)
                seen.add("first" if expect == 0 else "later")
        if scale_tilde == 1 + 1e-6:
            assert "first" in seen
        else:
            assert seen == {"quiet", "first", "later"}


def test_forward_phaseless_skips_a_sample_on_a_pole():
    """A sample exactly on a pole of |v|^2 is skipped, without a warning."""
    rng = np.random.default_rng(239)
    cases = [(np.array([1.0 + 0j]), np.array([2.0 + 0j]))]
    for s in (2, 3):
        cases.append((draw_theta_circle(rng, s), draw_g(rng, s)))
    for theta, g in cases:
        s = len(theta)
        n = 4 * s - 1
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 8 * s - 3))
        z[1] = np.conj(theta[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = forward_phaseless(theta, g, z, n)
        assert np.array_equal(y, np.abs(forward_phase_matrix(theta, g, z, n)) ** 2)
    # the single pole at z = 1 makes |v(1)|^2 vanish exactly
    _, _, L_hat = laurent_from_products(*forward_polys([1.0], [2.0], 3))
    assert laurent_eval(L_hat, 1.0) == 0


def test_forward_phase_rational_near_one():
    """Samples at and around w = z*theta = 1 take the direct geometric sum."""
    rng = np.random.default_rng(241)
    for _ in range(20):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(2 * s, 2 * s + 6))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        offsets = np.array([0.0, 1e-9, 1e-6, 5e-4, 9.99e-4, 1.001e-3, 2e-3])
        w = 1.0 + offsets * np.exp(1j * rng.uniform(0, 2 * np.pi, len(offsets)))
        l = int(rng.integers(s))
        z = np.concatenate([w / theta[l], disk_points(rng, 4)])
        a = forward_phase_matrix(theta, g, z, n)
        b = forward_phase_rational(theta, g, z, n)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, float(np.max(np.abs(a))))


def test_draws_respect_constraints():
    rng = np.random.default_rng(233)
    for s in (1, 2, 3):
        th = draw_theta_disk(rng, s)
        assert np.all(np.abs(th) >= 0.5 - 1e-12) and np.all(np.abs(th) <= 2 + 1e-12)
        tc = draw_theta_circle(rng, s)
        assert np.max(np.abs(np.abs(tc) - 1)) <= 1e-12
        td = draw_theta_dft(rng, 11, s)
        assert np.max(np.abs(td**11 - 1.0)) <= 1e-10
        assert len(set(np.round(np.angle(td), 12))) == s
        g = draw_g(rng, s)
        assert np.all(np.abs(g) >= 0.1)


def _scalar_redraw(draw_one, values, min_dist):
    """The one-pair-at-a-time redraw loop, the reference for `_redraw_duplicates`."""
    for _ in range(1000):
        collided = False
        for i in range(len(values)):
            for j in range(i):
                if abs(values[i] - values[j]) < min_dist:
                    values[i] = draw_one()
                    collided = True
        if not collided:
            return np.array(values)
    raise AssertionError("no distinct draw")


def _scalar_draws(rng, kind, k, min_dist=1e-9):
    """Draw k points one scalar rng.uniform call at a time, as the reference."""
    def one():
        if kind == "disk":
            radius = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
            return radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if kind == "circle":
            return np.exp(1j * rng.uniform(0, 2 * np.pi))
        return rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    return _scalar_redraw(one, [one() for _ in range(k)], min_dist)


def test_array_draws_equal_scalar_draws_bit_for_bit():
    from vrecover.harness import _draw_disk_samples

    draws = {
        "disk": draw_theta_disk,
        "circle": draw_theta_circle,
        "samples": lambda rng, k: _draw_disk_samples(rng, k).z,
    }
    for seed in range(300):
        for kind, draw in draws.items():
            for k in (1, 2, 6, 18, 45):
                got = draw(np.random.default_rng(seed), k)
                want = _scalar_draws(np.random.default_rng(seed), kind, k)
                assert got.tobytes() == want.tobytes(), (seed, kind, k)


def test_redraw_duplicates_matches_the_scalar_loop_on_collisions():
    # a separation of 0.3 makes the redraw loop run on most of these draws
    redrawn = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        one = lambda: np.exp(1j * rng.uniform(0, 2 * np.pi))
        values = oracle._uniform_columns(rng, 6, (0, 2 * np.pi))[:, 0]
        values = np.exp(1j * values)
        got = oracle._redraw_duplicates(rng, one, values.copy(), 0.3)
        rng = np.random.default_rng(seed)
        want = _scalar_draws(rng, "circle", 6, 0.3)
        assert got.tobytes() == want.tobytes(), seed
        redrawn += not np.array_equal(got, values)
    assert redrawn >= 100


def test_brute_force_cs_worked_instance():
    grid = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = np.array([1.0, 1j, 0.7 * np.exp(0.9j)])
    y = forward_phase([2.0], [3.0], z, 4)
    A = vandermonde(z, 4).T @ vandermonde(grid, 4)
    x = brute_force_cs(y, A, 1)
    assert np.allclose(x, [0, 3.0, 0, 0], atol=1e-8)


def test_brute_force_cs_zero():
    A = np.eye(3, dtype=complex)
    assert np.allclose(brute_force_cs(np.zeros(3), A, 1), np.zeros(3))


def test_brute_force_cs_flags_collisions():
    # one measurement row cannot identify a 1-sparse signal out of two
    # nonzero columns
    A = np.array([[1.0, 2.0]])
    with pytest.raises(NonIdentifiableError):
        brute_force_cs(np.array([2.0]), A, 1)


def test_brute_force_cs_flags_model_mismatch():
    rng = np.random.default_rng(239)
    A = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    with pytest.raises(ModelMismatchError):
        brute_force_cs(y, A, 1)


def test_brute_force_cs_random_instances():
    rng = np.random.default_rng(241)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        s = int(rng.integers(1, 3))
        grid = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        support = rng.choice(n, s, replace=False)
        x = np.zeros(n, dtype=complex)
        x[support] = draw_g(rng, s)
        m = 3 * s + 1
        z = rng.uniform(0.5, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        A = vandermonde(z, n).T @ vandermonde(grid, n)
        got = brute_force_cs(A @ x, A, s)
        assert np.max(np.abs(got - x)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def phase_aligned_gap(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    k = int(np.argmax(np.abs(b)))
    rot = b[k] / a[k]
    rot = rot / abs(rot)
    return float(np.max(np.abs(a * rot - b)))


def test_phaseless_oracle_singleton():
    rng = np.random.default_rng(251)
    theta = draw_theta_circle(rng, 1)
    g = draw_g(rng, 1)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    y = forward_phaseless(theta, g, z, 3)
    sols = brute_force_phaseless_candidates(y, theta, z, 3)
    assert len(sols) == 1
    assert phase_aligned_gap(sols[0], g) <= 1e-6


def test_phaseless_oracle_pair_counts():
    """Two solutions for S=2, whether or not the support powers collide."""
    rng = np.random.default_rng(257)
    n = 7
    for trial in range(6):
        if trial % 2 == 0:
            theta = draw_theta_circle(rng, 2)
        else:
            theta = draw_theta_dft(rng, n, 2)  # theta_k^n all equal
        g = draw_g(rng, 2)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 13))
        y = forward_phaseless(theta, g, z, n)
        sols = brute_force_phaseless_candidates(y, theta, z, n)
        assert len(sols) == 2
        assert min(phase_aligned_gap(s, g) for s in sols) <= 1e-6


def test_phaseless_oracle_rejects_an_incomplete_set(monkeypatch):
    """A search that reaches only some of the solutions raises and names the count.

    With two Gauss-Newton steps per seed, one seed of this S=3 instance
    meets the residual gate, where a complete set holds 2 or 4 solutions.
    """
    rng = np.random.default_rng(277)
    theta, g = draw_theta_circle(rng, 3), draw_g(rng, 3)
    z = shifted_harmonics(11, 11, 0.9).z
    y = forward_phaseless(theta, g, z, 11)
    assert len(brute_force_phaseless_candidates(y, theta, z, 11)) == 4
    monkeypatch.setattr(oracle, "_GN_STEPS", 2)
    with pytest.raises(ResolutionError, match=r"^1 solutions found, neither 2 nor 2\^\(S-1\) = 4:"):
        brute_force_phaseless_candidates(y, theta, z, 11)


def test_phaseless_oracle_reports_a_y_that_no_g_fits():
    """No solution at all is a model mismatch at S >= 2, as at S = 1."""
    rng = np.random.default_rng(277)
    theta, g = draw_theta_circle(rng, 3), draw_g(rng, 3)
    z = shifted_harmonics(11, 11, 0.9).z
    y = forward_phaseless(theta, g, z, 11)
    y[0] *= 3
    with pytest.raises(ModelMismatchError, match="^no phase seed fits the measurements$"):
        brute_force_phaseless_candidates(y, theta, z, 11)


def test_brute_force_cs_rejects_bad_input():
    A = np.eye(3, dtype=complex)
    for y in ([1.0, np.nan, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(InvalidInputError, match="^measurements must be finite$"):
            brute_force_cs(y, A, 1)
    with pytest.raises(InvalidInputError, match="^measurements must be a flat list"):
        brute_force_cs(np.ones((3, 1)), A, 1)
    with pytest.raises(InvalidInputError, match="^A must be a finite matrix$"):
        brute_force_cs(np.ones(3), np.where(np.eye(3) > 0, np.nan, 0.0), 1)
    with pytest.raises(InvalidInputError, match="^measurement length mismatch$"):
        brute_force_cs(np.ones(2), A, 1)


def test_phaseless_oracle_rejects_bad_input(capfd):
    """Garbage in raises InvalidInputError: no empty solution set for a
    non-finite y, no LAPACK error or message for a NaN theta or a short y."""
    rng = np.random.default_rng(263)
    n = 7
    theta, g = draw_theta_circle(rng, 2), draw_g(rng, 2)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 13))
    y = forward_phaseless(theta, g, z, n)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="^measurements must be finite$"):
            brute_force_phaseless_candidates(np.where(np.arange(13) == 4, bad, y), theta, z, n)
    with pytest.raises(InvalidInputError, match="^theta must be finite$"):
        brute_force_phaseless_candidates(y, [theta[0], np.nan], z, n)
    with pytest.raises(InvalidInputError, match="^sample points must be finite$"):
        brute_force_phaseless_candidates(y, theta, np.where(np.arange(13) == 0, np.nan, z), n)
    with pytest.raises(InvalidInputError, match="^measurement length mismatch$"):
        brute_force_phaseless_candidates(y[:-1], theta, z, n)
    with pytest.raises(InvalidInputError, match="^measurements must be a flat list"):
        brute_force_phaseless_candidates(y[:, None], theta, z, n)
    assert capfd.readouterr().err == ""


def test_phaseless_magnitudes_take_one_factorisation(monkeypatch):
    """One SVD serves the null-space check and the solve, with lstsq's cutoff."""
    rng = np.random.default_rng(269)
    theta, g = draw_theta_circle(rng, 3), draw_g(rng, 3)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 21))
    y = forward_phaseless(theta, g, z, 11)
    rows = measurement_matrix(z, theta, 11)
    calls = _count_svds(monkeypatch)
    mags = _phaseless_magnitudes(y, rows)
    assert calls == ["svd"]
    assert np.max(np.abs(mags - np.abs(g) ** 2)) <= 1e-9 * np.max(np.abs(g) ** 2)


def test_oracle_runs_without_scipy():
    """The phaseless oracle needs numpy alone: with every scipy import made to
    fail it still finds the two candidates of a general S=2 instance and the
    four of an S=3 shifted-harmonic one, the truth among them."""
    script = """
import sys
sys.modules["scipy"] = None
import numpy as np
from vrecover.oracle import (brute_force_phaseless_candidates, draw_g, draw_theta_circle,
                             forward_phaseless)
from vrecover.structmat import shifted_harmonics
rng = np.random.default_rng(271)
cases = [(2, 7, np.exp(1j * rng.uniform(0, 2 * np.pi, 13))),
         (3, 11, shifted_harmonics(11, 11, 0.9).z)]
for S, n, z in cases:
    theta, g = draw_theta_circle(rng, S), draw_g(rng, S)
    sols = brute_force_phaseless_candidates(forward_phaseless(theta, g, z, n), theta, z, n)
    gaps = []
    for sol in sols:
        rot = g[0] / sol[0]
        gaps.append(np.max(np.abs(sol * rot / abs(rot) - g)))
    print(len(sols), min(gaps) <= 1e-6)
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.split() == ["2", "True", "4", "True"]
