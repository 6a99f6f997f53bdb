"""Phase-aware recovery: the descending null-space search and grid decoding."""

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from vrecover import recover_phase
from vrecover.config import Tolerances
from vrecover.cpoly import Poly, poly_eval, t_polynomial
from vrecover.errors import (
    AmbiguousSupportError,
    DegenerateSupportError,
    GridCollisionError,
    InvalidInputError,
    RecoveryFailureError,
)
from vrecover.oracle import brute_force_cs, draw_g, draw_theta_disk, forward_phase
from vrecover.recover_phase import (
    PhaseInstance,
    _descend,
    _snap_to_grid,
    recover_g,
    recover_r1,
    recover_r2,
)
from vrecover.structmat import (
    SampleSet,
    build_A,
    build_B,
    pinv_solve,
    shifted_harmonics,
    vandermonde,
)


def circle_points(rng, m):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, m))


def disk_points(rng, m):
    return rng.uniform(0.5, 1.0, m) * circle_points(rng, m)


def test_worked_singleton_harmonic():
    z = shifted_harmonics(2, 2, 0.0)
    inst = PhaseInstance(2, 1, [9.0, -3.0], z)
    res = recover_r1(inst)
    assert res.S == 1
    assert np.allclose(res.theta, [2.0], atol=1e-9)
    assert np.allclose(res.g, [3.0], atol=1e-9)


def test_worked_singleton_rotation_collision():
    """theta^n equal to the sample rotation still recovers via least squares."""
    z = shifted_harmonics(2, 2, 0.0)
    y = forward_phase([1.0], [1.0], z.array(), 2)
    res = recover_r1(PhaseInstance(2, 1, y, z))
    assert np.allclose(res.theta, [1.0], atol=1e-9)
    assert np.allclose(res.g, [1.0], atol=1e-9)


def test_sparsity_overestimate_shrinks():
    z = shifted_harmonics(4, 4, 0.0)
    y = forward_phase([2.0], [3.0], z.array(), 4)
    res = recover_r1(PhaseInstance(4, 2, y, z))
    assert res.S == 1
    assert np.allclose(res.theta, [2.0], atol=1e-8)
    assert np.allclose(res.g, [3.0], atol=1e-8)


def test_recover_r1_harmonic_random():
    rng = np.random.default_rng(311)
    for _ in range(25):
        s = int(rng.integers(1, 5))
        n = 2 * s
        gamma = float(rng.uniform(0, 2 * np.pi))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phase(theta, g, z.array(), n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        assert res.S == s
        assert np.max(np.abs(np.array(res.theta) - theta[order])) <= 1e-6
        assert np.max(np.abs(np.array(res.g) - g[order])) <= 1e-6 * max(
            1.0, float(np.max(np.abs(g)))
        )


def test_recover_r1_arbitrary_samples():
    rng = np.random.default_rng(313)
    for _ in range(25):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(2 * s, 4 * s + 1))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        z = SampleSet(tuple(disk_points(rng, 3 * s)))
        y = forward_phase(theta, g, z.array(), n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        assert np.max(np.abs(np.array(res.theta) - theta[order])) <= 1e-6
        assert np.max(np.abs(np.array(res.g) - g[order])) <= 1e-6 * max(
            1.0, float(np.max(np.abs(g)))
        )


def test_recover_r1_zero_measurements():
    z = shifted_harmonics(4, 4, 0.0)
    res = recover_r1(PhaseInstance(4, 2, np.zeros(4), z))
    assert res.S == 0 and len(res.theta) == 0


def test_recover_r1_scaling_equivariance():
    rng = np.random.default_rng(317)
    s, n = 2, 4
    theta = draw_theta_disk(rng, s)
    g = draw_g(rng, s)
    z = shifted_harmonics(n, n, 0.8)
    y = forward_phase(theta, g, z.array(), n)
    base = recover_r1(PhaseInstance(n, s, y, z))
    for c in (3.0, 2.0 * np.exp(1j * np.pi / 7), 0.05 - 0.4j):
        scaled = recover_r1(PhaseInstance(n, s, c * y, z))
        assert np.max(np.abs(np.array(scaled.theta) - np.array(base.theta))) <= 1e-10
        assert np.max(np.abs(np.array(scaled.g) - c * np.array(base.g))) <= 1e-8 * abs(c)


def test_lower_bounds_rejected_before_compute():
    z = shifted_harmonics(4, 3, 0.0)
    with pytest.raises(InvalidInputError):
        PhaseInstance(3, 2, np.ones(3), z)  # n = 2s-1
    with pytest.raises(InvalidInputError):
        PhaseInstance(4, 2, np.ones(3), z)  # m = 2s-1


def test_arbitrary_samples_need_three_s():
    rng = np.random.default_rng(331)
    z = SampleSet(tuple(disk_points(rng, 5)))
    y = np.ones(5, dtype=complex)
    with pytest.raises(InvalidInputError):
        recover_r1(PhaseInstance(4, 2, y, z))


def test_sample_subset_invariance():
    """Appending extra rows beyond 3s never changes the answer."""
    rng = np.random.default_rng(337)
    for _ in range(8):
        s = int(rng.integers(1, 4))
        n = 2 * s + 1
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        z_core = disk_points(rng, 3 * s)
        res_core = recover_r1(
            PhaseInstance(n, s, forward_phase(theta, g, z_core, n), SampleSet(tuple(z_core)))
        )
        z_ext = np.concatenate([z_core, disk_points(rng, 2)])
        res_ext = recover_r1(
            PhaseInstance(n, s, forward_phase(theta, g, z_ext, n), SampleSet(tuple(z_ext)))
        )
        assert np.max(np.abs(np.array(res_ext.theta) - np.array(res_core.theta))) <= 1e-9
        assert np.max(np.abs(np.array(res_ext.g) - np.array(res_core.g))) <= 1e-9


def test_recover_r1_inconsistent_data_fails():
    rng = np.random.default_rng(347)
    z = SampleSet(tuple(disk_points(rng, 7)))
    y = rng.normal(size=7) + 1j * rng.normal(size=7)
    with pytest.raises(RecoveryFailureError):
        recover_r1(PhaseInstance(5, 2, y, z))


def test_recover_g_matches_least_squares():
    rng = np.random.default_rng(353)
    hits = 0
    for _ in range(50):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(2 * s, 2 * s + 4))
        theta = draw_theta_disk(rng, s)
        g = draw_g(rng, s)
        harmonic = rng.uniform() < 0.5
        if harmonic:
            gamma = float(rng.uniform(0.1, 2 * np.pi - 0.1))
            m = int(rng.integers(2 * s, n + 1))
            z = shifted_harmonics(n, m, gamma)
            if np.any(np.abs(theta**n - np.exp(-1j * gamma)) < 1e-3):
                continue
        else:
            z = SampleSet(tuple(disk_points(rng, 3 * s)))
        y = forward_phase(theta, g, z.array(), n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        M = vandermonde(z, n).T @ vandermonde(np.array(res.theta), n)
        ls, _ = pinv_solve(M, y, Tolerances().rank_rel_tol)
        assert np.max(np.abs(np.array(res.g) - ls)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(ls)))
        )
        hits += 1
    assert hits >= 40


def test_recover_g_degenerate_support():
    # two coincident poles make t_k vanish at the shared reciprocal
    z = SampleSet((0.9, 0.8j, -0.7, 0.5 + 0.5j, -0.6j, 1.0))
    y = np.ones(6, dtype=complex)
    from vrecover.cpoly import Poly

    with pytest.raises(DegenerateSupportError):
        recover_g([2.0, 2.0 + 1e-15], Poly([1.0, 1.0]), "general", z, y, 4, Tolerances())


def _recover_g_per_pole(theta, q_block, gamma_or_general, z, y, n):
    """recover_g's closed form with one expanded t_k and two Horner runs per pole."""
    g_hat = np.empty(len(theta), dtype=complex)
    for k in range(len(theta)):
        t_val = poly_eval(t_polynomial(theta, k), 1.0 / theta[k])
        num = poly_eval(q_block, 1.0 / theta[k])
        if gamma_or_general == "general":
            g_hat[k] = num / (theta[k] ** n * t_val)
        else:
            g_hat[k] = num / (t_val * (np.exp(1j * gamma_or_general) * theta[k] ** n - 1.0))
    predicted = vandermonde(z, n).T @ vandermonde(theta, n) @ g_hat
    k_star = int(np.argmax(np.abs(y)))
    return g_hat / (predicted[k_star] / y[k_star])


def test_recover_g_matches_per_pole_form():
    rng = np.random.default_rng(359)
    for _ in range(40):
        s = int(rng.integers(1, 7))
        n = 2 * s
        theta = draw_theta_disk(rng, s)
        q_block = Poly(rng.normal(size=s) + 1j * rng.normal(size=s))
        z = SampleSet(tuple(disk_points(rng, 3 * s)))
        y = rng.normal(size=3 * s) + 1j * rng.normal(size=3 * s)
        tag = "general" if rng.uniform() < 0.5 else float(rng.uniform(0.1, 6.0))
        got = recover_g(theta, q_block, tag, z, y, n, Tolerances())
        want = _recover_g_per_pole(theta, q_block, tag, z, y, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_recover_g_first_tripped_pole_decides(monkeypatch):
    """A vanishing t_k raises; a vanishing twist at an earlier pole falls back first."""
    fallback = np.array([7.0 + 0j])
    monkeypatch.setattr(recover_phase, "pinv_solve", lambda A, y, rank_rel_tol: (fallback, 0.0))
    z = SampleSet(tuple(np.exp(2j * np.pi * np.arange(6) / 6)))
    y = np.ones(6, dtype=complex)
    q_block = Poly([1.0, 0.5, 0.25])
    twin = [2.0, 2.0 + 1e-15]  # t_k vanishes at both
    # with gamma = 0 and n = 4 the twist e^{i gamma} theta^4 - 1 vanishes at 1j
    assert recover_g([1j, *twin], q_block, 0.0, z, y, 4, Tolerances()) is fallback
    with pytest.raises(DegenerateSupportError, match="^t_k vanishes at a recovered pole$"):
        recover_g([*twin, 1j], q_block, 0.0, z, y, 4, Tolerances())
    with pytest.raises(DegenerateSupportError, match="^t_k vanishes at a recovered pole$"):
        recover_g([1j, 1j + 1e-15, 0.5], q_block, 0.0, z, y, 4, Tolerances())
    # the general system has no twist, so the same pole is solved in closed form
    got = recover_g([1j, 0.5, -2.0], q_block, "general", z, y, 4, Tolerances())
    assert got.shape == (3,) and np.all(np.isfinite(got))


def test_snap_to_grid_keeps_input_order():
    grid = np.array([1.0, 1j, -1.0, -1j])
    names = dict(what="root", near="grid reciprocal", slot="grid point")
    got = _snap_to_grid([-1.0 + 1e-3, 1j, 1.0], grid, 0.5, **names)
    assert got.tolist() == [2, 1, 0]
    with pytest.raises(AmbiguousSupportError,
                       match=r"^root 0\.7\+0\.7j is 7\.\d+e-01 from the nearest grid reciprocal$"):
        _snap_to_grid([1.0, 0.7 + 0.7j], grid, 0.5, **names)
    with pytest.raises(GridCollisionError, match="^two roots snapped to the same grid point$"):
        _snap_to_grid([1.0, 1.1], grid, 0.5, **names)


def test_recover_r2_worked_grid():
    grid = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = SampleSet((1.0, 1j, 0.7 * np.exp(0.9j)))
    y = forward_phase([2.0], [3.0], z.array(), 4)
    x = recover_r2(PhaseInstance(4, 1, y, z, grid))
    assert np.allclose(x, [0, 3.0, 0, 0], atol=1e-9)


def test_recover_r2_zero_vector():
    grid = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = SampleSet((1.0, 1j, 0.7 * np.exp(0.9j)))
    x = recover_r2(PhaseInstance(4, 1, np.zeros(3), z, grid))
    assert np.allclose(x, np.zeros(4))


def test_recover_r2_rejects_colliding_harmonic_grid():
    # grid point 1 satisfies 1^4 = e^{-i*0}, which breaks the harmonic
    # support argument, and fully harmonic samples leave no fallback system
    grid = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = shifted_harmonics(4, 3, 0.0)
    y = forward_phase([2.0], [3.0], z.array(), 4)
    with pytest.raises(InvalidInputError):
        recover_r2(PhaseInstance(4, 1, y, z, grid))


def test_recover_r2_matches_brute_force():
    rng = np.random.default_rng(359)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        s = int(rng.integers(1, 3))
        if n < 2 * s:
            continue
        grid = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        support = np.sort(rng.choice(n, s, replace=False))
        g = draw_g(rng, s)
        z = SampleSet(tuple(disk_points(rng, 3 * s)))
        y = forward_phase(grid[support], g, z.array(), n)
        x = recover_r2(PhaseInstance(n, s, y, z, grid))
        A = vandermonde(z, n).T @ vandermonde(grid, n)
        x_oracle = brute_force_cs(y, A, s)
        assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == list(support)
        assert np.max(np.abs(x - x_oracle)) <= 1e-8 * max(1.0, float(np.max(np.abs(x))))


def test_recover_r2_requires_grid():
    z = shifted_harmonics(4, 4, 0.0)
    with pytest.raises(InvalidInputError):
        recover_r2(PhaseInstance(4, 1, np.ones(4), z))


def _count_svds(monkeypatch):
    """Count every SVD numpy runs, also those inside pinv or matrix_rank."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    # pinv and friends call the implementation module's binding
    monkeypatch.setattr(np_linalg_impl, "svd", counted)
    return calls


def _counting_builder(build):
    built = []

    def builder(s):
        built.append(s)
        return build(s)

    return builder, built


def test_descend_factorises_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(367)
    tol = Tolerances()
    # descent: a harmonic instance of sparsity 1 searched from s_max = 3
    z = shifted_harmonics(6, 6, 0.4)
    y = forward_phase([1.7], [2.0], z.array(), 6)
    harmonic = lambda s: build_B(z, y, s)
    # one step: arbitrary samples at the true sparsity
    theta, g = draw_theta_disk(rng, 3), draw_g(rng, 3)
    za = SampleSet(tuple(disk_points(rng, 9)))
    ya = forward_phase(theta, g, za.array(), 7)
    arbitrary = lambda s: build_A(za, ya, 7, s)
    # a count of two that the tightened recount resolves to one
    U = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    V = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    M = (U * [1.0, 0.5, 0.1, 1e-3, 1e-11]) @ np.conj(V[:, :5].T)
    tight = lambda s: M
    for build, s_max, S_want, steps in ((harmonic, 3, 1, 3), (arbitrary, 3, 3, 1),
                                        (tight, 1, 1, 1)):
        calls = _count_svds(monkeypatch)
        builder, built = _counting_builder(build)
        S, w, diags = _descend(builder, s_max, tol)
        monkeypatch.undo()
        assert S == S_want and len(built) == steps
        assert len(calls) == len(built)
        assert np.linalg.norm(build(S) @ w) <= 1e-9 * np.linalg.norm(build(S))
    assert "resolved at tightened threshold" in diags[-1]["warnings"][-1]


def test_descend_reads_gap_ratio_from_tolerances(monkeypatch):
    monkeypatch.delenv("VRECOVER_TOL_OVERRIDES", raising=False)
    z = SampleSet(tuple(disk_points(np.random.default_rng(373), 9)))
    y = forward_phase([0.8j, 1.3], [1.0, -2.0], z.array(), 4)
    builder = lambda s: build_A(z, y, 4, s)
    _, _, quiet = _descend(builder, 2, Tolerances())
    _, _, loud = _descend(builder, 2, Tolerances(gap_ratio=1e30))
    assert not any("singular value gap" in w for w in quiet[-1]["warnings"])
    assert any("singular value gap" in w for w in loud[-1]["warnings"])
