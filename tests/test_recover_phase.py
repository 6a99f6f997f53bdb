"""Phase-aware recovery: the sparsity read from one singular-value gap, and grid decoding."""

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

from vrecover import recover_phase, structmat
from vrecover.config import Tolerances
from vrecover.errors import (
    AmbiguousSupportError,
    DegenerateSupportError,
    GridCollisionError,
    InconsistentSolutionError,
    InvalidInputError,
    NumericalFailureError,
    RankDeficiencyError,
    RecoveryFailureError,
)
from vrecover.harness import ExperimentConfig, generate_trial, run_trial
from vrecover.oracle import (
    brute_force_cs,
    draw_g,
    draw_theta_circle,
    draw_theta_disk,
    forward_phase,
)
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
    _pairwise_moduli,
    _require_distinct,
    build_A,
    build_B,
    measurement_matrix,
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
    """theta^n equal to the sample rotation recovers like any other pole.

    The pole's column of A is nonzero only at the sample z = 1/theta, which
    is enough for the least-squares weights.
    """
    z = shifted_harmonics(2, 2, 0.0)
    y = forward_phase([1.0], [1.0], z.z, 2)
    res = recover_r1(PhaseInstance(2, 1, y, z))
    assert np.allclose(res.theta, [1.0], atol=1e-9)
    assert np.allclose(res.g, [1.0], atol=1e-9)


def test_sparsity_overestimate_shrinks():
    z = shifted_harmonics(4, 4, 0.0)
    y = forward_phase([2.0], [3.0], z.z, 4)
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
        y = forward_phase(theta, g, z.z, n)
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
        y = forward_phase(theta, g, z.z, n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        assert np.max(np.abs(np.array(res.theta) - theta[order])) <= 1e-6
        assert np.max(np.abs(np.array(res.g) - g[order])) <= 1e-6 * max(
            1.0, float(np.max(np.abs(g)))
        )


def test_recover_r1_zero_measurements():
    z = shifted_harmonics(4, 4, 0.0)
    res = recover_r1(PhaseInstance(4, 2, np.zeros(4), z))
    assert res.S == 0 and res.theta.shape == res.g.shape == (0,)


def test_recover_r1_scaling_equivariance():
    rng = np.random.default_rng(317)
    s, n = 2, 4
    theta = draw_theta_disk(rng, s)
    g = draw_g(rng, s)
    z = shifted_harmonics(n, n, 0.8)
    y = forward_phase(theta, g, z.z, n)
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


def test_instance_checks_the_arbitrary_sample_floor_when_built():
    """m >= 3s on samples that are not shifted harmonics, all-zero data included."""
    assert PhaseInstance.floors(3, True) == (6, 6)
    assert PhaseInstance.floors(3, False) == (6, 9)
    rng = np.random.default_rng(337)
    for s in (1, 2, 4):
        short = SampleSet(disk_points(rng, 3 * s - 1))
        with pytest.raises(InvalidInputError, match=rf"^m={3 * s - 1} below .* floor {3 * s} "):
            PhaseInstance(2 * s, s, np.zeros(3 * s - 1), short)
        PhaseInstance(2 * s, s, np.zeros(3 * s), SampleSet(disk_points(rng, 3 * s)))


@pytest.mark.parametrize("n", [3, 5], ids=["n-1", "n+1"])
def test_instance_rejects_a_grid_of_the_wrong_length(n):
    z = SampleSet((1.0, 1j, 0.7 * np.exp(0.9j)))
    with pytest.raises(InvalidInputError, match=f"^grid has {n} points, not the model order n=4$"):
        PhaseInstance(4, 1, np.ones(3), z, np.arange(1.0, n + 1.0))


def test_instance_rejects_duplicate_grid_points():
    """Grid points within 1e-9 * max(1, |g|) of each other are bad input."""
    z = SampleSet((1.0, 1j, 0.7 * np.exp(0.9j)))
    y = forward_phase([2.0], [3.0], z.z, 4)
    for twin in (2.0 + 1e-10, 2.0 + 1.5e-9j, 4.0):
        with pytest.raises(InvalidInputError, match="^grid points are not distinct$"):
            PhaseInstance(4, 1, y, z, [1.0, 2.0, twin, 4.0])
    x = recover_r2(PhaseInstance(4, 1, y, z, [1.0, 2.0, 2.0 + 1e-7, 4.0]))
    assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == [1]


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)])
def test_phase_instance_rejects_non_finite(bad):
    z = shifted_harmonics(4, 4, 0.0)
    y, grid = np.ones(4, dtype=complex), 1.5 * z.z
    inst = PhaseInstance(4, 2, y, z, grid)
    assert not inst.y.flags.writeable and not inst.grid.flags.writeable
    with pytest.raises(InvalidInputError, match="finite"):
        PhaseInstance(4, 2, np.where(np.arange(4) == 1, bad, y), z, grid)
    with pytest.raises(InvalidInputError, match="finite"):
        PhaseInstance(4, 2, y, z, np.where(np.arange(4) == 1, bad, grid))


def test_phase_instance_rejects_measurements_that_are_not_flat():
    rng = np.random.default_rng(331)
    z = SampleSet(tuple(disk_points(rng, 6)))
    for bad in (np.ones((6, 2)), 1.0, [[1.0, 0.0]] * 6):
        with pytest.raises(InvalidInputError, match="^measurements must be a flat list"):
            PhaseInstance(4, 2, bad, z)
    with pytest.raises(InvalidInputError, match="^grid points must be a flat list"):
        PhaseInstance(4, 1, np.ones(6), z, np.ones((4, 1)))


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
        y = forward_phase(theta, g, z.z, n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        M = vandermonde(z, n).T @ vandermonde(np.array(res.theta), n)
        ls = pinv_solve(M, y, Tolerances().rank_rel_tol)
        assert np.max(np.abs(np.array(res.g) - ls)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(ls)))
        )
        hits += 1
    assert hits >= 40


def test_recover_g_degenerate_support():
    # two coincident poles give A two equal columns, so g is not determined
    z = SampleSet((0.9, 0.8j, -0.7, 0.5 + 0.5j, -0.6j, 1.0))
    y = np.ones(6, dtype=complex)
    A = measurement_matrix(z, [2.0, 2.0 + 1e-15], 4)
    with pytest.raises(RankDeficiencyError):
        recover_g(A, y, Tolerances())


def test_snap_to_grid_keeps_input_order():
    # the snap radius is half the smallest grid spacing, here sqrt(2) / 2
    grid = np.array([1.0, 1j, -1.0, -1j])
    got = _snap_to_grid([-1.0 + 1e-3, 1j, 1.0], grid)
    assert got.tolist() == [2, 1, 0]
    with pytest.raises(AmbiguousSupportError, match=(
            r"^support point 0\.7\+0\.7j is 7\.\d+e-01 from the nearest grid point$")):
        _snap_to_grid([1.0, 0.7 + 0.7j], grid)
    with pytest.raises(GridCollisionError,
                       match="^two support points snapped to the same grid point$"):
        _snap_to_grid([1.0, 1.1], grid)


def test_snap_to_grid_matches_the_point_loop():
    """The array snap gives the per-point loop's indices or error class."""
    def loop(points, grid):
        radius = min(abs(a - b) for i, a in enumerate(grid) for b in grid[:i]) / 2
        index = []
        for p in points:
            dists = [abs(p - q) for q in grid]
            k = int(np.argmin(dists))
            if not dists[k] <= radius:
                return AmbiguousSupportError
            index.append(k)
        return GridCollisionError if len(set(index)) < len(index) else index

    rng = np.random.default_rng(383)
    for _ in range(300):
        grid = rng.uniform(0.5, 2.0, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        picks = rng.integers(0, 6, int(rng.integers(1, 5)))
        points = grid[picks] + rng.uniform(0, 0.3, len(picks)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, len(picks)))
        want = loop(points, grid)
        if isinstance(want, list):
            assert _snap_to_grid(points, grid).tolist() == want
        else:
            with pytest.raises(want):
                _snap_to_grid(points, grid)


def test_pairwise_checks_match_the_double_loop():
    """One modulus matrix gives the double loop's collision verdict and minimum."""
    def loop(values):
        collide, best = False, np.inf
        for i in range(len(values)):
            for j in range(i):
                d = abs(values[i] - values[j])
                collide |= bool(d < 1e-9 * max(1.0, abs(values[i])))
                best = min(best, d)
        return collide, float(best)

    rng = np.random.default_rng(373)
    for trial in range(400):
        k = int(rng.integers(0, 7))
        values = rng.uniform(0.2, 3.0, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        if k >= 2 and trial % 2:
            # a partner at, just inside or just outside the strict bound of the later value
            i, j = sorted(rng.choice(k, size=2, replace=False))
            step = 1e-9 * max(1.0, abs(values[j])) * (0.5, 1.0, 2.0)[trial % 3]
            values[j] = values[i] + step * np.exp(1j * rng.uniform(0, 2 * np.pi))
        collide, best = loop(values)
        assert _pairwise_moduli(values).min(initial=np.inf) == best
        if collide:
            with pytest.raises(DegenerateSupportError, match="^clash$"):
                _require_distinct(values, "clash")
        else:
            _require_distinct(values, "clash")


def test_recover_r2_worked_grid():
    grid = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    z = SampleSet((1.0, 1j, 0.7 * np.exp(0.9j)))
    y = forward_phase([2.0], [3.0], z.z, 4)
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
    y = forward_phase([2.0], [3.0], z.z, 4)
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
        y = forward_phase(grid[support], g, z.z, n)
        x = recover_r2(PhaseInstance(n, s, y, z, grid))
        A = vandermonde(z, n).T @ vandermonde(grid, n)
        x_oracle = brute_force_cs(y, A, s)
        assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == list(support)
        assert np.max(np.abs(x - x_oracle)) <= 1e-8 * max(1.0, float(np.max(np.abs(x))))


def test_recover_r2_weights_exact_at_snapped_support():
    """Exact r2 trials whose support snaps right also get their weights right.

    Trials 22 and 43 of this campaign found the support when the weights
    came from the numerator block, but missed by g_err 5e-6 and 1.7e-5.
    """
    config = ExperimentConfig.from_dict({
        "mode": "r2", "s_list": [4], "n_rule": "10", "m_rule": "12",
        "sample_mode": "arbitrary", "trials": 60, "master_seed": 1,
    })
    for index in (22, 43):
        record = run_trial(generate_trial(config, 4, index), Tolerances())
        assert record.success
        assert record.g_err <= 1e-10


def test_measurement_matrix_built_once_per_recovery(monkeypatch):
    """recover_r1 and recover_r2 form V(z)^T V(theta) once, at the recovered poles."""
    built = []

    def counting(z, theta, n, real=recover_phase.measurement_matrix):
        built.append(len(theta))
        return real(z, theta, n)

    monkeypatch.setattr(recover_phase, "measurement_matrix", counting)
    rng = np.random.default_rng(367)
    n, s = 8, 3
    for harmonic in (True, False):
        z = shifted_harmonics(n, n, 0.7) if harmonic else SampleSet(disk_points(rng, 3 * s))
        theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
        built.clear()
        res = recover_r1(PhaseInstance(n, s, forward_phase(theta, g, z.z, n), z))
        assert res.S == s and built == [s]
        grid = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        support = np.sort(rng.choice(n, s, replace=False))
        y = forward_phase(grid[support], g, z.z, n)
        built.clear()
        x = recover_r2(PhaseInstance(n, s, y, z, grid))
        assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == support.tolist()
        assert built == [s]


def test_recover_r2_requires_grid():
    z = shifted_harmonics(4, 4, 0.0)
    with pytest.raises(InvalidInputError):
        recover_r2(PhaseInstance(4, 1, np.ones(4), z))


def _count_svds(monkeypatch):
    """Count every SVD numpy runs, also those inside pinv or matrix_rank.

    A least-squares solve through ``np.linalg.lstsq`` factorises too, so it
    is recorded as well: the list holds "svd" or "lstsq" per call.
    """
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    for name in ("svd", "lstsq"):
        counted = counting(name)
        monkeypatch.setattr(np.linalg, name, counted)
        # pinv and friends call the implementation module's binding
        monkeypatch.setattr(np_linalg_impl, name, counted)
    return calls


def test_weights_take_one_factorisation(monkeypatch):
    """pinv_solve runs one SVD and no lstsq; the paper chain of r1 adds it to the descent's one."""
    rng = np.random.default_rng(379)
    theta, g = draw_theta_disk(rng, 3), draw_g(rng, 3)
    z = SampleSet(disk_points(rng, 9))
    y = forward_phase(theta, g, z.z, 7)
    A = measurement_matrix(z, theta, 7)
    calls = _count_svds(monkeypatch)
    got = pinv_solve(A, y, Tolerances().rank_rel_tol)
    assert calls == ["svd"]
    assert np.max(np.abs(got - g)) <= 1e-8 * np.max(np.abs(g))
    inst = PhaseInstance(7, 3, y, z)
    calls.clear()
    res = _paper_r1(inst)
    assert res.S == 3 and calls == ["svd", "svd"]
    # at m > n recover_r1 takes the latent route: the solve for x, the Hankel
    # rank read, whose SVD also gives the pencil, and the weights
    calls.clear()
    res = recover_r1(inst, Tolerances())
    assert res.S == 3 and calls == ["lstsq", "svd", "svd"]


def _counting_builder(build):
    built = []

    def builder(s):
        built.append(s)
        return build(s)

    return builder, built


def test_descend_factorises_each_matrix_once(monkeypatch):
    rng = np.random.default_rng(367)
    tol = Tolerances()
    # sparsity 1 read from s_max = 3, then one build at S
    z = shifted_harmonics(6, 6, 0.4)
    y = forward_phase([1.7], [2.0], z.z, 6)
    harmonic = lambda s: build_B(z, y, s)
    # arbitrary samples at the true sparsity: one build
    theta, g = draw_theta_disk(rng, 3), draw_g(rng, 3)
    za = SampleSet(tuple(disk_points(rng, 9)))
    ya = forward_phase(theta, g, za.z, 7)
    arbitrary = lambda s: build_A(za, ya, 7, s)
    for build, s_max, S_want, builds in ((harmonic, 3, 1, [3, 1]), (arbitrary, 3, 3, [3])):
        calls = _count_svds(monkeypatch)
        builder, built = _counting_builder(build)
        S, w, diags = _descend(builder, s_max, tol)
        monkeypatch.undo()
        assert S == S_want and built == builds
        assert len(calls) == len(built) == len(diags)
        assert [d["s"] for d in diags] == builds and diags[-1]["dimension"] == 1
        assert all(d["gap"] > 3 for d in diags)
        assert np.linalg.norm(build(S) @ w) <= 1e-9 * np.linalg.norm(build(S))


def test_descend_failures_report_value_and_bound():
    rng = np.random.default_rng(383)
    z = SampleSet(tuple(disk_points(rng, 9)))
    y = rng.normal(size=9) + 1j * rng.normal(size=9)
    with pytest.raises(RecoveryFailureError,
                       match=r"dimension 0 at s=2: smallest singular value \S+ exceeds \S+"):
        _descend(lambda s: build_A(z, y, 4, s), 2, Tolerances())
    # zero data leaves two exactly zero columns: a flat tail without a gap
    zh = shifted_harmonics(4, 4, 0.3)
    with pytest.raises(RecoveryFailureError, match="no singular value gap at s=1: .* gap 0 "):
        _descend(lambda s: build_B(zh, np.zeros(4), s), 1, Tolerances())


# exact trials at the minimal sample counts where two to four nonzero singular
# values of the system at s_max fall under the zero bound, yet the widest gap
# still reads S = s_max: (mode, s, n_rule, m_rule, sample_mode, index), all
# at master_seed 16
SPURIOUS_DESCENT_TRIALS = [
    ("r1", 4, "2s", "3s", "arbitrary", 8),
    ("r4", 7, "4s-1", "4s-1", "harmonic", 54),
    ("r5", 6, "4s-1", "8s-3", "arbitrary", 29),
]


@pytest.mark.parametrize("mode, s, n_rule, m_rule, sample_mode, index",
                         SPURIOUS_DESCENT_TRIALS)
def test_sparsity_read_at_s_max_solves_exact_trials(mode, s, n_rule, m_rule,
                                                    sample_mode, index):
    config = ExperimentConfig.from_dict({
        "mode": mode, "s_list": [s], "n_rule": n_rule, "m_rule": m_rule,
        "sample_mode": sample_mode, "trials": 1, "master_seed": 16,
    })
    record = run_trial(generate_trial(config, s, index), Tolerances())
    assert record.success, record.warnings
    assert record.S == s


@pytest.mark.parametrize("master_seed", [79, 78])
def test_sparsity_below_s_max_at_scale(master_seed):
    """Trials of true sparsity 4 and 5 recovered with s_max = 6 in the payload."""
    config = ExperimentConfig.from_dict({
        "mode": "r1", "s_list": [4, 5], "n_rule": "12", "m_rule": "18",
        "sample_mode": "arbitrary", "trials": 20, "master_seed": master_seed,
    })
    tol = Tolerances()
    for index in range(40):
        S = config.s_list[index // 20]
        payload = generate_trial(config, S, index)
        payload["s"] = 6
        record = run_trial(payload, tol)
        assert record.success and record.S == S, (index, record.warnings)


@pytest.mark.parametrize("seed", [128, 137, 146])
def test_poles_off_the_circle_at_large_n_raise_numerical_failure(seed):
    """At n = 1024 the paper's route reads poles with |theta| above 2 from
    circle-pole data on 12 harmonic samples; their powers theta^(n-1)
    overflow. That raises NumericalFailureError (exit 3) with no
    RuntimeWarning, where the SVD of an infinite matrix raised LinAlgError."""
    rng = np.random.default_rng(seed)
    n, s = 1024, 6
    z = shifted_harmonics(n, 2 * s, 1.0)
    theta, g = draw_theta_circle(rng, s), draw_g(rng, s)
    inst = PhaseInstance(n, s, forward_phase(theta, g, z.z, n), z)
    with pytest.raises(NumericalFailureError, match=r"powers overflow: \|z\|\^1023 at"):
        recover_r1(inst)


# disk-pole trials at n = 1024 whose data reach about 1e200: the forward
# check's norms overflowed on the first three, and the null space's gap
# ratio on the rest
HUGE_DATA_SEEDS = [0, 62, 170, 6, 25, 50, 53, 61, 64, 82, 102, 106, 109, 132, 147, 165, 190, 197]


@pytest.mark.parametrize("seed", HUGE_DATA_SEEDS)
def test_huge_data_leave_the_checks_finite(seed):
    """With no RuntimeWarning: the forward check and the gaps are read in
    units that cannot overflow. The first three seeds' S = 1 fits miss y by
    1e-4 to 1e-3, relative, and fail the forward check, where the two norms
    both overflowed to inf and passed it."""
    rng = np.random.default_rng(seed)
    n, s = 1024, 6
    z = shifted_harmonics(n, 2 * s, 1.0)
    theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
    inst = PhaseInstance(n, s, forward_phase(theta, g, z.z, n), z)
    if seed in (0, 62, 170):
        with pytest.raises(InconsistentSolutionError, match=r"^forward residual .* of max\|y\|"):
            recover_r1(inst)
    else:
        assert recover_r1(inst).S == 1


# ----------------------------------------------------------------------------
# the latent route of r1 at m >= n
# ----------------------------------------------------------------------------

def _paper_r1(inst, tol=None):
    tol = Tolerances() if tol is None else tol
    return recover_phase._recover_via(inst, tol, support=recover_phase._paper_support)[0]


def _latent_only(inst, tol=None):
    tol = Tolerances() if tol is None else tol
    return recover_phase._recover_via(inst, tol, support=recover_phase._latent_support)[0]


@pytest.mark.parametrize("harmonic", [True, False])
def test_latent_route_recovers_exact_data(harmonic):
    """Exact data at m = n (shifted harmonics) and at m > n (disk samples),
    at S = s_max and at S below it, all read on the latent route."""
    rng = np.random.default_rng(401 if harmonic else 409)
    for s_max, S in ((3, 3), (4, 4), (5, 3), (6, 4), (6, 5)):
        n = 2 * s_max
        theta, g = draw_theta_disk(rng, S), draw_g(rng, S)
        if harmonic:
            z = shifted_harmonics(n, n, float(rng.uniform(0.1, 6.0)))
        else:
            z = SampleSet(disk_points(rng, 3 * s_max))
        res = recover_r1(PhaseInstance(n, s_max, forward_phase(theta, g, z.z, n), z))
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        assert res.S == S
        assert np.abs(res.theta - theta[order]).max() <= 1e-6
        assert np.abs(res.g - g[order]).max() <= 1e-6 * max(1.0, np.abs(g).max())
        (entry,) = res.diagnostics
        assert entry["route"] == "latent" and "fallback" not in entry
        assert entry["s"] == s_max and entry["dimension"] == s_max + 1 - S
        assert entry["gap"] > 0 and len(entry["singular_values"]) == s_max + 1


@pytest.mark.parametrize("harmonic", [True, False])
def test_latent_poles_from_the_svd_match_the_hankel_pencil(harmonic):
    """On exact data the poles read from the Hankel SVD equal the eigenvalues
    of the pencil lstsq(H0, H1) of the Hankel matrix built at S, at S = s_max
    and below it."""
    rng = np.random.default_rng(433 if harmonic else 439)
    for s_max, S in ((3, 3), (4, 4), (4, 2), (5, 3)):
        n = 2 * s_max
        theta, g = draw_theta_disk(rng, S), draw_g(rng, S)
        if harmonic:
            z = shifted_harmonics(n, n, float(rng.uniform(0.1, 6.0)))
        else:
            z = SampleSet(disk_points(rng, 3 * s_max))
        inst = PhaseInstance(n, s_max, forward_phase(theta, g, z.z, n), z)
        got_S, got = recover_phase._latent_support(inst, Tolerances(), [])
        VT = vandermonde(z.z, n).T
        scale = 1.0 / np.linalg.norm(VT, axis=0)
        x = np.linalg.lstsq(VT * scale, inst.y, rcond=None)[0] * scale
        H = x[np.add.outer(np.arange(n - S), np.arange(S + 1))]
        want = np.linalg.eigvals(np.linalg.lstsq(H[:, :-1], H[:, 1:], rcond=None)[0])
        assert got_S == S
        got, want = (p[np.lexsort((np.abs(p), np.angle(p)))] for p in (got, want))
        assert np.abs(got - want).max() <= 1e-10


def test_recover_r1_builds_the_sample_powers_once(monkeypatch):
    """The latent solve and A = V(z)^T V(theta) share one V(z)."""
    built = []

    def counting(z, n, real=structmat.vandermonde):
        built.append(len(z))
        return real(z, n)

    monkeypatch.setattr(structmat, "vandermonde", counting)
    # the recovery module must not build V(z) through a binding of its own
    monkeypatch.setattr(recover_phase, "vandermonde", counting, raising=False)
    rng = np.random.default_rng(443)
    n, s = 8, 3
    theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
    for z in (shifted_harmonics(n, n, 0.7), SampleSet(disk_points(rng, 3 * s))):
        y = forward_phase(theta, g, z.z, n)
        built.clear()
        res = recover_r1(PhaseInstance(n, s, y, z))
        assert res.S == s and {d["route"] for d in res.diagnostics} == {"latent"}
        # one table of the samples, one of the poles
        assert sorted(built) == sorted([len(z), s])


def test_latent_and_paper_routes_agree_on_exact_data():
    rng = np.random.default_rng(419)
    for _ in range(10):
        s = int(rng.integers(2, 5))
        n = int(rng.integers(2 * s, 2 * s + 3))
        theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
        z = SampleSet(disk_points(rng, 3 * s))
        inst = PhaseInstance(n, s, forward_phase(theta, g, z.z, n), z)
        latent, paper = _latent_only(inst), _paper_r1(inst)
        assert latent.S == paper.S == s
        assert np.abs(latent.theta - paper.theta).max() <= 1e-8
        assert np.abs(latent.g - paper.g).max() <= 1e-8 * np.abs(paper.g).max()
        assert {d["route"] for d in paper.diagnostics} == {"paper"}


def test_latent_gate_failure_falls_back_to_the_paper_system(monkeypatch):
    """A Hankel matrix without a null space fails the latent rank gate, and
    that error propagates: at m >= n the paper's system never runs."""
    def never(*args):
        raise AssertionError("the paper's system ran")

    rng = np.random.default_rng(421)
    n, s = 8, 2  # the Hankel matrix at s_max is 6 x 3, so it can have full rank
    theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
    z = SampleSet(disk_points(rng, 3 * s + 2))
    inst = PhaseInstance(n, s, forward_phase(theta, g, z.z, n), z)
    noise = rng.standard_normal((n - s, s + 1)) + 1j * rng.standard_normal((n - s, s + 1))
    monkeypatch.setattr(recover_phase, "_hankel", lambda x, s: noise)
    monkeypatch.setattr(recover_phase, "_paper_support", never)
    with pytest.raises(RecoveryFailureError, match="null space dimension 0 at s=2"):
        recover_r1(inst, Tolerances())


def test_latent_route_not_taken_below_n_samples(monkeypatch):
    def never(*args):
        raise AssertionError("the latent route ran")

    monkeypatch.setattr(recover_phase, "_latent_support", never)
    rng = np.random.default_rng(431)
    s, n = 2, 9
    theta, g = draw_theta_disk(rng, s), draw_g(rng, s)
    grid = np.concatenate([theta, rng.uniform(0.5, 2.0, n - s)
                           * np.exp(1j * rng.uniform(0, 2 * np.pi, n - s))])
    for z in (SampleSet(disk_points(rng, 3 * s)), shifted_harmonics(n, 2 * s, 0.5)):
        assert len(z) < n
        y = forward_phase(theta, g, z.z, n)
        res = recover_r1(PhaseInstance(n, s, y, z))
        assert res.S == s and {d["route"] for d in res.diagnostics} == {"paper"}
        x = recover_r2(PhaseInstance(n, s, y, z, grid))
        assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == [0, 1]


def test_r2_takes_the_latent_route_first_and_falls_back(monkeypatch):
    """At m >= n r2 reads its poles on the latent route alone; under the
    Hankel failure of the r1 test above it raises, without trying the
    paper's system."""
    routes = []

    def tracing(support):
        def traced(inst, tol, diagnostics):
            routes.append(support.__name__)
            return support(inst, tol, diagnostics)
        return traced

    for name in ("_latent_support", "_paper_support"):
        monkeypatch.setattr(recover_phase, name, tracing(getattr(recover_phase, name)))
    rng = np.random.default_rng(421)
    n, s = 8, 2
    grid = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    g = draw_g(rng, s)
    z = SampleSet(disk_points(rng, 3 * s + 2))
    inst = PhaseInstance(n, s, forward_phase(grid[[1, 5]], g, z.z, n), z, grid)
    x = recover_r2(inst)
    assert routes == ["_latent_support"]
    assert np.flatnonzero(np.abs(x) > 1e-9).tolist() == [1, 5]
    assert np.abs(x[[1, 5]] - g).max() <= 1e-8 * np.abs(g).max()
    noise = rng.standard_normal((n - s, s + 1)) + 1j * rng.standard_normal((n - s, s + 1))
    monkeypatch.setattr(recover_phase, "_hankel", lambda x, s: noise)
    routes.clear()
    with pytest.raises(RecoveryFailureError, match="null space dimension 0 at s=2"):
        recover_r2(inst)
    assert routes == ["_latent_support"]
    # the single-pole case below reads a real Hankel matrix
    monkeypatch.undo()
