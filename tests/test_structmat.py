"""Measurement matrices, sample sets, and the rank-revealing solvers."""

import numpy as np
import pytest

from vrecover.config import Tolerances
from vrecover.cpoly import forward_polys, laurent_from_products
from vrecover.errors import InvalidInputError, RankDeficiencyError
from vrecover.oracle import forward_phase, forward_phaseless
from vrecover.structmat import (
    SampleSet,
    build_A,
    build_B,
    build_G,
    build_Gtilde,
    measurement_matrix,
    null_space,
    pinv_solve,
    refine_null_vector,
    shifted_harmonics,
    svd_factors,
    vandermonde,
)

TOL = Tolerances()
# the default rank threshold and gap ratio, in null_space's argument order
NULL_BOUNDS = (TOL.rank_rel_tol, TOL.gap_ratio)


def test_vandermonde_columns():
    assert np.allclose(vandermonde([1.0], 3), [[1.0], [1.0], [1.0]])
    assert np.allclose(vandermonde([2.0], 3), [[1.0], [2.0], [4.0]])
    assert np.allclose(vandermonde([1j, -1j], 2), [[1, 1], [1j, -1j]])
    assert vandermonde(np.ones(5), 4).shape == (4, 5)


def test_measurement_matrix_is_the_vandermonde_product():
    """V(z)^T V(theta), bit for bit the written-out product, on disk and circle points."""
    # entry (j, k) is the geometric sum of (z_j theta_k)^r over r < n
    assert np.array_equal(measurement_matrix([2.0], [0.5, 1j], 3), [[3.0, -3.0 + 2j]])
    rng = np.random.default_rng(43)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        m, s = int(rng.integers(1, 50)), int(rng.integers(1, 8))
        on_circle = trial % 2 == 0
        z_mod = 1.0 if on_circle else rng.uniform(0.5, 1.0, m)
        theta_mod = 1.0 if on_circle else np.exp(rng.uniform(np.log(0.5), np.log(2.0), s))
        z = z_mod * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        theta = theta_mod * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        samples = SampleSet(z) if trial % 3 == 0 else z
        got = measurement_matrix(samples, theta, n)
        want = vandermonde(z, n).T @ vandermonde(theta, n)
        assert got.shape == (m, s)
        assert got.tobytes() == want.tobytes()


def test_shifted_harmonics_values():
    z = shifted_harmonics(4, 4, 0.0)
    assert np.allclose(z.z, [1, 1j, -1, -1j])
    assert z.is_harmonic and z.n == 4 and z.gamma == 0.0
    assert not z.z.flags.writeable and np.asarray(z, dtype=complex) is z.z

    z2 = shifted_harmonics(2, 2, 0.0)
    assert np.allclose(z2.z, [1, -1])

    z3 = shifted_harmonics(4, 2, np.pi)
    w = np.exp(1j * np.pi / 4)
    assert np.allclose(z3.z, [w, 1j * w])


def test_shifted_harmonics_invariants():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, n + 1))
        gamma = float(rng.uniform(0, 2 * np.pi))
        z = shifted_harmonics(n, m, gamma).z
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-12
        assert np.max(np.abs(z**n - np.exp(1j * gamma))) <= 1e-12
    with pytest.raises(InvalidInputError):
        shifted_harmonics(4, 5, 0.0)


def test_sample_set_basics():
    z = SampleSet((1.0, 2.0, 3.0))
    assert len(z) == 3 and not z.is_harmonic
    assert np.allclose(z.z, [1, 2, 3])
    assert z.z.dtype == complex and not z.z.flags.writeable
    with pytest.raises(ValueError):
        z.z[0] = 5.0
    assert np.array_equal(np.asarray(z), z.z)
    assert np.array_equal(vandermonde(z, 3), vandermonde(z.z, 3))

    # given gamma and n a set is shifted-harmonic and checked as one
    roots = np.exp(1j * (2 * np.pi * np.arange(3) + 0.5) / 4)
    harmonic = SampleSet(roots, gamma=0.5, n=4)
    assert harmonic.is_harmonic and harmonic.gamma == 0.5 and harmonic.n == 4
    with pytest.raises(InvalidInputError, match="need gamma and n"):
        SampleSet(roots, gamma=0.5)
    with pytest.raises(InvalidInputError, match="common nth power"):
        SampleSet(roots, gamma=0.6, n=4)
    with pytest.raises(InvalidInputError, match="common nth power"):
        SampleSet(roots, gamma=np.nan, n=4)

    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        with pytest.raises(InvalidInputError, match="finite"):
            SampleSet((1.0, bad, 3.0))


def test_build_A_frozen_row():
    assert np.allclose(build_A([1.0], [9.0], 2, 1), [[9, 9, -1, -1]])


def test_build_A_last_column():
    # the constant column of the numerator block is always -1
    rng = np.random.default_rng(67)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    y = rng.normal(size=6) + 1j * rng.normal(size=6)
    A = build_A(z, y, 8, 2)
    assert A.shape == (6, 7)
    assert np.allclose(A[:, -1], -1.0)


def test_build_A_zero_sample_row():
    # a z=0, y=0 row keeps only the constant -1 entry
    A = build_A([0.0, 1.0], [0.0, 9.0], 2, 1)
    assert np.allclose(A[0], [0.0, 0.0, 0.0, -1.0])


def test_build_A_shape():
    s = 3
    z = np.exp(1j * np.linspace(0.1, 5.0, 3 * s))
    A = build_A(z, np.ones(3 * s), 2 * s, s)
    assert A.shape == (3 * s, 3 * s + 1)


def test_build_A_true_stack_in_null_space():
    """The stacked (v, u_hat, u_tilde) coefficients annihilate A."""
    rng = np.random.default_rng(71)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(2 * s, 2 * s + 4))
        theta = rng.uniform(0.5, 2.0, s) * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        z = rng.uniform(0.5, 1.0, 3 * s) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3 * s))
        y = forward_phase(theta, g, z, n)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        # blocks are stored in descending powers, zero padded at the high end
        w = np.zeros(3 * s + 1, dtype=complex)
        v_desc = v[::-1]
        w[s + 1 - len(v_desc) : s + 1] = v_desc
        uh_desc = u_hat[::-1]
        w[s + 1 + (s - len(uh_desc)) : 2 * s + 1] = uh_desc
        ut_desc = u_tilde[::-1]
        w[2 * s + 1 + (s - len(ut_desc)) :] = ut_desc
        A = build_A(z, y, n, s)
        resid = np.linalg.norm(A @ w) / (np.linalg.norm(A) * np.linalg.norm(w))
        assert resid <= 1e-10


def test_build_B_frozen_matrix():
    z = shifted_harmonics(2, 2, 0.0)
    B = build_B(z, [9.0, -3.0], 1)
    assert np.allclose(B, [[9, 9, -1], [3, -3, -1]])


def test_build_B_requires_harmonics():
    with pytest.raises(InvalidInputError):
        build_B(SampleSet((1.0, 0.9j)), [1.0, 2.0], 1)
    # the points of a harmonic set, as a plain array, are not a harmonic set
    z = shifted_harmonics(4, 4, 0.0)
    for build in (build_B, build_Gtilde):
        with pytest.raises(InvalidInputError, match="needs shifted-harmonic samples"):
            build(z.z, np.ones(4), 1)


def test_build_B_shape_and_zero_y():
    z = shifted_harmonics(8, 5, 0.3)
    B = build_B(z, np.zeros(5), 2)
    assert B.shape == (5, 5)
    # with y = 0 only the Fourier columns survive, leaving s of them
    # independent, so the null space has dimension s + 1
    assert null_space(B, *NULL_BOUNDS).dimension == 3

    z1 = shifted_harmonics(4, 3, 0.3)
    B1 = build_B(z1, np.zeros(3), 1)
    assert null_space(B1, *NULL_BOUNDS).dimension == 2


def test_build_B_true_stack_in_null_space():
    rng = np.random.default_rng(73)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(2 * s, 2 * s + 5))
        gamma = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        m = int(rng.integers(2 * s, n + 1))
        theta = rng.uniform(0.5, 2.0, s) * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        z = shifted_harmonics(n, m, gamma)
        y = forward_phase(theta, g, z, n)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        q = np.exp(1j * gamma) * np.pad(u_hat, (0, s)) + np.pad(u_tilde, (0, s))
        w = np.zeros(2 * s + 1, dtype=complex)
        v_desc = v[::-1]
        w[s + 1 - len(v_desc) : s + 1] = v_desc
        w[s + 1 :] = q[:s][::-1]
        B = build_B(z, y, s)
        resid = np.linalg.norm(B @ w) / (np.linalg.norm(B) * np.linalg.norm(w))
        assert resid <= 1e-10


def test_build_G_shape_and_pattern():
    rng = np.random.default_rng(79)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    y = rng.uniform(0.1, 2.0, 5)
    n = 3
    G = build_G(z, y, n, 1)
    assert G.shape == (5, 6)
    expect = np.column_stack([
        y * z, y, y / z, -(z**n), -np.ones(5), -(z ** (-n)),
    ])
    assert np.allclose(G, expect)


def test_build_G_rejects_negative_y():
    z = np.exp(1j * np.linspace(0.1, 5.0, 5))
    with pytest.raises(InvalidInputError):
        build_G(z, [1.0, 2.0, -0.5, 1.0, 1.0], 3, 1)


def test_build_G_true_stack_in_null_space():
    rng = np.random.default_rng(83)
    for _ in range(8):
        s = int(rng.integers(1, 4))
        n = 4 * s - 1
        m = 8 * s - 3
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        y = forward_phaseless(theta, g, z, n)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
        # the unknown stack lists each centered Laurent block from its top power down
        w = np.concatenate([L_hat[::-1], L_tilde[::-1], L[::-1], np.conj(L_tilde)])
        G = build_G(z, y, n, s)
        assert G.shape == (m, 8 * s - 2)
        resid = np.linalg.norm(G @ w) / (np.linalg.norm(G) * np.linalg.norm(w))
        assert resid <= 1e-10


def test_build_Gtilde_shape_and_pattern():
    z = shifted_harmonics(5, 4, 1.1)
    y = np.arange(1.0, 5.0)
    Gt = build_Gtilde(z, y, 1)
    assert Gt.shape == (4, 4)
    zz = z.z
    expect = np.column_stack([y * zz, y, y / zz, -np.ones(4)])
    assert np.allclose(Gt, expect)


def test_build_Gtilde_true_stack_in_null_space():
    rng = np.random.default_rng(89)
    for _ in range(8):
        s = int(rng.integers(1, 4))
        n = 4 * s - 1
        gamma = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        z = shifted_harmonics(n, n, gamma)
        theta = np.exp(2j * np.pi * np.sort(rng.choice(n, s, replace=False)) / n)
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        y = forward_phaseless(theta, g, z.z, n)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
        p = (
            L[::-1]
            + np.exp(1j * gamma) * L_tilde[::-1]
            + np.exp(-1j * gamma) * np.conj(L_tilde)
        )
        w = np.concatenate([L_hat[::-1], p])
        Gt = build_Gtilde(z, y, s)
        assert Gt.shape == (n, 4 * s)
        resid = np.linalg.norm(Gt @ w) / (np.linalg.norm(Gt) * np.linalg.norm(w))
        assert resid <= 1e-10


def test_matrices_commute_with_row_permutation():
    rng = np.random.default_rng(97)
    s, n, m = 2, 7, 9
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    y = rng.uniform(0.1, 1.0, m)
    perm = rng.permutation(m)
    G = build_G(z, y, n, s)
    G_perm = build_G(z[perm], y[perm], n, s)
    assert np.allclose(G[perm], G_perm)
    A = build_A(z, y, n, s)
    assert np.allclose(A[perm], build_A(z[perm], y[perm], n, s))


# The builders as they were first written, one power call per column. numpy
# sends a Python-int `**2` to np.square, so these columns fix the rounding
# that the power-table builders must reproduce bit for bit.


def reference_vandermonde(z, n):
    pts = np.asarray(z, dtype=complex)
    return np.vstack([pts**r for r in range(n)])


def reference_A(z, y, n, s):
    cols = [y * z**k for k in range(s, -1, -1)]
    cols += [-(z ** (n + k)) for k in range(s - 1, -1, -1)]
    cols += [-(z**k) for k in range(s - 1, -1, -1)]
    return np.column_stack(cols)


def reference_B(z, y, s):
    cols = [y * z**k for k in range(s, -1, -1)]
    cols += [-(z**k) for k in range(s - 1, -1, -1)]
    return np.column_stack(cols)


def reference_phaseless(z, y, s, C_high=None):
    m = len(z)
    B = np.column_stack([y * z**k for k in range(s, 0, -1)])
    C_low = (
        np.column_stack([z**k for k in range(s - 1, 0, -1)])
        if s > 1
        else np.zeros((m, 0), dtype=complex)
    )
    C = C_low if C_high is None else np.hstack([C_high, C_low])
    return np.hstack([
        B, y[:, None], np.fliplr(np.conj(B)),
        -C, -np.ones((m, 1), dtype=complex), -np.fliplr(np.conj(C)),
    ])


def reference_G(z, y, n, s):
    C_high = np.column_stack([z ** (n + k) for k in range(s - 1, -s, -1)])
    return reference_phaseless(z, y.astype(complex), s, C_high)


def assert_same_bits(got, expect):
    assert got.shape == expect.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(float), expect.view(float))


def test_builders_match_per_column_reference_bit_for_bit():
    rng = np.random.default_rng(101)
    for s in range(1, 9):
        for _ in range(3):
            # disk points with complex y: vandermonde and build_A, down to n=2
            n = 2 * s + int(rng.integers(0, 3))
            m = 3 * s
            z = np.sqrt(rng.uniform(0.25, 4.0, m)) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            y = rng.normal(size=m) + 1j * rng.normal(size=m)
            assert_same_bits(vandermonde(z, n), reference_vandermonde(z, n))
            assert_same_bits(build_A(z, y, n, s), reference_A(z, y, n, s))

            # circle points with nonnegative y: build_G
            n = 4 * s - 1 + int(rng.integers(0, 3))
            m = 8 * s - 3
            z = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            y = rng.uniform(0.0, 3.0, m)
            assert_same_bits(vandermonde(z, n), reference_vandermonde(z, n))
            assert_same_bits(build_G(z, y, n, s), reference_G(z, y, n, s))

            # shifted harmonics: build_B and build_Gtilde
            n = 4 * s - 1
            h = shifted_harmonics(n, n, float(rng.uniform(0, 2 * np.pi)))
            yc = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert_same_bits(build_B(h, yc, s), reference_B(h.z, yc, s))
            y = rng.uniform(0.0, 3.0, n)
            assert_same_bits(
                build_Gtilde(h, y, s), reference_phaseless(h.z, y.astype(complex), s)
            )
    # s=1, n=2: the numerator column of build_A is exactly -z^2
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert_same_bits(build_A(z, y, 2, 1), reference_A(z, y, 2, 1))


def test_phaseless_builders_reject_non_finite_input():
    h = shifted_harmonics(7, 7, 0.3)
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        z = h.z.copy()
        z[2] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            build_G(z, np.ones(7), 7, 2)
        y = np.ones(7, dtype=complex)
        y[4] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            build_G(h.z, y, 7, 2)
        with pytest.raises(InvalidInputError, match="finite"):
            build_Gtilde(h, y, 2)


def test_descent_build_path_equals_the_public_builders():
    """The unchecked builds the phaseless descent runs give the public builders'
    matrices bit for bit, on the y that a PhaselessInstance holds."""
    from vrecover.recover_phaseless import PhaselessInstance
    from vrecover.structmat import _system_G, _system_Gtilde

    rng = np.random.default_rng(389)
    for s_max in (1, 2, 4, 6):
        n = 4 * s_max - 1
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s_max))
        g = rng.standard_normal(s_max) + 1j * rng.standard_normal(s_max)
        h = shifted_harmonics(n, n, 0.7)
        z = SampleSet(np.exp(1j * np.sort(rng.uniform(0, 2 * np.pi, 8 * s_max - 3))))
        for samples in (h, z):
            inst = PhaselessInstance(n, s_max, forward_phaseless(theta, g, samples, n), samples)
            y = inst.y.astype(complex)
            for s in range(1, s_max + 1):
                if samples.is_harmonic:
                    public, private = build_Gtilde(samples, inst.y, s), _system_Gtilde(h.z, y, s)
                else:
                    public, private = build_G(z, inst.y, n, s), _system_G(z.z, y, n, s)
                assert public.dtype == private.dtype and public.shape == private.shape
                assert public.tobytes() == private.tobytes()


def test_null_space_frozen_cases():
    one = null_space(np.array([[1.0, 1.0]]), *NULL_BOUNDS)
    assert one.dimension == 1
    b = one.basis[:, 0]
    assert np.allclose(np.abs(b), np.sqrt(0.5))
    assert abs(b[0] + b[1]) <= 1e-12

    assert null_space(np.eye(2), *NULL_BOUNDS).dimension == 0
    assert null_space(np.array([[1.0, 1.0], [1.0, 1.0]]), *NULL_BOUNDS).dimension == 1


def test_null_space_basis_residuals():
    rng = np.random.default_rng(101)
    for _ in range(10):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        M = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        res = null_space(M, *NULL_BOUNDS)
        sigma_max = res.singular_values[0]
        for k in range(res.dimension):
            assert np.linalg.norm(M @ res.basis[:, k]) <= 1e-8 * sigma_max * max(rows, cols) * 10


def test_null_space_wide_matrix_counts_shape_deficit():
    # a 2x4 full-rank matrix has two null directions even though the SVD
    # lists only two singular values
    rng = np.random.default_rng(103)
    M = rng.normal(size=(2, 4))
    res = null_space(M, *NULL_BOUNDS)
    assert res.dimension == 2
    for k in range(2):
        assert np.linalg.norm(M @ res.basis[:, k]) <= 1e-10


def test_null_space_gap_warning():
    M = np.diag([1.0, 1e-6, 2.9e-8])
    res = null_space(M, *NULL_BOUNDS)
    assert res.dimension == 1
    assert any("conditioning" in w for w in res.warnings)
    clean = null_space(np.diag([1.0, 1e-5, 1e-12]), *NULL_BOUNDS)
    assert clean.dimension == 1
    assert not clean.warnings


def test_refine_null_vector_improves_accuracy():
    rng = np.random.default_rng(107)
    # a nearly rank-deficient matrix with one exact null direction
    basis = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    sv = np.array([1.0, 0.5, 0.1, 1e-2, 3e-7, 0.0])
    M = (basis * sv) @ np.conj(basis.T)
    ns = null_space(M, 1e-6, TOL.gap_ratio)
    w0 = ns.basis[:, 0]
    w = refine_null_vector(M, w0, ns.factors)
    assert np.linalg.norm(M @ w) <= np.linalg.norm(M @ w0) + 1e-15
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12


def _with_singular_values(rng, rows, cols, sv):
    """A complex rows x cols matrix with the given singular values."""
    def unitary(k):
        return np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]

    S = np.zeros((rows, cols))
    S[np.arange(len(sv)), np.arange(len(sv))] = sv
    return unitary(rows) @ S @ np.conj(unitary(cols).T)


# square, tall, and the 45x46 shape of the widest phaseless system
_SHAPES = [(8, 8), (12, 9), (45, 46)]


def _graded(rng, rows, cols, decades, null=True):
    sv = np.logspace(0, -decades, min(rows, cols))
    if null and rows >= cols:
        sv[-1] = 0.0
    return _with_singular_values(rng, rows, cols, sv)


def test_null_space_gap_ratio_argument():
    M = np.diag([1.0, 1e-5, 1e-12])
    assert not null_space(M, 1e-8, TOL.gap_ratio).warnings
    assert any("singular value gap" in w for w in null_space(M, 1e-8, 1e30).warnings)


def _refine_with_pinv(M, w, steps=2):
    """Reference refinement through an explicit np.linalg.pinv."""
    pinv = np.linalg.pinv(M, rcond=1e-12)
    Mq = M.astype(np.clongdouble)
    wq = w.astype(np.clongdouble)
    for _ in range(steps):
        residual = np.asarray(Mq @ wq, dtype=np.clongdouble)
        wq = wq - (pinv @ residual.astype(complex)).astype(np.clongdouble)
        wq = wq / np.linalg.norm(wq.astype(complex))
    return wq.astype(complex)


def test_refine_from_factors_matches_pinv_reference():
    # up to a condition number of 1e8 the refined vector agrees with the
    # pinv route; beyond that two separate SVDs of M pick the smallest
    # singular directions differently by more than 1e-14, and both routes
    # end at the rounding floor of the residual
    rng = np.random.default_rng(127)
    for rows, cols in _SHAPES:
        for decades in (4, 6, 8):
            for _ in range(5):
                M = _graded(rng, rows, cols, decades)
                ns = null_space(M, 10.0 ** (-decades - 3), TOL.gap_ratio)
                w0 = ns.basis[:, 0]
                got = refine_null_vector(M, w0, ns.factors)
                assert np.max(np.abs(got - _refine_with_pinv(M, w0))) <= 1e-14


def test_pinv_apply_matches_numpy_pinv():
    rng = np.random.default_rng(131)
    for rows, cols in _SHAPES + [(9, 12)]:
        k = min(rows, cols)
        sv = np.logspace(0, -11, k)
        # straddle the 1e-12 cutoff: one direction kept, one dropped
        sv[-2:] = [3e-12, 3e-13]
        for M in (_graded(rng, rows, cols, 11, null=False),
                  _with_singular_values(rng, rows, cols, sv)):
            r = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            want = np.linalg.pinv(M, rcond=1e-12) @ r
            got = svd_factors(M).pinv_apply(r, rcond=1e-12)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_pinv_solve_basics():
    y = np.array([3.0, -1.0, 2.0])
    x = pinv_solve(np.eye(3), y, TOL.rank_rel_tol)
    assert np.allclose(x, y) and np.linalg.norm(x - y) <= 1e-12

    M2 = np.array([[1.0], [1.0]])
    x2 = pinv_solve(M2, [2.0, 2.0], TOL.rank_rel_tol)
    assert np.allclose(x2, [2.0]) and np.linalg.norm(M2 @ x2 - [2.0, 2.0]) <= 1e-12

    with pytest.raises(RankDeficiencyError):
        pinv_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0], TOL.rank_rel_tol)


def test_pinv_solve_uses_the_given_rank_bound():
    # sigma_min = 1e-6 against a threshold of rank_rel_tol * 1 * 2
    M = np.diag([1.0, 1e-6])
    with pytest.raises(RankDeficiencyError):
        pinv_solve(M, [1.0, 1e-6], 1e-3)
    x = pinv_solve(M, [1.0, 1e-6], 1e-8)
    assert np.allclose(x, [1.0, 1.0]) and np.linalg.norm(M @ x - [1.0, 1e-6]) <= 1e-12


def test_pinv_solve_recovers_weights():
    rng = np.random.default_rng(109)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        n = 2 * s + 3
        theta = rng.uniform(0.5, 2.0, s) * np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        z = rng.uniform(0.5, 1.0, 3 * s + 2) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 3 * s + 2)
        )
        y = forward_phase(theta, g, z, n)
        M = vandermonde(z, n).T @ vandermonde(theta, n)
        got = pinv_solve(M, y, TOL.rank_rel_tol)
        assert np.max(np.abs(got - g)) <= 1e-8 * max(1.0, np.max(np.abs(g)))
        assert np.linalg.norm(M @ got - y) <= 1e-8 * np.linalg.norm(y)


def test_harmonic_vandermonde_unitary():
    for n in (3, 5, 8):
        z = shifted_harmonics(n, n, 0.9)
        V = vandermonde(z, n)
        assert np.max(np.abs(np.conj(V.T) @ V - n * np.eye(n))) <= 1e-10
