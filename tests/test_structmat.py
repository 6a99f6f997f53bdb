"""Measurement matrices, sample sets, and the rank-revealing solvers."""

import numpy as np
import pytest

from vrecover.config import Tolerances
from vrecover.cpoly import forward_polys, laurent_from_products
from vrecover.errors import InvalidInputError, NumericalFailureError, RankDeficiencyError
from vrecover.oracle import forward_phase, forward_phaseless
from vrecover.structmat import (
    NullSpaceResult,
    SampleSet,
    _pinv_apply,
    build_A,
    build_B,
    build_G,
    build_Gtilde,
    measurement_matrix,
    null_space,
    pinv_solve,
    readonly_array,
    refine_null_vector,
    shifted_harmonics,
    vandermonde,
    zero_bound,
)

TOL = Tolerances()
# the default rank threshold, in null_space's argument order
NULL_BOUNDS = (TOL.rank_rel_tol,)


def test_vandermonde_columns():
    assert np.allclose(vandermonde([1.0], 3), [[1.0], [1.0], [1.0]])
    assert np.allclose(vandermonde([2.0], 3), [[1.0], [2.0], [4.0]])
    assert np.allclose(vandermonde([1j, -1j], 2), [[1, 1], [1j, -1j]])
    assert vandermonde(np.ones(5), 4).shape == (4, 5)


def test_vandermonde_raises_before_its_powers_overflow():
    """A point with |z|^(n-1) past e^(log(float max) - 1) raises before any
    power is taken, so no RuntimeWarning and no inf reach the table."""
    assert np.isfinite(vandermonde([1.99, 0.5j], 1024)).all()
    for z, n in (([0.5, 2.0], 1024), ([1.0, 1.5j], 2048), ([np.inf], 2)):
        with pytest.raises(NumericalFailureError, match=r"powers overflow: \|z\|\^"):
            vandermonde(z, n)


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


def test_readonly_array_takes_flat_lists_only():
    arr = readonly_array([1.0, 2.0], complex, "grid points")
    assert arr.dtype == complex and arr.shape == (2,) and not arr.flags.writeable
    assert readonly_array([], float, "measurements").shape == (0,)
    for bad in (3.0, [[1.0, 2.0], [3.0, 4.0]], np.ones((6, 2)), [[1.0, 2.0, 3.0]]):
        with pytest.raises(InvalidInputError, match="^measurements must be a flat list of numbers$"):
            readonly_array(bad, float, "measurements")
    with pytest.raises(InvalidInputError, match="^sample points must be a flat list"):
        SampleSet(np.ones((3, 1)))


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

    # a repeated point adds a row but no information; the rule is the grid
    # check's: within 1e-9 * max(1, |later point|)
    for _, _, z in coincident_sample_cases():
        with pytest.raises(InvalidInputError, match="^sample points are not distinct$"):
            SampleSet(z)
    with pytest.raises(InvalidInputError, match="not distinct"):
        SampleSet((0.5, 2.0, 2.0 + 1e-9))
    SampleSet((0.5, 2.0, 2.0 + 3e-9))
    with pytest.raises(InvalidInputError, match="not distinct"):
        SampleSet(roots[[0, 1, 1]], gamma=0.5, n=4)


def coincident_sample_cases():
    """z = [0, 0, 0] at n=2, s=1, and six samples on three distinct points at n=4, s=2."""
    three = np.array([0.9, 0.5j, -0.7 + 0.1j])
    return [(2, 1, np.zeros(3, complex)), (4, 2, np.concatenate([three, three]))]


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

            # shifted harmonics: build_B and build_Gtilde, and build_A and
            # build_G at the set's n, which merge to the same systems
            n = 4 * s - 1
            h = shifted_harmonics(n, n, float(rng.uniform(0, 2 * np.pi)))
            yc = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert_same_bits(build_B(h, yc, s), reference_B(h.z, yc, s))
            assert_same_bits(build_A(h, yc, n, s), reference_B(h.z, yc, s))
            y = rng.uniform(0.0, 3.0, n)
            expect = reference_phaseless(h.z, y.astype(complex), s)
            assert_same_bits(build_Gtilde(h, y, s), expect)
            assert_same_bits(build_G(h, y, n, s), expect)
    # s=1, n=2: the numerator column of build_A is exactly -z^2
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    y = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert_same_bits(build_A(z, y, 2, 1), reference_A(z, y, 2, 1))


def test_harmonic_columns_alias_as_the_merge_assumes():
    """On shifted harmonics given as plain points, the unmerged systems carry
    the aliases that `build_A` and `build_G` merge on a harmonic `SampleSet`."""
    rng = np.random.default_rng(103)
    gamma = 0.8
    for s in range(1, 8):
        for n in (2 * s, 3 * s + 1, 8 * s):
            h = shifted_harmonics(n, n, gamma)
            yc = rng.normal(size=n) + 1j * rng.normal(size=n)
            A = build_A(h.z, yc, n, s)
            assert A.shape == (n, 3 * s + 1)
            u_hat, u_tilde = A[:, s + 1 : 2 * s + 1], A[:, 2 * s + 1 :]
            gap = np.abs(u_hat - np.exp(1j * gamma) * u_tilde).max()
            assert gap <= 1e-12 * np.abs(u_tilde).max()
        for n in (4 * s - 1, 4 * s + 2, 8 * s):
            h = shifted_harmonics(n, n, gamma)
            y = rng.uniform(0.0, 3.0, n)
            G, Gt = build_G(h.z, y, n, s), build_G(h, y, n, s)
            assert G.shape == (n, 8 * s - 2) and Gt.shape == (n, 4 * s)
            # the |v|^2 block maps one to one
            assert np.array_equal(G[:, : 2 * s + 1], Gt[:, : 2 * s + 1])
            # each merged numerator column is a unit-phase multiple of exactly
            # three general ones, and every general one belongs to one of them
            merged, general = Gt[:, 2 * s + 1 :], G[:, 2 * s + 1 :]
            phase = general[0][:, None] / merged[0]  # entries all lie on the circle
            gap = np.abs(general.T[:, None, :] - phase[:, :, None] * merged.T[None]).max(axis=2)
            matches = gap <= 1e-12
            assert (matches.sum(axis=1) == 1).all()
            assert (matches.sum(axis=0) == 3).all()
    # a harmonic set builds only at its own n
    h = shifted_harmonics(8, 8, gamma)
    with pytest.raises(InvalidInputError, match="n=8"):
        build_A(h, np.ones(8), 9, 2)
    with pytest.raises(InvalidInputError, match="n=8"):
        build_G(h, np.ones(8), 7, 2)


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


def test_null_space_keeps_a_real_matrix_real():
    """A real matrix gets a real SVD and basis, with the dimension and, within
    rounding, the spectrum and gap of its complex cast; refinement stays real."""
    rng = np.random.default_rng(109)
    for small in ([1e-9], [1e-12, 2e-12], [3e-13, 1e-12, 2e-12]):
        U = np.linalg.qr(rng.normal(size=(9, 9)))[0]
        V = np.linalg.qr(rng.normal(size=(7, 7)))[0]
        sv = np.concatenate([[1.0, 0.7, 0.4, 0.2, 0.1, 0.05][: 7 - len(small)], small])
        M = U[:, :7] @ np.diag(sv) @ V.T
        real = null_space(M, *NULL_BOUNDS)
        cast = null_space(M.astype(complex), *NULL_BOUNDS)
        assert real.basis.dtype == real.factors.Vh.dtype == np.float64
        assert real.dimension == cast.dimension == len(small)
        assert np.abs(real.singular_values - cast.singular_values).max() <= 1e-14
        assert abs(real.gap - cast.gap) <= 1e-3
        w = refine_null_vector(M, real.basis[:, 0], real.factors)
        assert w.dtype == np.float64 and np.linalg.norm(M @ w) <= 1e-8


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
    ns = null_space(M, 1e-6)
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


def test_null_space_warns_below_a_gap_of_1e3():
    quiet = null_space(np.diag([1.0, 1e-5, 1e-12]), 1e-8)
    loud = null_space(np.diag([1.0, 1e-2, 1e-4]), 1e-3)
    assert quiet.dimension == 1 and quiet.gap == pytest.approx(7.0) and not quiet.warnings
    assert loud.dimension == 1 and loud.gap == pytest.approx(2.0)
    assert loud.warnings == (
        "conditioning-warning: singular value gap 1.00e+02 below 1e+03 at rank 2",
    )


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (1, 1)])
def test_null_space_rejects_an_all_zero_matrix(shape):
    """An all-zero matrix has no spectrum to read a gap from; it is refused
    before any log is taken, as an empty one is."""
    for dtype in (float, complex):
        with pytest.raises(InvalidInputError, match="all-zero"):
            null_space(np.zeros(shape, dtype), *NULL_BOUNDS)


def _reference_null_space(M, rank_rel_tol, allowed=None):
    """The decision code of `null_space` as it read sigma through a zero-padded
    numpy copy, an `np.where` floor and `np.argmax`, kept as the reference."""
    M = np.asarray(M)
    factors = np.linalg.svd(M)
    ncols = M.shape[1]
    sv = np.concatenate([factors.S, np.zeros(ncols - len(factors.S))])
    smax = sv[0]
    if sv[-1] > zero_bound(smax, M.shape, rank_rel_tol):
        return NullSpaceResult(0, np.zeros((ncols, 0), factors.Vh.dtype), sv, (), factors)
    floor = np.where(sv > 0, sv, np.finfo(float).eps * smax)
    tight = zero_bound(smax, M.shape, 1e-4 * rank_rel_tol)
    counts = [1] + [d for d in (range(1, ncols) if allowed is None else allowed)
                    if 1 < d < ncols and sv[ncols - d] <= tight]
    logs = np.log10(floor)
    gaps = [logs[ncols - d - 1] - logs[ncols - d] for d in counts]
    best = int(np.argmax(gaps))
    dimension, gap = counts[best], float(gaps[best])
    warnings = ()
    if gap < np.log10(1e3):
        warnings = (
            f"conditioning-warning: singular value gap {10.0**gap:.2e} "
            f"below 1e+03 at rank {ncols - dimension}",
        )
    basis = factors.Vh[ncols - dimension:].conj().T
    return NullSpaceResult(dimension, basis, sv, warnings, factors, gap)


def _sparse_diagonal(rows, cols, sv):
    """A rows x cols matrix with one entry per row and column, scattered, whose
    SVD returns `sv` exactly."""
    M = np.zeros((rows, cols))
    M[np.arange(len(sv)), np.roll(np.arange(cols), 2)[: len(sv)]] = sv
    return M


def _rank_deficient(rng, rows, cols, deficit, complex_):
    """A random rows x cols product of rank min(rows, cols) - deficit."""
    r = min(rows, cols) - deficit
    left, right = rng.normal(size=(rows, r)), rng.normal(size=(r, cols))
    if complex_:
        left = left + 1j * rng.normal(size=(rows, r))
        right = right + 1j * rng.normal(size=(r, cols))
    return left @ right


def test_null_space_decision_matches_the_reference_bit_for_bit():
    """Dimension, gap, basis, padded spectrum and warnings are those of the
    padded-array decision code, bit for bit."""
    rng = np.random.default_rng(137)
    cases = []
    for complex_ in (False, True):
        for rows, cols in [(9, 7), (8, 8), (6, 9), (45, 46)]:
            for deficit in (1, 2, 3):
                cases.append((_rank_deficient(rng, rows, cols, deficit, complex_), None))
            cases.append((_rank_deficient(rng, rows, cols, 0, complex_), None))
            cases.append((_rank_deficient(rng, rows, cols, 2, complex_), [1, 3, 5]))
    for rows, cols in _SHAPES:
        cases.append((_graded(rng, rows, cols, 10), None))
        cases.append((_graded(rng, rows, cols, 10), [1]))
    # wide: a computed sigma below eps * sigma_max beside the padded zero,
    # which the floor must leave as it is, read with and without `allowed`
    tiny = _sparse_diagonal(5, 6, [1.0, 0.7, 0.3, 1e-7, 1e-19])
    sv = np.linalg.svd(tiny).S
    assert 0 < sv[-1] < np.finfo(float).eps * sv[0]
    cases += [(tiny, None), (tiny, [1, 3, 5]), (tiny.astype(complex) * 1j, None)]
    # a two-way tie: gaps of exactly 13 decades at d = 1 and d = 2
    tie = np.diag([1.0, 1e-13, 1e-26])
    logs = np.log10(np.linalg.svd(tie).S)
    assert logs[0] - logs[1] == logs[1] - logs[2]
    cases += [(tie, None), (tie, [1, 2])]
    dimensions = set()
    for M, allowed in cases:
        got = null_space(M, TOL.rank_rel_tol, allowed)
        want = _reference_null_space(M, TOL.rank_rel_tol, allowed)
        dimensions.add(got.dimension)
        assert got.dimension == want.dimension
        assert np.array(got.gap).tobytes() == np.array(want.gap).tobytes()
        assert got.basis.dtype == want.basis.dtype
        assert got.basis.tobytes() == want.basis.tobytes()
        assert got.singular_values.tobytes() == want.singular_values.tobytes()
        assert got.warnings == want.warnings
    assert {0, 1, 2, 3} <= dimensions


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
                ns = null_space(M, 10.0 ** (-decades - 3))
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
            got = _pinv_apply(np.linalg.svd(M), r, rcond=1e-12)
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
