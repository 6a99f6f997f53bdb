"""Polynomial and Laurent layer: arithmetic, roots, pairing, square roots."""

import doctest

import numpy as np
import pytest

from vrecover import cpoly
from vrecover.config import Tolerances
from vrecover.cpoly import (
    forward_polys,
    halve_doubled_roots,
    hermitian_defect,
    hermitian_part,
    laurent_conj,
    laurent_eval,
    laurent_from_products,
    laurent_sqrt,
    pair_conjugate_reciprocal,
    poly_eval,
    poly_from_roots,
    poly_roots,
    resultant,
    t_polynomial,
    t_values,
)
from vrecover.errors import (
    InvalidInputError,
    ModelMismatchError,
    NotASquareError,
    NumericalFailureError,
    PairingFailureError,
)

TOL_ROOT = Tolerances().tol_root


def test_docstring_examples():
    """The examples in cpoly's docstrings run and print what they show."""
    result = doctest.testmod(cpoly)
    assert result.attempted >= 3
    assert result.failed == 0


def test_poly_eval_basics():
    assert poly_eval(np.array([-1, 1]), 1.0) == 0
    assert poly_eval(np.array([1]), 3.7 + 2j) == 1
    assert poly_eval(np.array([2, -3, 1]), 2.0) == 0


def test_poly_eval_over_an_array():
    p = np.array([2, -3, 1])
    points = np.array([2.0, 1.0, 0.5j, -3.0 + 1j])
    got = poly_eval(p, points)
    assert got.shape == (4,)
    assert np.allclose(got, [poly_eval(p, q) for q in points], rtol=1e-15, atol=0)


def test_laurent_eval_over_an_array():
    a = np.array([1.0, -2j, 0.5, 3.0, 0.25j])
    points = np.array([1.0, -1j, 0.3 + 0.4j, 2.0 - 1j])
    got = laurent_eval(a, points)
    assert got.shape == (4,)
    for value, q in zip(got, points):
        want = laurent_eval(a, q)
        assert isinstance(want, complex)
        assert abs(value - want) <= 1e-14 * max(1.0, abs(want))
    assert np.array_equal(laurent_eval(np.zeros(3), points), np.zeros(4))
    assert laurent_eval(np.zeros(1), 2.0) == 0j
    for bad in (0.0, np.array([1.0, 0.0, 1j])):
        with pytest.raises(InvalidInputError):
            laurent_eval(a, bad)


def test_poly_roots_trims_zero_high_coefficients(monkeypatch):
    """Trailing zeros drop before the roots are taken and the bound is set."""
    p = np.array([2, -3, 1, 0, 0])  # (z - 1)(z - 2), padded to degree 4
    roots = poly_roots(p, TOL_ROOT)
    assert roots.shape == (2,)
    assert np.allclose(sorted(roots.real), [1.0, 2.0])
    with pytest.raises(InvalidInputError, match="^constant polynomial has no roots$"):
        poly_roots([5.0, 0.0, 0.0], TOL_ROOT)
    with pytest.raises(InvalidInputError, match="^roots of the zero polynomial are undefined$"):
        poly_roots([0.0, 0.0], TOL_ROOT)
    # a root moved off by 1e-3 fails against the bound of the trimmed degree 2
    seen = []

    def moved_roots(coeffs):
        seen.append(coeffs.copy())
        return np.array([1.0, 2.001 + 0j])

    monkeypatch.setattr(np, "roots", moved_roots)
    resid = abs(poly_eval(p[:3], 2.001))
    bound = 1e-8 * 3.0 * 2.001**2  # max|p| = 3 at degree 2
    with pytest.raises(NumericalFailureError) as info:
        poly_roots(p, 1e-8)
    assert str(info.value) == f"root residual {resid:.3e} exceeds bound {bound:.3e}"
    assert np.array_equal(seen[0], [1, -3, 2])


def test_poly_roots_small():
    assert np.allclose(poly_roots(np.array([-1, 1]), TOL_ROOT), [1.0])
    r = sorted(poly_roots(np.array([1, 0, 1]), TOL_ROOT), key=lambda v: v.imag)
    assert np.allclose(r, [-1j, 1j])
    assert np.allclose(sorted(poly_roots(np.array([2, -3, 1]), TOL_ROOT).real), [1.0, 2.0])


def test_poly_roots_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        poly_roots(np.array([5.0]), TOL_ROOT)
    with pytest.raises(InvalidInputError):
        poly_roots(np.array([]), TOL_ROOT)


def test_poly_roots_residual_bound():
    """Every returned root nearly zeroes the polynomial."""
    rng = np.random.default_rng(101)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        scale = np.max(np.abs(coeffs))
        for r in poly_roots(coeffs, TOL_ROOT):
            bound = 1e-8 * scale * max(1.0, abs(r)) ** deg
            assert abs(poly_eval(coeffs, r)) <= bound


def test_poly_roots_names_the_first_failing_root(monkeypatch):
    """The first root in np.roots order that misses its bound raises, with its values."""
    rng = np.random.default_rng(103)
    true_roots = rng.uniform(0.5, 2.0, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    p = poly_from_roots(true_roots)
    scale = max(abs(c) for c in p)
    for moved in ((), (5,), (2, 6), (0, 3, 7)):
        # roots off by 1e-6 have residuals far above rounding noise
        found = true_roots.copy()
        found[list(moved)] += 1e-6 * np.exp(1j * rng.uniform(0, 2 * np.pi, len(moved)))
        monkeypatch.setattr(np, "roots", lambda coeffs, found=found: found.copy())
        if not moved:
            assert np.array_equal(poly_roots(p, 1e-8), found)
            continue
        r = found[moved[0]]
        bound = 1e-8 * scale * max(1.0, abs(r)) ** (len(p) - 1)
        with pytest.raises(NumericalFailureError) as info:
            poly_roots(p, 1e-8)
        assert str(info.value) == (
            f"root residual {abs(poly_eval(p, r)):.3e} exceeds bound {bound:.3e}"
        )


def test_roots_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        # well separated roots so the reconstruction is stable
        while True:
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            ok = all(
                abs(roots[i] - roots[j]) > 0.3
                for i in range(deg)
                for j in range(i)
            )
            if ok:
                break
        lead = complex(rng.normal() + 1j * rng.normal())
        if abs(lead) < 0.2:
            lead = 1.0
        p = poly_from_roots(roots, lead)
        q = poly_from_roots(sorted(poly_roots(p, TOL_ROOT), key=lambda v: (v.real, v.imag)), lead)
        assert np.max(np.abs(p - q)) <= 1e-8 * np.max(np.abs(p))


def test_resultant_frozen_values():
    z_minus_1 = np.array([-1, 1])
    z_minus_2 = np.array([-2, 1])
    assert abs(resultant(z_minus_1, z_minus_1)) <= 1e-12
    assert abs(resultant(z_minus_1, z_minus_2) - (-1)) <= 1e-12
    assert abs(resultant(np.array([-1, 0, 1]), z_minus_1)) <= 1e-12
    with pytest.raises(InvalidInputError):
        resultant(np.array([]), z_minus_1)


def test_resultant_detects_shared_roots():
    rng = np.random.default_rng(11)
    for _ in range(15):
        shared = complex(rng.normal(), rng.normal())
        others = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = poly_from_roots([shared, others[0], others[1]])
        q_shared = poly_from_roots([shared, others[2]])
        q_clean = poly_from_roots([others[2], others[3]])
        scale = abs(resultant(p, q_clean))
        assert scale > 1e-9
        assert abs(resultant(p, q_shared)) <= 1e-9 * max(1.0, scale)


def test_t_polynomial_values():
    assert np.allclose(t_polynomial([5.0], 0), [1.0])
    assert np.allclose(t_polynomial([1.0, 2.0], 0), [-1.0, 2.0])
    assert np.allclose(t_polynomial([1.0, 2.0], 1), [-1.0, 1.0])
    with pytest.raises(InvalidInputError):
        t_polynomial([1.0, 0.0], 0)


def test_t_polynomials_linearly_independent():
    """The s coefficient vectors of t_0..t_{s-1} always span degree < s."""
    rng = np.random.default_rng(13)
    for s in range(1, 7):
        for _ in range(5):
            theta = rng.normal(size=s) + 1j * rng.normal(size=s)
            mat = np.zeros((s, s), dtype=complex)
            for l in range(s):
                c = t_polynomial(theta, l)
                mat[l, : len(c)] = c
            sv = np.linalg.svd(mat, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]


def test_forward_polys_single_support():
    u_hat, u_tilde, v = forward_polys([1j], [2.0], 4)
    assert np.allclose(u_hat, [2.0])
    assert np.allclose(u_tilde, [-2.0])
    assert np.allclose(v, [-1.0, 1j])


def test_forward_polys_generic_single():
    rng = np.random.default_rng(17)
    for _ in range(10):
        th = complex(rng.normal(), rng.normal())
        g0 = complex(rng.normal(), rng.normal())
        n = int(rng.integers(1, 9))
        if abs(th) < 0.1 or abs(g0) < 0.1:
            continue
        u_hat, u_tilde, _ = forward_polys([th], [g0], n)
        assert np.allclose(u_hat, [g0 * th**n])
        assert np.allclose(u_tilde, [-g0])


def test_forward_polys_two_point_worked():
    # theta = [1, -1], g = [1, 1], n = 2: the t-sum telescopes to a constant,
    # and the arrays keep the exact zero of its z coefficient
    u_hat, u_tilde, v = forward_polys([1.0, -1.0], [1.0, 1.0], 2)
    assert np.allclose(u_hat, [-2.0, 0.0])
    assert np.allclose(u_tilde, [2.0, 0.0])
    assert np.allclose(v, [1.0, 0.0, -1.0])


def test_forward_polys_identity():
    """u(z) = z^n u_hat(z) + u_tilde(z) against the direct rational sum."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = int(rng.integers(1, 5))
        n = int(rng.integers(2 * s, 2 * s + 6))
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s)) * rng.uniform(0.5, 2.0, s)
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        for z in rng.normal(size=4) + 1j * rng.normal(size=4):
            u_val = z**n * poly_eval(u_hat, z) + poly_eval(u_tilde, z)
            direct = sum(
                g[l] * ((z * theta[l]) ** n - 1)
                * np.prod([theta[i] * z - 1 for i in range(s) if i != l])
                for l in range(s)
            )
            assert abs(u_val - direct) <= 1e-8 * max(1.0, abs(direct))
        with pytest.raises(InvalidInputError):
            forward_polys(theta, g[:-1] if s > 1 else np.r_[g, g], n)


def test_forward_polys_match_per_pole_expansion():
    """The stacked t_l table gives the sums of the expanded t_polynomial rows."""
    rng = np.random.default_rng(29)
    for S in range(1, 9):
        for _ in range(5):
            theta = np.exp(1j * rng.uniform(0, 2 * np.pi, S)) * rng.uniform(0.5, 2.0, S)
            g = rng.normal(size=S) + 1j * rng.normal(size=S)
            n = int(rng.integers(S, 4 * S + 1))
            want_hat = want_tilde = np.zeros(S, dtype=complex)
            want_v = np.array([1.0 + 0j])
            for l in range(S):
                t_l = t_polynomial(theta, l)
                want_hat = want_hat + g[l] * theta[l] ** n * t_l
                want_tilde = want_tilde - g[l] * t_l
                want_v = np.convolve(want_v, [-1.0, theta[l]])
            wants = (want_hat, want_tilde, want_v)
            for a, b in zip(forward_polys(theta, g, n), wants):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    u_hat, u_tilde, v = forward_polys([], [], 3)
    assert u_hat.shape == u_tilde.shape == (0,)
    assert np.array_equal(v, [1.0])


def test_forward_polys_u_tilde_roots_simple():
    rng = np.random.default_rng(23)
    for _ in range(15):
        s = int(rng.integers(2, 5))
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        _, u_tilde, _ = forward_polys(theta, g, 4 * s - 1)
        roots = poly_roots(u_tilde, TOL_ROOT)
        for i in range(len(roots)):
            for j in range(i):
                assert abs(roots[i] - roots[j]) > 1e-6


def test_u_blocks_share_no_roots_generically():
    rng = np.random.default_rng(29)
    for _ in range(15):
        s = int(rng.integers(2, 5))
        n = 4 * s - 1
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, _ = forward_polys(theta, g, n)
        r = resultant(u_hat, u_tilde)
        assert abs(r) > 1e-10


def test_u_blocks_proportional_when_powers_collide():
    """All theta_k^n equal makes u_hat a scalar multiple of u_tilde."""
    rng = np.random.default_rng(31)
    n = 7
    for _ in range(10):
        phase = rng.uniform(0, 2 * np.pi)
        ks = rng.choice(n, size=2, replace=False)
        theta = np.exp(1j * (phase + 2 * np.pi * ks) / n)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        u_hat, u_tilde, _ = forward_polys(theta, g, n)
        a, b = u_hat, u_tilde
        ratio = a[np.argmax(np.abs(a))] / b[np.argmax(np.abs(a))]
        assert np.max(np.abs(a - ratio * b)) <= 1e-9 * np.max(np.abs(a))
        assert abs(abs(ratio) - 1.0) <= 1e-9


def test_laurent_from_products_constants():
    L, L_tilde, _ = laurent_from_products([2.0], [-2.0], [-1.0, 1j])
    assert L.shape == L_tilde.shape == (1,)
    assert np.allclose(L, [8.0])
    assert np.allclose(L_tilde, [-4.0])


def test_laurent_from_products_lhat_single():
    _, _, L_hat = laurent_from_products([2.0], [-2.0], [-1.0, 1j])
    assert np.allclose(L_hat, [1j, 2.0, -1j])


def test_laurent_blocks_on_circle():
    rng = np.random.default_rng(37)
    for _ in range(12):
        s = int(rng.integers(1, 5))
        n = 4 * s - 1
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
        assert hermitian_defect(L) <= 1e-10 * np.max(np.abs(L))
        assert hermitian_defect(L_hat) <= 1e-10 * np.max(np.abs(L_hat))
        # centered spans: -(s-1)..s-1 for the numerator blocks, -s..s for |v|^2
        assert L.shape == L_tilde.shape == (2 * s - 1,)
        assert L_hat.shape == (2 * s + 1,)
        for z in np.exp(1j * rng.uniform(0, 2 * np.pi, 20)):
            lhs = abs(poly_eval(u_hat, z)) ** 2 + abs(poly_eval(u_tilde, z)) ** 2
            val = laurent_eval(L, z)
            assert abs(val - lhs) <= 1e-10 * max(1.0, abs(lhs))
            assert laurent_eval(L, z).real >= -1e-10 * max(1.0, lhs)
            assert laurent_eval(L_hat, z).real >= -1e-12 * np.max(np.abs(L_hat))


def test_lhat_roots_are_doubled_conjugates():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, 4 * s - 1)
        _, _, L_hat = laurent_from_products(u_hat, u_tilde, v)
        roots = poly_roots(L_hat, TOL_ROOT)
        expected = np.conj(np.repeat(theta, 2))
        used = np.zeros(len(roots), dtype=bool)
        for e in expected:
            d = np.where(used, np.inf, np.abs(roots - e))
            j = int(np.argmin(d))
            assert d[j] <= 1e-6
            used[j] = True


def test_laurent_coeffs_are_the_shifted_polynomial():
    """L(z) = z**-(len(L)//2) * p(z) with the plain polynomial p = L."""
    L = np.array([-2.0, 5.0, -2.0])
    assert np.allclose(sorted(np.real(poly_roots(L, TOL_ROOT))), [0.5, 2.0])
    z = 0.3 + 0.7j
    want = z**-1 * poly_eval(L, z)
    assert abs(laurent_eval(L, z) - want) <= 1e-15 * abs(want)
    # exact zeros at the ends are kept, so the center stays at len(L)//2
    padded = np.array([0.0, -2.0, 5.0, -2.0, 0.0])
    assert abs(laurent_eval(padded, z) - want) <= 1e-15 * abs(want)
    with pytest.raises(InvalidInputError):
        poly_roots(np.zeros(3), TOL_ROOT)


def test_laurent_arithmetic_consistency():
    """np.convolve, + and * act on centered arrays as Laurent arithmetic."""
    rng = np.random.default_rng(43)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    z = np.exp(0.31j)
    prod = np.convolve(a, b)
    assert prod.shape == (7,)
    assert abs(laurent_eval(prod, z) - laurent_eval(a, z) * laurent_eval(b, z)) <= 1e-12
    # a shorter operand of a sum is padded equally at both ends
    tot = laurent_eval(a + np.pad(b, 1), z)
    assert abs(tot - laurent_eval(a, z) - laurent_eval(b, z)) <= 1e-12
    assert abs(laurent_eval(2.5j * a, z) - 2.5j * laurent_eval(a, z)) <= 1e-12
    # conjugation on the circle: conj-L of a evaluated at z equals conj(a(z))
    assert abs(laurent_eval(laurent_conj(a), z) - np.conj(laurent_eval(a, z))) <= 1e-12
    assert np.array_equal(laurent_conj(np.array([1.5, -1j, 2.0])), [2.0, 1j, 1.5])
    # the Hermitian part is real on the circle and has no Hermitian defect
    h = hermitian_part(a)
    assert abs(laurent_eval(h, z) - laurent_eval(a, z).real) <= 1e-12
    assert hermitian_defect(h) == 0.0
    assert hermitian_defect(np.zeros(3)) == 0.0
    # a times its conjugate is |a|^2 on the circle
    assert abs(laurent_eval(np.convolve(a, laurent_conj(a)), z) - abs(laurent_eval(a, z)) ** 2) <= 1e-12


def test_pair_conjugate_reciprocal():
    pairs = pair_conjugate_reciprocal([2.0, 0.5], 1e-6)
    assert len(pairs) == 1
    assert np.allclose(sorted(np.real(pairs[0])), [0.5, 2.0])

    pairs = pair_conjugate_reciprocal([3j, 1j / 3], 1e-6)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert abs(b - 1.0 / np.conj(a)) <= 1e-9

    w = np.exp(1j * np.pi / 4)
    pairs = pair_conjugate_reciprocal([w], 1e-6)
    assert len(pairs) == 1
    assert abs(pairs[0][0] - w) <= 1e-12 and abs(pairs[0][1] - w) <= 1e-12

    with pytest.raises(PairingFailureError):
        pair_conjugate_reciprocal([2.0, 3.0], 1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("roots", [
    [0, 2, 0.5], [2, 0.5, 0], [0], [np.inf, 2, 0.5], [np.nan, 1j], [complex(1, np.inf)],
])
def test_pair_conjugate_reciprocal_rejects_zero_and_non_finite_roots(roots):
    """Such a root has no partner; it raises before any division can warn."""
    with pytest.raises(PairingFailureError, match="no conjugate-reciprocal partner"):
        pair_conjugate_reciprocal(roots, 1e-6)


def test_pair_conjugate_reciprocal_random():
    rng = np.random.default_rng(47)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        inside = rng.uniform(0.2, 0.8, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        roots = np.concatenate([inside, 1.0 / np.conj(inside)])
        rng.shuffle(roots)
        pairs = pair_conjugate_reciprocal(roots, 1e-6)
        assert len(pairs) == k
        for a, b in pairs:
            assert abs(b - 1.0 / np.conj(a)) <= 1e-6 * max(1.0, abs(b))


def test_pair_conjugate_reciprocal_matches_pairwise_scan():
    """The greedy order, ties and cut-off of a full rescan on every step."""
    def scan(roots, tol):
        roots = [complex(r) for r in roots]
        unused = set(range(len(roots)))
        pairs = []
        while len(unused) >= 2:
            best, best_d = None, np.inf
            for i in sorted(unused):
                target = 1.0 / np.conj(roots[i])
                for j in sorted(unused):
                    d = abs(roots[j] - target) / max(1.0, abs(target))
                    if i != j and d < best_d:
                        best_d, best = d, (i, j)
            if best is None or best_d > tol:
                break
            pairs.append((roots[best[0]], roots[best[1]]))
            unused -= set(best)
        for i in sorted(unused):
            target = 1.0 / np.conj(roots[i])
            if abs(roots[i] - target) / max(1.0, abs(target)) > tol:
                return PairingFailureError
            pairs.append((roots[i], roots[i]))
        return pairs

    rng = np.random.default_rng(53)
    for trial in range(300):
        k = int(rng.integers(0, 7))
        inside = rng.uniform(0.3, 1.2, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        roots = np.concatenate([inside, 1.0 / np.conj(inside)])
        roots = roots + 1e-5 * rng.standard_normal(len(roots)) * (trial % 2)
        if trial % 5 == 0 and len(roots) > 2:
            roots[2] = roots[1]
        roots = roots[: len(roots) - trial % 3]
        rng.shuffle(roots)
        tol = (1e-6, 1e-4, 1e-2)[trial % 3]
        want = scan(roots, tol)
        if want is PairingFailureError:
            with pytest.raises(PairingFailureError):
                pair_conjugate_reciprocal(roots, tol)
        else:
            got = pair_conjugate_reciprocal(roots, tol)
            assert np.array_equal(got, np.array(want, dtype=complex).reshape(-1, 2))


def test_t_values_match_horner():
    rng = np.random.default_rng(59)
    theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    points = rng.uniform(0.2, 3.0, 9) * np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
    table = t_values(theta, points)
    assert table.shape == (9, 6)
    for p, q in enumerate(points):
        for l in range(6):
            want = poly_eval(t_polynomial(theta, l), q)
            assert abs(table[p, l] - want) <= 1e-12 * max(1.0, abs(want))
    assert t_values([2.0], points).shape == (9, 1)
    assert np.all(t_values([2.0], points) == 1.0)
    with pytest.raises(InvalidInputError):
        t_values([1.0, 0.0], points)


def test_laurent_sqrt_constant():
    m = laurent_sqrt(np.array([9.0]), 1e-8, TOL_ROOT)
    assert m.shape == (1,)
    assert np.allclose(m, [3.0])


def test_laurent_sqrt_zero():
    for length in (1, 5, 9):
        m = laurent_sqrt(np.zeros(length), 1e-8, TOL_ROOT)
        assert np.array_equal(m, np.zeros(length // 2 + 1))


def test_laurent_sqrt_needs_length_one_mod_four():
    """A centered square of length 2d+1 has a root of length d+1, so d is even."""
    for length in (2, 3, 4, 6, 7):
        with pytest.raises(NotASquareError, match="^odd degree span cannot be a square$"):
            laurent_sqrt(np.ones(length), 1e-8, TOL_ROOT)


def test_laurent_sqrt_keeps_end_zeros():
    """Zero padding of a square maps to half as much zero padding of its root."""
    m = np.array([1.0 - 2j, 5.0, 1.0 + 2j])  # Hermitian, positive at z = 1
    D = np.convolve(m, m)
    got = laurent_sqrt(np.pad(D, 2), 1e-8, TOL_ROOT)
    assert got.shape == (5,) and got[0] == got[-1] == 0
    assert np.max(np.abs(got[1:-1] - m)) <= 1e-12 * np.max(np.abs(m))
    # a nonzero span starting at an odd position has no centered root
    with pytest.raises(NotASquareError, match="^odd degree span cannot be a square$"):
        laurent_sqrt(np.concatenate([[0.0], D, [0.0, 0.0, 0.0]]), 1e-8, TOL_ROOT)


def test_laurent_sqrt_sign_convention():
    # value at z=1 comes out real nonnegative regardless of the factor the
    # square was built from
    rng = np.random.default_rng(53)
    for _ in range(10):
        s = int(rng.integers(2, 4))
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, 4 * s - 1)
        L, L_tilde, _ = laurent_from_products(u_hat, u_tilde, v)
        disc = np.convolve(L, L) - 4.0 * np.convolve(L_tilde, laurent_conj(L_tilde))
        m = laurent_sqrt(disc, 1e-8, TOL_ROOT)
        assert m.shape == (2 * s - 1,)
        at_one = laurent_eval(m, 1.0)
        assert abs(at_one.imag) <= 1e-7 * max(1.0, abs(at_one))
        assert at_one.real >= -1e-7
        assert hermitian_defect(m) <= 1e-6 * np.max(np.abs(m))


def test_laurent_sqrt_from_split_discriminant():
    """L^2 - 4K of a non-harmonic instance is a perfect Laurent square."""
    rng = np.random.default_rng(59)
    for _ in range(8):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        n = 7
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, _ = laurent_from_products(u_hat, u_tilde, v)
        disc = np.convolve(L, L) - 4.0 * np.convolve(L_tilde, laurent_conj(L_tilde))
        m = laurent_sqrt(disc, 1e-8, TOL_ROOT)
        err = np.convolve(m, m) - disc
        assert np.max(np.abs(err)) <= 1e-8 * np.max(np.abs(disc))


def test_halve_doubled_roots():
    split = 1e-5 * np.exp(1j * np.arange(2))
    roots = [2.0 + split[0], 2.0 - split[0], 0.5j + split[1], 0.5j - split[1]]
    halved = halve_doubled_roots(roots, 1e-3, NotASquareError, "odd", "gap {gap:.1e}")
    assert np.allclose(sorted(halved, key=abs), [0.5j, 2.0], atol=1e-15)
    with pytest.raises(ModelMismatchError, match="^odd$"):
        halve_doubled_roots(roots[1:], 1e-3, ModelMismatchError, "odd", "gap {gap:.1e}")
    # the last pair is split by 0.1 / 1.1 relative to its larger root, far
    # beyond the radius, and no other root is left to widen the allowance
    with pytest.raises(NotASquareError, match=r"^gap 9\.1e-02$"):
        halve_doubled_roots([1.0, 1.1, 3.0, 3.0], 1e-3, NotASquareError, "odd", "gap {gap:.1e}")


def _halve_doubled_roots_list(roots, radius, error, odd_message, gap_message):
    """halve_doubled_roots as a Python list scan, popping from the end."""
    roots = list(roots)
    halved = []
    while roots:
        r = roots.pop()
        if not roots:
            raise error(odd_message)
        dists = [abs(r - other) / max(1.0, abs(r)) for other in roots]
        jmin = int(np.argmin(dists))
        rest = [d for k, d in enumerate(dists) if k != jmin]
        allow = max(radius, 0.05 * min(rest)) if rest else radius
        if dists[jmin] > allow:
            raise error(gap_message.format(gap=dists[jmin]))
        halved.append((r + roots.pop(jmin)) / 2.0)
    return halved


def _clustered_roots(rng):
    """Noise-split double roots; some sets odd, tied, or split too wide."""
    k = int(rng.integers(1, 11))
    centers = np.exp(rng.uniform(np.log(0.3), np.log(3.0), k)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, k)
    )
    split = 10.0 ** rng.uniform(-10, -2, k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    roots = np.concatenate([centers + split, centers - split])
    kind = rng.integers(4)
    if kind == 1:
        roots = roots[1:]
    elif kind == 2:
        # exact repeats make ties between equal distances
        roots = np.concatenate([roots, roots[: 2 * int(rng.integers(1, k + 1))]])
    return roots[rng.permutation(len(roots))]


def test_halve_doubled_roots_matches_list_scan():
    rng = np.random.default_rng(593)
    outcomes = set()
    for _ in range(400):
        roots = _clustered_roots(rng)
        radius = float(10.0 ** rng.uniform(-8, -2))
        args = (radius, NotASquareError, "odd", "gap {gap:.17e}")
        try:
            want = _halve_doubled_roots_list(roots, *args)
        except NotASquareError as exc:
            with pytest.raises(NotASquareError) as got:
                halve_doubled_roots(roots, *args)
            assert str(got.value) == str(exc)
            outcomes.add("odd" if str(exc) == "odd" else "gap")
            continue
        got = halve_doubled_roots(roots, *args)
        assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()
        outcomes.add("halved")
    assert outcomes == {"odd", "gap", "halved"}


def test_laurent_sqrt_rejects_odd_multiplicity():
    # (z - 2)(z - 1/2)(z - 3)(z - 1/3) has four isolated roots, not doubled ones
    D = poly_from_roots([2.0, 0.5, 3.0, 1.0 / 3.0])
    with pytest.raises(NotASquareError, match="^odd-multiplicity root cluster$"):
        laurent_sqrt(D, 1e-8, TOL_ROOT)
