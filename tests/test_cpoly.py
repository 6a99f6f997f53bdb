"""Polynomial and Laurent layer: arithmetic, roots, pairing, square roots."""

import numpy as np
import pytest

from vrecover.config import Tolerances
from vrecover.cpoly import (
    LaurentPoly,
    Poly,
    forward_polys,
    halve_doubled_roots,
    hermitian_defect,
    laurent_add,
    laurent_conj,
    laurent_eval,
    laurent_from_products,
    laurent_mul,
    laurent_scale,
    laurent_sqrt,
    laurent_to_poly,
    pair_conjugate_reciprocal,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_roots,
    resultant,
    t_polynomial,
    t_values,
)
from vrecover.errors import (
    InvalidInputError,
    ModelMismatchError,
    NotASquareError,
    PairingFailureError,
)

TOL_ROOT = Tolerances().tol_root


def test_poly_eval_basics():
    assert poly_eval(Poly([-1, 1]), 1.0) == 0
    assert poly_eval(Poly([1]), 3.7 + 2j) == 1
    assert poly_eval(Poly([2, -3, 1]), 2.0) == 0


def test_poly_degree_and_trim():
    p = Poly([1, 2, 0, 0])
    assert p.degree() == 1
    assert Poly([]).is_zero()
    with pytest.raises(InvalidInputError):
        Poly([]).degree()


def test_poly_roots_small():
    assert np.allclose(poly_roots(Poly([-1, 1]), TOL_ROOT), [1.0])
    r = sorted(poly_roots(Poly([1, 0, 1]), TOL_ROOT), key=lambda v: v.imag)
    assert np.allclose(r, [-1j, 1j])
    assert np.allclose(sorted(poly_roots(Poly([2, -3, 1]), TOL_ROOT).real), [1.0, 2.0])


def test_poly_roots_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        poly_roots(Poly([5.0]), TOL_ROOT)
    with pytest.raises(InvalidInputError):
        poly_roots(Poly([]), TOL_ROOT)


def test_poly_roots_residual_bound():
    """Every returned root nearly zeroes the polynomial."""
    rng = np.random.default_rng(101)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = Poly(coeffs)
        scale = np.max(np.abs(coeffs))
        for r in poly_roots(p, TOL_ROOT):
            bound = 1e-8 * scale * max(1.0, abs(r)) ** p.degree()
            assert abs(poly_eval(p, r)) <= bound


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
        a, b = p.array(), q.array()
        assert np.max(np.abs(a - b)) <= 1e-8 * np.max(np.abs(a))


def test_resultant_frozen_values():
    z_minus_1 = Poly([-1, 1])
    z_minus_2 = Poly([-2, 1])
    assert abs(resultant(z_minus_1, z_minus_1)) <= 1e-12
    assert abs(resultant(z_minus_1, z_minus_2) - (-1)) <= 1e-12
    assert abs(resultant(Poly([-1, 0, 1]), z_minus_1)) <= 1e-12
    with pytest.raises(InvalidInputError):
        resultant(Poly([]), z_minus_1)


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
    assert np.allclose(t_polynomial([5.0], 0).array(), [1.0])
    assert np.allclose(t_polynomial([1.0, 2.0], 0).array(), [-1.0, 2.0])
    assert np.allclose(t_polynomial([1.0, 2.0], 1).array(), [-1.0, 1.0])
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
                c = t_polynomial(theta, l).array()
                mat[l, : len(c)] = c
            sv = np.linalg.svd(mat, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]


def test_forward_polys_single_support():
    u_hat, u_tilde, v = forward_polys([1j], [2.0], 4)
    assert np.allclose(u_hat.array(), [2.0])
    assert np.allclose(u_tilde.array(), [-2.0])
    assert np.allclose(v.array(), [-1.0, 1j])


def test_forward_polys_generic_single():
    rng = np.random.default_rng(17)
    for _ in range(10):
        th = complex(rng.normal(), rng.normal())
        g0 = complex(rng.normal(), rng.normal())
        n = int(rng.integers(1, 9))
        if abs(th) < 0.1 or abs(g0) < 0.1:
            continue
        u_hat, u_tilde, _ = forward_polys([th], [g0], n)
        assert np.allclose(u_hat.array(), [g0 * th**n])
        assert np.allclose(u_tilde.array(), [-g0])


def test_forward_polys_two_point_worked():
    # theta = [1, -1], g = [1, 1], n = 2: the t-sum telescopes to a constant
    u_hat, u_tilde, v = forward_polys([1.0, -1.0], [1.0, 1.0], 2)
    assert np.allclose(u_hat.array(), [-2.0])
    assert np.allclose(u_tilde.array(), [2.0])
    assert np.allclose(v.array(), [1.0, 0.0, -1.0])


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
        a, b = u_hat.array(), u_tilde.array()
        ratio = a[np.argmax(np.abs(a))] / b[np.argmax(np.abs(a))]
        assert np.max(np.abs(a - ratio * b)) <= 1e-9 * np.max(np.abs(a))
        assert abs(abs(ratio) - 1.0) <= 1e-9


def test_laurent_from_products_constants():
    L, L_tilde, _ = laurent_from_products(Poly([2.0]), Poly([-2.0]), Poly([-1.0, 1j]))
    assert L.min_degree == 0
    assert np.allclose(L.array(), [8.0])
    assert np.allclose(L_tilde.array(), [-4.0])


def test_laurent_from_products_lhat_single():
    _, _, L_hat = laurent_from_products(Poly([2.0]), Poly([-2.0]), Poly([-1.0, 1j]))
    assert L_hat.min_degree == -1
    assert np.allclose(L_hat.array(), [1j, 2.0, -1j])


def test_laurent_blocks_on_circle():
    rng = np.random.default_rng(37)
    for _ in range(12):
        s = int(rng.integers(1, 5))
        n = 4 * s - 1
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
        assert hermitian_defect(L) <= 1e-10 * np.max(np.abs(L.array()))
        assert hermitian_defect(L_hat) <= 1e-10 * np.max(np.abs(L_hat.array()))
        # degrees: s-1 for the numerator blocks, s for |v|^2
        assert L.max_degree() <= s - 1 and -L.min_degree <= s - 1
        assert L_tilde.max_degree() <= s - 1
        assert L_hat.max_degree() == s and L_hat.min_degree == -s
        for z in np.exp(1j * rng.uniform(0, 2 * np.pi, 20)):
            lhs = abs(poly_eval(u_hat, z)) ** 2 + abs(poly_eval(u_tilde, z)) ** 2
            val = laurent_eval(L, z)
            assert abs(val - lhs) <= 1e-10 * max(1.0, abs(lhs))
            assert laurent_eval(L, z).real >= -1e-10 * max(1.0, lhs)
            assert laurent_eval(L_hat, z).real >= -1e-12 * np.max(np.abs(L_hat.array()))


def test_lhat_roots_are_doubled_conjugates():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, s))
        g = rng.normal(size=s) + 1j * rng.normal(size=s)
        u_hat, u_tilde, v = forward_polys(theta, g, 4 * s - 1)
        _, _, L_hat = laurent_from_products(u_hat, u_tilde, v)
        p, _ = laurent_to_poly(L_hat)
        roots = poly_roots(p, TOL_ROOT)
        expected = np.conj(np.repeat(theta, 2))
        used = np.zeros(len(roots), dtype=bool)
        for e in expected:
            d = np.where(used, np.inf, np.abs(roots - e))
            j = int(np.argmin(d))
            assert d[j] <= 1e-6
            used[j] = True


def test_laurent_to_poly():
    L = LaurentPoly([-2.0, 5.0, -2.0], -1)
    p, shift = laurent_to_poly(L)
    assert shift == -1
    assert np.allclose(p.array(), [-2.0, 5.0, -2.0])
    assert np.allclose(sorted(np.real(poly_roots(p, TOL_ROOT))), [0.5, 2.0])

    p2, shift2 = laurent_to_poly(LaurentPoly([3.0], 0))
    assert shift2 == 0 and np.allclose(p2.array(), [3.0])

    with pytest.raises(InvalidInputError):
        laurent_to_poly(LaurentPoly([], 0))


def test_laurent_arithmetic_consistency():
    rng = np.random.default_rng(43)
    a = LaurentPoly(rng.normal(size=4) + 1j * rng.normal(size=4), -2)
    b = LaurentPoly(rng.normal(size=3) + 1j * rng.normal(size=3), -1)
    z = np.exp(0.31j)
    prod = laurent_eval(laurent_mul(a, b), z)
    assert abs(prod - laurent_eval(a, z) * laurent_eval(b, z)) <= 1e-12
    tot = laurent_eval(laurent_add(a, b), z)
    assert abs(tot - laurent_eval(a, z) - laurent_eval(b, z)) <= 1e-12
    # conjugation on the circle: conj-L of a evaluated at z equals conj(a(z))
    assert abs(laurent_eval(laurent_conj(a), z) - np.conj(laurent_eval(a, z))) <= 1e-12


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
            assert pair_conjugate_reciprocal(roots, tol) == want


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
    m = laurent_sqrt(LaurentPoly([9.0], 0), 1e-8, TOL_ROOT)
    assert m.min_degree == 0
    assert np.allclose(m.array(), [3.0])


def test_laurent_sqrt_zero():
    assert laurent_sqrt(LaurentPoly([], 0), 1e-8, TOL_ROOT).is_zero()


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
        K = laurent_mul(L_tilde, laurent_conj(L_tilde))
        disc = laurent_add(
            laurent_mul(L, L),
            laurent_scale(laurent_mul(K, LaurentPoly([4.0], 0)), -1.0),
        )
        m = laurent_sqrt(disc, 1e-8, TOL_ROOT)
        at_one = laurent_eval(m, 1.0)
        assert abs(at_one.imag) <= 1e-7 * max(1.0, abs(at_one))
        assert at_one.real >= -1e-7
        assert hermitian_defect(m) <= 1e-6 * np.max(np.abs(m.array()))


def test_laurent_sqrt_from_split_discriminant():
    """L^2 - 4K of a non-harmonic instance is a perfect Laurent square."""
    rng = np.random.default_rng(59)
    for _ in range(8):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        n = 7
        u_hat, u_tilde, v = forward_polys(theta, g, n)
        L, L_tilde, _ = laurent_from_products(u_hat, u_tilde, v)
        K = laurent_mul(L_tilde, laurent_conj(L_tilde))
        disc = laurent_add(laurent_mul(L, L), laurent_scale(laurent_mul(K, LaurentPoly([4.0], 0)), -1.0))
        m = laurent_sqrt(disc, 1e-8, TOL_ROOT)
        sq = laurent_mul(m, m)
        err = laurent_add(sq, laurent_scale(disc, -1.0))
        assert np.max(np.abs(err.array())) <= 1e-8 * np.max(np.abs(disc.array()))


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


def test_laurent_sqrt_rejects_odd_multiplicity():
    # (z - 2)(z - 1/2) has two isolated roots, not doubled ones
    with pytest.raises(NotASquareError):
        laurent_sqrt(LaurentPoly([-2.0, 5.0, -2.0], -1), 1e-8, TOL_ROOT)
