"""Phaseless recovery: support, magnitudes, candidate sets, disambiguation."""

import itertools
import re

import numpy as np
import pytest

from vrecover import recover_phaseless
from vrecover.config import Tolerances, load_tolerances
from vrecover.cpoly import (
    forward_polys,
    laurent_conj,
    laurent_eval,
    laurent_from_products,
    laurent_sqrt,
    pair_conjugate_reciprocal,
    poly_eval,
    poly_roots,
    t_polynomial,
)
from vrecover.errors import (
    AmbiguousDisambiguationError,
    DegenerateInstanceError,
    DegenerateSupportError,
    InconsistentSolutionError,
    InvalidInputError,
    MatchingFailureError,
    NotASquareError,
    PairingFailureError,
    RecoveryFailureError,
    VRecoverError,
)
from vrecover.harness import ExperimentConfig, generate_trial, run_trial
from vrecover.oracle import (
    brute_force_phaseless_candidates,
    draw_g,
    draw_theta_circle,
    draw_theta_dft,
    draw_unit_vector,
    forward_phaseless,
)
from vrecover.recover_phase import PhaseInstance, _descend, recover_r1
from vrecover.recover_phaseless import (
    BRANCH_DEGENERATE,
    BRANCH_DUAL,
    BRANCH_HARMONIC,
    PhaselessInstance,
    _enumerate_from_pairs,
    _lagrange_nulls,
    _root_pairs,
    _sorted_candidates,
    _theta_from_lhat,
    disambiguate,
    dual_transform,
    enumerate_candidates_harmonic,
    magnitudes_general,
    magnitudes_harmonic,
    recover_general,
    recover_r3,
    recover_r5,
    recover_support_harmonic,
    split_and_enumerate_general,
)
from vrecover.structmat import (
    SampleSet, build_G, build_Gtilde, measurement_matrix, null_space, shifted_harmonics,
    vandermonde,
)

from test_recover_phase import _count_svds

TOL = Tolerances()


def circle_points(rng, m):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, m))


def stratified_circle(rng, m):
    base = 2 * np.pi * (np.arange(m) + 0.5 + rng.uniform(-0.45, 0.45, size=m)) / m
    return np.exp(1j * (base + rng.uniform(0, 2 * np.pi)))


def phase_aligned_gap(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    k = int(np.argmax(np.abs(b)))
    rot = b[k] / a[k]
    rot = rot / abs(rot)
    return float(np.max(np.abs(a * rot - b)))


def match_theta(got, truth):
    got = np.asarray(got)
    truth = np.asarray(truth)
    order = np.lexsort((np.abs(truth), np.angle(truth)))
    return float(np.max(np.abs(got - truth[order])))


def test_support_worked_singleton():
    z = shifted_harmonics(4, 3, 0.7)
    y = forward_phaseless([1j], [2.0], z.z, 4)
    theta, q, S, _ = recover_support_harmonic(PhaselessInstance(4, 1, y, z), TOL)
    assert S == 1
    assert abs(theta[0] - 1j) <= 1e-9
    # the numerator block spans z^-(S-1) .. z^(S-1): one constant term
    assert q.shape == (1,)


def test_support_collision_kills_the_data():
    # theta^n equal to the sample rotation makes every geometric sum vanish,
    # so the measurements are identically zero and carry no support at all
    z = shifted_harmonics(4, 3, 0.0)
    y = forward_phaseless([1j], [2.0], z.z, 4)
    assert np.max(y) <= 1e-20
    with pytest.raises(RecoveryFailureError):
        recover_support_harmonic(PhaselessInstance(4, 1, y, z), TOL)


def test_support_needs_harmonic_samples():
    rng = np.random.default_rng(401)
    z = SampleSet(tuple(circle_points(rng, 5)))
    with pytest.raises(InvalidInputError):
        recover_support_harmonic(PhaselessInstance(7, 1, np.ones(5), z), TOL)


def test_support_measurement_floor():
    z = shifted_harmonics(7, 6, 0.5)
    with pytest.raises(InvalidInputError):
        recover_support_harmonic(PhaselessInstance(7, 2, np.ones(6), z), TOL)


def test_support_harmonic_random():
    rng = np.random.default_rng(409)
    for _ in range(15):
        s = int(rng.integers(1, 4))
        n = 4 * s - 1
        gamma = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        theta = draw_theta_dft(rng, n, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z.z, n)
        got, _, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        assert S == s
        assert match_theta(got, theta) <= 1e-8


def test_support_resolves_close_points():
    """Two support points 1e-3 apart, read from an exact |v|^2 block.

    Four roots of the block then lie within 1e-3 of each other, where
    rounding moves them by about the fourth root of the coefficient noise;
    its square root has two simple roots there.
    """
    rng = np.random.default_rng(7)
    for _ in range(40):
        phi = rng.uniform(0, 2 * np.pi, 3)
        theta = np.exp(1j * np.concatenate([phi, [phi[0] + 1e-3]]))
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        _, _, lhat = laurent_from_products(*forward_polys(theta, g, 15))
        assert match_theta(_theta_from_lhat(lhat, TOL), theta) <= 1e-8


def test_support_roots_have_degree_s(monkeypatch):
    degrees = []

    def recording(p, tol_root):
        degrees.append(len(p) - 1)
        return poly_roots(p, tol_root)

    monkeypatch.setattr(recover_phaseless, "poly_roots", recording)
    rng = np.random.default_rng(457)
    for s in (1, 2, 3):
        n = 4 * s - 1
        z = shifted_harmonics(n, n, 0.7)
        y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
        recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        z = SampleSet(tuple(stratified_circle(rng, 8 * s - 3)))
        y = forward_phaseless(draw_theta_circle(rng, s), draw_g(rng, s), z.z, n)
        recover_general(PhaselessInstance(n, s, y, z), TOL)
    assert degrees == [1, 1, 2, 2, 3, 3]


def test_support_rejects_blocks_that_are_not_squares():
    # (z - rho)(1/z - conj(rho)) is Hermitian, with the simple roots rho and 1/conj(rho)
    lhat = np.array([1.0 + 0j])
    for rho in (0.6 * np.exp(0.7j), 1.3 * np.exp(2.0j)):
        lhat = np.convolve(lhat, [-np.conj(rho), 1.0 + abs(rho) ** 2, -rho])
    with pytest.raises(NotASquareError,
                       match=r"^\|v\|\^2 block is not a square: defect \S+ exceeds 1\.0e-06$"):
        _theta_from_lhat(lhat, TOL)


def test_support_block_without_leading_coefficient():
    # Hermitian, positive on the circle, and of degree 2 where 4 is expected
    lhat = np.array([0.0, 1.0, 3.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(DegenerateSupportError,
                       match=r"^\|v\|\^2 block lost its leading coefficient$"):
        _theta_from_lhat(lhat, TOL)


def exact_phaseless_builders(rng, S, s_max):
    """The builders s -> G~ and s -> G of one exact instance each, at sparsity S.

    Both admit every s up to s_max: n = 4 s_max - 1, and the general
    samples number m = 8 s_max - 3.
    """
    n = 4 * s_max - 1
    z = shifted_harmonics(n, n, 0.7)
    y = forward_phaseless(draw_theta_circle(rng, S), draw_g(rng, S), z.z, n)
    zs = SampleSet(tuple(stratified_circle(rng, 8 * s_max - 3)))
    ys = forward_phaseless(draw_theta_circle(rng, S), draw_g(rng, S), zs.z, n)
    return (lambda s: build_Gtilde(z, y, s)), (lambda s: build_G(zs, ys, n, s))


def _hermitian_basis(s: int, ncols: int) -> np.ndarray:
    """Dense reference for the fold of `_null_vector`: the orthonormal T whose
    real combinations T @ x are the stacks whose first 2s+1 entries (|v|^2)
    and the rest each read the same reversed and conjugated."""
    T = np.zeros((ncols, ncols), dtype=complex)
    for start, stop in ((0, 2 * s + 1), (2 * s + 1, ncols)):
        half = (stop - start) // 2
        a = np.arange(start, start + half)
        b = stop - 1 - (a - start)
        T[a, a] = T[b, a] = np.sqrt(0.5)
        T[a, b], T[b, b] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
        T[start + half, start + half] = 1.0
    return T


def test_fold_matches_the_dense_hermitian_basis(monkeypatch):
    """The real system `_null_vector` descends on is (M @ T).real, and the
    vector it returns is T @ x with a nonnegative central |v|^2 coefficient,
    bit for bit, whichever sign the descent's x comes with."""
    seen = {}

    def spy(builder, s_max, tol, step):
        S, x, diagnostics = _descend(builder, s_max, tol, step=step)
        seen.update(builder=builder, x=x)
        return S, -x if seen["flip"] else x, diagnostics

    monkeypatch.setattr(recover_phaseless, "_descend", spy)
    rng = np.random.default_rng(479)
    for S in range(1, 8):
        for build in exact_phaseless_builders(rng, S, 7):
            returned = []
            for flip in (False, True):
                seen["flip"] = flip
                got_S, w, _ = recover_phaseless._null_vector(build, 7, TOL)
                returned.append(w)
            assert got_S == S
            for s in range(1, 8):
                M = build(s)
                T = _hermitian_basis(s, M.shape[1])
                assert np.array_equal(seen["builder"](s), (M @ T).real)
            ref = _hermitian_basis(S, len(seen["x"])) @ seen["x"]
            ref = ref if ref[S].real >= 0 else -ref
            for w in returned:
                assert np.array_equal(w, ref)


def test_hermitian_basis_makes_the_phaseless_systems_real():
    """T is orthonormal, and G @ T and G~ @ T are real.

    Each column of T has at most two nonzero entries, so the product is
    taken as entrywise products summed per column: each mirrored pair then
    cancels in the imaginary part exactly, whatever the summation order,
    when the mirrored columns of the system are exact conjugates. A BLAS
    product that fuses multiply and add leaves rounding there instead.
    """
    rng = np.random.default_rng(461)
    for s in (1, 2, 3, 4, 5):
        for build in exact_phaseless_builders(rng, 2, 5):
            M = build(s)
            T = _hermitian_basis(s, M.shape[1])
            assert np.abs(T.conj().T @ T - np.eye(len(T))).max() <= 1e-15
            product = (M[:, :, None] * T).sum(axis=1)
            assert not product.imag.any()
            assert np.allclose(product, M @ T, rtol=0, atol=1e-14 * np.abs(M).max())


def test_real_phaseless_systems_keep_the_descent_rule():
    """On exact data at sparsity S the real system at s = S + k has a null
    space of dimension 2k + 1, the step-2 rule of `_descend`."""
    rng = np.random.default_rng(463)
    for S in (1, 2, 3):
        for build in exact_phaseless_builders(rng, S, 5):
            for s in range(S, 6):
                M = build(s)
                real = (M @ _hermitian_basis(s, M.shape[1])).real
                allowed = [2 * k + 1 for k in range(s)]
                ns = null_space(real, TOL.rank_rel_tol, allowed)
                assert ns.dimension == 2 * (s - S) + 1, (S, s, ns.dimension)


def test_support_blocks_are_hermitian_by_construction():
    """Both support stages return blocks that read the same reversed and
    conjugated, bit for bit, with a positive central |v|^2 coefficient."""
    rng = np.random.default_rng(467)
    for s in (2, 3, 4):
        n = 4 * s - 1
        z = shifted_harmonics(n, n, 0.7)
        y = forward_phaseless(draw_theta_circle(rng, s), draw_g(rng, s), z.z, n)
        _, q, _, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        z = SampleSet(tuple(stratified_circle(rng, 8 * s - 3)))
        y = forward_phaseless(draw_theta_circle(rng, s), draw_g(rng, s), z.z, n)
        _, L, _, L_hat, _, _ = recover_general(PhaselessInstance(n, s, y, z), TOL)
        for block in (q, L, L_hat):
            assert np.array_equal(block, laurent_conj(block))
        assert L_hat[s].imag == 0 and L_hat[s].real > 0


def test_numerator_blocks_are_hermitian_at_every_descent():
    """The numerator blocks that `_root_pairs` takes, q on shifted harmonics
    and L on general samples, read the same reversed and conjugated, exactly,
    also where the descent stops at S < s_max. So each has 2S-2 roots, and
    the pairing gives S-1 pairs or raises on a root without a partner."""
    rng = np.random.default_rng(471)
    below = 0
    for s_max in range(1, 7):
        n = 4 * s_max - 1
        for s in sorted({1, (s_max + 1) // 2, s_max}):
            z = shifted_harmonics(n, n, 0.7)
            y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
            _, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s_max, y, z), TOL)
            z = SampleSet(tuple(stratified_circle(rng, 8 * s_max - 3)))
            y = forward_phaseless(draw_theta_circle(rng, s), draw_g(rng, s), z.z, n)
            _, L, _, _, S_general, _ = recover_general(PhaselessInstance(n, s_max, y, z), TOL)
            below += (S < s_max) + (S_general < s_max)
            for block, S_block in ((q, S), (L, S_general)):
                assert np.array_equal(block, laurent_conj(block))
                try:
                    assert len(_root_pairs(block, S_block, TOL)) == S_block - 1
                except PairingFailureError as exc:
                    assert "no conjugate-reciprocal partner" in str(exc)
    assert below >= 10


def test_root_pairs_rejects_roots_on_the_circle():
    """1 - z + z^2 has its roots e^(+-i pi/3) on the circle, each its own
    target and far from the other: no pair, so no S-1 = 1 pairs."""
    with pytest.raises(PairingFailureError):
        _root_pairs(np.array([1, -1, 1], dtype=complex), 2, TOL)


def test_magnitudes_worked_singleton():
    z = shifted_harmonics(4, 3, 0.7)
    y = forward_phaseless([1j], [2.0], z.z, 4)
    theta, q, S, _ = recover_support_harmonic(PhaselessInstance(4, 1, y, z), TOL)
    profile = magnitudes_harmonic(theta, q, 0.7, 4)
    assert len(profile) == 1
    assert profile[0] > 0
    # one positive scalar links the profile to |g|^2 = 4
    c = profile[0] / 4.0
    assert c > 0


def test_magnitude_ratios_scale_free():
    rng = np.random.default_rng(419)
    for _ in range(10):
        n, s = 7, 2
        gamma = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        theta = draw_theta_dft(rng, n, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z.z, n)
        got, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        profile = np.array(magnitudes_harmonic(got, q, gamma, n))
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        g_sq = np.abs(g[order]) ** 2
        assert abs(profile[0] / profile[1] - g_sq[0] / g_sq[1]) <= 1e-6 * (
            g_sq[0] / g_sq[1]
        )


def test_magnitudes_uniform_weights():
    rng = np.random.default_rng(421)
    n, s = 11, 3
    gamma = 1.3
    theta = draw_theta_dft(rng, n, s)
    g = np.exp(1j * rng.uniform(0, 2 * np.pi, s))  # all moduli equal 1
    z = shifted_harmonics(n, n, gamma)
    y = forward_phaseless(theta, g, z.z, n)
    got, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
    profile = np.array(magnitudes_harmonic(got, q, gamma, n))
    assert np.max(np.abs(profile - profile[0])) <= 1e-6 * profile[0]


def test_magnitudes_match_horner_form():
    """The t_values profiles equal the per-k Horner evaluation within 1e-12."""
    rng = np.random.default_rng(423)
    for s in (1, 3, 6, 8):
        n = 4 * s - 1
        gamma = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        theta = draw_theta_circle(rng, s)
        q = rng.normal(size=2 * s - 1) + 1j * rng.normal(size=2 * s - 1)
        L = q + laurent_conj(q)
        L[s - 1] += 10.0 * s
        t_horner = np.array([poly_eval(t_polynomial(theta, k), np.conj(theta[k]))
                             for k in range(s)])
        twist = np.exp(1j * gamma) * theta**n - 1.0
        old_h = [laurent_eval(L, np.conj(th)).real / abs(t * w) ** 2
                 for th, t, w in zip(theta, t_horner, twist)]
        old_g = [laurent_eval(L, np.conj(th)).real / (2.0 * abs(t) ** 2)
                 for th, t in zip(theta, t_horner)]
        new_h = magnitudes_harmonic(theta, L, gamma, n)
        new_g = magnitudes_general(theta, L)
        assert np.max(np.abs(np.subtract(new_h, old_h))) <= 1e-12 * max(np.abs(old_h))
        assert np.max(np.abs(np.subtract(new_g, old_g))) <= 1e-12 * max(np.abs(old_g))


def test_enumerate_harmonic_counts():
    rng = np.random.default_rng(431)
    for s in (1, 2, 3):
        n = 4 * s - 1
        gamma = 0.9
        theta = draw_theta_dft(rng, n, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z.z, n)
        got, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        cands = enumerate_candidates_harmonic(got, q, gamma, n, z, y, TOL)
        assert len(cands) == 2 ** (s - 1)
        # every candidate reproduces the data
        rows = vandermonde(z, n).T @ vandermonde(got, n)
        for c in cands:
            pred = np.abs(rows @ np.asarray(c)) ** 2
            assert np.max(np.abs(pred - y)) <= 1e-6 * float(np.max(y))
        # one of them is the planted signal up to global phase
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        assert min(phase_aligned_gap(c, g[order]) for c in cands) <= 1e-6


def reference_enumerate(theta, pairs, row_weight, rows, y, tol):
    """One selection at a time: Horner-evaluated t_l, one SVD, scale.

    Each row of a selection system is scaled to unit max modulus before its
    SVD. That leaves the null space as it is, but keeps a picked root of
    modulus far from 1, whose row is about |r|^(S-1) longer than the others,
    from passing for a rank loss.
    """
    S = len(theta)
    t_polys = [t_polynomial(theta, l) for l in range(S)]
    cands = []
    for selection in itertools.product(*pairs) if len(pairs) else [()]:
        if S == 1:
            g = np.ones(1, dtype=complex)
        else:
            M = np.array(
                [[poly_eval(t_polys[l], q) * row_weight[l] for l in range(S)]
                 for q in selection],
                dtype=complex,
            )
            M = M / np.abs(M).max(axis=1, keepdims=True)
            _, sig, Vh = np.linalg.svd(M)
            if sig[-1] <= tol.rank_rel_tol * sig[0] * max(M.shape):
                raise DegenerateInstanceError("selection system rank-deficient")
            g = np.conj(Vh[-1])
        pred = np.abs(rows @ g) ** 2
        denom = float(pred @ pred)
        if not np.isfinite(denom) or denom <= 0:
            raise DegenerateInstanceError("candidate direction predicts zero measurements")
        alpha2 = float(y @ pred) / denom
        if alpha2 <= 0:
            raise DegenerateInstanceError("candidate scale came out nonpositive")
        g = g * np.sqrt(alpha2)
        defect = float(np.max(np.abs(alpha2 * pred - y))) / float(np.max(y))
        if not defect <= tol.forward_tol:
            raise InconsistentSolutionError(
                f"forward residual {defect:.3e} of max|y| exceeds {tol.forward_tol:.1e}: "
                "candidate fails the forward check"
            )
        mags = np.abs(g)
        k0 = int(np.argmax(mags > 1e-12 * float(np.max(mags))))
        g = g * np.exp(-1j * np.angle(g[k0]))
        cands.append(g)
    return cands


def harmonic_enumeration_inputs(rng, s, gamma=0.7):
    """Inputs of the harmonic enumeration, (theta, pairs, row_weight, rows, y),
    for random instances whose support stage succeeds."""
    n = 4 * s - 1
    z = shifted_harmonics(n, n, gamma)
    while True:
        theta = draw_theta_dft(rng, n, s)
        y = forward_phaseless(theta, draw_g(rng, s), z.z, n)
        try:
            got, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        except VRecoverError:
            continue
        pairs = np.zeros((0, 2), dtype=complex)
        if S > 1:
            try:
                pairs = pair_conjugate_reciprocal(poly_roots(q, 1e-8), 1e-6)
            except PairingFailureError:
                continue
        rows = vandermonde(z, n).T @ vandermonde(got, n)
        yield got, pairs, np.exp(1j * gamma) * got**n - 1.0, rows, y


def test_enumeration_matches_reference_loop():
    """Same candidate set, or the same error, as one selection at a time."""
    tol = load_tolerances()
    rng = np.random.default_rng(4001)
    for s in range(1, 9):
        solved = 0
        for args in itertools.islice(harmonic_enumeration_inputs(rng, s), 4):
            try:
                ref = reference_enumerate(*args, tol)
            except VRecoverError as exc:
                with pytest.raises(type(exc)) as got_err:
                    _enumerate_from_pairs(*args, tol)
                assert str(got_err.value) == str(exc)
                continue
            got = _enumerate_from_pairs(*args, tol)
            assert len(got) == len(ref)
            for c in got:
                gap = min(np.max(np.abs(c - d)) for d in ref)
                assert gap <= 1e-12 * max(1.0, np.max(np.abs(c)))
            solved += 1
        assert solved, f"no solvable s={s} instance"


def test_selections_run_in_binary_counting_order(monkeypatch):
    """The selection table is itertools.product((0, 1), repeat=k): the same
    shape, dtype and row order, also for no pairs at all."""
    class Picks(Exception):
        pass

    def spy(theta, weight, roots, picks):
        raise Picks(picks)

    monkeypatch.setattr(recover_phaseless, "_lagrange_nulls", spy)
    for k in range(9):
        with pytest.raises(Picks) as got:
            _enumerate_from_pairs(None, np.zeros((k, 2), dtype=complex), None, None, None, TOL)
        picks = got.value.args[0]
        ref = np.array(list(itertools.product((0, 1), repeat=k)), dtype=int)
        assert picks.shape == ref.shape and picks.dtype == ref.dtype
        assert np.array_equal(picks, ref)


def test_closed_form_holds_at_coincident_roots():
    """Each row g of `_lagrange_nulls` makes sum_l g_l w_l t_l(q) a multiple
    of prod_j (q - r_j), also when a selection picks one root twice."""
    rng = np.random.default_rng(4005)
    S = 4
    theta = draw_theta_circle(rng, S)
    weight = np.exp(1j * rng.uniform(0, 2 * np.pi, S)) * rng.uniform(0.5, 2.0, S)
    roots = rng.normal(size=(S - 1, 2)) + 1j * rng.normal(size=(S - 1, 2))
    roots[1] = roots[0]  # selections with equal picks from rows 0 and 1 repeat a root
    picks = np.array(list(itertools.product((0, 1), repeat=S - 1)), dtype=int)
    G = _lagrange_nulls(theta, weight, roots, picks)
    t_polys = [t_polynomial(theta, l) for l in range(S)]
    probes = rng.normal(size=5) + 1j * rng.normal(size=5)
    double = 0
    for g, pick in zip(G, picks):
        picked = roots[np.arange(S - 1), pick]
        double += picked[0] == picked[1]
        P = sum(g[l] * weight[l] * t_polys[l] for l in range(S))
        c = P[-1]
        assert abs(c) > 1e-3 * np.abs(P).max()
        for q in (*probes, *picked):
            want = c * np.prod(q - picked)
            assert abs(poly_eval(P, q) - want) <= 1e-12 * np.abs(P).max() * max(1, abs(q)) ** S
    assert double == 4


def test_enumeration_failures_match_reference_loop():
    tol = load_tolerances()
    rng = np.random.default_rng(4003)
    theta, pairs, weight, rows, y = next(harmonic_enumeration_inputs(rng, 4))
    # one perturbed measurement: no selection fits the data any more
    y_bad = y.copy()
    y_bad[3] *= 1.01
    with pytest.raises(InconsistentSolutionError) as ref_err:
        reference_enumerate(theta, pairs, weight, rows, y_bad, tol)
    with pytest.raises(InconsistentSolutionError) as got_err:
        _enumerate_from_pairs(theta, pairs, weight, rows, y_bad, tol)
    assert str(got_err.value) == str(ref_err.value)


def test_near_coincident_pair_keeps_every_selection():
    """A root pair on the unit circle has two picks that agree to 1e-13:
    both selections come back, one row each, 2^(S-1) in all."""
    rng = np.random.default_rng(4009)
    S = 4
    theta, pairs, weight, rows, _ = next(harmonic_enumeration_inputs(rng, S))
    u = pairs[1, 0] / abs(pairs[1, 0])
    pairs = pairs.copy()
    pairs[1] = (u, u * (1 + 1e-13))
    g = _lagrange_nulls(theta, weight, pairs, np.zeros((1, S - 1), dtype=int))[0]
    y = np.abs(rows @ g) ** 2
    cands = _enumerate_from_pairs(theta, pairs, weight, rows, y, TOL)
    assert cands.shape == (2 ** (S - 1), S)
    # sorted, the twins sit next to each other, and the twin pairs differ
    twins = cands[::2]
    assert np.abs(twins - cands[1::2]).max() <= 1e-12 * np.abs(cands).max()
    spread = np.abs(twins[:, None] - twins).max(axis=2)
    assert spread[np.triu_indices(len(twins), 1)].min() > 1e-3


# exact trials with one picked root of modulus 14 to 34: its row of the
# selection system is about |r|^(S-1) longer than the others, which an SVD
# rank test on the unscaled rows read as a rank loss; (mode, s, n_rule,
# m_rule, sample_mode, index, branch, candidate count), all at master_seed 16
FAR_ROOT_TRIALS = [
    ("r4", 7, "4s-1", "4s-1", "harmonic", 316, BRANCH_HARMONIC, 64),
    ("r4", 7, "4s-1", "4s-1", "harmonic", 387, BRANCH_HARMONIC, 64),
    ("r5", 6, "4s-1", "8s-3", "arbitrary", 720, BRANCH_DUAL, 2),
    ("r5", 6, "4s-1", "8s-3", "arbitrary", 1275, BRANCH_DUAL, 2),
]


@pytest.mark.parametrize("mode, s, n_rule, m_rule, sample_mode, index, branch, count",
                         FAR_ROOT_TRIALS)
def test_far_picked_root_is_no_rank_loss(mode, s, n_rule, m_rule, sample_mode, index,
                                         branch, count):
    config = ExperimentConfig.from_dict({
        "mode": mode, "s_list": [s], "n_rule": n_rule, "m_rule": m_rule,
        "sample_mode": sample_mode, "trials": 1, "master_seed": 16,
    })
    record = run_trial(generate_trial(config, s, index), Tolerances())
    assert record.success, record.warnings
    assert (record.S, record.branch, record.candidate_count) == (s, branch, count)


def test_enumeration_runs_no_factorisation(monkeypatch):
    """Harmonic and degenerate candidates come in closed form: no SVD, no
    lstsq. The dual branch reads its cofactors from one SVD and finds no
    roots."""
    rng = np.random.default_rng(4009)
    n, s, gamma = 15, 4, 0.7
    z = shifted_harmonics(n, n, gamma)
    y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
    got, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
    calls = _count_svds(monkeypatch)
    assert len(enumerate_candidates_harmonic(got, q, gamma, n, z, y, TOL)) == 2 ** (S - 1)
    assert calls == []
    monkeypatch.undo()
    n, m = 7, 13
    for draw_theta, branch in ((draw_theta_circle, BRANCH_DUAL),
                               (lambda rng, s: draw_theta_dft(rng, n, s), BRANCH_DEGENERATE)):
        zs = SampleSet(tuple(stratified_circle(rng, m)))
        y = forward_phaseless(draw_theta(rng, 2), draw_g(rng, 2), zs.z, n)
        got, L, L_tilde, _, _, _ = recover_general(PhaselessInstance(n, 2, y, zs), TOL)
        calls = _count_svds(monkeypatch)
        roots = []
        monkeypatch.setattr(recover_phaseless, "poly_roots",
                            lambda p, tol_root: roots.append(p) or poly_roots(p, tol_root))
        cands, got_branch = split_and_enumerate_general(L, L_tilde, got, n, zs, y, TOL)
        monkeypatch.undo()
        assert got_branch == branch and len(cands) == 2
        if branch == BRANCH_DUAL:
            assert calls == ["svd"] and roots == []
        else:
            assert calls == []


def test_candidate_order_ignores_rounding_noise():
    tol = load_tolerances()
    rng = np.random.default_rng(4007)
    cands = np.array(_enumerate_from_pairs(*next(harmonic_enumeration_inputs(rng, 6)), tol))
    # every candidate has a real lead entry of one common modulus, so the
    # order rests on the later entries alone
    assert np.all(cands[:, 0].imag == 0)
    assert np.ptp(cands[:, 0].real) <= 1e-12 * np.max(np.abs(cands))
    for _ in range(5):
        noise = rng.standard_normal(cands.shape) + 1j * rng.standard_normal(cands.shape)
        shuffled = rng.permutation(len(cands))
        moved = np.array(_sorted_candidates(cands[shuffled] + 1e-13 * noise[shuffled]))
        assert np.max(np.abs(moved - cands)) <= 1e-12


def test_candidate_magnitude_consensus():
    rng = np.random.default_rng(433)
    n, s = 11, 3
    theta = draw_theta_dft(rng, n, s)
    g = draw_g(rng, s)
    z = shifted_harmonics(n, n, 2.1)
    y = forward_phaseless(theta, g, z.z, n)
    res = recover_r5(PhaselessInstance(n, s, y, z))
    mags = np.array([np.abs(c) for c in res.candidates])
    assert np.max(np.abs(mags - mags[0])) <= 1e-8 * float(np.max(mags))


def test_recover_general_worked_pair():
    rng = np.random.default_rng(439)
    theta = np.exp(1j * np.array([0.7, 1.9]))
    g = draw_g(rng, 2)
    n, m = 7, 13
    z = SampleSet(tuple(stratified_circle(rng, m)))
    y = forward_phaseless(theta, g, z.z, n)
    got, L, L_tilde, L_hat, S, _ = recover_general(PhaselessInstance(n, 2, y, z), TOL)
    assert S == 2
    assert match_theta(got, theta) <= 1e-6
    profile = np.array(magnitudes_general(got, L))
    g_sq = np.abs(g) ** 2
    c = profile[0] / g_sq[0]
    assert c > 0
    assert np.max(np.abs(profile - c * g_sq)) <= 1e-6 * float(np.max(profile))
    # the |v|^2 block really evaluates nonnegative on the circle
    for point in circle_points(rng, 20):
        assert laurent_eval(L_hat, point).real >= -1e-9 * np.abs(L_hat).max()


def test_support_stages_return_centered_blocks():
    """Numerator blocks come back as 2S-1 coefficients and |v|^2 as 2S+1."""
    rng = np.random.default_rng(449)
    for s in (1, 2, 3, 4):
        n = 4 * s - 1
        z = shifted_harmonics(n, n, 0.7)
        y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
        _, q, S, _ = recover_support_harmonic(PhaselessInstance(n, s, y, z), TOL)
        assert S == s and q.shape == (2 * S - 1,)
        z = SampleSet(tuple(stratified_circle(rng, 8 * s - 3)))
        y = forward_phaseless(draw_theta_circle(rng, s), draw_g(rng, s), z.z, n)
        _, L, L_tilde, L_hat, S, _ = recover_general(PhaselessInstance(n, s, y, z), TOL)
        assert S == s
        assert L.shape == L_tilde.shape == (2 * S - 1,) and L_hat.shape == (2 * S + 1,)


def test_general_measurement_floor():
    rng = np.random.default_rng(443)
    z = SampleSet(tuple(circle_points(rng, 12)))
    with pytest.raises(InvalidInputError):
        recover_general(PhaselessInstance(7, 2, np.ones(12), z), TOL)
    # exact shifted-harmonic data at or above the general floor belongs to
    # the harmonic stage; the general descent fails on it at any size
    for n, m, s in ((7, 7, 2), (13, 13, 2), (21, 21, 3), (21, 13, 2)):
        z = shifted_harmonics(n, m, 0.7)
        y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
        with pytest.raises(InvalidInputError, match="not shifted harmonics"):
            recover_general(PhaselessInstance(n, s, y, z), TOL)


def test_split_dual_pair():
    rng = np.random.default_rng(449)
    for _ in range(8):
        s = 2
        n, m = 7, 13
        theta = draw_theta_circle(rng, s)
        g = draw_g(rng, s)
        z = SampleSet(tuple(stratified_circle(rng, m)))
        y = forward_phaseless(theta, g, z.z, n)
        got, L, L_tilde, _, S, _ = recover_general(PhaselessInstance(n, s, y, z), TOL)
        cands, branch = split_and_enumerate_general(L, L_tilde, got, n, z, y, TOL)
        assert branch == BRANCH_DUAL
        assert len(cands) == 2
        a, b = (np.asarray(c) for c in cands)
        assert np.max(np.abs(np.abs(a) - np.abs(b))) <= 1e-6 * float(np.max(np.abs(a)))
        assert phase_aligned_gap(dual_transform(a, got, n), b) <= 1e-6
        assert min(phase_aligned_gap(c, g[np.lexsort((np.abs(theta), np.angle(theta)))]) for c in cands) <= 1e-6


def exact_general_blocks(rng, s, min_sep=0.0):
    """(theta, g, n, z, y, L, L_tilde, u_hat) of one exact general instance,
    its squared-modulus blocks built from the numerator halves themselves.

    The support is redrawn until its points lie at least `min_sep` Rayleigh
    units (2 pi / n) apart.
    """
    n = 4 * s - 1
    while True:
        theta = draw_theta_circle(rng, s)
        gaps = np.diff(np.sort(np.angle(theta)), append=np.angle(theta).min() + 2 * np.pi)
        if gaps.min() * n / (2 * np.pi) >= min_sep:
            break
    g = draw_g(rng, s)
    z = SampleSet(tuple(stratified_circle(rng, 8 * s - 3)))
    u_hat, u_tilde, v = forward_polys(theta, g, n)
    L, L_tilde, _ = laurent_from_products(u_hat, u_tilde, v)
    return theta, g, n, z, forward_phaseless(theta, g, z.z, n), L, L_tilde, u_hat


def test_split_reads_g_and_its_dual_from_exact_blocks():
    """On exact blocks the dual split returns g and its dual within 1e-8.

    The split factor Q is |u_hat|^2 or |u_tilde|^2, whichever the sign of
    the discriminant's root at z = 1 picks; the draws cover both. The
    support points lie at least half a Rayleigh unit apart: closer ones
    leave the cofactor null vector less accurate than 1e-8 on some draws.
    """
    rng = np.random.default_rng(4011)
    picked = {True: 0, False: 0}
    for s in (2, 3, 4, 5, 6):
        for _ in range(6):
            theta, g, n, z, y, L, L_tilde, u_hat = exact_general_blocks(rng, s, min_sep=0.5)
            disc = np.convolve(L, L) - 4.0 * np.convolve(L_tilde, laurent_conj(L_tilde))
            Q = (L + laurent_sqrt(disc, TOL.pair_tol)) * 0.5
            u_hat_sq = np.convolve(u_hat, laurent_conj(u_hat))
            picked[bool(np.abs(Q - u_hat_sq).max() <= 1e-8 * np.abs(L).max())] += 1
            cands, branch = split_and_enumerate_general(L, L_tilde, theta, n, z, y, TOL)
            assert branch == BRANCH_DUAL and len(cands) == 2
            scale = np.abs(g).max()
            for want in (g, dual_transform(g, theta, n)):
                assert min(phase_aligned_gap(c, want) for c in cands) <= 1e-8 * scale
    assert min(picked.values()) >= 5, picked


def test_split_rejects_cofactors_that_disagree():
    """L_tilde turned by e^{i phi} keeps the discriminant, and the two
    cofactor candidates then differ by the factor e^{i phi}: the defect
    |g_A + g_B| / |g_B - g_A| reads tan(phi / 2). An all-zero L_tilde
    reads 1. Exactly coincident support points give a non-finite defect,
    which fails without a RuntimeWarning."""
    rng = np.random.default_rng(4013)
    theta, g, n, z, y, L, L_tilde, _ = exact_general_blocks(rng, 4)
    message = r"^cofactor candidates disagree by (\S+), beyond 1\.0e-06$"
    for phi in (0.01, 0.3):
        with pytest.raises(MatchingFailureError, match=message) as err:
            split_and_enumerate_general(L, np.exp(1j * phi) * L_tilde, theta, n, z, y, TOL)
        defect = float(re.match(message, str(err.value)).group(1))
        assert abs(defect - np.tan(phi / 2)) <= 0.05 * np.tan(phi / 2)
    # an all-zero cross term leaves one cofactor free
    with pytest.raises(MatchingFailureError, match=r"^cofactor candidates disagree by 1\.0e\+00,"):
        split_and_enumerate_general(L, np.zeros_like(L_tilde), theta, n, z, y, TOL)
    # theta_0 * conj(theta_1) - 1 is exactly 0, so t vanishes at both
    twins = np.array([1.0, 1.0, 1j, -1j])
    with pytest.raises(MatchingFailureError, match=r"^cofactor candidates disagree by nan,"):
        split_and_enumerate_general(L, L_tilde, twins, n, z, y, TOL)


def test_dual_transform_involution():
    rng = np.random.default_rng(457)
    for _ in range(10):
        s = int(rng.integers(1, 5))
        theta = draw_theta_circle(rng, s)
        g = draw_g(rng, s)
        n = 4 * s - 1
        back = dual_transform(dual_transform(g, theta, n), theta, n)
        assert np.max(np.abs(back - g)) <= 1e-10 * float(np.max(np.abs(g)))


def test_split_degenerate_routes_to_enumeration():
    """Support powers all equal: the discriminant vanishes, 2^{s-1} answers."""
    rng = np.random.default_rng(461)
    n, s, m = 7, 2, 13
    theta = draw_theta_dft(rng, n, s)
    g = draw_g(rng, s)
    z = SampleSet(tuple(stratified_circle(rng, m)))
    y = forward_phaseless(theta, g, z.z, n)
    res = recover_r5(PhaselessInstance(n, s, y, z))
    assert res.branch == BRANCH_DEGENERATE
    assert len(res.candidates) == 2
    order = np.lexsort((np.abs(theta), np.angle(theta)))
    assert min(phase_aligned_gap(np.asarray(c), g[order]) for c in res.candidates) <= 1e-6


def test_singleton_always_degenerate():
    rng = np.random.default_rng(463)
    theta = draw_theta_circle(rng, 1)
    g = draw_g(rng, 1)
    z = SampleSet(tuple(stratified_circle(rng, 5)))
    y = forward_phaseless(theta, g, z.z, 3)
    res = recover_r5(PhaselessInstance(3, 1, y, z))
    assert res.branch == BRANCH_DEGENERATE
    assert len(res.candidates) == 1
    assert res.selected is None


def test_recover_r5_harmonic_full():
    rng = np.random.default_rng(467)
    for s in (2, 3):
        n = 4 * s - 1
        gamma = float(rng.uniform(0.3, 2 * np.pi - 0.3))
        theta = draw_theta_dft(rng, n, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z.z, n)
        res = recover_r5(PhaselessInstance(n, s, y, z))
        assert res.branch == BRANCH_HARMONIC
        assert res.S == s
        assert len(res.candidates) == 2 ** (s - 1)
        assert match_theta(res.theta, theta) <= 1e-8
        # profile agrees with candidate magnitudes up to one positive scalar
        mags = np.abs(np.asarray(res.candidates[0])) ** 2
        prof = np.array(res.magnitude_profile)
        c = float(np.dot(prof, mags) / np.dot(mags, mags))
        assert c > 0
        assert np.max(np.abs(prof - c * mags)) <= 1e-6 * float(np.max(prof))


def test_recover_r5_zero_measurements():
    z = shifted_harmonics(7, 7, 0.4)
    res = recover_r5(PhaselessInstance(7, 2, np.zeros(7), z))
    assert res.S == 0 and res.theta.shape == res.magnitude_profile.shape == (0,)
    assert res.candidates.shape == (0, 0)


@pytest.mark.parametrize("layout", ["harmonic", "general"])
def test_off_circle_support_ends_in_the_forward_check(layout):
    """Data from poles at radius 1.0005 or its inverse: the support is
    projected onto the circle, and no draw returns a result. Each harmonic
    draw ends in the candidates' forward check (exit 4). Each general draw
    ends one step earlier, where its two cofactor candidates disagree
    (exit 3), as general draws at radius 1.002 and beyond mostly end in
    `NotASquareError`."""
    expected, exit_code = {"harmonic": (InconsistentSolutionError, 4),
                           "general": (MatchingFailureError, 3)}[layout]
    rng = np.random.default_rng(2027)
    s = 4
    n = 4 * s - 1
    for _ in range(12):
        if layout == "harmonic":
            z, theta = shifted_harmonics(n, n, 1.0), draw_theta_dft(rng, n, s)
        else:
            z, theta = SampleSet(tuple(stratified_circle(rng, 8 * s - 3))), draw_theta_circle(rng, s)
        theta = theta * 1.0005 ** rng.choice([-1, 1], s)
        y = np.abs(measurement_matrix(z, theta, n) @ draw_g(rng, s)) ** 2
        with pytest.raises(expected) as err:
            recover_r5(PhaselessInstance(n, s, y, z), TOL)
        assert err.value.exit_code == exit_code


def test_result_arrays_are_read_only():
    z = shifted_harmonics(2, 2, 0.0)
    phase = recover_r1(PhaseInstance(2, 1, [9.0, -3.0], z))
    rng = np.random.default_rng(509)
    n, s = 11, 3
    z = shifted_harmonics(n, n, 1.7)
    y = forward_phaseless(draw_theta_dft(rng, n, s), draw_g(rng, s), z.z, n)
    phaseless = recover_r5(PhaselessInstance(n, s, y, z))
    assert phase.S == 1 and phaseless.candidates.shape == (4, 3)
    arrays = [phase.theta, phase.g, phaseless.theta, phaseless.magnitude_profile,
              phaseless.candidates]
    for arr in arrays:
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_recover_r5_selects_with_extra_row():
    rng = np.random.default_rng(479)
    picked_right = 0
    for _ in range(10):
        s = 2
        n, m = 7, 13
        theta = draw_theta_circle(rng, s)
        g = draw_g(rng, s)
        z = SampleSet(tuple(stratified_circle(rng, m)))
        y = forward_phaseless(theta, g, z.z, n)
        a = draw_unit_vector(rng, n)
        y_m = float(abs((vandermonde(theta, n).T @ a) @ g) ** 2)
        res = recover_r5(PhaselessInstance(n, s, y, z, extra_row=(a, y_m)))
        assert res.selected is not None
        chosen = np.asarray(res.candidates[res.selected])
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        if phase_aligned_gap(chosen, g[order]) <= 1e-6:
            picked_right += 1
    assert picked_right == 10


def test_disambiguate_single_candidate():
    rng = np.random.default_rng(487)
    theta = draw_theta_circle(rng, 1)
    g = draw_g(rng, 1)
    a = draw_unit_vector(rng, 3)
    # y_m need not even match: a single candidate wins unconditionally
    assert disambiguate([g], a[:1], 123.4) == 0


def test_disambiguate_pair_forward_oracle():
    rng = np.random.default_rng(491)
    for _ in range(10):
        theta = draw_theta_circle(rng, 2)
        g = draw_g(rng, 2)
        n = 7
        dual = dual_transform(g, theta, n)
        a = draw_unit_vector(rng, n)
        row = vandermonde(theta, n).T @ a
        y_m = float(abs(row @ g) ** 2)
        assert disambiguate([g, dual], row, y_m) == 0
        assert disambiguate([dual, g], row, y_m) == 1


def test_disambiguate_harmonic_four_way():
    """The extra row singles out the planted one of the 2^{S-1} candidates."""
    rng = np.random.default_rng(499)
    n, s = 11, 3
    gamma = 1.7
    wins = 0
    for _ in range(100):
        theta = draw_theta_dft(rng, n, s)
        g = draw_g(rng, s)
        z = shifted_harmonics(n, n, gamma)
        y = forward_phaseless(theta, g, z.z, n)
        res = recover_r5(PhaselessInstance(n, s, y, z))
        assert len(res.candidates) == 4
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        g_sorted = g[order]
        for attempt in range(3):
            a = draw_unit_vector(rng, n)
            row = vandermonde(res.theta, n).T @ a
            y_m = float(abs(row @ g_sorted) ** 2)
            try:
                k = disambiguate(res.candidates, row, y_m)
                break
            except AmbiguousDisambiguationError:
                # an unlucky row is allowed; redraw and retry
                continue
        else:
            raise AssertionError("three unlucky rows in a row")
        if phase_aligned_gap(np.asarray(res.candidates[k]), g_sorted) <= 1e-6:
            wins += 1
    assert wins == 100


def test_disambiguate_flags_hopeless_rows():
    rng = np.random.default_rng(503)
    theta = draw_theta_circle(rng, 2)
    g = draw_g(rng, 2)
    a = draw_unit_vector(rng, 7)
    row = vandermonde(theta, 7).T @ a
    y_m = float(abs(row @ g) ** 2)
    # two copies of the true candidate cannot be separated
    with pytest.raises(AmbiguousDisambiguationError):
        disambiguate([g, g.copy()], row, y_m)


def test_recover_r3_worked_grid():
    n = 7
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    gamma = float(np.pi / 3)
    x = np.zeros(n, dtype=complex)
    x[3] = 2.0
    z = shifted_harmonics(n, 3, gamma)
    y = forward_phaseless([grid[3]], [2.0], z.z, n)
    rng = np.random.default_rng(509)
    a = draw_unit_vector(rng, n)
    inst = PhaselessInstance(n, 1, y, z, extra_row=(a, float(abs(np.dot(a, x)) ** 2)), grid=grid)
    got = recover_r3(inst)
    assert np.flatnonzero(np.abs(got) > 1e-9).tolist() == [3]
    assert abs(abs(got[3]) - 2.0) <= 1e-8
    assert abs(got[3].imag) <= 1e-9 and got[3].real > 0


def test_recover_r3_forward_check_fails_a_nan_defect(monkeypatch):
    # the selftest's n = 7 worked example, with the pipeline's result fixed
    # to the truth and a measurement operator that predicts only NaNs
    n = 7
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    x = np.zeros(n, dtype=complex)
    x[3] = 2.0
    z = shifted_harmonics(n, 3, float(np.pi / 3))
    y = forward_phaseless([grid[3]], [2.0], z.z, n)
    a = draw_unit_vector(np.random.default_rng(17), n)
    inst = PhaselessInstance(n, 1, y, z, extra_row=(a, float(abs(np.dot(a, x)) ** 2)), grid=grid)
    truth = recover_phaseless.PhaselessResult(
        grid[[3]], 1, np.array([2.0]), np.array([[2.0 + 0j]]), None, BRANCH_HARMONIC
    )
    monkeypatch.setattr(recover_phaseless, "recover_r5", lambda inst, tol: truth)
    nans = lambda z, theta, n: np.full((len(z), len(theta)), np.nan)
    monkeypatch.setattr(recover_phaseless, "measurement_matrix", nans)
    with pytest.raises(InconsistentSolutionError, match="snapped solution fails the forward check"):
        recover_r3(inst)


def test_recover_r3_zero_vector():
    n = 7
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    z = shifted_harmonics(n, 3, 1.0)
    rng = np.random.default_rng(521)
    a = draw_unit_vector(rng, n)
    got = recover_r3(PhaselessInstance(n, 1, np.zeros(3), z, extra_row=(a, 0.0), grid=grid))
    assert np.allclose(got, np.zeros(n))


def test_recover_r3_global_phase_invariance():
    rng = np.random.default_rng(523)
    n, s = 7, 2
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    support = np.array([1, 4])
    g = draw_g(rng, s)
    z = SampleSet(tuple(stratified_circle(rng, 13)))
    a = draw_unit_vector(rng, n)
    base = None
    for _ in range(10):
        alpha = rng.uniform(0, 2 * np.pi)
        x = np.zeros(n, dtype=complex)
        x[support] = np.exp(1j * alpha) * g
        y = forward_phaseless(grid[support], x[support], z.z, n)
        inst = PhaselessInstance(
            n, s, y, z, extra_row=(a, float(abs(np.dot(a, x)) ** 2)), grid=grid
        )
        got = recover_r3(inst)
        assert np.flatnonzero(np.abs(got) > 1e-9).tolist() == [1, 4]
        if base is None:
            base = got
        else:
            assert np.max(np.abs(got - base)) <= 1e-6 * float(np.max(np.abs(base)))


def test_recover_r3_needs_grid_and_row():
    z = shifted_harmonics(7, 3, 1.0)
    with pytest.raises(InvalidInputError):
        recover_r3(PhaselessInstance(7, 1, np.ones(3), z))
    grid = np.exp(2j * np.pi * np.arange(7) / 7)
    with pytest.raises(InvalidInputError):
        recover_r3(PhaselessInstance(7, 1, np.ones(3), z, grid=grid))


def test_pipeline_matches_phaseless_oracle():
    """Candidate sets agree with the brute-force enumeration at S=2."""
    rng = np.random.default_rng(541)
    n, m = 7, 13
    for trial in range(4):
        harmonic_theta = trial % 2 == 1
        theta = draw_theta_dft(rng, n, 2) if harmonic_theta else draw_theta_circle(rng, 2)
        g = draw_g(rng, 2)
        z = SampleSet(tuple(stratified_circle(rng, m)))
        y = forward_phaseless(theta, g, z.z, n)
        res = recover_r5(PhaselessInstance(n, 2, y, z))
        oracle_sols = brute_force_phaseless_candidates(y, theta, z.z, n)
        assert len(res.candidates) == len(oracle_sols) == 2
        order = np.lexsort((np.abs(theta), np.angle(theta)))
        for sol in oracle_sols:
            gap = min(
                phase_aligned_gap(np.asarray(c), np.asarray(sol)[order])
                for c in res.candidates
            )
            assert gap <= 1e-6


def test_gridded_candidates_match_support_search():
    """Exhaustive search over grid supports finds the same candidate set."""
    rng = np.random.default_rng(547)
    n, s, m = 8, 2, 13
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    for _ in range(3):
        support = np.sort(rng.choice(n, size=s, replace=False))
        g = draw_g(rng, s)
        z = SampleSet(tuple(stratified_circle(rng, m)))
        y = forward_phaseless(grid[support], g, z.z, n)
        res = recover_r5(PhaselessInstance(n, s, y, z))
        pipeline = []
        for cand in res.candidates:
            vec = np.zeros(n, dtype=complex)
            for th, val in zip(res.theta, cand):
                vec[int(np.argmin(np.abs(th - grid)))] = val
            pipeline.append(vec)
        oracle = []
        for sub in itertools.combinations(range(n), s):
            try:
                sols = brute_force_phaseless_candidates(
                    y, grid[list(sub)], z.z, n
                )
            except VRecoverError:
                continue
            for sol in sols:
                vec = np.zeros(n, dtype=complex)
                vec[list(sub)] = sol
                if not any(phase_aligned_gap(vec, w) <= 1e-6 for w in oracle):
                    oracle.append(vec)
        assert len(oracle) == len(pipeline) == 2
        for w in oracle:
            assert min(phase_aligned_gap(w, v) for v in pipeline) <= 1e-6


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_phaseless_instance_rejects_non_finite(bad):
    n = 7
    z = shifted_harmonics(n, n, 0.4)
    y, a = np.ones(n), np.ones(n, dtype=complex)
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    PhaselessInstance(n, 2, y, z, (a, 1.0), grid)

    def one_bad(v):
        return np.where(np.arange(n) == 2, bad, v)

    for args in [
        (one_bad(y), z, (a, 1.0), grid),
        (one_bad(y).astype(complex), z),
        (y, z, (one_bad(a), 1.0), grid),
        (y, z, (a, bad), grid),
        (y, z, (a, 1.0), one_bad(grid)),
    ]:
        with pytest.raises(InvalidInputError, match="finite"):
            PhaselessInstance(n, 2, *args)
    # a non-finite value ahead of a negative one must not hide it
    with pytest.raises(InvalidInputError):
        PhaselessInstance(n, 2, [bad, -1.0, *y[2:]], z)


def test_phaseless_instance_checks_both_m_floors_when_built():
    """m >= 4s-1 on shifted harmonics and m >= 8s-3 on general samples."""
    assert PhaselessInstance.floors(2, True) == (7, 7)
    assert PhaselessInstance.floors(2, False) == (7, 13)
    rng = np.random.default_rng(557)
    for s in (1, 2, 3):
        n = 4 * s - 1
        short = shifted_harmonics(n, 4 * s - 2, 0.5)
        with pytest.raises(InvalidInputError, match=rf"^m={4 * s - 2} below .* floor {n} "):
            PhaselessInstance(n, s, np.zeros(4 * s - 2), short)
        short = SampleSet(stratified_circle(rng, 8 * s - 4))
        with pytest.raises(InvalidInputError, match=rf"^m={8 * s - 4} below .* floor {8 * s - 3} "):
            PhaselessInstance(n, s, np.zeros(8 * s - 4), short)
        PhaselessInstance(n, s, np.zeros(n), shifted_harmonics(n, n, 0.5))
        PhaselessInstance(n, s, np.zeros(8 * s - 3), SampleSet(stratified_circle(rng, 8 * s - 3)))


def test_gridded_phaseless_instance_checks_its_grid():
    n = 7
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    z = shifted_harmonics(n, 3, 1.0)
    a = draw_unit_vector(np.random.default_rng(563), n)
    PhaselessInstance(n, 1, np.ones(3), z, (a, 1.0), grid)
    bad = {
        "^grid has 6 points": (z, (a, 1.0), grid[:6]),
        "^grid has 9 points": (z, (a, 1.0), np.r_[grid, np.exp([0.3j, 2.0j])]),
        "^grid points are not distinct$": (z, (a, 1.0), np.r_[grid[:6], grid[5] * np.exp(1e-10j)]),
        "^grid points must lie on the unit circle$": (z, (a, 1.0), 1.5 * grid),
        "^grid power condition": (shifted_harmonics(n, 3, 0.0), (a, 1.0), grid),
        "^the extra row has length n$": (z, (a[:5], 1.0), grid),
    }
    for message, (samples, extra, points) in bad.items():
        with pytest.raises(InvalidInputError, match=message):
            PhaselessInstance(n, 1, np.ones(3), samples, extra, points)


def test_phaseless_instance_validation():
    z = shifted_harmonics(7, 7, 0.4)
    with pytest.raises(InvalidInputError):
        PhaselessInstance(6, 2, np.ones(7), z)  # n below 4s-1
    with pytest.raises(InvalidInputError):
        PhaselessInstance(7, 2, -np.ones(7), z)
    with pytest.raises(InvalidInputError):
        PhaselessInstance(7, 2, np.ones(7), SampleSet((0.5, 1.0, 1j, -1j, -1.0, 0.9, 0.8)))
    # the extra row measures the n model coordinates, with or without a grid
    for length in (2, 6):
        with pytest.raises(InvalidInputError, match="^the extra row has length n$"):
            PhaselessInstance(7, 2, np.ones(7), z, extra_row=(np.ones(length), 1.0))
    # measurements and the extra row are flat lists, never scalars or tables
    for bad in (np.ones((7, 1)), 1.0, [[1.0, 0.0]] * 7, np.ones((7, 2), dtype=complex)):
        with pytest.raises(InvalidInputError, match="^measurements must be a flat list"):
            PhaselessInstance(7, 2, bad, z)
    with pytest.raises(InvalidInputError, match="^extra row must be a flat list"):
        PhaselessInstance(7, 2, np.ones(7), z, extra_row=(np.ones((7, 1)), 1.0))


@pytest.mark.parametrize(
    "defect, message",
    [
        ("off-circle sample", "^phaseless samples must lie on the unit circle$"),
        ("negative y", "^phaseless measurements must be nonnegative reals$"),
        ("complex y", "^phaseless measurements must be nonnegative reals$"),
        ("NaN in y", "^measurements must be finite$"),
    ],
    ids=["off-circle-sample", "negative-y", "complex-y", "nan-y"],
)
def test_phaseless_data_has_one_rule(defect, message):
    """PhaselessInstance and the builders of G and G~ reject malformed
    phaseless data with the same error."""
    n, s = 7, 2
    general = np.exp(1j * np.linspace(0.1, 6.0, 8 * s - 3))
    layouts = [(general, lambda z, y: build_G(z, y, n, s))]
    if defect == "off-circle sample":
        general[3] *= 1.5
    else:
        layouts.append((shifted_harmonics(n, n, 0.4), lambda z, y: build_Gtilde(z, y, s)))
    for z, build in layouts:
        y = np.ones(len(z), dtype=complex)
        if defect == "negative y":
            y[1] = -0.5
        elif defect == "complex y":
            y[2] = 1.0 + 1e-6j
        elif defect == "NaN in y":
            y[0] = np.nan
        samples = z if isinstance(z, SampleSet) else SampleSet(z)
        with pytest.raises(InvalidInputError, match=message) as from_instance:
            PhaselessInstance(n, s, y, samples)
        with pytest.raises(InvalidInputError, match=message) as from_builder:
            build(z, y)
        assert str(from_instance.value) == str(from_builder.value)
