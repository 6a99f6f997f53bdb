"""Phase-less recovery: supports, magnitudes, and candidate enumeration.

Measurements are y_j = |f(z_j)|^2 for the same rational f as in the
phase-aware problem, so each candidate coefficient vector can only be
identified up to a global phase, and generally not uniquely: shifted
harmonic supports admit 2^(S-1) solutions, everything else exactly two,
related by an explicit conjugation transform. The pipeline takes the null
space of a structured system over stacks of Hermitian blocks, where it is
real, reads the support from the roots of the square root of its |v|^2
block, splits the recovered squared-modulus data into the two numerator
halves, enumerates the solution set, and optionally disambiguates with one
extra measurement.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import Tolerances, load_tolerances
from .cpoly import (
    conv_matrix,
    laurent_conj,
    laurent_eval,
    laurent_sqrt,
    pair_conjugate_reciprocal,
    poly_eval,
    poly_roots,
    poly_sqrt,
    relative_defect,
    t_at_conjugates,
)
from .errors import (
    AmbiguousDisambiguationError,
    DegenerateInstanceError,
    DegenerateSupportError,
    InvalidInputError,
    MatchingFailureError,
    NotASquareError,
    PairingFailureError,
)
from .recover_phase import (
    PhaseResult,
    _canonical_order,
    _check_floors,
    _check_grid,
    _descend,
    _snap_to_grid,
)
from .structmat import (
    SampleSet, _phaseless_measurements, _require_distinct, build_G, build_Gtilde,
    forward_check, measurement_matrix, readonly_array, vandermonde,
)

BRANCH_HARMONIC = "Harmonic2pow"
BRANCH_DUAL = "DualPair"
BRANCH_DEGENERATE = "DegenerateHarmonicTheta"
# a discriminant within this fraction of ||L^2|| takes the degenerate branch; the
# fraction reads under 2e-11 on r3 grids and over 2e-4 on general circle samples
_DEGENERACY_TOL = 1e-8
# winner gate for the extra-measurement residual in disambiguate(); the
# runner-up must miss by 10x this, which holds with room, since a losing
# candidate misses by an O(1) relative amount
_DISAMBIG_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class PhaselessInstance:
    """Squared-modulus measurements y at circle samples of an order-n model.

    `y` is a read-only float array, `grid` a read-only complex one, and
    `extra_row` the pair (a, y_m) of a read-only complex row and a float.
    y and the samples must pass the phaseless data rule that the builders
    of G and G~ apply (`structmat._phaseless_measurements`).
    """

    n: int
    s_max: int
    y: np.ndarray
    samples: SampleSet
    extra_row: tuple[np.ndarray, float] | None = None
    grid: np.ndarray | None = None

    def __init__(self, n, s_max, y, samples, extra_row=None, grid=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s_max", int(s_max))
        object.__setattr__(self, "y", _phaseless_measurements(samples.z, y))
        object.__setattr__(self, "samples", samples)
        if extra_row is not None:
            a, y_m = extra_row
            a, y_m = readonly_array(a, complex, "extra row"), float(y_m)
            if not np.isfinite(y_m):
                raise InvalidInputError("extra measurement must be finite")
            if y_m < 0:
                raise InvalidInputError("extra measurement must be nonnegative")
            if len(a) != self.n:
                raise InvalidInputError("the extra row has length n")
            extra_row = (a, y_m)
        object.__setattr__(self, "extra_row", extra_row)
        object.__setattr__(
            self, "grid", None if grid is None else readonly_array(grid, complex, "grid points")
        )
        if self.s_max < 1:
            raise InvalidInputError("s_max must be at least 1")
        _check_floors(PhaselessInstance, self.n, self.m, self.s_max, samples.is_harmonic)
        if samples.is_harmonic and samples.n != self.n:
            raise InvalidInputError("harmonic samples must share the model order n")
        if self.grid is not None:
            if (np.abs(np.abs(self.grid) - 1.0) > 1e-9).any():
                raise InvalidInputError("grid points must lie on the unit circle")
            _check_grid(self.grid, self.n, samples)

    @property
    def m(self) -> int:
        return len(self.y)

    @staticmethod
    def floors(s: int, harmonic: bool) -> tuple[int, int]:
        """The least (n, m) at sparsity s: (4s-1, 4s-1) on shifted harmonics, else (4s-1, 8s-3)."""
        return 4 * s - 1, 4 * s - 1 if harmonic else 8 * s - 3


@dataclass(frozen=True, eq=False)
class PhaselessResult:
    """`theta` (S,) complex, `magnitude_profile` (S,) float and `candidates`
    (K, S) complex, one candidate per row, are read-only arrays."""

    theta: np.ndarray
    S: int
    magnitude_profile: np.ndarray
    candidates: np.ndarray
    selected: int | None
    branch: str
    diagnostics: tuple[dict, ...] = ()

    def __post_init__(self):
        for arr in (self.theta, self.magnitude_profile, self.candidates):
            arr.flags.writeable = False

    warnings = PhaseResult.warnings


# ----------------------------------------------------------------------------
# the null vector shared by both support stages
# ----------------------------------------------------------------------------

def _mirrors(s: int, ncols: int):
    """Per block of a phaseless system at sparsity s (|v|^2 in columns 0..2s, the
    numerators after it), the slices of the columns before its centre and of their mirrors."""
    for start, stop in ((0, 2 * s + 1), (2 * s + 1, ncols)):
        centre = (start + stop) // 2
        yield slice(start, centre), slice(stop - 1, centre, -1)


def _null_vector(build, s_max: int, tol: Tolerances):
    """(S, null vector, diagnostics) of the phaseless system that build(s) returns.

    Every unknown block is a squared-modulus Laurent polynomial, so the true
    null vector w reads conj(w_k) at the mirror k' of each column k, and the
    mirrored columns of M = build(s) are exact conjugates. `_descend` runs on
    the real fold of M, which keeps its singular values: sqrt(2) Re M before
    each block's centre, sqrt(2) Im M after it and Re M at it. Its null vector
    x unfolds to w_k = (x_k + i x_k') / sqrt(2) before the centre, conj(w_k) at
    k' and x at the centre, with a nonnegative central |v|^2 coefficient (a
    zero one belongs to no square, so it fails in `_theta_from_lhat`).
    """
    def real_system(s):
        M = build(s)
        folded = M.real.copy()
        for before, after in _mirrors(s, M.shape[1]):
            folded[:, before] *= np.sqrt(2.0)
            folded[:, after] = np.sqrt(2.0) * M.imag[:, after]
        return folded

    S, x, diagnostics = _descend(real_system, s_max, tol, step=2)
    x = x if x[S] >= 0 else -x
    w = x.astype(complex)
    for before, after in _mirrors(S, len(x)):
        w[before] = np.sqrt(0.5) * (x[before] + 1j * x[after])
        w[after] = np.conj(w[before])
    return S, w, diagnostics


def _theta_from_lhat(lhat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Support from the |v|^2 block, read from its square root.

    On the circle z^S |v(z)|^2 is a constant times v(z)^2, so `poly_sqrt`
    of the block gives R, proportional to v, whose S roots are the
    conjugate support points. A block whose top coefficient vanishes raises
    DegenerateSupportError, and one that R * R misses by more than
    pair_tol, relative, raises NotASquareError. The roots are projected onto
    the circle unchecked: the candidates' forward check judges them.
    """
    if abs(lhat[-1]) <= 1e-12 * np.abs(lhat).max():
        raise DegenerateSupportError("|v|^2 block lost its leading coefficient")
    R = poly_sqrt(lhat)
    defect = relative_defect(np.convolve(R, R) - lhat, lhat)
    # a non-finite defect fails too
    if not defect <= tol.pair_tol:
        raise NotASquareError(
            f"|v|^2 block is not a square: defect {defect:.1e} exceeds {tol.pair_tol:.1e}"
        )
    theta = np.conj(poly_roots(R, tol.tol_root))
    theta = theta / np.abs(theta)
    _require_distinct(theta, "recovered support points collide")
    return theta[_canonical_order(theta)]


def recover_support_harmonic(inst: PhaselessInstance, tol: Tolerances):
    """Support recovery for shifted-harmonic samples: (theta, q_block, S, diagnostics).

    `q_block` is the Hermitian combined numerator block, the centered
    Laurent array of length 2S-1 (z^-(S-1) .. z^(S-1)) that
    `magnitudes_harmonic` and `enumerate_candidates_harmonic` take.
    `diagnostics` holds one entry per system that the null-space stage
    (`_null_vector`) builds, each from `build_Gtilde` with the instance's
    samples and y; its singular values are those of the real system. The
    samples must be shifted harmonics, or InvalidInputError is raised, as
    `recover_general` does for the opposite case.
    """
    if not inst.samples.is_harmonic:
        raise InvalidInputError("recover_support_harmonic needs shifted-harmonic samples")
    builder = lambda s: build_Gtilde(inst.samples, inst.y, s)
    S, w, diagnostics = _null_vector(builder, inst.s_max, tol)
    # the blocks are stored from the top power down
    lhat, q_block = w[: 2 * S + 1][::-1], w[2 * S + 1 :][::-1]
    return _theta_from_lhat(lhat, tol), q_block, S, diagnostics


# ----------------------------------------------------------------------------
# magnitude profiles
# ----------------------------------------------------------------------------

def magnitudes_harmonic(theta, q_block: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """Squared magnitudes c*|g_k|^2, known up to one positive scalar c.

    Evaluates the combined numerator block at conj(theta_k) and divides by
    |t_k(conj(theta_k)) * (e^{i*gamma} theta_k^n - 1)|^2. Negative values
    are clipped to 0 unchecked: no later stage reads the profile.
    """
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    denom = t_at_conjugates(theta) * (np.exp(1j * gamma) * theta**n - 1.0)
    if (np.abs(denom) < 1e-12).any():
        raise DegenerateSupportError("magnitude denominator vanished")
    return np.maximum(laurent_eval(q_block, points).real / np.abs(denom) ** 2, 0.0)


def magnitudes_general(theta, L: np.ndarray) -> np.ndarray:
    """Squared magnitudes L(conj th)/2|t_k|^2 from the |u_hat|^2 + |u_tilde|^2 block, clipped."""
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    t_val = t_at_conjugates(theta)
    if (np.abs(t_val) < 1e-12).any():
        raise DegenerateSupportError("magnitude denominator vanished")
    return np.maximum(laurent_eval(L, points).real / (2.0 * np.abs(t_val) ** 2), 0.0)


# ----------------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------------

def _lagrange_nulls(theta: np.ndarray, weight: np.ndarray, roots: np.ndarray,
                    picks: np.ndarray) -> np.ndarray:
    """Null directions of selection systems, in closed form, one per row.

    It serves the harmonic and degenerate enumerations; the dual split reads
    its candidate from cofactors instead. Selection k picks the root
    ``roots[j, picks[k, j]]`` from each row j of the (S-1, 2) root-pair
    table, and its system asks that
    P(q) = sum_l g_l w_l t_l(q) vanish at those S-1 roots r_j. P has degree
    S-1, so P = c * prod_j (q - r_j); at q = 1/theta_l only t_l is nonzero,
    which gives g_l proportional to
    prod_j (1 - theta_l r_j) / (w_l prod_{i != l} (theta_i - theta_l))
    once theta_l^(S-1) is cancelled. Each direction is scaled to unit max
    modulus. The form holds for any picked roots, repeats included: the
    direction is the g whose P has exactly those roots, so the selection
    system is never solved and its rank never read.
    """
    S = len(theta)
    spread = theta[None, :] - theta[:, None]
    np.fill_diagonal(spread, 1.0)
    # coincident theta give non-finite rows, which _normalize_candidates rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = 1.0 - roots[..., None] * theta  # (S-1, P, S)
        G = factors[np.arange(S - 1), picks].prod(axis=1) / (weight * spread.prod(axis=1))
        return G / np.abs(G).max(axis=1, keepdims=True)


def _normalize_candidates(G: np.ndarray, rows: np.ndarray, y: np.ndarray,
                          tol: Tolerances) -> np.ndarray:
    """Scale each row of G so |rows @ g|^2 fits y, then canonicalize its phase.

    The first nonnegligible entry of each candidate is made exactly real
    positive. When rows fail, the first failing row raises, with the error of
    the first check it fails: zero predicted measurements or a nonpositive
    scale (DegenerateInstanceError), then `forward_check` of the scaled fit.
    """
    with np.errstate(all="ignore"):
        pred = np.abs(G @ rows.T) ** 2
        denom = np.sum(pred * pred, axis=1)
        alpha2 = (pred @ y) / denom
        fitted = alpha2[:, None] * pred
    zero = ~np.isfinite(denom) | (denom <= 0)
    degenerate = zero | (alpha2 <= 0)
    k = int(np.argmax(degenerate)) if degenerate.any() else len(G)
    # the rows before the first degenerate one take the forward check first
    forward_check(fitted[:k], y, tol.forward_tol, "candidate")
    if k < len(G):
        if zero[k]:
            raise DegenerateInstanceError("candidate direction predicts zero measurements")
        raise DegenerateInstanceError("candidate scale came out nonpositive")
    G = G * np.sqrt(alpha2)[:, None]
    mags = np.abs(G)
    floor = 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1e-300)
    idx = np.arange(len(G))
    lead = np.argmax(mags > floor, axis=1)
    G = G * np.exp(-1j * np.angle(G[idx, lead]))[:, None]
    G[idx, lead] = mags[idx, lead]
    return G


def _sorted_candidates(cands: np.ndarray) -> np.ndarray:
    """The rows of a (K, S) candidate stack in canonical order.

    They are sorted lexicographically on (re c_0, im c_0, re c_1, ...)
    rounded to a grid of 1e-8 * max(1, max|c|), so rounding noise far below
    that grid cannot reorder them.
    """
    grid = np.round(cands / (1e-8 * max(1.0, float(np.abs(cands).max()))))
    keys = [part for col in grid.T for part in (col.real, col.imag)]
    return cands[np.lexsort(keys[::-1])]


def _root_pairs(block: np.ndarray, S: int, tol: Tolerances) -> np.ndarray:
    """The (S-1, 2) conjugate-reciprocal root pairs of a numerator block."""
    if S == 1:
        return np.zeros((0, 2), dtype=complex)
    pairs = pair_conjugate_reciprocal(poly_roots(block, tol.tol_root), tol.pair_tol)
    # unreachable while the block is exactly Hermitian (2S-2 roots, each paired
    # or raised on); kept so `_lagrange_nulls` never indexes a short pair table
    if len(pairs) != S - 1:
        raise PairingFailureError(f"expected {S - 1} root pairs, found {len(pairs)}")
    return pairs


def _enumerate_from_pairs(theta: np.ndarray, pairs: np.ndarray, row_weight: np.ndarray,
                          rows: np.ndarray, y: np.ndarray, tol: Tolerances) -> np.ndarray:
    """One candidate per selection of a representative from each root pair.

    Selections from the (S-1, 2) pair table run in binary counting order, the
    first pair's pick being the leading bit, and each candidate comes from the
    closed form of `_lagrange_nulls`: one (S-1, 2, S) factor table, indexed by
    the selections and multiplied along the pair axis. The first failing selection raises.
    """
    k = len(pairs)
    picks = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    G = _lagrange_nulls(theta, row_weight, pairs, picks)
    return _sorted_candidates(_normalize_candidates(G, rows, y, tol))


def enumerate_candidates_harmonic(theta, q_block: np.ndarray, gamma: float, n: int,
                                  z, y, tol: Tolerances):
    """All 2^(S-1) coefficient vectors consistent with harmonic phaseless data.

    The roots of the combined numerator block pair as (r, 1/conj(r)); each
    choice of one representative per pair pins S-1 linear conditions on g,
    whose null direction (scaled and phase-canonicalized) is one candidate.
    The null directions come in closed form (`_lagrange_nulls`), with no
    factorisation and no rank check, and every candidate must pass the
    forward check of `_normalize_candidates`.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=float)
    S = len(theta)
    rows = measurement_matrix(z, theta, n)
    row_weight = np.exp(1j * gamma) * theta**n - 1.0
    if (np.abs(row_weight) < 1e-12).any():
        raise DegenerateInstanceError("a support power collides with the rotation")
    pairs = _root_pairs(q_block, S, tol)
    return _enumerate_from_pairs(theta, pairs, row_weight, rows, y, tol)


def dual_transform(g, theta, n: int) -> np.ndarray:
    """The conjugate solution sharing |g| and the phaseless measurements."""
    g = np.asarray(g, dtype=complex)
    theta = np.asarray(theta, dtype=complex)
    total = np.prod(np.conj(theta))
    return np.conj(g) * theta ** (-n) * (total / np.conj(theta))


# ----------------------------------------------------------------------------
# general (non-harmonic sample) pipeline
# ----------------------------------------------------------------------------

def recover_general(inst: PhaselessInstance, tol: Tolerances):
    """Support and squared-modulus blocks from general circle samples.

    Returns (theta, L, L_tilde, L_hat, S, diagnostics): L and L_tilde are
    centered Laurent arrays of length 2S-1, L_hat one of length 2S+1, and
    `diagnostics` holds one entry per system that the null-space stage
    (`_null_vector`) builds, each from `build_G` with the instance's samples
    and y; its singular values are those of the real system. It is the
    route for general samples, whose floor m >= 8s-3 the instance
    constructor checks; shifted-harmonic samples raise InvalidInputError,
    as `recover_support_harmonic` does for the opposite case.
    """
    if inst.samples.is_harmonic:
        raise InvalidInputError("recover_general needs samples that are not shifted harmonics")
    builder = lambda s: build_G(inst.samples, inst.y, inst.n, s)
    S, w, diagnostics = _null_vector(builder, inst.s_max, tol)
    # blocks run from the top power down; the last one is conj-Laurent(L_tilde)
    lhat = w[: 2 * S + 1][::-1]
    L_tilde = w[2 * S + 1 : 4 * S][::-1]
    L = w[4 * S : 6 * S - 1][::-1]
    return _theta_from_lhat(lhat, tol), L, L_tilde, lhat, S, diagnostics


def split_and_enumerate_general(L: np.ndarray, L_tilde: np.ndarray, theta, n: int,
                                z, y, tol: Tolerances):
    """Candidate set from the squared-modulus blocks of the general pipeline.

    When the discriminant L^2 - 4|L_tilde|^2 is nonzero the numerator halves
    separate. `laurent_sqrt` takes sqrt(disc) from the coefficients and
    raises `NotASquareError` when its square misses disc by more than
    pair_tol, relative. Q = (L + sqrt(disc))/2 is |u_hat|^2 or |u_tilde|^2,
    and it shares one numerator factor of degree S-1 with
    P = conj-Laurent(L_tilde). So Q * a = P * b has one solution (a, b),
    each of length S: the null vector of [conv(Q) | -conv(P)], (3S-2) x 2S,
    read from one SVD, with no roots found. With t_l = t_l(conj theta_l),
    each cofactor gives the candidate at the support,
    g_A = a(conj theta) / t and g_B = theta^-n b(conj theta) / t, and
    g_A = -g_B. When max|g_A + g_B| exceeds pair_tol times max|g_B - g_A|
    they disagree and `MatchingFailureError` is raised. The candidate
    g_B - g_A (the dual of g when Q = |u_tilde|^2) and its dual are the
    only solutions, and both must pass the forward check. A vanishing
    discriminant (`_DEGENERACY_TOL`) means all support powers coincide and
    the solution set is the harmonic-style 2^(S-1) family from root pairs of L.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=float)
    S = len(theta)
    rows = measurement_matrix(z, theta, n)
    L2 = np.convolve(L, L)
    disc = L2 - 4.0 * np.convolve(L_tilde, laurent_conj(L_tilde))
    l2_norm = float(np.linalg.norm(L2))
    disc_norm = float(np.linalg.norm(disc))
    if disc_norm <= _DEGENERACY_TOL * l2_norm:
        pairs = _root_pairs(L, S, tol)
        cands = _enumerate_from_pairs(theta, pairs, np.ones(S, dtype=complex), rows, y, tol)
        return cands, BRANCH_DEGENERATE
    Q = (L + laurent_sqrt(disc, tol.pair_tol)) * 0.5
    K = np.hstack([conv_matrix(Q, S), -conv_matrix(laurent_conj(L_tilde), S)])
    x = np.linalg.svd(K)[2][-1].conj()
    points, t = np.conj(theta), t_at_conjugates(theta)
    # coincident theta make t vanish, and the non-finite defect fails the gate
    with np.errstate(all="ignore"):
        g_a = poly_eval(x[:S], points) / t
        g_b = theta ** (-n) * poly_eval(x[S:], points) / t
        span = np.abs(g_b - g_a).max()
        defect = np.abs(g_a + g_b).max() / span
    if not defect <= tol.pair_tol:
        raise MatchingFailureError(
            f"cofactor candidates disagree by {defect:.1e}, beyond {tol.pair_tol:.1e}"
        )
    first = (g_b - g_a) / span
    pair = np.stack([first, dual_transform(first, theta, n)])
    return _sorted_candidates(_normalize_candidates(pair, rows, y, tol)), BRANCH_DUAL


# ----------------------------------------------------------------------------
# end-to-end drivers
# ----------------------------------------------------------------------------

def recover_r5(inst: PhaselessInstance, tol: Tolerances | None = None) -> PhaselessResult:
    """Full phaseless pipeline: support, magnitudes, candidates, disambiguation.

    Shifted-harmonic sample sets route through the compact harmonic system
    (m >= 4s-1), anything else through the general one (m >= 8s-3). With no
    extra measurement the result is the full candidate set and `selected`
    stays None, which is the candidate-set problem on its own.
    """
    if tol is None:
        tol = load_tolerances()
    y = inst.y
    if not (y > 0).any():
        branch = BRANCH_HARMONIC if inst.samples.is_harmonic else BRANCH_DUAL
        return PhaselessResult(
            np.zeros(0, complex), 0, np.zeros(0), np.zeros((0, 0), complex), None, branch
        )
    if inst.samples.is_harmonic:
        theta, q_block, S, diagnostics = recover_support_harmonic(inst, tol)
        gamma = float(inst.samples.gamma)
        profile = magnitudes_harmonic(theta, q_block, gamma, inst.n)
        cands = enumerate_candidates_harmonic(
            theta, q_block, gamma, inst.n, inst.samples, y, tol
        )
        branch = BRANCH_HARMONIC
    else:
        theta, L, L_tilde, _, S, diagnostics = recover_general(inst, tol)
        profile = magnitudes_general(theta, L)
        cands, branch = split_and_enumerate_general(
            L, L_tilde, theta, inst.n, inst.samples, y, tol
        )
    selected = None
    if inst.extra_row is not None:
        a, y_m = inst.extra_row
        selected = disambiguate(cands, vandermonde(theta, inst.n).T @ a, y_m)
    return PhaselessResult(theta, S, profile, cands, selected, branch, tuple(diagnostics))


def disambiguate(candidates, row, y_m: float) -> int:
    """Index of the candidate matching one extra squared-modulus measurement.

    `row` of length S applies to the coefficients: a measurement vector a
    over the n model coordinates contracts to ``vandermonde(theta, n).T @ a``
    through the support. The winner must fit within `_DISAMBIG_TOL` and the
    runner-up must miss by at least 10x that, otherwise the measurement was
    unlucky.
    """
    if not len(candidates):
        raise InvalidInputError("no candidates to disambiguate")
    if len(candidates) == 1:
        return 0
    preds = np.abs(np.asarray(candidates, dtype=complex) @ np.asarray(row, dtype=complex)) ** 2
    scale = max(float(y_m), float(preds.max()), 1e-300)
    resid = np.abs(preds - float(y_m)) / scale
    order = np.argsort(resid)
    if resid[order[0]] > _DISAMBIG_TOL:
        raise AmbiguousDisambiguationError(
            f"best candidate misses the extra measurement by {resid[order[0]]:.3e}"
        )
    if resid[order[1]] < 10.0 * _DISAMBIG_TOL:
        raise AmbiguousDisambiguationError(
            f"runner-up candidate is too close ({resid[order[1]]:.3e}); redraw the row"
        )
    return int(order[0])


def recover_r3(inst: PhaselessInstance, tol: Tolerances | None = None) -> np.ndarray:
    """Sparse vector from gridded phaseless measurements, up to nothing at all.

    The support lives on a known circle grid, so after the pipeline the
    recovered points snap to grid indices, the extra measurement row reduces
    to the support entries, and the winning candidate is placed into a dense
    vector whose first nonzero entry is rotated real positive.
    """
    if tol is None:
        tol = load_tolerances()
    if inst.grid is None:
        raise InvalidInputError("recover_r3 needs the instance grid")
    if inst.extra_row is None:
        raise InvalidInputError("recover_r3 needs the disambiguation measurement")
    grid = inst.grid
    a, y_m = inst.extra_row
    y = inst.y
    x = np.zeros(inst.n, dtype=complex)
    if not (y > 0).any():
        return x
    res = recover_r5(replace(inst, extra_row=None, grid=None), tol)
    support = _snap_to_grid(res.theta, grid)
    selected = disambiguate(res.candidates, a[support], y_m)
    x[support] = res.candidates[selected]
    mags = np.abs(x[support])
    k0 = int(support[mags > 1e-12 * float(mags.max())].min())
    x = x * np.exp(-1j * np.angle(x[k0]))
    # the support's columns alone: no n x n table of the whole grid
    predicted = np.abs(measurement_matrix(inst.samples, grid[support], inst.n) @ x[support]) ** 2
    forward_check(predicted, y, tol.forward_tol, "snapped solution")
    return x
