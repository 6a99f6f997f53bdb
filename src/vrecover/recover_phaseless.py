"""Phase-less recovery: supports, magnitudes, and candidate enumeration.

Measurements are y_j = |f(z_j)|^2 for the same rational f as in the
phase-aware problem, so each candidate coefficient vector can only be
identified up to a global phase, and generally not uniquely: shifted
harmonic supports admit 2^(S-1) solutions, everything else exactly two,
related by an explicit conjugation transform. The pipeline recovers the
support from the null space of a structured system, splits the recovered
squared-modulus data into the two numerator halves, enumerates the
solution set, and optionally disambiguates with one extra measurement.
"""

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .config import Tolerances, load_tolerances
from .cpoly import (
    greedy_pairs,
    halve_doubled_roots,
    hermitian_defect,
    hermitian_part,
    laurent_conj,
    laurent_eval,
    laurent_sqrt,
    pair_conjugate_reciprocal,
    poly_roots,
    relative_defect,
    relative_gaps,
    t_values,
)
from .errors import (
    AmbiguousDisambiguationError,
    DegenerateInstanceError,
    DegenerateSupportError,
    InconsistentSolutionError,
    InvalidInputError,
    MatchingFailureError,
    ModelMismatchError,
    NumericalFailureError,
    PairingFailureError,
)
from .recover_phase import (
    _canonical_order,
    _check_floors,
    _check_grid,
    _descend,
    _min_pairwise,
    _require_distinct,
    _snap_to_grid,
)
from .structmat import (
    SampleSet, _system_G, _system_Gtilde, measurement_matrix, readonly_array, vandermonde,
)

BRANCH_HARMONIC = "Harmonic2pow"
BRANCH_DUAL = "DualPair"
BRANCH_DEGENERATE = "DegenerateHarmonicTheta"


@dataclass(frozen=True, eq=False)
class PhaselessInstance:
    """Squared-modulus measurements y at circle samples of an order-n model.

    `y` is a read-only float array, `grid` a read-only complex one, and
    `extra_row` the pair (a, y_m) of a read-only complex row and a float.
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
        yy = np.asarray(y)
        if np.iscomplexobj(yy):
            yy = readonly_array(yy, complex, "measurements")
            scale = max(1.0, float(np.abs(yy).max()) if yy.size else 1.0)
            if (np.abs(yy.imag) > 1e-12 * scale).any():
                raise InvalidInputError("phaseless measurements must be real")
            yy = yy.real
        object.__setattr__(self, "y", readonly_array(yy, float, "measurements"))
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
        if len(samples) != self.m:
            raise InvalidInputError("sample count does not match measurement count")
        _check_floors(PhaselessInstance, self.n, self.m, self.s_max, samples.is_harmonic)
        if (self.y < 0).any():
            raise InvalidInputError("phaseless measurements must be nonnegative")
        if (np.abs(np.abs(samples.z) - 1.0) > 1e-9).any():
            raise InvalidInputError("phaseless samples must lie on the unit circle")
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

    @property
    def warnings(self) -> tuple[str, ...]:
        out = []
        for entry in self.diagnostics:
            out.extend(entry.get("warnings", ()))
        return tuple(out)


# ----------------------------------------------------------------------------
# null-vector post-processing shared by both support stages
# ----------------------------------------------------------------------------

def _phase_normalize(w: np.ndarray, S: int) -> np.ndarray:
    """Rotate the null vector so the central |v|^2 coefficient is real positive.

    Any numerical null-space basis carries an arbitrary unit factor; the true
    stack is real-scalar times the coefficient data, so fixing the phase of
    the z^0 coefficient of the |v|^2 block (a sum of squared moduli) removes it.
    """
    center = w[S]
    if abs(center) <= 1e-12 * float(np.abs(w).max()):
        raise ModelMismatchError("central coefficient of the |v|^2 block vanished")
    return w * np.exp(-1j * np.angle(center))


def _symmetrized(block: np.ndarray, name: str, tol: Tolerances) -> np.ndarray:
    defect = hermitian_defect(block)
    if defect > tol.pair_tol:
        raise ModelMismatchError(f"{name} block breaks Hermitian structure ({defect:.3e})")
    return hermitian_part(block)


def _theta_from_lhat(lhat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Support from the |v|^2 block: roots come in doubled conjugate points."""
    means = halve_doubled_roots(
        poly_roots(lhat, tol.tol_root), tol.cluster_tol, ModelMismatchError,
        "|v|^2 block has an odd root count",
        "|v|^2 roots do not form doubled pairs (gap {gap:.3e})",
    )
    theta = np.conj(np.array(means))
    off = np.abs(np.abs(theta) - 1.0).max()
    if off > 1e-3:
        raise ModelMismatchError(f"recovered support leaves the unit circle by {off:.3e}")
    theta = theta / np.abs(theta)
    _require_distinct(theta, "recovered support points collide")
    return theta[_canonical_order(theta)]


def recover_support_harmonic(inst: PhaselessInstance, tol: Tolerances):
    """Support recovery for shifted-harmonic samples: (theta, q_block, S, diagnostics).

    `q_block` is the symmetrized combined numerator block, the centered
    Laurent array of length 2S-1 (z^-(S-1) .. z^(S-1)) that
    `magnitudes_harmonic` and `enumerate_candidates_harmonic` take.
    `diagnostics` holds one entry per system built by the null-space stage
    (`_descend`). The samples must be shifted harmonics, or InvalidInputError
    is raised, as `recover_general` does for the opposite case.
    """
    if not inst.samples.is_harmonic:
        raise InvalidInputError("recover_support_harmonic needs shifted-harmonic samples")
    # the instance checked y and the samples, so the builds skip build_Gtilde's checks
    zz, y = inst.samples.z, inst.y.astype(complex)
    builder = lambda s: _system_Gtilde(zz, y, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol, step=2)
    w = _phase_normalize(w, S)
    lhat = _symmetrized(w[: 2 * S + 1][::-1], "|v|^2", tol)
    q_block = _symmetrized(w[2 * S + 1 : 4 * S][::-1], "numerator", tol)
    theta = _theta_from_lhat(lhat, tol)
    return theta, q_block, S, diagnostics


# ----------------------------------------------------------------------------
# magnitude profiles
# ----------------------------------------------------------------------------

def _positivity_check(values: np.ndarray, tol: Tolerances) -> np.ndarray:
    """`values` with small negatives clipped to 0; the first below -mag_tol * max|values| raises."""
    low = values < -tol.mag_tol * np.abs(values).max(initial=0.0)
    if low.any():
        raise NumericalFailureError(
            f"magnitude {values[low.argmax()]:.3e} negative beyond tolerance"
        )
    return np.maximum(values, 0.0)


def magnitudes_harmonic(theta, q_block: np.ndarray, gamma: float, n: int,
                        tol: Tolerances) -> np.ndarray:
    """Squared magnitudes c*|g_k|^2, known up to one positive scalar c.

    Evaluates the combined numerator block at conj(theta_k) and divides by
    |t_k(conj(theta_k)) * (e^{i*gamma} theta_k^n - 1)|^2.
    """
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    denom = np.diagonal(t_values(theta, points)) * (np.exp(1j * gamma) * theta**n - 1.0)
    if (np.abs(denom) < 1e-12).any():
        raise DegenerateSupportError("magnitude denominator vanished")
    return _positivity_check(laurent_eval(q_block, points).real / np.abs(denom) ** 2, tol)


def magnitudes_general(theta, L: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Squared magnitudes from the |u_hat|^2 + |u_tilde|^2 block: L(conj th)/2|t_k|^2."""
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    t_val = np.diagonal(t_values(theta, points))
    if (np.abs(t_val) < 1e-12).any():
        raise DegenerateSupportError("magnitude denominator vanished")
    return _positivity_check(laurent_eval(L, points).real / (2.0 * np.abs(t_val) ** 2), tol)


# ----------------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------------

def _lagrange_nulls(theta: np.ndarray, weight: np.ndarray, roots: np.ndarray,
                    picks: np.ndarray, tol: Tolerances):
    """Null directions and rank flags of selection systems, in closed form.

    Selection k picks the root ``roots[j, picks[k, j]]`` from each row j of
    the (S-1, P) root table, and its system asks that
    P(q) = sum_l g_l w_l t_l(q) vanish at those S-1 roots r_j. P has degree
    S-1, so P = c * prod_j (q - r_j); at q = 1/theta_l only t_l is nonzero,
    which gives g_l proportional to
    prod_j (1 - theta_l r_j) / (w_l prod_{i != l} (theta_i - theta_l))
    once theta_l^(S-1) is cancelled. Each direction is scaled to unit max
    modulus. For distinct theta and nonzero w the rows w * t(r_j) are
    independent exactly when the picked roots are distinct, so a selection
    is flagged rank-deficient when two of its roots lie within pair_tol of
    each other (``relative_gaps``, read in either direction).
    """
    S = len(theta)
    spread = theta[None, :] - theta[:, None]
    np.fill_diagonal(spread, 1.0)
    # coincident theta give non-finite rows, which _normalize_candidates rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = 1.0 - roots[..., None] * theta  # (S-1, P, S)
        G = factors[np.arange(S - 1), picks].prod(axis=1) / (weight * spread.prod(axis=1))
        G = G / np.abs(G).max(axis=1, keepdims=True)
    flat = picks + roots.shape[1] * np.arange(S - 1)
    gaps = relative_gaps(roots.ravel(), roots.ravel())
    close = np.minimum(gaps, gaps.T) <= tol.pair_tol
    np.fill_diagonal(close, False)
    deficient = close[flat[:, :, None], flat[:, None, :]].any(axis=(1, 2))
    return G, deficient


def _normalize_candidates(G: np.ndarray, rows: np.ndarray, y: np.ndarray,
                          tol: Tolerances, deficient: np.ndarray | None = None) -> np.ndarray:
    """Scale each row of G so |rows @ g|^2 fits y, then canonicalize its phase.

    The first nonnegligible entry of each candidate is made exactly real
    positive. When rows fail, the first failing row raises, with the error of
    the first check it fails; a row flagged in `deficient` fails before its
    own checks run.
    """
    with np.errstate(all="ignore"):
        pred = np.abs(G @ rows.T) ** 2
        denom = np.sum(pred * pred, axis=1)
        alpha2 = (pred @ y) / denom
        defect = np.abs(alpha2[:, None] * pred - y).max(axis=1)
    zero = ~np.isfinite(denom) | (denom <= 0)
    nonpositive = ~zero & (alpha2 <= 0)
    bound = tol.forward_tol * max(float(y.max()), 1e-300)
    inconsistent = ~zero & ~nonpositive & (defect > bound)
    if deficient is None:
        deficient = np.zeros(len(G), dtype=bool)
    failed = deficient | zero | nonpositive | inconsistent
    if failed.any():
        k = int(np.argmax(failed))
        if deficient[k]:
            raise DegenerateInstanceError("selection system rank-deficient")
        if zero[k]:
            raise DegenerateInstanceError("candidate direction predicts zero measurements")
        if nonpositive[k]:
            raise DegenerateInstanceError("candidate scale came out nonpositive")
        raise InconsistentSolutionError(f"candidate fails the forward check by {defect[k]:.3e}")
    G = G * np.sqrt(alpha2)[:, None]
    mags = np.abs(G)
    floor = 1e-12 * np.maximum(mags.max(axis=1, keepdims=True), 1e-300)
    idx = np.arange(len(G))
    lead = np.argmax(mags > floor, axis=1)
    G = G * np.exp(-1j * np.angle(G[idx, lead]))[:, None]
    G[idx, lead] = mags[idx, lead]
    return G


def _dedup_and_sort(cands: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Distinct rows of a (K, S) candidate stack, in canonical order.

    A candidate is dropped when every entry lies within
    eps = dedup_tol * max(1, max|c|) of an earlier kept one. Since
    |re sum_l d_l| <= S * max_l |d_l|, only pairs whose coefficient sums have
    real parts within S * eps (plus the sums' rounding) can be that close;
    the entrywise check and the keep-first rule run on those pairs alone.
    The kept ones are sorted lexicographically on (re c_0, im c_0, re c_1,
    ...) rounded to a grid of dedup_tol times their largest modulus, so
    rounding noise far below the dedup tolerance cannot reorder them.
    """
    K, S = cands.shape
    scale = np.maximum(1.0, np.abs(cands).max(axis=1))
    eps = tol.dedup_tol * scale
    sums = cands.sum(axis=1).real
    bound = S * (tol.dedup_tol + 4 * S * np.finfo(float).eps) * scale
    # row-major order: each later candidate k, then its earlier partners j
    later, earlier = np.nonzero(np.abs(sums[:, None] - sums) <= bound[:, None])
    pair = later > earlier
    later, earlier = later[pair], earlier[pair]
    close = np.abs(cands[earlier] - cands[later]).max(axis=1) <= eps[later]
    keep = np.ones(K, dtype=bool)
    for k, j in zip(later[close].tolist(), earlier[close].tolist()):
        if keep[j]:
            keep[k] = False
    kept = cands[keep]
    grid = np.round(kept / (tol.dedup_tol * float(scale[keep].max())))
    keys = [part for col in grid.T for part in (col.real, col.imag)]
    return kept[np.lexsort(keys[::-1])]


def _root_pairs(block: np.ndarray, S: int, tol: Tolerances) -> np.ndarray:
    """The (S-1, 2) conjugate-reciprocal root pairs of a numerator block."""
    if S == 1:
        return np.zeros((0, 2), dtype=complex)
    pairs = pair_conjugate_reciprocal(poly_roots(block, tol.tol_root), tol.pair_tol)
    if len(pairs) != S - 1:
        raise PairingFailureError(f"expected {S - 1} root pairs, found {len(pairs)}")
    return pairs


def _enumerate_from_pairs(theta: np.ndarray, pairs: np.ndarray, row_weight: np.ndarray,
                          rows: np.ndarray, y: np.ndarray, tol: Tolerances) -> np.ndarray:
    """One candidate per selection of a representative from each root pair.

    Selections from the (S-1, 2) pair table run in itertools.product order,
    and each candidate comes from the closed form of `_lagrange_nulls`: one
    (S-1, 2, S) factor table, indexed by the selections and multiplied along
    the pair axis. The first failing selection raises.
    """
    picks = np.array(list(itertools.product((0, 1), repeat=len(pairs))), dtype=int)
    G, deficient = _lagrange_nulls(theta, row_weight, pairs, picks, tol)
    return _dedup_and_sort(_normalize_candidates(G, rows, y, tol, deficient), tol)


def enumerate_candidates_harmonic(theta, q_block: np.ndarray, gamma: float, n: int,
                                  z, y, tol: Tolerances):
    """All 2^(S-1) coefficient vectors consistent with harmonic phaseless data.

    The roots of the combined numerator block pair as (r, 1/conj(r)); each
    choice of one representative per pair pins S-1 linear conditions on g,
    whose null direction (scaled and phase-canonicalized) is one candidate.
    The null directions come in closed form, with no factorisation; a
    selection whose picked roots coincide within pair_tol has no unique one
    and raises DegenerateInstanceError("selection system rank-deficient").
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
    `diagnostics` holds one entry per system built by the null-space stage
    (`_descend`). It is the route for general samples, whose floor
    m >= 8s-3 the instance constructor checks; shifted-harmonic samples
    raise InvalidInputError, as `recover_support_harmonic` does for the
    opposite case.
    """
    if inst.samples.is_harmonic:
        raise InvalidInputError("recover_general needs samples that are not shifted harmonics")
    # the instance checked y and the samples, so the builds skip build_G's checks
    zz, y = inst.samples.z, inst.y.astype(complex)
    builder = lambda s: _system_G(zz, y, inst.n, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol, step=2)
    w = _phase_normalize(w, S)
    # the blocks are stored from the top power down
    lhat = _symmetrized(w[: 2 * S + 1][::-1], "|v|^2", tol)
    lt_raw = w[2 * S + 1 : 4 * S][::-1]
    L = _symmetrized(w[4 * S : 6 * S - 1][::-1], "modulus-sum", tol)
    lt_conj_raw = w[6 * S - 1 : 8 * S - 2][::-1]
    if lt_raw.any():
        cross_defect = relative_defect(lt_conj_raw - laurent_conj(lt_raw), lt_raw)
        if cross_defect > tol.pair_tol:
            raise ModelMismatchError(
                f"cross-term blocks are not conjugate ({cross_defect:.3e})"
            )
    L_tilde = (lt_raw + laurent_conj(lt_conj_raw)) * 0.5
    theta = _theta_from_lhat(lhat, tol)
    return theta, L, L_tilde, lhat, S, diagnostics


def split_and_enumerate_general(L: np.ndarray, L_tilde: np.ndarray, theta, n: int,
                                z, y, tol: Tolerances):
    """Candidate set from the squared-modulus blocks of the general pipeline.

    When the discriminant L^2 - 4|L_tilde|^2 is nonzero the numerator halves
    separate: the roots of Q = (L + sqrt(disc))/2 that also occur among the
    roots of conj-Laurent(L_tilde) pin the linear system for one candidate,
    whose null direction comes in the closed form of the harmonic
    enumeration, and its dual is the only other solution. A vanishing
    discriminant means all support powers coincide and the solution set is
    the harmonic-style 2^(S-1) family built from root pairs of L.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=float)
    S = len(theta)
    rows = measurement_matrix(z, theta, n)
    L2 = np.convolve(L, L)
    disc = L2 - 4.0 * np.convolve(L_tilde, laurent_conj(L_tilde))
    l2_norm = float(np.linalg.norm(L2))
    disc_norm = float(np.linalg.norm(disc))
    if disc_norm <= tol.degeneracy_tol * l2_norm:
        pairs = _root_pairs(L, S, tol)
        cands = _enumerate_from_pairs(theta, pairs, np.ones(S, dtype=complex), rows, y, tol)
        return cands, BRANCH_DEGENERATE
    if not L_tilde.any():
        raise MatchingFailureError("cross term vanished on a non-degenerate instance")
    M_sqrt = laurent_sqrt(disc, tol.pair_tol, tol.tol_root)
    q_roots = poly_roots((L + M_sqrt) * 0.5, tol.tol_root)
    pool = poly_roots(laurent_conj(L_tilde), tol.tol_root)
    matched = _match_roots(pool, q_roots, tol)
    if len(matched) != S - 1:
        raise MatchingFailureError(
            f"matched {len(matched)} roots between the split and the cross term, "
            f"expected {S - 1}"
        )
    G, deficient = _lagrange_nulls(
        theta, np.ones(S, dtype=complex), matched[:, None], np.zeros((1, S - 1), dtype=int), tol,
    )
    g_a = _normalize_candidates(G, rows, y, tol, deficient)[0]
    g_b = _normalize_candidates(dual_transform(g_a, theta, n)[None], rows, y, tol)[0]
    cands = _dedup_and_sort(np.stack([g_a, g_b]), tol)
    return cands, BRANCH_DUAL


def _match_roots(pool: np.ndarray, targets: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Greedy mutual matching; returns the pool values of matched pairs.

    `greedy_pairs` takes the gaps |pool_i - target_j| relative to
    max(1, |target_j|), up to pair_tol; each pool value and target is used once.
    """
    gap = relative_gaps(pool, targets)
    matched = []
    for i, j in greedy_pairs(gap, tol.pair_tol):
        matched.append(i)
        gap[i, :] = np.inf
        gap[:, j] = np.inf
    return pool[np.array(matched, dtype=int)]


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
        profile = magnitudes_harmonic(theta, q_block, gamma, inst.n, tol)
        cands = enumerate_candidates_harmonic(
            theta, q_block, gamma, inst.n, inst.samples, y, tol
        )
        branch = BRANCH_HARMONIC
    else:
        theta, L, L_tilde, _, S, diagnostics = recover_general(inst, tol)
        profile = magnitudes_general(theta, L, tol)
        cands, branch = split_and_enumerate_general(
            L, L_tilde, theta, inst.n, inst.samples, y, tol
        )
    selected = None
    if inst.extra_row is not None:
        a, y_m = inst.extra_row
        selected = disambiguate(cands, vandermonde(theta, inst.n).T @ a, y_m, tol)
    return PhaselessResult(theta, S, profile, cands, selected, branch, tuple(diagnostics))


def disambiguate(candidates, row, y_m: float, tol: Tolerances) -> int:
    """Index of the candidate matching one extra squared-modulus measurement.

    `row` of length S applies to the coefficients: a measurement vector a
    over the n model coordinates contracts to ``vandermonde(theta, n).T @ a``
    through the support. The winner must fit within tol and the runner-up
    must miss by at least 10x tol, otherwise the measurement was unlucky.
    """
    if not len(candidates):
        raise InvalidInputError("no candidates to disambiguate")
    if len(candidates) == 1:
        return 0
    preds = np.abs(np.asarray(candidates, dtype=complex) @ np.asarray(row, dtype=complex)) ** 2
    scale = max(float(y_m), float(preds.max()), 1e-300)
    resid = np.abs(preds - float(y_m)) / scale
    order = np.argsort(resid)
    if resid[order[0]] > tol.disambig_tol:
        raise AmbiguousDisambiguationError(
            f"best candidate misses the extra measurement by {resid[order[0]]:.3e}"
        )
    if resid[order[1]] < 10.0 * tol.disambig_tol:
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
    support = _snap_to_grid(
        res.theta, grid, 0.5 * _min_pairwise(grid),
        what="support point", near="grid point", slot="grid index",
    )
    selected = disambiguate(res.candidates, a[support], y_m, tol)
    x[support] = res.candidates[selected]
    mags = np.abs(x[support])
    k0 = int(support[mags > 1e-12 * float(mags.max())].min())
    x = x * np.exp(-1j * np.angle(x[k0]))
    predicted = np.abs(measurement_matrix(inst.samples, grid, inst.n) @ x) ** 2
    if np.abs(predicted - y).max() > tol.forward_tol * float(y.max()):
        raise InconsistentSolutionError("snapped solution fails the forward check")
    return x
