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
from dataclasses import dataclass

import numpy as np

from .config import Tolerances, load_tolerances
from .cpoly import (
    LaurentPoly,
    halve_doubled_roots,
    hermitian_defect,
    laurent_add,
    laurent_conj,
    laurent_eval,
    laurent_mul,
    laurent_scale,
    laurent_sqrt,
    laurent_to_poly,
    pair_conjugate_reciprocal,
    poly_roots,
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
    _descend,
    _min_pairwise,
    _require_distinct,
    _snap_to_grid,
)
from .structmat import SampleSet, build_G, build_Gtilde, vandermonde

BRANCH_HARMONIC = "Harmonic2pow"
BRANCH_DUAL = "DualPair"
BRANCH_DEGENERATE = "DegenerateHarmonicTheta"


@dataclass(frozen=True)
class PhaselessInstance:
    """Squared-modulus measurements y at circle samples of an order-n model."""

    n: int
    s_max: int
    y: tuple[float, ...]
    samples: SampleSet
    extra_row: tuple | None = None
    grid: tuple[complex, ...] | None = None

    def __init__(self, n, s_max, y, samples, extra_row=None, grid=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s_max", int(s_max))
        yy = np.asarray(y)
        if np.iscomplexobj(yy):
            scale = max(1.0, float(np.max(np.abs(yy))) if yy.size else 1.0)
            if np.any(np.abs(yy.imag) > 1e-12 * scale):
                raise InvalidInputError("phaseless measurements must be real")
            yy = yy.real
        object.__setattr__(self, "y", tuple(float(v) for v in yy))
        object.__setattr__(self, "samples", samples)
        if extra_row is not None:
            a, y_m = extra_row
            extra_row = (tuple(complex(v) for v in a), float(y_m))
            if extra_row[1] < 0:
                raise InvalidInputError("extra measurement must be nonnegative")
        object.__setattr__(self, "extra_row", extra_row)
        object.__setattr__(
            self, "grid", None if grid is None else tuple(complex(v) for v in grid)
        )
        if self.s_max < 1:
            raise InvalidInputError("s_max must be at least 1")
        if self.n < 4 * self.s_max - 1:
            raise InvalidInputError(
                f"n={self.n} below the phaseless bound 4*s-1={4 * self.s_max - 1}"
            )
        if len(samples) != len(self.y):
            raise InvalidInputError("sample count does not match measurement count")
        if min(self.y, default=0.0) < 0:
            raise InvalidInputError("phaseless measurements must be nonnegative")
        zz = samples.array()
        if np.any(np.abs(np.abs(zz) - 1.0) > 1e-9):
            raise InvalidInputError("phaseless samples must lie on the unit circle")
        if samples.is_harmonic and samples.n != self.n:
            raise InvalidInputError("harmonic samples must share the model order n")

    @property
    def m(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class PhaselessResult:
    theta: tuple[complex, ...]
    S: int
    magnitude_profile: tuple[float, ...]
    candidates: tuple[tuple[complex, ...], ...]
    selected: int | None
    branch: str
    diagnostics: tuple[dict, ...] = ()

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
    if abs(center) <= 1e-12 * float(np.max(np.abs(w))):
        raise ModelMismatchError("central coefficient of the |v|^2 block vanished")
    return w * np.exp(-1j * np.angle(center))


def _symmetrized(block: LaurentPoly, name: str, tol: Tolerances) -> LaurentPoly:
    defect = hermitian_defect(block)
    if defect > tol.pair_tol:
        raise ModelMismatchError(f"{name} block breaks Hermitian structure ({defect:.3e})")
    return laurent_scale(laurent_add(block, laurent_conj(block)), 0.5)


def _theta_from_lhat(lhat: LaurentPoly, tol: Tolerances) -> np.ndarray:
    """Support from the |v|^2 block: roots come in doubled conjugate points."""
    p, _ = laurent_to_poly(lhat)
    means = halve_doubled_roots(
        poly_roots(p, tol.tol_root), tol.cluster_tol, ModelMismatchError,
        "|v|^2 block has an odd root count",
        "|v|^2 roots do not form doubled pairs (gap {gap:.3e})",
    )
    theta = np.conj(np.array(means))
    off = np.max(np.abs(np.abs(theta) - 1.0))
    if off > 1e-3:
        raise ModelMismatchError(f"recovered support leaves the unit circle by {off:.3e}")
    theta = theta / np.abs(theta)
    _require_distinct(theta, "recovered support points collide")
    return theta[_canonical_order(theta)]


def _support_harmonic(inst: PhaselessInstance, tol: Tolerances):
    if not inst.samples.is_harmonic:
        raise InvalidInputError("harmonic support recovery needs shifted-harmonic samples")
    if inst.m < 4 * inst.s_max - 1:
        raise InvalidInputError("harmonic branch needs m >= 4*s-1 measurements")
    y = np.array(inst.y, dtype=float)
    builder = lambda s: build_Gtilde(inst.samples, y, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol)
    w = _phase_normalize(w, S)
    lhat = _symmetrized(LaurentPoly(w[: 2 * S + 1][::-1], -S), "|v|^2", tol)
    p = _symmetrized(LaurentPoly(w[2 * S + 1 : 4 * S][::-1], -(S - 1)), "numerator", tol)
    w_sym = np.concatenate([_descending(lhat, S), _descending(p, S - 1)])
    theta = _theta_from_lhat(lhat, tol)
    return theta, w_sym, S, diagnostics


def _descending(block: LaurentPoly, half_span: int) -> np.ndarray:
    """Dense descending coefficients z^half_span .. z^-half_span of `block`."""
    out = np.zeros(2 * half_span + 1, dtype=complex)
    for offset, c in enumerate(block.coeffs):
        k = block.min_degree + offset
        out[half_span - k] = c
    return out


def recover_support_harmonic(inst: PhaselessInstance, tol: Tolerances):
    """Support recovery for shifted-harmonic samples: (theta, null vector, S)."""
    theta, w_sym, S, _ = _support_harmonic(inst, tol)
    return theta, w_sym, S


# ----------------------------------------------------------------------------
# magnitude profiles
# ----------------------------------------------------------------------------

def _positivity_check(values: np.ndarray, tol: Tolerances) -> tuple[float, ...]:
    scale = max((abs(v) for v in values), default=0.0)
    floor = -tol.mag_tol * scale
    for v in values:
        if v < floor:
            raise NumericalFailureError(f"magnitude {v:.3e} negative beyond tolerance")
    return tuple(max(v, 0.0) for v in values)


def magnitudes_harmonic(theta, q_block: LaurentPoly, gamma: float, n: int,
                        tol: Tolerances) -> tuple[float, ...]:
    """Squared magnitudes c*|g_k|^2, known up to one positive scalar c.

    Evaluates the combined numerator block at conj(theta_k) and divides by
    |t_k(conj(theta_k)) * (e^{i*gamma} theta_k^n - 1)|^2.
    """
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    denom = np.diagonal(t_values(theta, points)) * (np.exp(1j * gamma) * theta**n - 1.0)
    if np.any(np.abs(denom) < 1e-12):
        raise DegenerateSupportError("magnitude denominator vanished")
    return _positivity_check(laurent_eval(q_block, points).real / np.abs(denom) ** 2, tol)


def magnitudes_general(theta, L: LaurentPoly, tol: Tolerances) -> tuple[float, ...]:
    """Squared magnitudes from the |u_hat|^2 + |u_tilde|^2 block: L(conj th)/2|t_k|^2."""
    theta = np.asarray(theta, dtype=complex)
    points = np.conj(theta)
    t_val = np.diagonal(t_values(theta, points))
    if np.any(np.abs(t_val) < 1e-12):
        raise DegenerateSupportError("magnitude denominator vanished")
    return _positivity_check(laurent_eval(L, points).real / (2.0 * np.abs(t_val) ** 2), tol)


# ----------------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------------

def _selection_nulls(M: np.ndarray, tol: Tolerances):
    """Null directions and rank flags of a (K, S-1, S) stack of selection systems.

    One full SVD of the stack gives both: the singular values for the rank
    test and, for a full-rank system, its null direction conj(Vh[-1]).
    """
    _, sig, Vh = np.linalg.svd(M)
    deficient = sig[:, -1] <= tol.rank_rel_tol * sig[:, 0] * max(M.shape[1:])
    return np.conj(Vh[:, -1]), deficient


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
        defect = np.max(np.abs(alpha2[:, None] * pred - y), axis=1)
    zero = ~np.isfinite(denom) | (denom <= 0)
    nonpositive = ~zero & (alpha2 <= 0)
    bound = tol.forward_tol * max(float(np.max(y)), 1e-300)
    inconsistent = ~zero & ~nonpositive & (defect > bound)
    if deficient is None:
        deficient = np.zeros(len(G), dtype=bool)
    failed = deficient | zero | nonpositive | inconsistent
    if np.any(failed):
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
    floor = 1e-12 * np.maximum(np.max(mags, axis=1, keepdims=True), 1e-300)
    idx = np.arange(len(G))
    lead = np.argmax(mags > floor, axis=1)
    G = G * np.exp(-1j * np.angle(G[idx, lead]))[:, None]
    G[idx, lead] = mags[idx, lead]
    return G


def _dedup_and_sort(cands: np.ndarray, tol: Tolerances) -> list[np.ndarray]:
    """Distinct rows of a (K, S) candidate stack, in canonical order.

    A candidate is dropped when every entry lies within
    dedup_tol * max(1, max|c|) of an earlier kept one. The kept ones are
    sorted lexicographically on (re c_0, im c_0, re c_1, ...) rounded to a grid
    of dedup_tol times their largest modulus, so rounding noise far below the
    dedup tolerance cannot reorder them.
    """
    scale = tol.dedup_tol * np.maximum(1.0, np.max(np.abs(cands), axis=1))
    kept = np.empty_like(cands)
    count = 0
    for c, eps in zip(cands, scale):
        if count == 0 or np.abs(kept[:count] - c).max(axis=1).min() > eps:
            kept[count] = c
            count += 1
    kept = kept[:count]
    grid = np.round(kept / (tol.dedup_tol * max(1.0, float(np.max(np.abs(kept))))))
    keys = [part for col in grid.T for part in (col.real, col.imag)]
    return list(kept[np.lexsort(keys[::-1])])


def _root_pairs(block: LaurentPoly, S: int, tol: Tolerances) -> list:
    """The S-1 conjugate-reciprocal root pairs of a numerator block (none for S=1)."""
    if S == 1:
        return []
    p, _ = laurent_to_poly(block)
    pairs = pair_conjugate_reciprocal(poly_roots(p, tol.tol_root), tol.pair_tol)
    if len(pairs) != S - 1:
        raise PairingFailureError(f"expected {S - 1} root pairs, found {len(pairs)}")
    return pairs


def _enumerate_from_pairs(theta: np.ndarray, pairs, row_weight: np.ndarray,
                          rows: np.ndarray, y: np.ndarray, tol: Tolerances):
    """One candidate per selection of a representative from each root pair.

    Selections run in itertools.product order over the pairs. Every weighted
    t_l value is computed once per pair root; each selection system is a
    fancy-indexed slice of that table, and all of them are solved together.
    """
    S = len(theta)
    roots = np.array(pairs, dtype=complex).reshape(S - 1, 2)
    # built for S == 1 too: t_values rejects a pole at zero
    table = t_values(theta, roots.ravel()).reshape(S - 1, 2, S) * row_weight
    if S == 1:
        G, deficient = np.ones((1, 1), dtype=complex), None
    else:
        picks = np.array(list(itertools.product((0, 1), repeat=S - 1)))
        G, deficient = _selection_nulls(table[np.arange(S - 1), picks], tol)
    return _dedup_and_sort(_normalize_candidates(G, rows, y, tol, deficient), tol)


def enumerate_candidates_harmonic(theta, q_block: LaurentPoly, gamma: float, n: int,
                                  z, y, tol: Tolerances):
    """All 2^(S-1) coefficient vectors consistent with harmonic phaseless data.

    The roots of the combined numerator block pair as (r, 1/conj(r)); each
    choice of one representative per pair pins S-1 linear conditions on g,
    whose null direction (scaled and phase-canonicalized) is one candidate.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=float)
    S = len(theta)
    rows = vandermonde(z, n).T @ vandermonde(theta, n)
    row_weight = np.exp(1j * gamma) * theta**n - 1.0
    if np.any(np.abs(row_weight) < 1e-12):
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

def _general_stage(inst: PhaselessInstance, tol: Tolerances):
    if inst.m < 8 * inst.s_max - 3:
        raise InvalidInputError("general branch needs m >= 8*s-3 measurements")
    y = np.array(inst.y, dtype=float)
    builder = lambda s: build_G(inst.samples, y, inst.n, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol)
    w = _phase_normalize(w, S)
    lhat_raw = LaurentPoly(w[: 2 * S + 1][::-1], -S)
    lt_raw = LaurentPoly(w[2 * S + 1 : 4 * S][::-1], -(S - 1))
    l_raw = LaurentPoly(w[4 * S : 6 * S - 1][::-1], -(S - 1))
    lt_conj_raw = LaurentPoly(w[6 * S - 1 : 8 * S - 2][::-1], -(S - 1))
    lhat = _symmetrized(lhat_raw, "|v|^2", tol)
    L = _symmetrized(l_raw, "modulus-sum", tol)
    cross = laurent_add(lt_conj_raw, laurent_scale(laurent_conj(lt_raw), -1.0))
    if not lt_raw.is_zero():
        cross_defect = 0.0 if cross.is_zero() else float(
            np.linalg.norm(cross.array()) / np.linalg.norm(lt_raw.array())
        )
        if cross_defect > tol.pair_tol:
            raise ModelMismatchError(
                f"cross-term blocks are not conjugate ({cross_defect:.3e})"
            )
    L_tilde = laurent_scale(laurent_add(lt_raw, laurent_conj(lt_conj_raw)), 0.5)
    theta = _theta_from_lhat(lhat, tol)
    return theta, L, L_tilde, lhat, S, diagnostics


def recover_general(inst: PhaselessInstance, tol: Tolerances):
    """Support and squared-modulus blocks from general circle samples."""
    theta, L, L_tilde, L_hat, S, _ = _general_stage(inst, tol)
    return theta, L, L_tilde, L_hat, S


def split_and_enumerate_general(L: LaurentPoly, L_tilde: LaurentPoly, theta, n: int,
                                z, y, tol: Tolerances):
    """Candidate set from the squared-modulus blocks of the general pipeline.

    When the discriminant L^2 - 4|L_tilde|^2 is nonzero the numerator halves
    separate: the roots of Q = (L + sqrt(disc))/2 that also occur among the
    roots of conj-Laurent(L_tilde) pin the linear system for one candidate,
    and its dual is the only other solution. A vanishing discriminant means
    all support powers coincide and the solution set is the harmonic-style
    2^(S-1) family built from root pairs of L.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=float)
    S = len(theta)
    rows = vandermonde(z, n).T @ vandermonde(theta, n)
    L2 = laurent_mul(L, L)
    K = laurent_mul(L_tilde, laurent_conj(L_tilde))
    disc = laurent_add(L2, laurent_scale(K, -4.0))
    l2_norm = float(np.linalg.norm(L2.array())) if not L2.is_zero() else 0.0
    disc_norm = float(np.linalg.norm(disc.array())) if not disc.is_zero() else 0.0
    if disc_norm <= tol.degeneracy_tol * l2_norm:
        pairs = _root_pairs(L, S, tol)
        cands = _enumerate_from_pairs(theta, pairs, np.ones(S, dtype=complex), rows, y, tol)
        return cands, BRANCH_DEGENERATE
    if L_tilde.is_zero():
        raise MatchingFailureError("cross term vanished on a non-degenerate instance")
    M_sqrt = laurent_sqrt(disc, tol.pair_tol, tol.tol_root)
    Q = laurent_scale(laurent_add(L, M_sqrt), 0.5)
    q_poly, _ = laurent_to_poly(Q)
    q_roots = poly_roots(q_poly, tol.tol_root)
    pool_poly, _ = laurent_to_poly(laurent_conj(L_tilde))
    pool = list(poly_roots(pool_poly, tol.tol_root))
    matched = _match_roots(pool, list(q_roots), tol)
    if len(matched) != S - 1:
        raise MatchingFailureError(
            f"matched {len(matched)} roots between the split and the cross term, "
            f"expected {S - 1}"
        )
    G, deficient = _selection_nulls(t_values(theta, matched)[None], tol)
    g_a = _normalize_candidates(G, rows, y, tol, deficient)[0]
    g_b = _normalize_candidates(dual_transform(g_a, theta, n)[None], rows, y, tol)[0]
    cands = _dedup_and_sort(np.stack([g_a, g_b]), tol)
    return cands, BRANCH_DUAL


def _match_roots(pool: list, targets: list, tol: Tolerances) -> list:
    """Greedy mutual matching; returns the pool values of matched pairs.

    Each step takes the smallest remaining gap |pool_i - target_j| relative
    to max(1, |target_j|), first in (i, j) row-major order on ties, and stops
    at the first one above pair_tol.
    """
    gap = relative_gaps(pool, targets)
    gap[np.isnan(gap)] = np.inf
    matched = []
    for _ in range(min(gap.shape)):
        i, j = (int(v) for v in np.unravel_index(np.argmin(gap), gap.shape))
        if np.isinf(gap[i, j]) or gap[i, j] > tol.pair_tol:
            break
        matched.append(pool[i])
        gap[i, :] = np.inf
        gap[:, j] = np.inf
    return matched


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
    y = np.array(inst.y, dtype=float)
    if not np.any(y > 0):
        branch = BRANCH_HARMONIC if inst.samples.is_harmonic else BRANCH_DUAL
        return PhaselessResult((), 0, (), (), None, branch, ())
    if inst.samples.is_harmonic:
        theta, w, S, diagnostics = _support_harmonic(inst, tol)
        gamma = float(inst.samples.gamma)
        q_block = LaurentPoly(w[2 * S + 1 : 4 * S][::-1], -(S - 1))
        profile = magnitudes_harmonic(theta, q_block, gamma, inst.n, tol)
        cands = enumerate_candidates_harmonic(
            theta, q_block, gamma, inst.n, inst.samples, y, tol
        )
        branch = BRANCH_HARMONIC
    else:
        theta, L, L_tilde, _, S, diagnostics = _general_stage(inst, tol)
        profile = magnitudes_general(theta, L, tol)
        cands, branch = split_and_enumerate_general(
            L, L_tilde, theta, inst.n, inst.samples, y, tol
        )
    selected = None
    if inst.extra_row is not None and cands:
        a, y_m = inst.extra_row
        selected = disambiguate(cands, np.array(a), y_m, theta, tol)
    return PhaselessResult(
        tuple(theta),
        S,
        tuple(profile),
        tuple(tuple(c) for c in cands),
        selected,
        branch,
        tuple(diagnostics),
    )


def disambiguate(candidates, a, y_m: float, theta, tol: Tolerances) -> int:
    """Index of the candidate matching one extra squared-modulus measurement.

    `a` of length S applies to the coefficients directly; any other length is
    read as a measurement vector over the n model coordinates and contracted
    through the support. The winner must fit within tol and the runner-up
    must miss by at least 10x tol, otherwise the measurement was unlucky.
    """
    if not len(candidates):
        raise InvalidInputError("no candidates to disambiguate")
    if len(candidates) == 1:
        return 0
    theta = np.asarray(theta, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if len(a) == len(theta):
        row = a
    else:
        row = vandermonde(theta, len(a)).T @ a
    preds = np.array(
        [abs(np.dot(row, np.asarray(c, dtype=complex))) ** 2 for c in candidates]
    )
    scale = max(float(y_m), float(np.max(preds)), 1e-300)
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
    grid = np.array(inst.grid, dtype=complex)
    if np.any(np.abs(np.abs(grid) - 1.0) > 1e-9):
        raise InvalidInputError("grid points must lie on the unit circle")
    sep = _min_pairwise(grid)
    if sep < 1e-12:
        raise InvalidInputError("grid points must be distinct")
    a, y_m = inst.extra_row
    a = np.array(a, dtype=complex)
    if len(a) != inst.n:
        raise InvalidInputError("the extra row of a gridded instance has length n")
    if inst.samples.is_harmonic:
        clash = np.abs(grid**inst.n - np.exp(-1j * inst.samples.gamma))
        if np.any(clash < 1e-9):
            raise InvalidInputError("grid power condition violated for these samples")
    y = np.array(inst.y, dtype=float)
    x = np.zeros(inst.n, dtype=complex)
    if not np.any(y > 0):
        return x
    base = PhaselessInstance(inst.n, inst.s_max, inst.y, inst.samples, None, inst.grid)
    res = recover_r5(base, tol)
    support = _snap_to_grid(
        res.theta, grid, 0.5 * sep,
        what="support point", near="grid point", slot="grid index",
    )
    selected = disambiguate(res.candidates, a[support], y_m, grid[support], tol)
    x[support] = np.asarray(res.candidates[selected], dtype=complex)
    mags = np.abs(x[support])
    k0 = int(np.min(support[mags > 1e-12 * float(np.max(mags))]))
    x = x * np.exp(-1j * np.angle(x[k0]))
    predicted = np.abs(vandermonde(inst.samples, inst.n).T @ vandermonde(grid, inst.n) @ x) ** 2
    if np.max(np.abs(predicted - y)) > tol.forward_tol * float(np.max(y)):
        raise InconsistentSolutionError("snapped solution fails the forward check")
    return x
