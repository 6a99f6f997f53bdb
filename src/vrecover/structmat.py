"""Measurement sample sets, structured coefficient matrices, and rank tools.

Two builders make every system matrix, `build_A` (phase-aware) and `build_G`
(phaseless). On shifted-harmonic samples their aliased columns merge, which
gives the compact systems `build_B` and `build_Gtilde` return. Every unknown
block is stored in descending powers of z, so a matrix row times the stacked
coefficient vector reproduces the defining identity at that sample point. Tests
pin this convention by checking that forward-simulated coefficient stacks lie
in the null spaces.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cpoly import _modulus
from .errors import (
    DegenerateSupportError,
    InvalidInputError,
    NumericalFailureError,
    RankDeficiencyError,
)

_HARMONIC_TOL = 1e-12
# the largest log-modulus a power table's entries may reach: one factor e
# under the float maximum, which leaves room for the sums built from them
_LOG_POWER_MAX = math.log(np.finfo(float).max) - 1.0
_GAP_RATIO = 1e3
_LOG_GAP_RATIO = math.log10(_GAP_RATIO)
_EPS = np.finfo(float).eps


def readonly_array(values, dtype, name: str) -> np.ndarray:
    """`values` copied once into a read-only 1-D array of `dtype`.

    Measurement data from outside (a JSON file accepts NaN and Infinity) is
    checked here: a non-finite entry would stall or derail the SVD stages,
    and a scalar or nested list would fail later in a numpy broadcast.
    """
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be numbers") from exc
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a flat list of numbers")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _pairwise_moduli(values: np.ndarray) -> np.ndarray:
    """``|values[i] - values[j]|`` at row i, column j for every j < i; inf elsewhere."""
    values = np.asarray(values, dtype=complex)
    index = np.arange(len(values))
    return np.where(index[:, None] > index, _modulus(values[:, None] - values), np.inf)


def _require_distinct(values: np.ndarray, message: str = "recovered poles are not distinct",
                      error=DegenerateSupportError):
    """Raise `error` when two values lie closer than ``1e-9 * max(1, |values[i]|)``,
    i the later one.

    Sorted real parts that lie at least the largest bound apart settle it
    without the pairwise table: no modulus of a difference is below them.
    """
    values = np.asarray(values, dtype=complex)
    moduli = _modulus(values)
    if len(values) > 1 and np.diff(np.sort(values.real)).min() >= 1e-9 * max(1.0, moduli.max()):
        return
    bound = 1e-9 * np.maximum(1.0, moduli)
    if (_pairwise_moduli(values) < bound[:, None]).any():
        raise error(message)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Measurement points z, held as a read-only complex array.

    A set given `gamma` (and then also `n`) is shifted-harmonic: rotated nth
    roots of unity, all satisfying z_j**n == e^{i*gamma}, which is what makes
    the compact harmonic systems applicable. ``np.asarray(samples)`` is `z`.
    The points must be distinct by the rule of `_require_distinct`: a repeated
    point adds a measurement row but no information. A set builds its power
    table V(z) once per row count (`powers`).
    """

    z: np.ndarray
    gamma: float | None = None
    n: int | None = None

    def __init__(self, z, gamma=None, n=None):
        object.__setattr__(self, "z", readonly_array(z, complex, "sample points"))
        object.__setattr__(self, "gamma", None if gamma is None else float(gamma))
        object.__setattr__(self, "n", None if n is None else int(n))
        object.__setattr__(self, "_powers", {})
        _require_distinct(self.z, "sample points are not distinct", InvalidInputError)
        if self.is_harmonic:
            if self.n is None:
                raise InvalidInputError("shifted-harmonic samples need gamma and n")
            if len(self.z) > self.n:
                raise InvalidInputError("at most n shifted-harmonic samples exist")
            if not (np.abs(np.abs(self.z) - 1.0) <= _HARMONIC_TOL).all():
                raise InvalidInputError("shifted-harmonic samples must lie on the circle")
            power_gap = np.abs(self.z**self.n - np.exp(1j * self.gamma))
            if not (power_gap <= _HARMONIC_TOL * 10).all():
                raise InvalidInputError("samples do not share the common nth power")

    def __len__(self) -> int:
        return len(self.z)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.z, dtype=dtype, copy=copy)

    @property
    def is_harmonic(self) -> bool:
        return self.gamma is not None

    def powers(self, n: int) -> np.ndarray:
        """The read-only ``vandermonde(z, n)``, built on the first call for this n."""
        table = self._powers.get(n)
        if table is None:
            table = self._powers[n] = vandermonde(self.z, n)
            table.flags.writeable = False
        return table


def _power_table(pts: np.ndarray, exps) -> np.ndarray:
    """The (len(exps), len(pts)) table with entry (r, c) = pts[c]**exps[r].

    Bit for bit the rows ``pts**e`` for Python ints e: numpy sends ``**2``
    to ``np.square``, which rounds differently from the integer-power loop
    the broadcast power takes, so the exponent-2 rows are squared the same
    way. Every other exponent already takes the same loop.
    """
    exps = np.asarray(exps)
    table = pts ** exps[:, None]
    table[exps == 2] = np.square(pts)
    return table


def vandermonde(z, n: int) -> np.ndarray:
    """n x m matrix with entry (r, c) = z_c**r; row 0 is all ones.

    A point whose power z**(n-1) would near the float maximum raises
    `NumericalFailureError` before any power is taken, so no table holds an
    infinity or a NaN that a later product or SVD would spread.
    """
    if n < 1:
        raise InvalidInputError("vandermonde needs at least one row")
    pts = np.asarray(z, dtype=complex)
    top = float(np.abs(pts).max(initial=1.0))
    if (n - 1) * math.log(top) > _LOG_POWER_MAX:
        raise NumericalFailureError(
            f"powers overflow: |z|^{n - 1} at |z| = {top:.6g} exceeds e^{_LOG_POWER_MAX:.1f}"
        )
    return _power_table(pts, np.arange(n))


def measurement_matrix(z, theta, n: int) -> np.ndarray:
    """The m x s measurement operator A = V(z)^T V(theta), so y = A @ g; exactly that product.

    A `SampleSet` z contributes its kept V(z) (`SampleSet.powers`).
    """
    Vz = z.powers(n) if isinstance(z, SampleSet) else vandermonde(z, n)
    return Vz.T @ vandermonde(theta, n)


def shifted_harmonics(n: int, m: int, gamma: float) -> SampleSet:
    """The first m rotated nth roots of unity, z_j = e^{i(2*pi*j + gamma)/n}."""
    if not 1 <= m <= n:
        raise InvalidInputError(f"need 1 <= m <= n, got m={m}, n={n}")
    j = np.arange(m)
    z = np.exp(1j * (2 * np.pi * j + gamma) / n)
    return SampleSet(z, gamma=gamma, n=n)


# ----------------------------------------------------------------------------
# system matrices
# ----------------------------------------------------------------------------

def _check_lengths(z: np.ndarray, y: np.ndarray):
    if len(z) != len(y):
        raise InvalidInputError(f"{len(z)} samples but {len(y)} measurements")


def _columns(row_blocks) -> np.ndarray:
    """The C-contiguous matrix whose columns are the rows of the blocks.

    Builders scale and negate whole rows of a power table, where every
    product runs over contiguous memory; the rows become columns only here.
    """
    return np.ascontiguousarray(np.concatenate(row_blocks).T)


def _merged_exponents(z, n: int, exps) -> list:
    """The numerator exponents `exps` of general samples, distinct and descending.

    On a shifted-harmonic `SampleSet`, whose n must be the system's,
    z**n == e^{i*gamma}: each e reduces to e - n*round(e/n), and the columns
    whose exponents reduce alike merge into one built from the reduced
    exponent; their unknowns add.
    """
    if isinstance(z, SampleSet) and z.is_harmonic:
        if z.n != n:
            raise InvalidInputError(f"shifted-harmonic samples of n={z.n} given n={n}")
        exps = [e - n * round(e / n) for e in exps]
    return sorted(set(exps), reverse=True)


def build_A(z, y, n: int, s: int) -> np.ndarray:
    """Phase-aware system, m x (3s+1); on shifted harmonics merged to m x (2s+1).

    Row j is [y_j z_j^s ... y_j, -z_j^{n+s-1} ... -z_j^n, -z_j^{s-1} ... -1];
    the unknown stack is [v; u_hat; u_tilde], each block descending. On a
    shifted-harmonic `SampleSet` (`_merged_exponents`) row j is
    [y_j z_j^s ... y_j, -z_j^{s-1} ... -1], the stack [v; e^{i*gamma} u_hat + u_tilde].
    """
    zz = np.asarray(z, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _check_lengths(zz, y)
    if n < 2 * s:
        raise InvalidInputError("need n >= 2s")
    num = _merged_exponents(z, n, [*range(n + s - 1, n - 1, -1), *range(s - 1, -1, -1)])
    P = _power_table(zz, [*range(s, -1, -1), *num])
    return _columns([y * P[: s + 1], -P[s + 1 :]])


def build_B(z, y, s: int) -> np.ndarray:
    """`build_A` at the samples' own n: the merged m x (2s+1) system.

    z must be a shifted-harmonic `SampleSet`, or InvalidInputError is raised.
    """
    if not (isinstance(z, SampleSet) and z.is_harmonic):
        raise InvalidInputError("build_B needs shifted-harmonic samples")
    return build_A(z, y, z.n, s)


def _phaseless_measurements(zz: np.ndarray, y) -> np.ndarray:
    """y as a read-only float array, once it is valid phaseless data at samples zz.

    The one rule for phaseless data, shared by `PhaselessInstance` and the
    builders of G and G~: y is a flat list of finite, nonnegative numbers,
    one per sample, whose imaginary parts stay within 1e-12 * max(1, max |y|),
    and the samples lie on the unit circle within 1e-9.
    """
    y = readonly_array(y, complex, "measurements")
    _check_lengths(zz, y)
    if not np.isfinite(zz).all():
        raise InvalidInputError("sample points must be finite")
    if not (np.abs(np.abs(zz) - 1.0) <= 1e-9).all():
        raise InvalidInputError("phaseless samples must lie on the unit circle")
    yscale = max(1.0, float(np.abs(y).max()) if len(y) else 1.0)
    if (y.real < 0).any() or (np.abs(y.imag) > 1e-12 * yscale).any():
        raise InvalidInputError("phaseless measurements must be nonnegative reals")
    real = y.real.copy()
    real.flags.writeable = False
    return real


def build_G(z, y, n: int, s: int) -> np.ndarray:
    """Phaseless system, m x (8s-2); on shifted harmonics merged to m x 4s.

    Block layout [B | y | fliplr(conj(B)) | -C | -1 | -fliplr(conj(C))] with
    B_j = [y_j z_j^s ... y_j z_j] and C_j = [z^{n+s-1} ... z^{n-s+1}, z^{s-1} ... z].
    The unknown stack is [l_hat; l_tilde; l; conj-Laurent(l_tilde)], blocks in
    descending powers. On a shifted-harmonic `SampleSet` (`_merged_exponents`)
    C_j = [z^{s-1} ... z], three numerator columns to each, and the stack is
    [l_hat; l + e^{i*gamma} l_tilde + e^{-i*gamma} conj-Laurent(l_tilde)].
    y and z must pass the phaseless data rule (`_phaseless_measurements`) and
    n >= 4s-1, or InvalidInputError is raised.
    """
    if n < 4 * s - 1:
        raise InvalidInputError("need n >= 4s-1")
    zz = np.asarray(z, dtype=complex)
    y = _phaseless_measurements(zz, y).astype(complex)
    half = [*range(n + s - 1, n - s, -1), *range(s - 1, 0, -1)]
    num = _merged_exponents(z, n, [*half, 0, *(-e for e in reversed(half))])
    # the merged exponents stay symmetric about 0: the positive ones give C,
    # and on the circle z^{-e} = conj(z^e) gives their mirror
    P = _power_table(zz, [*range(s, 0, -1), *(e for e in num if e > 0)])
    B, C = y * P[:s], P[s:]
    ones = np.ones((1, len(zz)), dtype=complex)
    return _columns([B, y[None, :], np.conj(B[::-1]), -C, -ones, -np.conj(C[::-1])])


def build_Gtilde(z, y, s: int) -> np.ndarray:
    """`build_G` at the samples' own n: the merged m x 4s system.

    z must be a shifted-harmonic `SampleSet`, or InvalidInputError is raised.
    """
    if not (isinstance(z, SampleSet) and z.is_harmonic):
        raise InvalidInputError("build_Gtilde needs shifted-harmonic samples")
    return build_G(z, y, z.n, s)


# ----------------------------------------------------------------------------
# rank tools
# ----------------------------------------------------------------------------

def _pinv_apply(factors, r: np.ndarray, rcond: float) -> np.ndarray:
    """pinv(M) @ r as V_r diag(1/S_r) U_r^H r over the S_r > rcond * S_max.

    `factors` is an SVD of M as ``np.linalg.svd`` returns it, full or thin.
    Keeps the same directions as ``np.linalg.pinv(M, rcond)`` without
    forming the pseudo-inverse or factorising M again.
    """
    U, S, Vh = factors
    # S is sorted descending, so the kept directions are a prefix
    k = int(np.count_nonzero(S > rcond * S[0]))
    return Vh[:k].conj().T @ ((U[:, :k].conj().T @ r) / S[:k])


def zero_bound(sigma_max, shape, rank_rel_tol: float):
    """The largest singular value that counts as zero in a matrix of this shape."""
    return rank_rel_tol * sigma_max * max(shape)


@dataclass(frozen=True)
class NullSpaceResult:
    dimension: int
    basis: np.ndarray  # columns are orthonormal null vectors, shape (cols, dimension)
    singular_values: np.ndarray
    warnings: tuple[str, ...] = field(default=())
    # the full SVD (U, S, Vh) that np.linalg.svd returned and the decision was
    # read from; refine_null_vector() reuses it instead of running another SVD
    factors: tuple | None = field(default=None, repr=False)
    # log10 of the singular-value gap above the null space; None at dimension 0
    gap: float | None = None


def null_space(M: np.ndarray, rank_rel_tol: float, allowed=None) -> NullSpaceResult:
    """Right null space of M, its dimension read from the widest singular-value gap.

    With sigma padded by zeros to the column count c, the dimension is 0 when
    sigma_c exceeds ``zero_bound(sigma_max, M.shape, rank_rel_tol)``. Else it
    is the count d in `allowed` (default: every d < c) with the widest gap
    ``log10(sigma_{c-d} / sigma_{c-d+1})``, exact zeros read as eps * sigma_max
    and ties going to the smaller d. A d above 1 needs sigma_{c-d+1} under
    1e-4 times the zero bound. The result holds the gap: one of 0 or less (no
    null space in the spectrum) is the caller's to judge, and one narrower
    than `_GAP_RATIO` (1e3) attaches a conditioning warning. It also holds the
    SVD of M as ``np.linalg.svd`` returns it, which ``refine_null_vector(M, w,
    factors)`` reuses. A real M is factorised in real arithmetic and gives a
    real basis. An all-zero M, like an empty one, raises `InvalidInputError`.
    """
    M = np.asarray(M)
    if M.size == 0:
        raise InvalidInputError("null_space of an empty matrix")
    factors = np.linalg.svd(M)
    ncols = M.shape[1]
    sigma = factors.S.tolist() + [0.0] * (ncols - len(factors.S))
    smax = sigma[0]
    if smax == 0:
        raise InvalidInputError("null_space of an all-zero matrix")
    if sigma[-1] > zero_bound(smax, M.shape, rank_rel_tol):
        return NullSpaceResult(0, factors.Vh[ncols:].T, np.array(sigma), (), factors)
    tight = zero_bound(smax, M.shape, 1e-4 * rank_rel_tol)
    counts = [1] + [d for d in (range(1, ncols) if allowed is None else allowed)
                    if 1 < d < ncols and sigma[ncols - d] <= tight]
    # differences of logs: a ratio of a huge to a tiny value can overflow
    tiny = _EPS * smax
    logs = np.log10([v if v > 0 else tiny for v in sigma]).tolist()
    gaps = [logs[ncols - d - 1] - logs[ncols - d] for d in counts]
    gap = max(gaps)
    dimension = counts[gaps.index(gap)]
    warnings = ()
    if gap < _LOG_GAP_RATIO:
        warnings = (
            f"conditioning-warning: singular value gap {10.0**gap:.2e} "
            f"below {_GAP_RATIO:.0e} at rank {ncols - dimension}",
        )
    basis = factors.Vh[ncols - dimension:].conj().T
    return NullSpaceResult(dimension, basis, np.array(sigma), warnings, factors, gap)


def refine_null_vector(M: np.ndarray, w: np.ndarray, factors) -> np.ndarray:
    """Iteratively refine an approximate null vector of M, in two steps.

    The SVD delivers the null vector with error about eps * smax / snext,
    which degrades badly when the smallest nonzero singular value is tiny.
    Computing the residual in extended precision and projecting it back
    through the pseudo-inverse removes the dominant error term. The
    pseudo-inverse is applied from `factors`, the SVD of M that the null
    space came from (``NullSpaceResult.factors``). Real M and w stay real.
    """
    M, w = np.asarray(M), np.asarray(w)
    work = np.result_type(M, w, float)
    wide = np.clongdouble if work.kind == "c" else np.longdouble
    Mq, wq = M.astype(wide), w.astype(wide)
    for _ in range(2):
        residual = Mq @ wq
        # keep directions down to the tightened rank threshold; anything
        # below is treated as null and must not be "corrected"
        delta = _pinv_apply(factors, residual.astype(work), rcond=1e-12)
        wq = wq - delta.astype(wide)
        norm = np.linalg.norm(wq.astype(work))
        if norm == 0:
            return w.astype(work)
        wq = wq / norm
    return wq.astype(work)


def pinv_solve(M: np.ndarray, y, rank_rel_tol: float) -> np.ndarray:
    """Least-squares solve of ``M @ x = y`` requiring full column rank; returns x.

    Full rank means the smallest singular value exceeds
    ``zero_bound(sigma_max, M.shape, rank_rel_tol)``. One thin SVD of M
    serves both the rank test and the solve: the solve reads no column of U
    past the column count.
    """
    M = np.asarray(M, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if M.ndim != 2 or M.shape[0] != len(y):
        raise InvalidInputError("pinv_solve dimension mismatch")
    factors = np.linalg.svd(M, full_matrices=False)
    sv = factors.S
    if len(sv) < M.shape[1] or sv[-1] <= zero_bound(sv[0], M.shape, rank_rel_tol):
        raise RankDeficiencyError("matrix does not have full column rank")
    # every singular value passed the rank test, so every direction is kept
    return _pinv_apply(factors, y, rcond=0.0)
