"""Measurement sample sets, structured coefficient matrices, and rank tools.

The four system matrices share one convention: every unknown block is stored
in descending powers of z, so a matrix row times the stacked coefficient
vector reproduces the defining identity at that sample point. Tests pin this
convention by checking that forward-simulated coefficient stacks lie in the
null spaces.
"""

from dataclasses import dataclass, field

import numpy as np

from .cpoly import _modulus
from .errors import DegenerateSupportError, InvalidInputError, RankDeficiencyError

_HARMONIC_TOL = 1e-12


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
    """n x m matrix with entry (r, c) = z_c**r; row 0 is all ones."""
    if n < 1:
        raise InvalidInputError("vandermonde needs at least one row")
    return _power_table(np.asarray(z, dtype=complex), np.arange(n))


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


def build_A(z, y, n: int, s: int) -> np.ndarray:
    """Phase-aware system for arbitrary samples, m x (3s+1).

    Row j is [y_j z_j^s ... y_j, -z_j^{n+s-1} ... -z_j^n, -z_j^{s-1} ... -1];
    the unknown stack is [v; u_hat; u_tilde], each block descending.
    """
    zz = np.asarray(z, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _check_lengths(zz, y)
    if n < 2 * s:
        raise InvalidInputError("need n >= 2s")
    # rows: z^s ... z^0, then z^{n+s-1} ... z^n
    P = _power_table(zz, np.r_[np.arange(s, -1, -1), np.arange(n + s - 1, n - 1, -1)])
    return _columns([y * P[: s + 1], -P[s + 1 :], -P[1 : s + 1]])


def build_B(z, y, s: int) -> np.ndarray:
    """Phase-aware system for shifted-harmonic samples, m x (2s+1).

    Row j is [y_j z_j^s ... y_j, -z_j^{s-1} ... -1]; the unknown stack is
    [v; q] with q the combined numerator block, both descending.
    """
    if not (isinstance(z, SampleSet) and z.is_harmonic):
        raise InvalidInputError("build_B needs shifted-harmonic samples")
    zz = z.z
    y = np.asarray(y, dtype=complex)
    _check_lengths(zz, y)
    P = _power_table(zz, np.arange(s, -1, -1))
    return _columns([y * P, -P[1:]])


def _phaseless_measurements(zz: np.ndarray, y) -> np.ndarray:
    """y as a complex array of its real parts, once it fits circle samples zz."""
    y = np.asarray(y, dtype=complex)
    _check_lengths(zz, y)
    if not (np.isfinite(zz).all() and np.isfinite(y).all()):
        raise InvalidInputError("phaseless samples and measurements must be finite")
    if not (np.abs(np.abs(zz) - 1.0) <= 1e-9).all():
        raise InvalidInputError("phaseless samples must lie on the unit circle")
    yscale = max(1.0, float(np.abs(y).max()) if len(y) else 1.0)
    if (y.real < 0).any() or (np.abs(y.imag) > 1e-12 * yscale).any():
        raise InvalidInputError("phaseless measurements must be nonnegative reals")
    return y.real.astype(complex)


def _phaseless_system(zz: np.ndarray, y: np.ndarray, s: int, high: np.ndarray) -> np.ndarray:
    """The block layout [B | y | fliplr(conj(B)) | -C | -1 | -fliplr(conj(C))].

    B_j = [y_j z_j^s ... y_j z_j] and C_j = [z_j^e for e in high, z_j^{s-1} ... z_j].
    """
    m = len(zz)
    # rows: z^s ... z^1, then the high exponents
    P = _power_table(zz, np.r_[np.arange(s, 0, -1), high])
    B = y * P[:s]
    C = np.concatenate([P[s:], P[1:s]])
    return _columns(
        [
            B,
            y[None, :],
            np.conj(B[::-1]),
            -C,
            -np.ones((1, m), dtype=complex),
            -np.conj(C[::-1]),
        ]
    )


def build_G(z, y, n: int, s: int) -> np.ndarray:
    """Phaseless system for general circle samples, m x (8s-2).

    Block layout [B | y | fliplr(conj(B)) | -C | -1 | -fliplr(conj(C))] with
    B_j = [y_j z_j^s ... y_j z_j] and C_j = [z^{n+s-1} ... z^{n-s+1}, z^{s-1} ... z].
    The unknown stack is [l_hat; l_tilde; l; conj-Laurent(l_tilde)], blocks in
    descending powers.
    """
    zz = np.asarray(z, dtype=complex)
    y = _phaseless_measurements(zz, y)
    if n < 4 * s - 1:
        raise InvalidInputError("need n >= 4s-1")
    return _system_G(zz, y, n, s)


def _system_G(zz: np.ndarray, y: np.ndarray, n: int, s: int) -> np.ndarray:
    """`build_G` without its checks, for the descent over s of one instance.

    zz and y are complex arrays that a `PhaselessInstance` has checked (y
    real and nonnegative, zz on the circle), and n >= 4s - 1.
    """
    return _phaseless_system(zz, y, s, np.arange(n + s - 1, n - s, -1))


def build_Gtilde(z, y, s: int) -> np.ndarray:
    """Phaseless system for shifted-harmonic samples, m x 4s.

    Block layout [B | y | fliplr(conj(B)) | -C~ | -1 | -fliplr(conj(C~))] with
    C~_j = [z^{s-1} ... z]. The unknown stack is [l_hat; p] where p combines
    the three numerator Laurent blocks through the common nth power of z.
    """
    if not (isinstance(z, SampleSet) and z.is_harmonic):
        raise InvalidInputError("build_Gtilde needs shifted-harmonic samples")
    zz = z.z
    return _system_Gtilde(zz, _phaseless_measurements(zz, y), s)


def _system_Gtilde(zz: np.ndarray, y: np.ndarray, s: int) -> np.ndarray:
    """`build_Gtilde` without its checks, on data as `_system_G` takes it."""
    return _phaseless_system(zz, y, s, np.arange(0))


# ----------------------------------------------------------------------------
# rank tools
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SVDFactors:
    """One SVD of a matrix M = u[:, :k] diag(s) vh[:k], k = len(s), full or thin."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    def pinv_apply(self, r: np.ndarray, rcond: float) -> np.ndarray:
        """pinv(M) @ r as V_r diag(1/s_r) U_r^H r over the s_r > rcond * s_max.

        Keeps the same directions as ``np.linalg.pinv(M, rcond)`` without
        forming the pseudo-inverse or factorising M again.
        """
        # s is sorted descending, so the kept directions are a prefix
        k = int(np.count_nonzero(self.s > rcond * self.s[0]))
        return self.vh[:k].conj().T @ ((self.u[:, :k].conj().T @ r) / self.s[:k])


def svd_factors(M: np.ndarray) -> SVDFactors:
    """Full SVD of M (u and vh square), kept for reuse."""
    M = np.asarray(M, dtype=complex)
    u, sv, vh = np.linalg.svd(M)
    return SVDFactors(u, sv, vh)


def zero_bound(sigma_max, shape, rank_rel_tol: float):
    """The largest singular value that counts as zero in a matrix of this shape."""
    return rank_rel_tol * sigma_max * max(shape)


@dataclass(frozen=True)
class NullSpaceResult:
    dimension: int
    basis: np.ndarray  # columns are orthonormal null vectors, shape (cols, dimension)
    singular_values: np.ndarray
    warnings: tuple[str, ...] = field(default=())
    # the factorisation the decision was read from; refine_null_vector()
    # reuses it instead of running another SVD
    factors: SVDFactors | None = field(default=None, repr=False)
    # log10 of the singular-value gap above the null space; None at dimension 0
    gap: float | None = None


def null_space(M: np.ndarray, rank_rel_tol: float, gap_ratio: float,
               allowed=None) -> NullSpaceResult:
    """Right null space of M, its dimension read from the widest singular-value gap.

    With sigma padded by zeros to the column count c, the dimension is 0 when
    sigma_c exceeds ``zero_bound(sigma_max, M.shape, rank_rel_tol)``. Else it
    is the count d in `allowed` (default: every d < c) with the widest gap
    ``log10(sigma_{c-d} / sigma_{c-d+1})``, exact zeros read as eps * sigma_max
    and ties going to the smaller d. A d above 1 needs sigma_{c-d+1} under
    1e-4 times the zero bound. The result holds the gap: one of 0 or less (no
    null space in the spectrum) is the caller's to judge, and one narrower
    than `gap_ratio` attaches a conditioning warning. It also holds the one
    SVD of M, which ``refine_null_vector(M, w, factors)`` reuses.
    """
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        raise InvalidInputError("null_space of an empty matrix")
    factors = svd_factors(M)
    ncols = M.shape[1]
    sv = np.concatenate([factors.s, np.zeros(ncols - len(factors.s))])
    smax = sv[0]
    if sv[-1] > zero_bound(smax, M.shape, rank_rel_tol):
        return NullSpaceResult(0, np.zeros((ncols, 0), dtype=complex), sv, (), factors)
    floor = np.where(sv > 0, sv, np.finfo(float).eps * smax)
    tight = zero_bound(smax, M.shape, 1e-4 * rank_rel_tol)
    counts = [1] + [d for d in (range(1, ncols) if allowed is None else allowed)
                    if 1 < d < ncols and sv[ncols - d] <= tight]
    ratios = [floor[ncols - d - 1] / floor[ncols - d] for d in counts]
    best = int(np.argmax(ratios))
    dimension, ratio = counts[best], ratios[best]
    warnings = ()
    if ratio < gap_ratio:
        warnings = (
            f"conditioning-warning: singular value gap {ratio:.2e} "
            f"below {gap_ratio:.0e} at rank {ncols - dimension}",
        )
    basis = factors.vh[ncols - dimension:].conj().T
    return NullSpaceResult(dimension, basis, sv, warnings, factors, float(np.log10(ratio)))


def refine_null_vector(M: np.ndarray, w: np.ndarray, factors: SVDFactors) -> np.ndarray:
    """Iteratively refine an approximate null vector of M, in two steps.

    The SVD delivers the null vector with error about eps * smax / snext,
    which degrades badly when the smallest nonzero singular value is tiny.
    Computing the residual in extended precision and projecting it back
    through the pseudo-inverse removes the dominant error term. The
    pseudo-inverse is applied from `factors`, the SVD of M that the null
    space came from (``NullSpaceResult.factors``).
    """
    M = np.asarray(M, dtype=complex)
    w = np.asarray(w, dtype=complex)
    Mq = M.astype(np.clongdouble)
    wq = w.astype(np.clongdouble)
    for _ in range(2):
        residual = np.asarray(Mq @ wq, dtype=np.clongdouble)
        # keep directions down to the tightened rank threshold; anything
        # below is treated as null and must not be "corrected"
        delta = factors.pinv_apply(residual.astype(complex), rcond=1e-12)
        wq = wq - delta.astype(np.clongdouble)
        norm = np.linalg.norm(wq.astype(complex))
        if norm == 0:
            return w
        wq = wq / norm
    return wq.astype(complex)


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
    factors = SVDFactors(*np.linalg.svd(M, full_matrices=False))
    sv = factors.s
    if len(sv) < M.shape[1] or sv[-1] <= zero_bound(sv[0], M.shape, rank_rel_tol):
        raise RankDeficiencyError("matrix does not have full column rank")
    # every singular value passed the rank test, so every direction is kept
    return factors.pinv_apply(y, rcond=0.0)
