"""Independent forward models, brute-force baselines, and instance draws.

Everything here certifies the recovery modules from the outside: only cpoly
and structmat primitives are shared, never recovery code. Forward values are
always computed along two independent routes (matrix product vs the rational
or Laurent form) and compared, so a bug in either representation cannot hide.
The phaseless brute force polishes its phase seeds with its own Gauss-Newton
loop, so a Gauss-Newton step in the pipelines can never certify itself.
Everything here needs numpy alone.
"""

import itertools

import numpy as np

from .cpoly import forward_polys, laurent_eval, laurent_from_products
from .errors import (
    InvalidInputError,
    ModelMismatchError,
    NonIdentifiableError,
    NumericalFailureError,
    ResolutionError,
)
from .structmat import measurement_matrix, readonly_array

_PATH_TOL = 1e-10
_NEAR_ONE = 1e-3  # switch to the direct geometric sum this close to ratio 1
_GN_STEPS = 50  # Gauss-Newton steps per phase seed in the phaseless oracle
_GN_STEP_TOL = 1e-15  # ... stopping early once no phase moves by more


def forward_phase_matrix(theta, g, z, n: int) -> np.ndarray:
    """y = V(z)^T V(theta) g, the plain matrix-product route."""
    theta = np.asarray(theta, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if theta.shape != g.shape:
        raise InvalidInputError("theta and g must have the same length")
    zz = np.asarray(z, dtype=complex)
    if len(theta) == 0:
        return np.zeros(len(zz), dtype=complex)
    return measurement_matrix(zz, theta, n) @ g


def forward_phase_rational(theta, g, z, n: int) -> np.ndarray:
    """Same measurement through the rational form sum_l g_l (w^n-1)/(w-1).

    Points with w = z_j * theta_l near 1 use the direct geometric sum, where
    the closed form would cancel catastrophically.
    """
    theta = np.asarray(theta, dtype=complex)
    g = np.asarray(g, dtype=complex)
    w = np.multiply.outer(np.asarray(z, dtype=complex), theta)  # (samples, poles)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (w**n - 1.0) / (w - 1.0)
    near = np.abs(w - 1.0) < _NEAR_ONE
    if near.any():
        terms[near] = np.sum(w[near][:, None] ** np.arange(n), axis=1)
    return terms @ g


def _finite_inputs(theta, g, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, g and z as read-only complex arrays, each checked finite.

    A NaN passes every `x > bound` test, so it is stopped before any arithmetic.
    """
    return (
        readonly_array(theta, complex, "theta"),
        readonly_array(g, complex, "g"),
        readonly_array(z, complex, "sample points"),
    )


def _cross_checked(theta: np.ndarray, g: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """`forward_phase` on inputs that `_finite_inputs` returned."""
    via_matrix = forward_phase_matrix(theta, g, z, n)
    via_rational = forward_phase_rational(theta, g, z, n)
    scale = max(1.0, float(np.abs(via_matrix).max()) if len(via_matrix) else 1.0)
    defect = float(np.abs(via_matrix - via_rational).max()) if len(via_matrix) else 0.0
    if defect > _PATH_TOL * scale:
        raise NumericalFailureError(
            f"forward paths disagree by {defect:.3e} (scale {scale:.3e})"
        )
    return via_matrix


def forward_phase(theta, g, z, n: int) -> np.ndarray:
    """Phase-aware forward model, cross-checked along both routes."""
    return _cross_checked(*_finite_inputs(theta, g, z), n)


def forward_phaseless(theta, g, z, n: int) -> np.ndarray:
    """y = |V(z)^T V(theta) g|^2, cross-checked against the Laurent-ratio form."""
    theta, g, zz = _finite_inputs(theta, g, z)
    if not (
        (np.abs(np.abs(zz) - 1.0) <= 1e-9).all()
        and (np.abs(np.abs(theta) - 1.0) <= 1e-9).all()
    ):
        raise InvalidInputError("phaseless model needs z and theta on the unit circle")
    y = np.abs(_cross_checked(theta, g, zz, n)) ** 2
    if len(theta) == 0:
        return y
    u_hat, u_tilde, v = forward_polys(theta, g, n)
    L, L_tilde, L_hat = laurent_from_products(u_hat, u_tilde, v)
    scale = max(1.0, float(y.max()))
    denom_vals = laurent_eval(L_hat, zz)
    mag = np.abs(denom_vals)
    # the division amplifies coefficient noise by max|L_hat|/|L_hat(z_j)|
    # when a sample sits near a pole, so the bound must scale with it
    amp = float(mag.max()) / np.maximum(mag, 1e-300)
    num = laurent_eval(L, zz)
    cross = laurent_eval(L_tilde, zz)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (num + zz**n * cross + zz ** (-n) * np.conj(cross)) / denom_vals
        gap = np.abs(ratio - y)
    # a sample numerically on a pole (amp > 1e8) is skipped: there the ratio
    # form carries no information
    bad = np.flatnonzero((amp <= 1e8) & (gap > _PATH_TOL * scale * np.maximum(1.0, amp)))
    if bad.size:
        j = bad[0]
        raise NumericalFailureError(f"Laurent form disagrees at sample {j}: {gap[j]:.3e}")
    return y


# ----------------------------------------------------------------------------
# random draws shared by the harness
# ----------------------------------------------------------------------------

def draw_g(rng: np.random.Generator, s: int) -> np.ndarray:
    """Complex standard normal entries, redrawn while any |g_l| < 0.1."""
    g = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    for _ in range(1000):
        small = np.abs(g) < 0.1
        if not small.any():
            return g
        g[small] = rng.standard_normal(int(small.sum())) + 1j * rng.standard_normal(
            int(small.sum())
        )
    raise NumericalFailureError("could not draw well-separated coefficients")


def _redraw_duplicates(rng, draw_one, values, min_dist=1e-9) -> np.ndarray:
    """`values` with every entry closer than `min_dist` to an earlier one redrawn.

    One array test finds out whether any pair collides: the table of all
    gaps holds len(values) zeros on its diagonal, and any other gap below
    `min_dist` is a collision. Only then does the loop run, which redraws
    entry i with ``draw_one()`` until no pair j < i collides.
    """
    values = np.asarray(values, dtype=complex)
    if np.count_nonzero(np.abs(values[:, None] - values) < min_dist) == len(values):
        return values
    for _ in range(1000):
        collided = False
        for i in range(len(values)):
            for j in range(i):
                if abs(values[i] - values[j]) < min_dist:
                    values[i] = draw_one()
                    collided = True
        if not collided:
            return values
    raise NumericalFailureError("could not draw distinct pole locations")


def _uniform_columns(rng: np.random.Generator, k: int, *bounds) -> np.ndarray:
    """The (k, len(bounds)) table of draws ``rng.uniform(lo, hi)``, column c
    taking the c-th (lo, hi) of `bounds`, from one array call.

    ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``, so the table
    equals bit for bit the k * len(bounds) scalar draws made row after row.
    """
    lo, hi = np.array(bounds, dtype=float).T
    return lo + (hi - lo) * rng.random((k, len(bounds)))


def draw_theta_disk(rng: np.random.Generator, s: int) -> np.ndarray:
    """Moduli log-uniform on [0.5, 2], phases uniform; entries distinct."""
    log_r = (np.log(0.5), np.log(2.0))

    def one():
        radius = np.exp(rng.uniform(*log_r))
        return radius * np.exp(1j * rng.uniform(0, 2 * np.pi))

    log_radius, phase = _uniform_columns(rng, s, log_r, (0, 2 * np.pi)).T
    return _redraw_duplicates(rng, one, np.exp(log_radius) * np.exp(1j * phase))


def draw_theta_circle(rng: np.random.Generator, s: int) -> np.ndarray:
    """Unit-modulus poles with uniform phases; entries distinct."""

    def one():
        return np.exp(1j * rng.uniform(0, 2 * np.pi))

    (phase,) = _uniform_columns(rng, s, (0, 2 * np.pi)).T
    return _redraw_duplicates(rng, one, np.exp(1j * phase))


def draw_theta_dft(rng: np.random.Generator, n: int, s: int) -> np.ndarray:
    """s distinct nth roots of unity."""
    if s > n:
        raise InvalidInputError("cannot draw more grid poles than grid points")
    idx = rng.choice(n, size=s, replace=False)
    return np.exp(2j * np.pi * np.sort(idx) / n)


def draw_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """A point on the complex unit sphere."""
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a / np.linalg.norm(a)


# ----------------------------------------------------------------------------
# brute-force baselines
# ----------------------------------------------------------------------------

def brute_force_cs(y, A, s: int) -> np.ndarray:
    """Exhaustive minimal-support exact fit against the full matrix A (m x n).

    Enumerates supports of growing size; at the first size admitting an exact
    least-squares fit (residual <= 1e-8 ||y||) demands uniqueness.
    """
    A = np.asarray(A, dtype=complex)
    y = readonly_array(y, complex, "measurements")
    if A.ndim != 2 or not np.isfinite(A).all():
        raise InvalidInputError("A must be a finite matrix")
    m, n = A.shape
    if n > 12 or s > 2:
        raise InvalidInputError("brute_force_cs guard: n <= 12 and s <= 2")
    if len(y) != m:
        raise InvalidInputError("measurement length mismatch")
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0:
        return np.zeros(n, dtype=complex)
    for size in range(1, s + 1):
        fits = []
        for support in itertools.combinations(range(n), size):
            sub = A[:, support]
            coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ coef - y) <= 1e-8 * ynorm:
                fits.append((support, coef))
        if len(fits) == 1:
            support, coef = fits[0]
            x = np.zeros(n, dtype=complex)
            x[list(support)] = coef
            return x
        if len(fits) > 1:
            raise NonIdentifiableError(
                f"{len(fits)} supports of size {size} fit exactly"
            )
    raise ModelMismatchError(f"no support of size <= {s} fits the measurements")


def _phaseless_magnitudes(y, rows) -> np.ndarray:
    """Squared magnitudes |g_k|^2 via the lifted linear system.

    The lift treats |g_k|^2 and the off-diagonal products g_k conj(g_l) as
    free real unknowns; every true solution shares the diagonal, so any
    remaining ambiguity lives off-diagonal, which is verified on the computed
    null space before trusting the answer.
    """
    m, S = rows.shape
    pairs = list(itertools.combinations(range(S), 2))
    cols = [np.abs(rows[:, k]) ** 2 for k in range(S)]
    for k, l in pairs:
        c = rows[:, k] * np.conj(rows[:, l])
        cols.append(2 * c.real)
        cols.append(-2 * c.imag)
    M = np.column_stack(cols)
    u, sv, vh = np.linalg.svd(M)
    smax = sv[0] if len(sv) else 1.0
    rank = int(np.sum(sv > 1e-8 * smax * max(M.shape)))
    null = vh[rank:]
    if null.size and np.abs(null[:, :S]).max() > 1e-6:
        raise ResolutionError("magnitude profile not determined by the measurements")
    # the solve keeps the directions lstsq's own cutoff would keep
    k = int(np.sum(sv > np.finfo(float).eps * max(M.shape) * smax))
    sol = vh[:k].T @ ((u[:, :k].T @ y) / sv[:k])
    return np.clip(sol[:S], 0.0, None)


def brute_force_phaseless_candidates(y, theta, z, n: int, grid_resolution: int = 10000):
    """All g with |V(z)^T V(theta) g|^2 = y, up to global phase, by search.

    Magnitudes come from the lifted linear system; the remaining S-1 relative
    phases are grid-searched and each seed is polished by Gauss-Newton steps
    on the phases, a separable least-squares fit (Golub & Pereyra 1973).
    No solution at all means no g fits y (`ModelMismatchError`, as at S = 1).
    For S >= 2 a complete set holds 2 or 2^(S-1) solutions; any other count
    means the search missed some and raises `ResolutionError`.
    """
    theta = readonly_array(theta, complex, "theta")
    zz = readonly_array(z, complex, "sample points")
    y = readonly_array(y, float, "measurements")
    S = len(theta)
    if S < 1 or S > 3:
        raise InvalidInputError("brute_force_phaseless_candidates guard: 1 <= S <= 3")
    if grid_resolution < 8:
        raise InvalidInputError("grid_resolution too small")
    if len(y) != len(zz):
        raise InvalidInputError("measurement length mismatch")
    rows = measurement_matrix(zz, theta, n)
    yscale = float(y.max()) if len(y) else 1.0
    mags = np.sqrt(_phaseless_magnitudes(y, rows))
    if mags[0] < 1e-6 * max(mags.max(), 1e-30):
        raise InvalidInputError("leading coefficient magnitude is numerically zero")

    def coeffs(phis):
        return mags * np.exp(1j * np.concatenate([[0.0], phis]))

    def residual(phis):
        return float(np.abs(np.abs(rows @ coeffs(phis)) ** 2 - y).max())

    if S == 1:
        g = mags.astype(complex)
        if residual(np.zeros(0)) > 1e-7 * yscale:
            raise ModelMismatchError("single-coefficient fit fails the measurements")
        return [g]

    per_dim = grid_resolution if S == 2 else max(int(grid_resolution ** 0.5), 32)
    axes = [np.linspace(0, 2 * np.pi, per_dim, endpoint=False)] * (S - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=1)
    phases = np.exp(1j * flat)  # (points, S-1)
    preds = np.abs(
        np.outer(np.ones(len(flat)), mags[0] * rows[:, 0])
        + phases @ (mags[1:, None] * rows[:, 1:].T)
    ) ** 2
    resid_grid = np.abs(preds - y[None, :]).max(axis=1)
    cell = 2 * np.pi / per_dim

    def phase_dist(a, b):
        d = np.abs(a - b) % (2 * np.pi)
        return float(np.minimum(d, 2 * np.pi - d).max())

    seeds = []
    for idx in np.argsort(resid_grid):
        pt = flat[idx]
        if all(phase_dist(pt, skept) > 3 * cell for skept in seeds):
            seeds.append(pt)
        if len(seeds) >= 16:
            break

    solutions = []
    for phis in seeds:
        for _ in range(_GN_STEPS):
            g = coeffs(phis)
            u = rows @ g
            # d|u|^2/dphi_k = 2 Re(conj(u) * i * rows[:, k+1] * g[k+1])
            jac = -2 * (np.conj(u)[:, None] * rows[:, 1:] * g[1:]).imag
            step = np.linalg.lstsq(jac, y - np.abs(u) ** 2, rcond=None)[0]
            phis = phis + step
            if np.abs(step).max() <= _GN_STEP_TOL:
                break
        phis = np.mod(phis, 2 * np.pi)
        if residual(phis) <= 1e-7 * yscale:
            solutions.append(phis)

    kept: list[np.ndarray] = []
    for phis in solutions:
        if all(phase_dist(phis, other) > 1e-5 for other in kept):
            kept.append(phis)
    for a, b in itertools.combinations(kept, 2):
        if phase_dist(a, b) < cell:
            raise ResolutionError("distinct solutions within one grid cell")
    if not kept:
        raise ModelMismatchError("no phase seed fits the measurements")
    if len(kept) not in (2, 2 ** (S - 1)):
        raise ResolutionError(
            f"{len(kept)} solutions found, neither 2 nor 2^(S-1) = {2 ** (S - 1)}: "
            "the phase search missed some"
        )
    out = [coeffs(phis) for phis in kept]
    out.sort(key=lambda g: tuple((round(v.real, 9), round(v.imag, 9)) for v in g))
    return out
