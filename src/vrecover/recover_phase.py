"""Phase-aware recovery: pole locations and weights from linear measurements.

The measured vector is y = V(z)^T V(theta) g with unknown (theta, g). The
pipeline finds the effective sparsity S by descending a null-space search
over the structured systems, reads theta off the roots of the denominator
block, and closes the remaining scalar with the measurement of largest
magnitude. A gridded variant snaps the recovered roots onto a known
dictionary and returns the sparse coefficient vector itself.
"""

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, load_tolerances
from .cpoly import Poly, poly_eval, poly_roots, t_values
from .errors import (
    DegenerateSupportError,
    AmbiguousSupportError,
    GridCollisionError,
    InconsistentSolutionError,
    InvalidInputError,
    RecoveryFailureError,
)
from .structmat import (
    SampleSet,
    build_A,
    build_B,
    null_space,
    pinv_solve,
    refine_null_vector,
    vandermonde,
)

GENERAL = "general"


@dataclass(frozen=True)
class PhaseInstance:
    """Measurements y taken at `samples` of an order-n, at most s_max sparse model."""

    n: int
    s_max: int
    y: tuple[complex, ...]
    samples: SampleSet
    grid: tuple[complex, ...] | None = None

    def __init__(self, n, s_max, y, samples, grid=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s_max", int(s_max))
        object.__setattr__(self, "y", tuple(complex(v) for v in y))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "grid", None if grid is None else tuple(complex(v) for v in grid)
        )
        if self.s_max < 1:
            raise InvalidInputError("s_max must be at least 1")
        m = len(self.y)
        if len(samples) != m:
            raise InvalidInputError("sample count does not match measurement count")
        # the information-theoretic floor: reject before any computation
        if self.n < 2 * self.s_max:
            raise InvalidInputError(f"n={self.n} below the lower bound 2*s={2 * self.s_max}")
        if m < 2 * self.s_max:
            raise InvalidInputError(f"m={m} below the lower bound 2*s={2 * self.s_max}")
        if samples.is_harmonic and samples.n != self.n:
            raise InvalidInputError("harmonic samples must share the model order n")

    @property
    def m(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class PhaseResult:
    theta: tuple[complex, ...]
    g: tuple[complex, ...]
    S: int
    diagnostics: tuple[dict, ...]

    @property
    def warnings(self) -> tuple[str, ...]:
        out = []
        for entry in self.diagnostics:
            out.extend(entry.get("warnings", ()))
        return tuple(out)


def _canonical_order(theta: np.ndarray) -> np.ndarray:
    """Deterministic ordering: by complex argument, then modulus."""
    return np.lexsort((np.abs(theta), np.angle(theta)))


def _descend(builder, s_max: int, tol: Tolerances):
    """Try s = s_max, s_max-1, ... until the null space is one-dimensional.

    A reported dimension >= 2 can be an artifact: the smallest nonzero
    singular value of an ill-conditioned system may dip under the relative
    threshold while the true null vector sits many orders below it.  Before
    descending we recount at a much tighter threshold; if exactly one
    direction survives we accept it and attach a conditioning warning.  The
    accepted vector is refined in extended precision because its raw
    accuracy degrades with the same conditioning that confused the count.

    Each built matrix is factorised once: the rank decision, the tightened
    recount and the refinement's pseudo-inverse all read the same SVD. The
    thresholds and the gap warning come from `tol`.
    """
    diagnostics = []
    for s_try in range(s_max, 0, -1):
        matrix = builder(s_try)
        ns = null_space(matrix, tol.rank_rel_tol, tol.gap_ratio)
        entry = {
            "s": s_try,
            "dimension": ns.dimension,
            "singular_values": [float(v) for v in ns.singular_values],
            "warnings": list(ns.warnings),
        }
        diagnostics.append(entry)
        if ns.dimension == 1:
            w = refine_null_vector(matrix, ns.basis[:, 0], factors=ns.factors)
            return s_try, w, diagnostics
        if ns.dimension >= 2:
            tight = ns.recount(tol.rank_rel_tol * 1e-4)
            if tight.dimension == 1:
                entry["dimension"] = 1
                entry["warnings"].append(
                    "conditioning-warning: null dimension resolved at tightened threshold"
                )
                w = refine_null_vector(matrix, tight.basis[:, 0], factors=ns.factors)
                return s_try, w, diagnostics
        if ns.dimension == 0:
            raise RecoveryFailureError(
                f"null space dimension 0 at s={s_try}: data inconsistent with the model"
            )
    raise RecoveryFailureError("no one-dimensional null space found down to s=1")


def _extract_blocks(inst: PhaseInstance, tol: Tolerances):
    """Shared null-space stage: returns (S, v-roots, numerator block, tag, diags)."""
    y = np.array(inst.y, dtype=complex)
    if inst.samples.is_harmonic:
        tag: float | str = float(inst.samples.gamma)
        builder = lambda s: build_B(inst.samples, y, s)
    else:
        if inst.m < 3 * inst.s_max:
            raise InvalidInputError("arbitrary samples need m >= 3*s measurements")
        tag = GENERAL
        builder = lambda s: build_A(inst.samples, y, inst.n, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol)
    v_desc = w[: S + 1]
    if abs(v_desc[0]) <= 1e-12 * np.max(np.abs(v_desc)):
        raise RecoveryFailureError("denominator block lost its leading coefficient")
    roots = poly_roots(Poly(v_desc[::-1]), tol.tol_root)
    if np.any(np.abs(roots) < 1e-12):
        raise DegenerateSupportError("denominator root at the origin")
    # numerator block: combined q for harmonic samples, u_hat for the general system
    num_desc = w[S + 1 : 2 * S + 1]
    num_poly = Poly(num_desc[::-1])
    return S, roots, num_poly, tag, diagnostics


def recover_g(theta, q_block: Poly, gamma_or_general, z, y, n: int,
              tol: Tolerances) -> np.ndarray:
    """Closed-form weights from the recovered numerator block.

    For shifted-harmonic samples the block is q = e^{i*gamma} u_hat + u_tilde
    and g_k is proportional to q(1/theta_k) over t_k(1/theta_k) times
    (e^{i*gamma} theta_k^n - 1). For the general system the block is u_hat
    itself and the theta_k^n twist divides out instead. The remaining scalar
    is fixed against the largest measurement.

    A pole whose n-th power collides with the sample rotation makes the
    harmonic twist factor vanish together with its share of the numerator
    (0/0); the weights still exist, so that case drops to the least-squares
    solve of the forward system at the recovered poles.
    """
    theta = np.asarray(theta, dtype=complex)
    y = np.asarray(y, dtype=complex)
    recip = 1.0 / theta
    t_val = np.diagonal(t_values(theta, recip))
    num = poly_eval(q_block, recip)
    vanishing = np.abs(t_val) < 1e-12
    if gamma_or_general == GENERAL:
        twisted = np.zeros(len(theta), dtype=bool)
    else:
        twist = np.exp(1j * float(gamma_or_general)) * theta**n - 1.0
        twisted = np.abs(twist) < 1e-9 * np.maximum(1.0, np.abs(theta) ** n)
    # the first pole where either test trips decides; a vanishing t_k wins
    trips = np.flatnonzero(vanishing | twisted)
    if trips.size:
        if vanishing[trips[0]]:
            raise DegenerateSupportError("t_k vanishes at a recovered pole")
        A = vandermonde(z, n).T @ vandermonde(theta, n)
        g_ls, _ = pinv_solve(A, y, tol.rank_rel_tol)
        return g_ls
    if gamma_or_general == GENERAL:
        g_hat = num / (theta**n * t_val)
    else:
        g_hat = num / (t_val * twist)
    predicted = vandermonde(z, n).T @ vandermonde(theta, n) @ g_hat
    k_star = int(np.argmax(np.abs(y)))
    if abs(y[k_star]) == 0:
        raise InvalidInputError("cannot fix the scale against all-zero measurements")
    c = predicted[k_star] / y[k_star]
    if abs(c) < 1e-14:
        raise DegenerateSupportError("scale factor degenerated to zero")
    return g_hat / c


def recover_r1(inst: PhaseInstance, tol: Tolerances | None = None) -> PhaseResult:
    """Full phase-aware recovery of (theta, g) with automatic sparsity search."""
    if tol is None:
        tol = load_tolerances()
    y = np.array(inst.y, dtype=complex)
    if not np.any(np.abs(y) > 0):
        return PhaseResult((), (), 0, ())
    S, roots, num_poly, tag, diagnostics = _extract_blocks(inst, tol)
    theta = 1.0 / roots
    order = _canonical_order(theta)
    theta = theta[order]
    _require_distinct(theta)
    g = recover_g(theta, num_poly, tag, inst.samples, y, inst.n, tol)
    _forward_check(theta, g, inst.samples, y, inst.n, tol)
    return PhaseResult(tuple(theta), tuple(g), S, tuple(diagnostics))


def recover_r2(inst: PhaseInstance, tol: Tolerances | None = None) -> np.ndarray:
    """Sparse vector recovery over a known dictionary grid.

    Runs the same null-space stage, snaps the denominator roots onto the
    reciprocals of the grid, and reads the values at the snapped (exact)
    grid points. Returns the length-n coefficient vector.
    """
    if tol is None:
        tol = load_tolerances()
    if inst.grid is None:
        raise InvalidInputError("recover_r2 needs the instance grid")
    grid = np.array(inst.grid, dtype=complex)
    if len(grid) != inst.n:
        raise InvalidInputError("grid length must equal the model order n")
    if np.any(np.abs(grid) < 1e-12):
        raise InvalidInputError("grid points must be nonzero")
    _require_distinct(grid, "grid points are not distinct")
    if inst.samples.is_harmonic:
        # the harmonic support argument needs every admissible pole power to
        # miss the sample rotation
        clash = np.abs(grid**inst.n - np.exp(-1j * inst.samples.gamma))
        if np.any(clash < 1e-9 * np.maximum(1.0, np.abs(grid) ** inst.n)):
            raise InvalidInputError("grid power condition violated for these samples")
    y = np.array(inst.y, dtype=complex)
    x = np.zeros(inst.n, dtype=complex)
    if not np.any(np.abs(y) > 0):
        return x
    S, roots, num_poly, tag, _ = _extract_blocks(inst, tol)
    recips = 1.0 / grid
    support = np.sort(_snap_to_grid(
        roots, recips, 0.5 * _min_pairwise(recips),
        what="root", near="grid reciprocal", slot="grid point",
    ))
    theta = grid[support]
    g = recover_g(theta, num_poly, tag, inst.samples, y, inst.n, tol)
    x[support] = g
    predicted = vandermonde(inst.samples, inst.n).T @ vandermonde(grid, inst.n) @ x
    if np.linalg.norm(predicted - y) > tol.forward_tol * np.linalg.norm(y):
        raise InconsistentSolutionError("snapped solution fails the forward check")
    return x


def _require_distinct(values: np.ndarray, message: str = "recovered poles are not distinct"):
    for i in range(len(values)):
        for j in range(i):
            if abs(values[i] - values[j]) < 1e-9 * max(1.0, abs(values[i])):
                raise DegenerateSupportError(message)


def _snap_to_grid(points, targets: np.ndarray, snap_tol: float,
                  what: str, near: str, slot: str) -> np.ndarray:
    """Index of the nearest target for each point, in the order of `points`.

    A point farther than `snap_tol` from every target, or two points on the
    same target, means the support does not sit on the grid.
    """
    index = []
    for p in points:
        dists = np.abs(p - targets)
        k = int(np.argmin(dists))
        if dists[k] > snap_tol:
            raise AmbiguousSupportError(
                f"{what} {p:.6g} is {dists[k]:.3e} from the nearest {near}"
            )
        index.append(k)
    if len(set(index)) != len(index):
        raise GridCollisionError(f"two {what}s snapped to the same {slot}")
    return np.array(index)


def _min_pairwise(values: np.ndarray) -> float:
    best = np.inf
    for i in range(len(values)):
        for j in range(i):
            best = min(best, abs(values[i] - values[j]))
    return float(best)


def _forward_check(theta, g, samples, y, n, tol: Tolerances):
    predicted = vandermonde(samples, n).T @ vandermonde(theta, n) @ np.asarray(g)
    defect = np.linalg.norm(predicted - y)
    if defect > tol.forward_tol * np.linalg.norm(y):
        raise InconsistentSolutionError(
            f"forward residual {defect:.3e} exceeds tolerance"
        )
