"""Phase-aware recovery: pole locations and weights from linear measurements.

The measured vector is y = V(z)^T V(theta) g with unknown (theta, g). The
pipeline finds the effective sparsity S by descending a null-space search
over the structured systems, reads theta off the roots of the denominator
block, and takes g from the least-squares solve of y = V(z)^T V(theta) g at
those poles. A gridded variant snaps the recovered roots onto a known
dictionary and returns the sparse coefficient vector itself.
"""

from dataclasses import dataclass

import numpy as np

from .config import Tolerances, load_tolerances
from .cpoly import _modulus, poly_roots
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
    measurement_matrix,
    null_space,
    pinv_solve,
    readonly_array,
    refine_null_vector,
)


@dataclass(frozen=True, eq=False)
class PhaseInstance:
    """Measurements y taken at `samples` of an order-n, at most s_max sparse model.

    `y` and `grid` are read-only complex arrays.
    """

    n: int
    s_max: int
    y: np.ndarray
    samples: SampleSet
    grid: np.ndarray | None = None

    def __init__(self, n, s_max, y, samples, grid=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s_max", int(s_max))
        object.__setattr__(self, "y", readonly_array(y, complex, "measurements"))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "grid", None if grid is None else readonly_array(grid, complex, "grid points")
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
            w = refine_null_vector(matrix, ns.basis[:, 0], ns.factors)
            return s_try, w, diagnostics
        if ns.dimension >= 2:
            tight = ns.recount(tol.rank_rel_tol * 1e-4)
            if tight.dimension == 1:
                entry["dimension"] = 1
                entry["warnings"].append(
                    "conditioning-warning: null dimension resolved at tightened threshold"
                )
                w = refine_null_vector(matrix, tight.basis[:, 0], ns.factors)
                return s_try, w, diagnostics
        if ns.dimension == 0:
            raise RecoveryFailureError(
                f"null space dimension 0 at s={s_try}: data inconsistent with the model"
            )
    raise RecoveryFailureError("no one-dimensional null space found down to s=1")


def _extract_blocks(inst: PhaseInstance, tol: Tolerances):
    """Shared null-space stage: returns (S, roots of the denominator block v, diags)."""
    y = inst.y
    if inst.samples.is_harmonic:
        builder = lambda s: build_B(inst.samples, y, s)
    else:
        if inst.m < 3 * inst.s_max:
            raise InvalidInputError("arbitrary samples need m >= 3*s measurements")
        builder = lambda s: build_A(inst.samples, y, inst.n, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol)
    v_desc = w[: S + 1]
    if abs(v_desc[0]) <= 1e-12 * np.max(np.abs(v_desc)):
        raise RecoveryFailureError("denominator block lost its leading coefficient")
    roots = poly_roots(v_desc[::-1], tol.tol_root)
    if np.any(np.abs(roots) < 1e-12):
        raise DegenerateSupportError("denominator root at the origin")
    return S, roots, diagnostics


def recover_g(A: np.ndarray, y, tol: Tolerances) -> np.ndarray:
    """The weights at known poles: the least-squares solve of ``A @ g = y``.

    `A` is ``measurement_matrix(z, theta, n)``. It must have full column rank
    at the ``tol.rank_rel_tol`` test of `pinv_solve`, or `RankDeficiencyError`
    is raised. A pole whose n-th power meets the sample rotation takes the
    same solve; its weight is lost only if no sample sees it, and then its
    column of A vanishes and fails the rank test.
    """
    g, _ = pinv_solve(A, y, tol.rank_rel_tol)
    return g


def recover_r1(inst: PhaseInstance, tol: Tolerances | None = None) -> PhaseResult:
    """Full phase-aware recovery of (theta, g) with automatic sparsity search."""
    if tol is None:
        tol = load_tolerances()
    y = inst.y
    if not np.any(np.abs(y) > 0):
        return PhaseResult((), (), 0, ())
    S, roots, diagnostics = _extract_blocks(inst, tol)
    theta = 1.0 / roots
    order = _canonical_order(theta)
    theta = theta[order]
    _require_distinct(theta)
    A = measurement_matrix(inst.samples, theta, inst.n)
    g = recover_g(A, y, tol)
    _forward_check(A @ g, y, tol)
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
    grid = inst.grid
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
    y = inst.y
    x = np.zeros(inst.n, dtype=complex)
    if not np.any(np.abs(y) > 0):
        return x
    S, roots, _ = _extract_blocks(inst, tol)
    recips = 1.0 / grid
    support = np.sort(_snap_to_grid(
        roots, recips, 0.5 * _min_pairwise(recips),
        what="root", near="grid reciprocal", slot="grid point",
    ))
    theta = grid[support]
    A = measurement_matrix(inst.samples, theta, inst.n)
    g = recover_g(A, y, tol)
    _forward_check(A @ g, y, tol)
    x[support] = g
    return x


def _pairwise_moduli(values: np.ndarray) -> np.ndarray:
    """``|values[i] - values[j]|`` at row i, column j for every j < i; inf elsewhere."""
    values = np.asarray(values, dtype=complex)
    index = np.arange(len(values))
    return np.where(index[:, None] > index, _modulus(values[:, None] - values), np.inf)


def _require_distinct(values: np.ndarray, message: str = "recovered poles are not distinct"):
    """Raise when two values lie closer than ``1e-9 * max(1, |values[i]|)``, i the later one."""
    bound = 1e-9 * np.maximum(1.0, _modulus(values))
    if (_pairwise_moduli(values) < bound[:, None]).any():
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
    return float(_pairwise_moduli(values).min(initial=np.inf))


def _forward_check(predicted: np.ndarray, y: np.ndarray, tol: Tolerances):
    defect = np.linalg.norm(predicted - y)
    if defect > tol.forward_tol * np.linalg.norm(y):
        raise InconsistentSolutionError(
            f"forward residual {defect:.3e} exceeds tolerance"
        )
