"""Phase-aware recovery: pole locations and weights from linear measurements.

The measured vector is y = V(z)^T V(theta) g with unknown (theta, g). The
pipeline reads the effective sparsity S from the widest singular-value gap
of the structured system built at s_max, takes the null vector of the
system at S, reads theta off the roots of the denominator block, and takes
g from the least-squares solve of y = V(z)^T V(theta) g at those poles. A
gridded variant snaps the recovered roots onto a known dictionary and
returns the sparse coefficient vector itself.
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
    zero_bound,
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
        if len(samples) != self.m:
            raise InvalidInputError("sample count does not match measurement count")
        # the information-theoretic floor: reject before any computation
        _check_floors(PhaseInstance, self.n, self.m, self.s_max, samples.is_harmonic)
        if samples.is_harmonic and samples.n != self.n:
            raise InvalidInputError("harmonic samples must share the model order n")
        if self.grid is not None:
            _check_grid(self.grid, self.n, samples)

    @property
    def m(self) -> int:
        return len(self.y)

    @staticmethod
    def floors(s: int, harmonic: bool) -> tuple[int, int]:
        """The least (n, m) at sparsity s: (2s, 2s) on shifted harmonics, else (2s, 3s)."""
        return 2 * s, 2 * s if harmonic else 3 * s


def _check_floors(model, n: int, m: int, s: int, harmonic: bool):
    """Raise InvalidInputError when n or m lies below ``model.floors(s, harmonic)``."""
    for name, value, floor in zip("nm", (n, m), model.floors(s, harmonic)):
        if value < floor:
            raise InvalidInputError(
                f"{name}={value} below the {model.__name__} floor {floor} at s={s}"
            )


def _check_grid(grid: np.ndarray, n: int, samples: SampleSet):
    """Raise InvalidInputError unless a dictionary grid can be decoded.

    It needs n nonzero, distinct points (see `_require_distinct`), and on
    shifted-harmonic samples every point power grid**n must miss the sample
    rotation e^{-i*gamma}, which the harmonic support argument relies on.
    """
    if len(grid) != n:
        raise InvalidInputError(f"grid has {len(grid)} points, not the model order n={n}")
    if (np.abs(grid) < 1e-12).any():
        raise InvalidInputError("grid points must be nonzero")
    _require_distinct(grid, "grid points are not distinct", InvalidInputError)
    if samples.is_harmonic:
        clash = np.abs(grid**n - np.exp(-1j * samples.gamma))
        if (clash < 1e-9 * np.maximum(1.0, np.abs(grid) ** n)).any():
            raise InvalidInputError("grid power condition violated for these samples")


@dataclass(frozen=True, eq=False)
class PhaseResult:
    """`theta` and `g` are read-only (S,) complex arrays."""

    theta: np.ndarray
    g: np.ndarray
    S: int
    diagnostics: tuple[dict, ...]

    def __post_init__(self):
        for arr in (self.theta, self.g):
            arr.flags.writeable = False

    @property
    def warnings(self) -> tuple[str, ...]:
        out = []
        for entry in self.diagnostics:
            out.extend(entry.get("warnings", ()))
        return tuple(out)


def _canonical_order(theta: np.ndarray) -> np.ndarray:
    """Deterministic ordering: by complex argument, then modulus."""
    return np.lexsort((np.abs(theta), np.angle(theta)))


def _null_space_at(builder, s: int, allowed, tol: Tolerances, diagnostics: list):
    """Build the system at sparsity s and read its null space; raise if there is none."""
    matrix = builder(s)
    ns = null_space(matrix, tol.rank_rel_tol, tol.gap_ratio, allowed)
    sv = ns.singular_values
    diagnostics.append({"s": s, "dimension": ns.dimension, "gap": ns.gap,
                        "singular_values": sv.tolist(), "warnings": list(ns.warnings)})
    if ns.dimension == 0:
        raise RecoveryFailureError(
            f"null space dimension 0 at s={s}: smallest singular value {sv[-1]:.3e} "
            f"exceeds {zero_bound(sv[0], matrix.shape, tol.rank_rel_tol):.3e}"
        )
    if not ns.gap > 0:
        raise RecoveryFailureError(
            f"no singular value gap at s={s}: widest log10 gap {ns.gap:.3g} "
            f"at dimension {ns.dimension} is not above 0"
        )
    return matrix, ns


def _descend(builder, s_max: int, tol: Tolerances, step: int = 1):
    """(S, refined null vector of the system built at S, one diagnostics entry per build).

    On exact data the system built at s = S + k has a null space of dimension
    ``step * k + 1``, `step` being 1 for A and B and 2 for G and G~. One SVD
    at s_max reads that dimension from its widest singular-value gap (see
    `null_space`), which gives S; below s_max the system is built once more
    at S. The vector is refined in extended precision from the SVD it came
    from, since its raw accuracy degrades with the system's conditioning.
    """
    diagnostics: list = []
    allowed = [step * k + 1 for k in range(s_max)]
    matrix, ns = _null_space_at(builder, s_max, allowed, tol, diagnostics)
    S = s_max - (ns.dimension - 1) // step
    if S < s_max:
        matrix, ns = _null_space_at(builder, S, [1], tol, diagnostics)
    return S, refine_null_vector(matrix, ns.basis[:, 0], ns.factors), diagnostics


def _extract_blocks(inst: PhaseInstance, tol: Tolerances):
    """Shared null-space stage: returns (S, roots of the denominator block v, diags)."""
    y = inst.y
    if inst.samples.is_harmonic:
        builder = lambda s: build_B(inst.samples, y, s)
    else:
        builder = lambda s: build_A(inst.samples, y, inst.n, s)
    S, w, diagnostics = _descend(builder, inst.s_max, tol)
    v_desc = w[: S + 1]
    if abs(v_desc[0]) <= 1e-12 * np.abs(v_desc).max():
        raise RecoveryFailureError("denominator block lost its leading coefficient")
    roots = poly_roots(v_desc[::-1], tol.tol_root)
    if (np.abs(roots) < 1e-12).any():
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
    return pinv_solve(A, y, tol.rank_rel_tol)


def recover_r1(inst: PhaseInstance, tol: Tolerances | None = None) -> PhaseResult:
    """Full phase-aware recovery of (theta, g) with automatic sparsity search."""
    if tol is None:
        tol = load_tolerances()
    y = inst.y
    if not (np.abs(y) > 0).any():
        return PhaseResult(np.zeros(0, complex), np.zeros(0, complex), 0, ())
    S, roots, diagnostics = _extract_blocks(inst, tol)
    theta = 1.0 / roots
    order = _canonical_order(theta)
    theta = theta[order]
    _require_distinct(theta)
    A = measurement_matrix(inst.samples, theta, inst.n)
    g = recover_g(A, y, tol)
    _forward_check(A @ g, y, tol)
    return PhaseResult(theta, g, S, tuple(diagnostics))


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
    y = inst.y
    x = np.zeros(inst.n, dtype=complex)
    if not (np.abs(y) > 0).any():
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


def _require_distinct(values: np.ndarray, message: str = "recovered poles are not distinct",
                      error=DegenerateSupportError):
    """Raise `error` when two values lie closer than ``1e-9 * max(1, |values[i]|)``,
    i the later one."""
    bound = 1e-9 * np.maximum(1.0, _modulus(values))
    if (_pairwise_moduli(values) < bound[:, None]).any():
        raise error(message)


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
