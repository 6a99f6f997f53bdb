"""Phase-aware recovery: pole locations and weights from linear measurements.

The measured vector is y = V(z)^T V(theta) g with unknown (theta, g). Two
routes read the poles:

- The paper's route reads the effective sparsity S from the widest
  singular-value gap of the structured system built at s_max. It takes the
  null vector of the system at S and reads theta off the roots of the
  denominator block.
- The latent route needs m >= n, where V(z)^T has a left inverse. It solves
  for the latent signal x = V(theta) g and reads S from the rank of a Hankel
  matrix of x by the same gap rule. The same SVD gives theta: the eigenvalues
  of a pencil of its top S right singular vectors (the matrix pencil method
  for exponential sums).

`recover_r1` and its gridded variant `recover_r2` pick the route the same
way, from the instance's shape alone: the latent route when m >= n and the
paper's route below m = n. Each instance runs on that one route, and its
error propagates. `recover_r2` then snaps the poles onto its known
dictionary grid. Both take g from the least-squares solve of
y = V(z)^T V(theta) g at the poles, and `recover_r2` returns the sparse
coefficient vector itself.
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
    _pairwise_moduli,
    _require_distinct,
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


def _null_space_at(builder, s: int, tol: Tolerances, diagnostics: list, allowed=None,
                   **labels):
    """Build the system at sparsity s and read its null space; raise if there is none.

    The diagnostics entry, appended before any raise, also holds `labels`.
    """
    matrix = builder(s)
    ns = null_space(matrix, tol.rank_rel_tol, allowed)
    sv = ns.singular_values
    diagnostics.append({"s": s, "dimension": ns.dimension, "gap": ns.gap,
                        "singular_values": sv.tolist(), "warnings": list(ns.warnings),
                        **labels})
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
    matrix, ns = _null_space_at(builder, s_max, tol, diagnostics, allowed)
    S = s_max - (ns.dimension - 1) // step
    if S < s_max:
        matrix, ns = _null_space_at(builder, S, tol, diagnostics, [1])
    return S, refine_null_vector(matrix, ns.basis[:, 0], ns.factors), diagnostics


def _paper_support(inst: PhaseInstance, tol: Tolerances, diagnostics: list):
    """(S, theta) from the paper's structured system: theta is 1 / the roots of v."""
    if inst.samples.is_harmonic:
        builder = lambda s: build_B(inst.samples, inst.y, s)
    else:
        builder = lambda s: build_A(inst.samples, inst.y, inst.n, s)
    S, w, entries = _descend(builder, inst.s_max, tol)
    for entry in entries:
        entry["route"] = "paper"
    diagnostics.extend(entries)
    v_desc = w[: S + 1]
    if abs(v_desc[0]) <= 1e-12 * np.abs(v_desc).max():
        raise RecoveryFailureError("denominator block lost its leading coefficient")
    roots = poly_roots(v_desc[::-1], tol.tol_root)
    if (np.abs(roots) < 1e-12).any():
        raise DegenerateSupportError("denominator root at the origin")
    return S, 1.0 / roots


def _hankel(x: np.ndarray, s: int) -> np.ndarray:
    """The Hankel matrix x[i + j] with len(x) - s rows and s + 1 columns."""
    return x[np.add.outer(np.arange(len(x) - s), np.arange(s + 1))]


def _latent_support(inst: PhaseInstance, tol: Tolerances, diagnostics: list):
    """(S, theta) from the latent signal x = V(theta) g; needs m >= n.

    x solves V(z)^T x = y by column-equilibrated least squares. Its entries
    are x_l = sum_k g_k theta_k^l, so the Hankel matrix x[i + j] with s_max + 1
    columns has rank S, read with `null_space` as for the paper's system.
    Its rows span the vectors (theta_k^j)_j, and so do the top S right
    singular vectors of the same SVD. With V0 and V1 the matrices whose
    columns are those vectors without their last and first entry, the poles
    are the eigenvalues of the pencil X with V0 X = V1, solved exactly at
    S = s_max, where V0 is square, and by least squares below (the matrix
    pencil method).
    """
    VT = inst.samples.powers(inst.n).T
    scale = 1.0 / np.linalg.norm(VT, axis=0)
    x = np.linalg.lstsq(VT * scale, inst.y, rcond=None)[0] * scale
    _, ns = _null_space_at(lambda s: _hankel(x, s), inst.s_max, tol, diagnostics,
                           route="latent")
    S = inst.s_max + 1 - ns.dimension
    top = ns.factors.Vh[:S]
    V0, V1 = top[:, :-1].T, top[:, 1:].T
    if S == inst.s_max:
        pencil = np.linalg.solve(V0, V1)
    else:
        pencil = np.linalg.lstsq(V0, V1, rcond=None)[0]
    return S, np.linalg.eigvals(pencil)


def recover_g(A: np.ndarray, y, tol: Tolerances) -> np.ndarray:
    """The weights at known poles: the least-squares solve of ``A @ g = y``.

    `A` is ``measurement_matrix(z, theta, n)``. It must have full column rank
    at the ``tol.rank_rel_tol`` test of `pinv_solve`, or `RankDeficiencyError`
    is raised. A pole whose n-th power meets the sample rotation takes the
    same solve; its weight is lost only if no sample sees it, and then its
    column of A vanishes and fails the rank test.
    """
    return pinv_solve(A, y, tol.rank_rel_tol)


def _recover_via(inst: PhaseInstance, tol: Tolerances, grid: np.ndarray | None = None,
                 support=None) -> tuple[PhaseResult, np.ndarray | None]:
    """(result, grid index of its poles) with the poles read by `support`.

    `support` defaults to the latent route when m >= n and to the paper's
    system below; its error propagates. Without a grid the poles come in
    canonical order and the index is None. With one they snap onto its
    points (`_snap_to_grid`), taken in grid order. Either way the weights
    are the least-squares fit at the poles and must pass the forward check.
    """
    if support is None:
        support = _latent_support if inst.m >= inst.n else _paper_support
    diagnostics: list = []
    S, theta = support(inst, tol, diagnostics)
    index = None
    if grid is None:
        theta = theta[_canonical_order(theta)]
        _require_distinct(theta)
    else:
        index = np.sort(_snap_to_grid(theta, grid))
        theta = grid[index]
    A = measurement_matrix(inst.samples, theta, inst.n)
    g = recover_g(A, inst.y, tol)
    _forward_check(A @ g, inst.y, tol)
    return PhaseResult(theta, g, S, tuple(diagnostics)), index


def recover_r1(inst: PhaseInstance, tol: Tolerances | None = None) -> PhaseResult:
    """Full phase-aware recovery of (theta, g) with automatic sparsity search.

    With m >= n the poles come from the latent route (`_latent_support`),
    and with m < n from the paper's system (`_paper_support`). Whichever
    runs, its error propagates; the other route is not tried.
    """
    if tol is None:
        tol = load_tolerances()
    if not (np.abs(inst.y) > 0).any():
        return PhaseResult(np.zeros(0, complex), np.zeros(0, complex), 0, ())
    return _recover_via(inst, tol)[0]


def recover_r2(inst: PhaseInstance, tol: Tolerances | None = None) -> np.ndarray:
    """Sparse vector recovery over a known dictionary grid.

    Reads the poles on the route `recover_r1` would take, snaps them onto
    the grid, and fits the values at the snapped (exact) grid points.
    Returns the length-n coefficient vector.
    """
    if tol is None:
        tol = load_tolerances()
    if inst.grid is None:
        raise InvalidInputError("recover_r2 needs the instance grid")
    x = np.zeros(inst.n, dtype=complex)
    if not (np.abs(inst.y) > 0).any():
        return x
    res, support = _recover_via(inst, tol, inst.grid)
    x[support] = res.g
    return x


def _snap_to_grid(points, grid: np.ndarray) -> np.ndarray:
    """Index of the nearest grid point for each point, in the order of `points`.

    A point farther than half the grid's smallest spacing from every grid
    point, or two points on the same grid point, means the support does not
    sit on the grid.
    """
    points = np.asarray(points, dtype=complex)
    dists = _modulus(points[:, None] - grid)
    index = dists.argmin(axis=1)
    nearest = dists[np.arange(len(points)), index]
    # a NaN point counts as far
    far = np.flatnonzero(~(nearest <= 0.5 * _pairwise_moduli(grid).min(initial=np.inf)))
    if far.size:
        j = far[0]
        raise AmbiguousSupportError(
            f"support point {points[j]:.6g} is {nearest[j]:.3e} from the nearest grid point"
        )
    if len(np.unique(index)) != len(index):
        raise GridCollisionError("two support points snapped to the same grid point")
    return index


def _forward_check(predicted: np.ndarray, y: np.ndarray, tol: Tolerances):
    """Raise unless ||predicted - y|| <= forward_tol * ||y||.

    Both norms are taken in units of max|y|, so data near the float range
    cannot overflow them into inf and switch the check off; a non-finite
    defect fails.
    """
    scale = np.abs(y).max()
    defect = np.linalg.norm((predicted - y) / scale)
    bound = tol.forward_tol * np.linalg.norm(y / scale)
    if not defect <= bound:
        raise InconsistentSolutionError(
            f"forward residual {defect:.3e} of max|y| exceeds {bound:.3e}"
        )
