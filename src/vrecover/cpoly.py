"""Complex polynomials and Laurent polynomials on and around the unit circle.

Coefficients are stored ascending (``coeffs[k]`` multiplies ``z**k``). The
zero polynomial is the empty coefficient tuple and refuses degree queries, so
degenerate cases surface at the call site instead of propagating a fake -1.

Laurent polynomials carry an explicit ``min_degree``; on the unit circle
``conj(z) = 1/z``, which makes the conjugate-Laurent operation (conjugate
coefficients, negate exponents) the workhorse for everything built from
squared moduli.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NotASquareError,
    NumericalFailureError,
    PairingFailureError,
)


def _trim_high(values) -> tuple[complex, ...]:
    vals = [complex(v) for v in values]
    while vals and vals[-1] == 0:
        vals.pop()
    return tuple(vals)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, ascending complex coefficients.

    >>> p = Poly([2, -3, 1])   # 2 - 3z + z^2
    >>> p.degree()
    2
    >>> poly_eval(p, 2.0)
    0j
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim_high(coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise InvalidInputError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial: ``coeffs[k]`` multiplies ``z**(min_degree + k)``.

    Both end coefficients are nonzero after construction; the zero Laurent
    polynomial is the empty tuple with ``min_degree == 0``.
    """

    coeffs: tuple[complex, ...]
    min_degree: int

    def __init__(self, coeffs=(), min_degree: int = 0):
        vals = [complex(v) for v in coeffs]
        lead = 0
        while vals and vals[0] == 0:
            vals.pop(0)
            lead += 1
        while vals and vals[-1] == 0:
            vals.pop()
        if not vals:
            min_degree, lead = 0, 0
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "min_degree", min_degree + lead)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_degree(self) -> int:
        if not self.coeffs:
            raise InvalidInputError("degree of the zero Laurent polynomial is undefined")
        return self.min_degree + len(self.coeffs) - 1

    def array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=complex)


# ----------------------------------------------------------------------------
# plain polynomial operations
# ----------------------------------------------------------------------------

def _modulus(z) -> np.ndarray:
    """``|z|`` elementwise through ``np.hypot``, which rounds like ``abs`` of a scalar."""
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def poly_eval(p: Poly, x):
    """Horner evaluation of `p` at `x`.

    `x` is a scalar point or a numpy array of points; an array gives the
    array of values, one per point.
    """
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly()
    return Poly(np.convolve(p.array(), q.array()))


def poly_from_roots(roots, leading: complex = 1.0) -> Poly:
    p = np.array([complex(leading)])
    for r in roots:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return Poly(p)


def poly_roots(p: Poly, tol_root: float) -> np.ndarray:
    """All complex roots of `p` via eigenvalues of the companion matrix.

    The residual of every returned root is certified against
    ``tol_root * max|coeffs| * max(1, |root|)**degree``.
    """
    if p.is_zero():
        raise InvalidInputError("roots of the zero polynomial are undefined")
    if p.degree() == 0:
        raise InvalidInputError("constant polynomial has no roots")
    roots = np.roots(p.array()[::-1])
    scale = max(abs(c) for c in p.coeffs)
    resid = _modulus(poly_eval(p, roots))
    bound = tol_root * scale * np.maximum(1.0, _modulus(roots)) ** p.degree()
    bad = np.flatnonzero(resid > bound)
    if bad.size:
        j = bad[0]
        raise NumericalFailureError(
            f"root residual {resid[j]:.3e} exceeds bound {bound[j]:.3e}"
        )
    return roots


def resultant(p: Poly, q: Poly) -> complex:
    """Sylvester-matrix resultant; zero exactly when `p` and `q` share a root.

    >>> resultant(Poly([-1, 1]), Poly([-2, 1]))   # z-1 vs z-2
    (-1+0j)
    """
    if p.is_zero() or q.is_zero():
        raise InvalidInputError("resultant of the zero polynomial is undefined")
    dp, dq = p.degree(), q.degree()
    if dp == 0:
        return complex(p.coeffs[0]) ** dq
    if dq == 0:
        return complex(q.coeffs[0]) ** dp
    size = dp + dq
    syl = np.zeros((size, size), dtype=complex)
    pd = p.array()[::-1]  # descending
    qd = q.array()[::-1]
    for i in range(dq):
        syl[i, i : i + dp + 1] = pd
    for i in range(dp):
        syl[dq + i, i : i + dq + 1] = qd
    return complex(np.linalg.det(syl))


def t_polynomial(theta, l: int) -> Poly:
    """The product of ``(theta_i * z - 1)`` over all i except `l`."""
    theta = np.asarray(theta, dtype=complex)
    if np.any(theta == 0):
        raise InvalidInputError("pole locations must be nonzero")
    if not 0 <= l < len(theta):
        raise InvalidInputError(f"index {l} out of range for {len(theta)} poles")
    p = np.array([1.0 + 0j])
    for i, th in enumerate(theta):
        if i != l:
            p = np.convolve(p, np.array([-1.0, th]))
    return Poly(p)


def t_values(theta, points) -> np.ndarray:
    """``t_l(q)`` for every point q and pole index l, shape (len(points), len(theta)).

    Evaluated as the product of the factors ``(theta_i * q - 1)``, i != l,
    rather than by expanding each ``t_polynomial`` and running Horner.
    """
    theta = np.asarray(theta, dtype=complex)
    if np.any(theta == 0):
        raise InvalidInputError("pole locations must be nonzero")
    S = len(theta)
    factors = np.multiply.outer(np.asarray(points, dtype=complex), theta) - 1.0
    factors = np.repeat(factors[:, None, :], S, axis=1)
    factors[:, np.arange(S), np.arange(S)] = 1.0
    return factors.prod(axis=2)


def forward_polys(theta, g, n: int) -> tuple[Poly, Poly, Poly]:
    """Numerator parts and denominator of the rational form of the signal.

    Returns ``(u_hat, u_tilde, v)`` with ``u(z) = z**n u_hat(z) + u_tilde(z)``
    and ``v(z)`` the product of ``(theta_l z - 1)``; the measured function is
    ``u/v`` wherever v does not vanish.
    """
    theta = np.asarray(theta, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if theta.shape != g.shape:
        raise InvalidInputError("theta and g must have the same length")
    if np.any(theta == 0):
        raise InvalidInputError("pole locations must be nonzero")
    s = len(theta)
    # rows 0..s-1 hold the ascending coefficients of t_l, row s those of v;
    # step i multiplies every row except row i by (theta_i z - 1)
    table = np.zeros((s + 1, s + 1), dtype=complex)
    table[:, 0] = 1.0
    for i, th in enumerate(theta):
        rows = np.arange(s + 1) != i
        step = -table[rows]
        step[:, 1:] += th * table[rows, :-1]
        table[rows] = step
    t_rows = table[:s, :s]
    u_hat = Poly((g * theta**n) @ t_rows)
    u_tilde = Poly(-g @ t_rows)
    v = Poly(table[s])
    return u_hat, u_tilde, v


# ----------------------------------------------------------------------------
# Laurent arithmetic
# ----------------------------------------------------------------------------

def laurent_from_poly(p: Poly, shift: int = 0) -> LaurentPoly:
    return LaurentPoly(p.coeffs, shift)


def laurent_to_poly(L: LaurentPoly) -> tuple[Poly, int]:
    """Split off the power of z: ``L(z) = z**shift * p(z)`` with ``p(0) != 0``."""
    if L.is_zero():
        raise InvalidInputError("cannot convert the zero Laurent polynomial")
    return Poly(L.coeffs), L.min_degree


def laurent_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero() or b.is_zero():
        return LaurentPoly()
    return LaurentPoly(np.convolve(a.array(), b.array()), a.min_degree + b.min_degree)


def laurent_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.max_degree(), b.max_degree())
    out = np.zeros(hi - lo + 1, dtype=complex)
    out[a.min_degree - lo : a.min_degree - lo + len(a.coeffs)] += a.coeffs
    out[b.min_degree - lo : b.min_degree - lo + len(b.coeffs)] += b.coeffs
    return LaurentPoly(out, lo)


def laurent_scale(a: LaurentPoly, c: complex) -> LaurentPoly:
    if complex(c) == 0 or a.is_zero():
        return LaurentPoly()
    return LaurentPoly(a.array() * complex(c), a.min_degree)


def laurent_conj(a: LaurentPoly) -> LaurentPoly:
    """Conjugate-Laurent: coefficient of z**k becomes conj(coeff) at z**-k.

    On the unit circle this is pointwise complex conjugation of the function.
    """
    if a.is_zero():
        return LaurentPoly()
    return LaurentPoly(np.conj(a.array()[::-1]), -a.max_degree())


def laurent_eval(a: LaurentPoly, x):
    """Value of `a` at `x`, a nonzero scalar or a numpy array of nonzero points.

    A scalar gives a complex number, an array the array of values.
    """
    scalar = np.ndim(x) == 0
    if not scalar:
        x = np.asarray(x, dtype=complex)
    if a.is_zero():
        return 0j if scalar else np.zeros(x.shape, dtype=complex)
    if np.any(x == 0):
        raise InvalidInputError("Laurent polynomial cannot be evaluated at 0")
    p, shift = laurent_to_poly(a)
    return (complex(x) if scalar else x) ** shift * poly_eval(p, x)


def hermitian_defect(a: LaurentPoly) -> float:
    """How far `a` is from satisfying coeff(-k) == conj(coeff(k)), relative."""
    if a.is_zero():
        return 0.0
    diff = laurent_add(a, laurent_scale(laurent_conj(a), -1.0))
    if diff.is_zero():
        return 0.0
    return float(np.linalg.norm(diff.array()) / np.linalg.norm(a.array()))


def laurent_from_products(u_hat: Poly, u_tilde: Poly, v: Poly):
    """The three squared-modulus Laurent polynomials of the rational form.

    Returns ``(L, L_tilde, L_hat)`` where on the circle ``L = |u_hat|^2 +
    |u_tilde|^2``, ``L_tilde = u_hat * conj(u_tilde)`` and ``L_hat = |v|^2``.
    """
    uh = laurent_from_poly(u_hat)
    ut = laurent_from_poly(u_tilde)
    vv = laurent_from_poly(v)
    L = laurent_add(laurent_mul(uh, laurent_conj(uh)), laurent_mul(ut, laurent_conj(ut)))
    L_tilde = laurent_mul(uh, laurent_conj(ut))
    L_hat = laurent_mul(vv, laurent_conj(vv))
    return L, L_tilde, L_hat


# ----------------------------------------------------------------------------
# root pairing and Laurent square root
# ----------------------------------------------------------------------------

def relative_gaps(values, targets) -> np.ndarray:
    """``gaps[i, j] = |values[i] - targets[j]| / max(1, |targets[j]|)``.

    Moduli come from ``np.hypot``, which rounds exactly like ``abs`` of a
    numpy complex scalar, so the gaps equal the per-element scalar form bit
    for bit and greedy choices between near-ties do not move.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    diff = values[:, None] - targets[None, :]
    return _modulus(diff) / np.maximum(1.0, _modulus(targets))[None, :]


def pair_conjugate_reciprocal(roots, tol: float):
    """Partition `roots` into conjugate-reciprocal pairs ``(r, 1/conj(r))``.

    Cross pairs are preferred; a root within `tol` of the unit circle may
    close itself. Returns a list of ``(a, b)`` tuples with ``b`` approximately
    ``1/conj(a)``; unpairable leftovers raise.

    Pairs are taken greedily: each step takes the smallest remaining gap
    ``|roots[j] - 1/conj(roots[i])|`` (first in (i, j) row-major order on
    ties) and stops at the first one above `tol`.
    """
    roots = [complex(r) for r in roots]
    k = len(roots)
    r = np.array(roots, dtype=complex)
    # gap[i, j] measures roots[j] against the partner target of roots[i]
    gap = relative_gaps(r, 1.0 / np.conj(r)).T
    self_gap = np.diagonal(gap).copy()
    gap[np.isnan(gap)] = np.inf
    np.fill_diagonal(gap, np.inf)
    unused = set(range(k))
    pairs: list[tuple[complex, complex]] = []
    for _ in range(k // 2):
        i, j = (int(v) for v in np.unravel_index(np.argmin(gap), gap.shape))
        if np.isinf(gap[i, j]) or gap[i, j] > tol:
            break
        pairs.append((roots[i], roots[j]))
        unused -= {i, j}
        gap[[i, j], :] = np.inf
        gap[:, [i, j]] = np.inf
    for i in sorted(unused):
        if self_gap[i] > tol:
            raise PairingFailureError(
                f"root {roots[i]:.6g} has no conjugate-reciprocal partner"
            )
        pairs.append((roots[i], roots[i]))
    return pairs


def halve_doubled_roots(roots, radius: float, error: type[Exception],
                        odd_message: str, gap_message: str) -> list:
    """The midpoint of each pair of nearly equal `roots`.

    Roots are taken from the end of the list, each with its nearest remaining
    root; distances are relative to ``max(1, |r|)``. A partner counts when it
    is within `radius`, or within 5% of the distance to the next-nearest
    root. A root left alone raises ``error(odd_message)``, a partner too far
    away ``error(gap_message.format(gap=...))``.
    """
    roots = list(roots)
    halved = []
    while roots:
        r = roots.pop()
        if not roots:
            raise error(odd_message)
        dists = [abs(r - other) / max(1.0, abs(r)) for other in roots]
        jmin = int(np.argmin(dists))
        # the partner of a noise-split double root is still far closer
        # than any root from another cluster
        rest = [d for k, d in enumerate(dists) if k != jmin]
        allow = max(radius, 0.05 * min(rest)) if rest else radius
        if dists[jmin] > allow:
            raise error(gap_message.format(gap=dists[jmin]))
        halved.append((r + roots.pop(jmin)) / 2.0)
    return halved


def laurent_sqrt(D: LaurentPoly, tol: float, tol_root: float) -> LaurentPoly:
    """A Laurent polynomial M with ``M * M == D``, Hermitian on the circle.

    Works by halving the multiplicity of every root cluster of D; clusters
    that cannot be halved mean D is not a perfect square. `tol` bounds the
    relative reconstruction defect and its square root is the clustering
    radius; `tol_root` certifies the roots of D.
    """
    if D.is_zero():
        return LaurentPoly([], 0)
    p, shift = laurent_to_poly(D)
    if shift % 2 != 0 or p.degree() % 2 != 0:
        raise NotASquareError("odd degree span cannot be a square")
    lead = np.sqrt(complex(p.coeffs[-1]))
    if p.degree() == 0:
        m = LaurentPoly([lead], shift // 2)
    else:
        halved = halve_doubled_roots(
            poly_roots(p, tol_root), np.sqrt(tol), NotASquareError,
            "odd-multiplicity root cluster", "odd-multiplicity root cluster",
        )
        m = laurent_from_poly(poly_from_roots(halved, leading=lead), shift // 2)
    # the true square root is Hermitian up to sign, so symmetrizing only
    # removes numerical noise
    m = laurent_scale(laurent_add(m, laurent_conj(m)), 0.5)
    # canonical sign: value at z=1 nonnegative, so that adding M to a sum of
    # two moduli squares keeps the combination nonnegative there
    if not m.is_zero() and np.real(laurent_eval(m, 1.0)) < 0:
        m = laurent_scale(m, -1.0)
    check = laurent_add(laurent_mul(m, m), laurent_scale(D, -1.0))
    defect = 0.0 if check.is_zero() else float(
        np.linalg.norm(check.array()) / np.linalg.norm(D.array())
    )
    if defect > tol:
        raise NotASquareError(f"reconstruction defect {defect:.3e}")
    return m
