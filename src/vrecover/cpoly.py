"""Complex polynomials and Laurent polynomials on and around the unit circle.

A polynomial is a numpy array of ascending complex coefficients
(``p[k]`` multiplies ``z**k``); the zero polynomial is the empty array.
Only root finding and the resultant need a degree. They trim trailing exact
zeros and refuse the zero polynomial, so degenerate cases surface at the
call site instead of propagating a fake -1.

A Laurent polynomial is an odd-length ascending complex array ``a`` centered
on ``z**0``: ``a[k]`` multiplies ``z**(k - len(a)//2)``. Every one the
phaseless pipeline meets is a polynomial times the conjugate of one of the
same length, so its exponents run over a symmetric span and it stays
centered: products are ``np.convolve``, sums and scalings plain ``+`` and
``*``, and exact zeros at the ends are kept, never trimmed. On the unit
circle ``conj(z) = 1/z``, which makes the conjugate-Laurent operation
(conjugate coefficients, negate exponents) the workhorse for everything
built from squared moduli.
"""

import numpy as np

from .errors import (
    InvalidInputError,
    NotASquareError,
    NumericalFailureError,
    PairingFailureError,
)


# ----------------------------------------------------------------------------
# plain polynomial operations
# ----------------------------------------------------------------------------

def _modulus(z) -> np.ndarray:
    """``|z|`` elementwise through ``np.hypot``, which rounds like ``abs`` of a scalar."""
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def _trimmed(p, message: str) -> np.ndarray:
    """`p` without its trailing exact zeros; the zero polynomial raises `message`."""
    p = np.asarray(p, dtype=complex)
    nonzero = np.flatnonzero(p)
    if not nonzero.size:
        raise InvalidInputError(message)
    return p[: nonzero[-1] + 1]


def poly_eval(p, x):
    """Horner evaluation of the polynomial `p` at `x`.

    `x` is a scalar point or a numpy array of points; an array gives the
    array of values, one per point.

    >>> poly_eval(np.array([2, -3, 1]), 2.0)   # 2 - 3z + z^2
    0j
    """
    acc = 0j
    # Python complex coefficients keep a scalar point in Python's complex arithmetic
    for c in reversed(np.asarray(p, dtype=complex).tolist()):
        acc = acc * x + c
    return acc


def poly_from_roots(roots, leading: complex = 1.0) -> np.ndarray:
    p = np.array([complex(leading)])
    for r in roots:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return p


def poly_roots(p, tol_root: float) -> np.ndarray:
    """All complex roots of `p` via eigenvalues of the companion matrix.

    Trailing zero coefficients are dropped first. The residual of every
    returned root is certified against
    ``tol_root * max|p| * max(1, |root|)**degree``.
    """
    p = _trimmed(p, "roots of the zero polynomial are undefined")
    degree = len(p) - 1
    if degree == 0:
        raise InvalidInputError("constant polynomial has no roots")
    roots = np.roots(p[::-1])
    scale = _modulus(p).max()
    resid = _modulus(poly_eval(p, roots))
    bound = tol_root * scale * np.maximum(1.0, _modulus(roots)) ** degree
    bad = np.flatnonzero(resid > bound)
    if bad.size:
        j = bad[0]
        raise NumericalFailureError(
            f"root residual {resid[j]:.3e} exceeds bound {bound[j]:.3e}"
        )
    return roots


def resultant(p, q) -> complex:
    """Sylvester-matrix resultant; zero exactly when `p` and `q` share a root.

    >>> resultant([-1, 1], [-2, 1])   # z-1 vs z-2
    (-1+0j)
    """
    message = "resultant of the zero polynomial is undefined"
    p, q = _trimmed(p, message), _trimmed(q, message)
    dp, dq = len(p) - 1, len(q) - 1
    if dp == 0:
        return complex(p[0]) ** dq
    if dq == 0:
        return complex(q[0]) ** dp
    size = dp + dq
    syl = np.zeros((size, size), dtype=complex)
    pd = p[::-1]  # descending
    qd = q[::-1]
    for i in range(dq):
        syl[i, i : i + dp + 1] = pd
    for i in range(dp):
        syl[dq + i, i : i + dq + 1] = qd
    return complex(np.linalg.det(syl))


def t_polynomial(theta, l: int) -> np.ndarray:
    """The product of ``(theta_i * z - 1)`` over all i except `l`."""
    theta = np.asarray(theta, dtype=complex)
    if (theta == 0).any():
        raise InvalidInputError("pole locations must be nonzero")
    if not 0 <= l < len(theta):
        raise InvalidInputError(f"index {l} out of range for {len(theta)} poles")
    p = np.array([1.0 + 0j])
    for i, th in enumerate(theta):
        if i != l:
            p = np.convolve(p, np.array([-1.0, th]))
    return p


def t_values(theta, points) -> np.ndarray:
    """``t_l(q)`` for every point q and pole index l, shape (len(points), len(theta)).

    Evaluated as the product of the factors ``(theta_i * q - 1)``, i != l,
    rather than by expanding each ``t_polynomial`` and running Horner.
    """
    theta = np.asarray(theta, dtype=complex)
    if (theta == 0).any():
        raise InvalidInputError("pole locations must be nonzero")
    S = len(theta)
    factors = np.multiply.outer(np.asarray(points, dtype=complex), theta) - 1.0
    factors = np.repeat(factors[:, None, :], S, axis=1)
    factors[:, np.arange(S), np.arange(S)] = 1.0
    return factors.prod(axis=2)


def forward_polys(theta, g, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator parts and denominator of the rational form of the signal.

    Returns ``(u_hat, u_tilde, v)`` with ``u(z) = z**n u_hat(z) + u_tilde(z)``
    and ``v(z)`` the product of ``(theta_l z - 1)``; the measured function is
    ``u/v`` wherever v does not vanish. For S poles the arrays have S, S and
    S+1 coefficients, exact zeros included.
    """
    theta = np.asarray(theta, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if theta.shape != g.shape:
        raise InvalidInputError("theta and g must have the same length")
    if (theta == 0).any():
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
    return (g * theta**n) @ t_rows, -g @ t_rows, table[s]


# ----------------------------------------------------------------------------
# Laurent arithmetic
# ----------------------------------------------------------------------------

def laurent_conj(a) -> np.ndarray:
    """Conjugate-Laurent: coefficient of z**k becomes conj(coeff) at z**-k.

    On the unit circle this is pointwise complex conjugation of the function.
    """
    return np.conj(a[::-1])


def hermitian_part(a) -> np.ndarray:
    """``(a + conj-Laurent(a)) / 2``, the nearest Hermitian Laurent polynomial."""
    return (a + laurent_conj(a)) * 0.5


def laurent_eval(a, x):
    """Value of `a` at `x`, a nonzero scalar or a numpy array of nonzero points.

    A scalar gives a complex number, an array the array of values.

    >>> laurent_eval(np.array([2.0, 5.0, 2.0]), 1.0)   # 2/z + 5 + 2z
    (9+0j)
    """
    scalar = np.ndim(x) == 0
    if not scalar:
        x = np.asarray(x, dtype=complex)
    if (x == 0 if scalar else (x == 0).any()):
        raise InvalidInputError("Laurent polynomial cannot be evaluated at 0")
    return (complex(x) if scalar else x) ** -(len(a) // 2) * poly_eval(a, x)


def relative_defect(diff, ref) -> float:
    """Coefficient norm of `diff` relative to that of `ref`; 0.0 when `diff` is zero."""
    if not diff.any():
        return 0.0
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


def hermitian_defect(a) -> float:
    """How far `a` is from satisfying coeff(-k) == conj(coeff(k)), relative."""
    return relative_defect(a - laurent_conj(a), a)


def laurent_from_products(u_hat, u_tilde, v):
    """The three squared-modulus Laurent polynomials of the rational form.

    Takes the polynomials of `forward_polys` and returns ``(L, L_tilde,
    L_hat)`` where on the circle ``L = |u_hat|^2 + |u_tilde|^2``,
    ``L_tilde = u_hat * conj(u_tilde)`` and ``L_hat = |v|^2``. `u_hat` and
    `u_tilde` have one length, so all three come out centered.
    """
    L = np.convolve(u_hat, laurent_conj(u_hat)) + np.convolve(u_tilde, laurent_conj(u_tilde))
    L_tilde = np.convolve(u_hat, laurent_conj(u_tilde))
    L_hat = np.convolve(v, laurent_conj(v))
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


def greedy_pairs(gap: np.ndarray, tol: float):
    """Index pairs ``(i, j)`` of the table `gap`, smallest remaining gap first.

    Each step takes the first minimum in (i, j) row-major order, reading NaN
    as inf, and the loop stops at the first gap above `tol`, or inf. `gap` is
    changed in place: before asking for the next pair, the caller sets to inf
    every entry the pair it was given rules out.
    """
    gap[np.isnan(gap)] = np.inf
    while gap.size:
        i, j = (int(v) for v in np.unravel_index(np.argmin(gap), gap.shape))
        if np.isinf(gap[i, j]) or gap[i, j] > tol:
            return
        yield i, j


def pair_conjugate_reciprocal(roots, tol: float) -> np.ndarray:
    """Partition `roots` into conjugate-reciprocal pairs ``(r, 1/conj(r))``.

    Cross pairs are preferred; a root within `tol` of the unit circle may
    close itself. Returns a (P, 2) complex array whose rows ``(a, b)`` have
    ``b`` approximately ``1/conj(a)``; unpairable leftovers raise.

    Cross pairs are taken by `greedy_pairs` on the gaps
    ``|roots[j] - 1/conj(roots[i])|``; the self-closed roots follow them in
    index order. A zero or non-finite root has no partner and raises before
    any division.
    """
    roots = np.asarray(roots, dtype=complex)
    unpairable = ~np.isfinite(roots) | (roots == 0)
    if unpairable.any():
        raise PairingFailureError(
            f"root {roots[unpairable][0]:.6g} has no conjugate-reciprocal partner"
        )
    # gap[i, j] measures roots[j] against the partner target of roots[i]
    gap = relative_gaps(roots, 1.0 / np.conj(roots)).T
    self_gap = np.diagonal(gap).copy()
    np.fill_diagonal(gap, np.inf)
    index = []
    for i, j in greedy_pairs(gap, tol):
        index.append((i, j))
        gap[[i, j], :] = np.inf
        gap[:, [i, j]] = np.inf
    for i in sorted(set(range(len(roots))).difference(*index)):
        if self_gap[i] > tol:
            raise PairingFailureError(
                f"root {roots[i]:.6g} has no conjugate-reciprocal partner"
            )
        index.append((i, i))
    return roots[np.array(index, dtype=int).reshape(-1, 2)]


def halve_doubled_roots(roots, radius: float, error: type[Exception],
                        odd_message: str, gap_message: str) -> list:
    """The midpoint of each pair of nearly equal `roots`.

    Roots are taken from the end of the list, each with its nearest remaining
    root; distances are relative to ``max(1, |r|)``. A partner counts when it
    is within `radius`, or within 5% of the distance to the next-nearest
    root. A root left alone raises ``error(odd_message)``, a partner too far
    away ``error(gap_message.format(gap=...))``.
    """
    roots = np.asarray(roots, dtype=complex)
    gaps = relative_gaps(roots, roots).T.tolist()  # gaps[j][i]: root i seen from root j
    left = list(range(len(roots)))
    halved = []
    while left:
        j = left.pop()
        if not left:
            raise error(odd_message)
        dists = [gaps[j][i] for i in left]
        k = min(range(len(dists)), key=dists.__getitem__)
        # the partner of a noise-split double root is still far closer
        # than any root from another cluster
        rest = dists[:k] + dists[k + 1 :]
        allow = max(radius, 0.05 * min(rest)) if rest else radius
        if dists[k] > allow:
            raise error(gap_message.format(gap=dists[k]))
        halved.append((roots[j] + roots[left.pop(k)]) / 2.0)
    return halved


def laurent_sqrt(D, tol: float, tol_root: float) -> np.ndarray:
    """A Laurent polynomial M with ``np.convolve(M, M) == D``, Hermitian on the circle.

    Works by halving the multiplicity of every root cluster of D; clusters
    that cannot be halved mean D is not a perfect square. `tol` bounds the
    relative reconstruction defect and its square root is the clustering
    radius; `tol_root` certifies the roots of D. A centered D of length
    4d+1 gives a centered M of length 2d+1; any other length raises. Exact
    zeros at the ends of D are allowed, and the roots are those of its
    nonzero span, which must start and end at even positions.
    """
    D = np.asarray(D, dtype=complex)
    if len(D) % 4 != 1:
        raise NotASquareError("odd degree span cannot be a square")
    m = np.zeros(len(D) // 2 + 1, dtype=complex)
    nonzero = np.flatnonzero(D)
    if not nonzero.size:
        return m
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    if lo % 2 or hi % 2:
        raise NotASquareError("odd degree span cannot be a square")
    lead = np.sqrt(D[hi])
    if lo == hi:
        m[lo // 2] = lead
    else:
        halved = halve_doubled_roots(
            poly_roots(D[lo : hi + 1], tol_root), np.sqrt(tol), NotASquareError,
            "odd-multiplicity root cluster", "odd-multiplicity root cluster",
        )
        m[lo // 2 : hi // 2 + 1] = poly_from_roots(halved, leading=lead)
    # the true square root is Hermitian up to sign, so symmetrizing only
    # removes numerical noise
    m = hermitian_part(m)
    # canonical sign: value at z=1 nonnegative, so that adding M to a sum of
    # two moduli squares keeps the combination nonnegative there
    if np.real(laurent_eval(m, 1.0)) < 0:
        m = -m
    defect = relative_defect(np.convolve(m, m) - D, D)
    if defect > tol:
        raise NotASquareError(f"reconstruction defect {defect:.3e}")
    return m
