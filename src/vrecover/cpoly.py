"""Complex polynomials and Laurent polynomials on and around the unit circle.

A polynomial is a numpy array of ascending complex coefficients
(``p[k]`` multiplies ``z**k``); the zero polynomial is the empty array.
Only root finding needs a degree. It trims trailing exact zeros and refuses
the zero polynomial, so degenerate cases surface at the call site instead of
propagating a fake -1.

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


def conv_matrix(p, k: int) -> np.ndarray:
    """The (len(p)+k-1, k) matrix C with ``C @ x == np.convolve(p, x)`` for x of length k.

    >>> conv_matrix(np.array([1, 2]), 2)
    array([[1, 0],
           [2, 1],
           [0, 2]])
    """
    p = np.asarray(p)
    C = np.zeros((len(p) + k - 1, k), p.dtype)
    # column j holds p shifted down by j, so C[i, j] = p[i - j]
    for j in range(k):
        C[j : j + len(p), j] = p
    return C


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


def t_at_conjugates(theta) -> np.ndarray:
    """``t_l(conj(theta_l))`` for every pole index l, shape (len(theta),).

    Evaluated as the product of the factors ``(theta_i * conj(theta_l) - 1)``,
    i != l, rather than by expanding each ``t_polynomial`` and running Horner.
    """
    theta = np.asarray(theta, dtype=complex)
    if (theta == 0).any():
        raise InvalidInputError("pole locations must be nonzero")
    factors = np.multiply.outer(np.conj(theta), theta) - 1.0
    np.fill_diagonal(factors, 1.0)
    return factors.prod(axis=1)


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
    # step i multiplies every row by (theta_i z - 1), then restores row i
    table = np.zeros((s + 1, s + 1), dtype=complex)
    table[:, 0] = 1.0
    for i, th in enumerate(theta):
        step = -table
        step[:, 1:] += th * table[:, :-1]
        step[i] = table[i]
        table = step
    t_rows = table[:s, :s]
    return (g * theta**n) @ t_rows, -g @ t_rows, table[s]


# ----------------------------------------------------------------------------
# Laurent arithmetic
# ----------------------------------------------------------------------------

def laurent_conj(a) -> np.ndarray:
    """Conjugate-Laurent: coefficient of z**k becomes conj(coeff) at z**-k.

    On the unit circle this is pointwise complex conjugation of the function.

    >>> laurent_conj(np.array([1j, 2.0, 3.0]))   # i/z + 2 + 3z
    array([3.-0.j, 2.-0.j, 0.-1.j])
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
# root pairing and square roots
# ----------------------------------------------------------------------------

def pair_conjugate_reciprocal(roots, tol: float) -> np.ndarray:
    """Partition `roots` into conjugate-reciprocal pairs ``(r, 1/conj(r))``.

    Returns a (P, 2) complex array of rows ``(roots[i], roots[j])`` with
    ``roots[j]`` near ``t_i = 1/conj(roots[i])``. Pairs are taken smallest
    gap ``|roots[j] - t_i| / max(1, |t_i|)`` first, ties in row-major (i, j)
    order, up to `tol`: one stable sort of the gap table, walked once. A root
    is never its own partner; one left over raises, as does a zero or
    non-finite root, before any division.

    >>> pair_conjugate_reciprocal(np.array([2, 0.5]), 1e-9)
    array([[2. +0.j, 0.5+0.j]])
    """
    roots = np.asarray(roots, dtype=complex)
    unpairable = ~np.isfinite(roots) | (roots == 0)
    if unpairable.any():
        raise PairingFailureError(
            f"root {roots[unpairable][0]:.6g} has no conjugate-reciprocal partner"
        )
    # gap[i, j] for j != i; np.hypot rounds like abs of a complex scalar
    target = 1.0 / np.conj(roots)
    gap = _modulus(roots - target[:, None]) / np.maximum(1.0, _modulus(target))[:, None]
    gap[np.isnan(gap)] = np.inf
    np.fill_diagonal(gap, np.inf)
    flat = gap.ravel()
    order = np.argsort(flat, kind="stable")
    # the gaps within tol; an inf tol admits no inf gap
    order = order[: np.count_nonzero(flat <= min(tol, np.finfo(float).max))]
    rows, cols = np.divmod(order, len(roots))
    taken, index = set(), []
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i not in taken and j not in taken:
            taken.update((i, j))
            index.append((i, j))
    left = [k for k in range(len(roots)) if k not in taken]
    if left:
        raise PairingFailureError(
            f"root {roots[left[0]]:.6g} has no conjugate-reciprocal partner: its smallest "
            f"gap to an unpaired root, {gap[left[0], left].min():.1e}, exceeds {tol:.1e}"
        )
    return roots[np.array(index, dtype=int).reshape(-1, 2)]


def poly_sqrt(P) -> np.ndarray:
    """The R of length h+1 whose square ``R * R`` is closest to `P`, of length 2h+1.

    Finds no roots: the power-series recurrence down from the top
    coefficient of `P`, which must be nonzero and fixes the sign of R by its
    principal root, then three Gauss–Newton steps on ``||R * R - P||``,
    whose Jacobian is ``2 * conv_matrix(R, h + 1)``. The caller judges the
    fit; a singular normal matrix raises `NotASquareError`.

    >>> poly_sqrt(np.array([4.0, -4.0, 1.0]))   # (z - 2)^2
    array([-2.+0.j,  1.+0.j])
    """
    P = np.asarray(P, dtype=complex)
    h = len(P) // 2
    # descending coefficients: r[k] multiplies z**(h - k) in R
    top = P[::-1].tolist()
    r = [complex(np.sqrt(top[0]))]
    for k in range(1, h + 1):
        acc = top[k]
        for j in range(1, k):
            acc -= r[j] * r[k - j]
        r.append(acc / (2.0 * r[0]))
    R = np.array(r[::-1])
    for _ in range(3):
        J = 2.0 * conv_matrix(R, h + 1)
        JH = J.conj().T
        try:
            R = R - np.linalg.solve(JH @ J, JH @ (np.convolve(R, R) - P))
        except np.linalg.LinAlgError as exc:
            raise NotASquareError("square-root normal matrix is singular") from exc
    return R


def laurent_sqrt(D, tol: float) -> np.ndarray:
    """A Laurent polynomial M with ``np.convolve(M, M) == D``, Hermitian on the circle.

    Works on coefficients and finds no roots. Let P be the nonzero span of
    D, of length 2h+1; it must start and end at even positions, and
    `poly_sqrt` gives the h+1 coefficients of its root. A centered D of
    length 4d+1 gives a centered M of length 2d+1; any other length raises,
    and exact zeros at the ends of D are kept as zeros of M. D is not a
    perfect square when the relative reconstruction defect exceeds `tol`.
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
    m[lo // 2 : hi // 2 + 1] = poly_sqrt(D[lo : hi + 1])
    # the true square root is Hermitian up to sign, so symmetrizing only
    # removes numerical noise
    m = hermitian_part(m)
    # canonical sign: value at z=1 nonnegative, so that adding M to a sum of
    # two moduli squares keeps the combination nonnegative there
    if np.real(laurent_eval(m, 1.0)) < 0:
        m = -m
    defect = relative_defect(np.convolve(m, m) - D, D)
    # a non-finite defect fails too
    if not defect <= tol:
        raise NotASquareError(f"reconstruction defect {defect:.1e} exceeds {tol:.1e}")
    return m
