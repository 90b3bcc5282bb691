"""Dense complex linear algebra over sl_m(C).

Provides the Cartan-Weyl basis (H_mu = E_mumu - E_{mu+1,mu+1}, root
generators E_ij), the trace pairing and its Gram matrix on the Cartan
subalgebra, the Cartan components of traceless matrices, a matrix
exponential, the coefficients of the characteristic polynomial, and the
invariant polynomials P_k(X) = Tr(X^k)/k together with their trace-form
gradients.

Components live downstairs/upstairs as follows: a traceless X is written
X = X^mu H_mu + X^rho E_rho, where the root components X^rho are simply
the off-diagonal entries and the Cartan components solve the Gram system
Tr(X H_nu) = gram_{mu nu} X^mu.  No orthonormality of the H_mu is assumed
anywhere; every contraction goes through the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# np.linalg's gufuncs without the wrappers' checks, which cost more than a
# small stack's solve: a singular matrix gives NaNs, not LinAlgError.  They
# are private API, so where they are missing the public functions stand in
try:
    from numpy.linalg._umath_linalg import inv as _inv, solve as _solve
except ImportError:
    _inv, _solve = np.linalg.inv, np.linalg.solve

from .errors import DimensionError

__all__ = [
    "LieBasis",
    "InvariantPolynomial",
    "build_slm_basis",
    "trace_pairing",
    "cartan_components",
    "matrix_exponential",
    "charpoly",
    "traceless_part",
    "random_traceless",
]


def _subtract_trace(P):
    """P minus its trace part, written into P (a (..., m, m) stack the caller
    owns) or its contiguous copy; the trace sums the diagonal as np.trace."""
    P = np.ascontiguousarray(P)     # so that the diagonals below are a view
    m = P.shape[-1]
    d = P.reshape(P.shape[:-2] + (m * m,))[..., ::m + 1]
    d -= np.add.reduce(d, axis=-1, keepdims=True) / m
    return P


def traceless_part(X):
    """X minus its trace part, for one matrix or a (..., m, m) stack."""
    return _subtract_trace(np.array(X, dtype=complex))


def _matrix_power(a, n: int) -> np.ndarray:
    """a^n for n >= 1, with the products of np.linalg.matrix_power in its
    order (so the same bits) but without its per-call checks: a @ a, then
    (a @ a) @ a, then the binary ladder over the bits of n from the lowest.
    n = 1 returns a itself."""
    if n == 3:
        return a @ a @ a
    z = result = None
    while n > 0:
        z = a if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


@dataclass(frozen=True)
class LieBasis:
    """Cartan-Weyl data for sl_m(C).

    cartan      : rk = m-1 traceless diagonal matrices H_mu
    roots       : (m(m-1), rk) integer array, row r holds rho_r(H_mu)
    root_entries: (rows, cols) index arrays of the root entries E_ij, i != j,
                  in the order of `roots`; X[root_entries] are their components
    gram        : rk x rk matrix of Tr(H_mu H_nu)
    cartan_diag : (rk, m) array, row mu the diagonal of H_mu
    """

    m: int
    cartan: tuple
    roots: np.ndarray
    root_entries: tuple
    gram: np.ndarray
    gram_inv: np.ndarray = field(repr=False, default=None)
    cartan_diag: np.ndarray = field(repr=False, default=None)

    @property
    def rank(self) -> int:
        return self.m - 1

    def root_value(self, r: int, q) -> complex:
        """rho_r(Q) for Q = q^mu H_mu given by its coordinates q."""
        return complex(self.roots[r] @ np.asarray(q, dtype=complex))


def build_slm_basis(m: int) -> LieBasis:
    """Standard sl_m basis: H_mu = E_mumu - E_{mu+1,mu+1}, E_ij for i != j."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise DimensionError(f"sl_m needs integer m >= 2, got {m!r}")
    cartan = []
    for mu in range(m - 1):
        H = np.zeros((m, m), dtype=complex)
        H[mu, mu] = 1.0
        H[mu + 1, mu + 1] = -1.0
        cartan.append(H)
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    roots = [[int((H[i, i] - H[j, j]).real) for H in cartan] for i, j in pairs]
    gram = np.array([[np.trace(A @ B) for B in cartan] for A in cartan]).real
    return LieBasis(
        m=m,
        cartan=tuple(cartan),
        roots=np.array(roots, dtype=float),
        root_entries=tuple(np.array(pairs).T),
        gram=gram,
        gram_inv=np.linalg.inv(gram),
        cartan_diag=np.array([np.diag(H) for H in cartan]),
    )


def trace_pairing(A, B) -> complex:
    """<A, B> = Tr(AB).  Symmetric, ad-invariant."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimensionError(f"shape mismatch {A.shape} vs {B.shape}")
    return complex(np.trace(A @ B))


def cartan_components(basis: LieBasis, X) -> np.ndarray:
    """Cartan coordinates X^mu solving gram_{nu mu} X^mu = Tr(X H_nu)."""
    X = np.asarray(X, dtype=complex)
    t = np.array([np.trace(X @ H) for H in basis.cartan])
    return basis.gram_inv @ t


# Pade-13 scaling-and-squaring (Higham 2005 coefficients).  Relative error
# stays below ~1e-13 for any norm since the argument is scaled under theta13.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_UNSCALED = 0.999 * _THETA13    # m max|x_ij| under it: no 1-norm exceeds theta13
# The coefficients, complex as numpy would cast them: of A6, A4, A2 inside
# the product with A6 and outside it, U's in row 0 and V's in row 1; then
# U's b1 and V's b0
_PADE13_INNER, _PADE13_OUTER = np.array(_PADE13, dtype=complex)[
    [[[13, 11, 9], [12, 10, 8]], [[7, 5, 3], [6, 4, 2]]]].reshape(2, 2, 3, 1, 1, 1)
_PADE13_DIAG = np.array(_PADE13, dtype=complex)[[1, 0]].reshape(2, 1, 1)
for _c in (_PADE13_INNER, _PADE13_OUTER, _PADE13_DIAG):
    _c.setflags(write=False)


def _pade13(A) -> np.ndarray:
    """Pade-13 of exp for a complex (K, m, m) stack, unchecked and unscaled.
    U and V are rows 0 and 1 of one stack, built from the stacked A6, A4, A2
    by the written-out formula's operations in its order, so each matrix
    gets the bits it gets alone (the references pin them); a reduction
    along a short axis adds in sequence."""
    m = A.shape[-1]
    P = np.empty((3,) + A.shape, dtype=complex)          # A6, A4, A2
    np.matmul(A, A, out=P[2])
    np.matmul(P[2], P[2], out=P[1])
    np.matmul(P[1], P[2], out=P[0])
    S = np.empty((2, 4) + A.shape, dtype=complex)        # U's and V's terms
    np.matmul(P[0], np.add.reduce(_PADE13_INNER * P, axis=1), out=S[:, 0])
    np.multiply(_PADE13_OUTER, P, out=S[:, 1:])
    T = np.add.reduce(S, axis=1, initial=-0j)    # -0 + x is x, also at x = -0
    # b1 I and b0 I on the diagonals of the contiguous T only
    T.reshape(2, -1, m * m)[..., ::m + 1] += _PADE13_DIAG
    U, V = A @ T[0], T[1]
    return _solve(V - U, V + U)


def matrix_exponential(X) -> np.ndarray:
    """exp(X) by Pade-13 with scaling and squaring, for one matrix or a
    (..., m, m) stack.  Each matrix keeps its own scaling power, and only
    the matrices that still need squaring are squared.

    m max|x_ij| bounds every 1-norm: when it is under theta13, less a margin
    for the rounding of the column sums, nothing is scaled and X is read
    once (a NaN fails that test).  Otherwise a non-finite X or 1-norm
    raises ValueError, and each matrix whose 1-norm exceeds theta13 is scaled,
    with a ValueError if squaring it back overflows.  Under theta13 the
    Pade denominator is well conditioned (Higham 2005): never singular."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise DimensionError(f"square matrix required, got shape {X.shape}")
    m = X.shape[-1]
    A = X.reshape(-1, m, m)
    squarings = 0
    if not np.abs(A).max(initial=0.0) <= _UNSCALED / m:
        if not np.isfinite(A).all():
            raise ValueError("matrix_exponential: non-finite entries")
        with np.errstate(over="ignore"):
            nrm = np.abs(A).sum(axis=-2).max(axis=-1)    # the 1-norm of each matrix
        if not np.isfinite(nrm).all():
            raise ValueError("matrix_exponential: the 1-norm overflows")
        s = np.ceil(np.log2(np.maximum(nrm / _THETA13, 1.0))).astype(int)
        A = A / (2.0 ** s)[:, None, None]      # exact where s = 0
        squarings = int(s.max())
    E = _pade13(A)
    if squarings:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(squarings):
                todo = s > k
                E[todo] = E[todo] @ E[todo]
        if not np.isfinite(E).all():
            raise ValueError("matrix_exponential: the exponential overflows")
    return E.reshape(X.shape)


def _power_sums(X, top: int, low: int = 1) -> np.ndarray:
    """p_k = tr(X^k) for k = low..top on a new last axis, for one matrix or a
    stack: sum A_ij B_ji for A = X^ceil(k/2), B = X^floor(k/2), one einsum on
    C-contiguous operands (a Fortran-ordered stack rounds differently), so
    each matrix gets the bits it gets alone and X^k is never formed."""
    first = max(low // 2, 1)
    P = {1: np.ascontiguousarray(X)}
    P[first] = _matrix_power(P[1], first)
    for j in range(first + 1, (top + 1) // 2 + 1):
        P[j] = P[j - 1] @ P[1]
    return np.stack([np.einsum("...ij,...ji->...", P[(k + 1) // 2], P[k // 2]) if k > 1
                     else np.einsum("...ii->...", P[1]) for k in range(low, top + 1)], axis=-1)


def charpoly(X) -> np.ndarray:
    """Coefficients of det(x - X), leading 1 first, for one matrix (shape
    (m + 1,)) or a (..., m, m) stack (shape (..., m + 1)).

    Newton's identities, k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)
    added in that order, on power sums from ceil(m/2) - 1 batched products.
    No eigenvalues: the coefficients are polynomial in the entries, so a
    defective X (a nilpotent Jordan block, say) loses no more digits than
    any other."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise DimensionError(f"square matrix required, got shape {X.shape}")
    m = X.shape[-1]
    p = _power_sums(X, m)
    c = np.empty(X.shape[:-2] + (m + 1,), dtype=complex)
    c[..., 0] = 1.0
    for k in range(1, m + 1):
        c[..., k] = sum((c[..., j] * p[..., k - 1 - j] for j in range(1, k)), p[..., k - 1]) / -k
    return c


@dataclass(frozen=True)
class InvariantPolynomial:
    """P_k(X) = Tr(X^k)/k, conjugation invariant, homogeneous of degree k."""

    degree: int

    def __post_init__(self):
        # P divides by the degree in double precision, exact up to 2^53
        if not 2 <= self.degree <= 2 ** 53:
            raise DimensionError("invariant polynomial degree must be from 2 to 2**53, "
                                 f"got {self.degree}")

    def evaluate(self, X):
        """P(X) = p_k / k for one matrix (a complex) or a (..., m, m) stack (an array)."""
        X = np.asarray(X, dtype=complex)
        P = _power_sums(X, self.degree, self.degree)[..., 0] / self.degree
        return complex(P) if X.ndim == 2 else P

    def gradient(self, X) -> np.ndarray:
        """Trace-form gradient: P(X + eps Y) = P(X) + eps Tr(Y grad) + O(eps^2),
        for one matrix or a (..., m, m) stack.

        The naive gradient X^{k-1} is projected back into sl_m; the projection
        does not change Tr(Y grad) for traceless Y.
        """
        X = np.asarray(X, dtype=complex)
        P = _matrix_power(X, self.degree - 1)
        return _subtract_trace(X.copy() if P is X else P)


def random_traceless(rng, m: int, scale: float = 1.0) -> np.ndarray:
    """Random sl_m element with independent Gaussian real/imag parts."""
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return traceless_part(scale * X)
