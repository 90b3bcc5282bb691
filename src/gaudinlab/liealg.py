"""Dense complex linear algebra over sl_m(C).

Provides the Cartan-Weyl basis (H_mu = E_mumu - E_{mu+1,mu+1}, root
generators E_ij), the trace pairing and its Gram matrix on the Cartan
subalgebra, the Cartan components of traceless matrices, a matrix
exponential, and the invariant polynomials
P_k(X) = Tr(X^k)/k together with their trace-form gradients.

Components live downstairs/upstairs as follows: a traceless X is written
X = X^mu H_mu + X^rho E_rho, where the root components X^rho are simply
the off-diagonal entries and the Cartan components solve the Gram system
Tr(X H_nu) = gram_{mu nu} X^mu.  No orthonormality of the H_mu is assumed
anywhere; every contraction goes through the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = [
    "LieBasis",
    "InvariantPolynomial",
    "build_slm_basis",
    "trace_pairing",
    "cartan_components",
    "matrix_exponential",
    "traceless_part",
    "random_traceless",
]


def traceless_part(X):
    """X minus its trace part, for one matrix or a (..., m, m) stack."""
    X = np.asarray(X, dtype=complex)
    m = X.shape[-1]
    return X - (np.trace(X, axis1=-2, axis2=-1) / m)[..., None, None] * np.eye(m)


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


def matrix_exponential(X) -> np.ndarray:
    """exp(X) by Pade-13 with scaling and squaring, for one matrix or a
    (..., m, m) stack.  Each matrix keeps its own scaling power, and only
    the matrices that still need squaring are squared."""
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise DimensionError(f"square matrix required, got shape {X.shape}")
    if not np.all(np.isfinite(X.view(float))):
        raise ValueError("matrix_exponential: non-finite entries")
    nrm = np.abs(X).sum(axis=-2).max(axis=-1)        # the 1-norm of each matrix
    s = np.ceil(np.log2(np.maximum(nrm / _THETA13, 1.0))).astype(int)
    A = X / (2.0 ** s)[..., None, None]
    I = np.eye(X.shape[-1], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        todo = s > k    # boolean index over the leading axes (0-d for one matrix)
        E[todo] = E[todo] @ E[todo]
    return E


@dataclass(frozen=True)
class InvariantPolynomial:
    """P_k(X) = Tr(X^k)/k, conjugation invariant, homogeneous of degree k."""

    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise DimensionError(f"invariant polynomial degree must be >= 2, got {self.degree}")

    def evaluate(self, X):
        """P(X) for one matrix (a complex) or a (..., m, m) stack (an array)."""
        X = np.asarray(X, dtype=complex)
        P = np.trace(np.linalg.matrix_power(X, self.degree), axis1=-2, axis2=-1) / self.degree
        return complex(P) if X.ndim == 2 else P

    def gradient(self, X) -> np.ndarray:
        """Trace-form gradient: P(X + eps Y) = P(X) + eps Tr(Y grad) + O(eps^2),
        for one matrix or a (..., m, m) stack.

        The naive gradient X^{k-1} is projected back into sl_m; the projection
        does not change Tr(Y grad) for traceless Y.
        """
        X = np.asarray(X, dtype=complex)
        return traceless_part(np.linalg.matrix_power(X, self.degree - 1))


def random_traceless(rng, m: int, scale: float = 1.0) -> np.ndarray:
    """Random sl_m element with independent Gaussian real/imag parts."""
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return traceless_part(scale * X)
