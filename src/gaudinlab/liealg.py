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
    X = np.asarray(X, dtype=complex)
    m = X.shape[0]
    return X - (np.trace(X) / m) * np.eye(m)


@dataclass(frozen=True)
class LieBasis:
    """Cartan-Weyl data for sl_m(C).

    cartan      : rk = m-1 traceless diagonal matrices H_mu
    roots       : (m(m-1), rk) integer array, row r holds rho_r(H_mu)
    root_gens   : elementary matrices E_ij, i != j, same order as `roots`
    root_pairs  : the (i, j) index pairs in the same order
    root_entries: (rows, cols) index arrays of the root entries, X[root_entries]
    neg_root    : neg_root[r] is the index of the root -rho_r, i.e. (j, i)
    gram        : rk x rk matrix of Tr(H_mu H_nu)
    """

    m: int
    cartan: tuple
    roots: np.ndarray
    root_gens: tuple
    root_pairs: tuple
    root_entries: tuple
    neg_root: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray = field(repr=False, default=None)

    @property
    def rank(self) -> int:
        return self.m - 1

    @property
    def n_roots(self) -> int:
        return self.m * (self.m - 1)

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
    roots, gens, pairs = [], [], []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            E = np.zeros((m, m), dtype=complex)
            E[i, j] = 1.0
            gens.append(E)
            pairs.append((i, j))
            roots.append([int((cartan[mu][i, i] - cartan[mu][j, j]).real)
                          for mu in range(m - 1)])
    gram = np.array([[np.trace(A @ B) for B in cartan] for A in cartan]).real
    return LieBasis(
        m=m,
        cartan=tuple(cartan),
        roots=np.array(roots, dtype=float),
        root_gens=tuple(gens),
        root_pairs=tuple(pairs),
        root_entries=tuple(np.array(pairs).T),
        neg_root=np.array([pairs.index((j, i)) for i, j in pairs]),
        gram=gram,
        gram_inv=np.linalg.inv(gram),
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
    """exp(X) by Pade-13 with scaling and squaring."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionError(f"square matrix required, got shape {X.shape}")
    if not np.all(np.isfinite(X.view(float))):
        raise ValueError("matrix_exponential: non-finite entries")
    nrm = np.linalg.norm(X, 1)
    s = max(0, int(np.ceil(np.log2(nrm / _THETA13)))) if nrm > _THETA13 else 0
    A = X / (2.0 ** s)
    m = A.shape[0]
    I = np.eye(m, dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    b = _PADE13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


@dataclass(frozen=True)
class InvariantPolynomial:
    """P_k(X) = Tr(X^k)/k, conjugation invariant, homogeneous of degree k."""

    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise DimensionError(f"invariant polynomial degree must be >= 2, got {self.degree}")

    def evaluate(self, X) -> complex:
        X = np.asarray(X, dtype=complex)
        return complex(np.trace(np.linalg.matrix_power(X, self.degree)) / self.degree)

    def gradient(self, X) -> np.ndarray:
        """Trace-form gradient: P(X + eps Y) = P(X) + eps Tr(Y grad) + O(eps^2).

        The naive gradient X^{k-1} is projected back into sl_m; the projection
        does not change Tr(Y grad) for traceless Y.
        """
        X = np.asarray(X, dtype=complex)
        return traceless_part(np.linalg.matrix_power(X, self.degree - 1))


def random_traceless(rng, m: int, scale: float = 1.0) -> np.ndarray:
    """Random sl_m element with independent Gaussian real/imag parts."""
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return traceless_part(scale * X)
