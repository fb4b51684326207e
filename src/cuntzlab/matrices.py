"""Matrix embeddings: the map Psi_k into M_{N^k} (x) O_N, the homogeneous
matrix-coefficient decomposition, and operator norms of gauge-homogeneous
elements via exact embedding plus a Hermitian eigensolver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .algebra import AlgebraElement, Word, _degree0_matrix, _real, words
from .errors import DimensionCapError, NotHomogeneousError
from .scalars import GaussianRational

DIM_CAP = 1024


@dataclass(frozen=True)
class OperatorMatrix:
    """N^k x N^k array of algebra elements, rows/columns indexed by the
    length-k words in lexicographic order."""

    n_gens: int
    k: int
    entries: Tuple[Tuple[AlgebraElement, ...], ...]

    @property
    def dim(self) -> int:
        return self.n_gens ** self.k

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if (self.n_gens, self.k) != (other.n_gens, other.k):
            return False
        return all(a == b for row_a, row_b in zip(self.entries, other.entries)
                   for a, b in zip(row_a, row_b))

    def matmul(self, other: "OperatorMatrix") -> "OperatorMatrix":
        d = self.dim
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = AlgebraElement.zero(self.n_gens)
                for t in range(d):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            rows.append(tuple(row))
        return OperatorMatrix(self.n_gens, self.k, tuple(rows))

    def conjugate_transpose(self) -> "OperatorMatrix":
        d = self.dim
        return OperatorMatrix(self.n_gens, self.k, tuple(
            tuple(self.entries[j][i].adjoint() for j in range(d)) for i in range(d)
        ))


def _require_within_cap(n: int, k: int) -> None:
    # N >= 2, so past the cap's bit length N^k is over the cap
    if k > DIM_CAP.bit_length() or n ** k > DIM_CAP:
        raise DimensionCapError(f"matrix dimension {n}^{k} exceeds cap {DIM_CAP}")


def psi(x: AlgebraElement, k: int) -> OperatorMatrix:
    """Psi_k(X): entry (K, M) = s_K^* X s_M, by 2 N^(2k) symbolic products;
    N^k is capped at DIM_CAP."""
    n = x.n_gens
    _require_within_cap(n, k)
    basis = [AlgebraElement.isometry(n, w) for w in words(n, k)]
    rows = tuple(
        tuple(sk.adjoint() * x * sm for sm in basis) for sk in basis
    )
    return OperatorMatrix(n, k, rows)


def embed_degree0(x: AlgebraElement) -> np.ndarray:
    """The complex matrix in M_{N^m} (lexicographic word order) of a
    degree-0 element with longest word m: re + i im, each part the exact
    kernel's matrix of a real element, rounded."""
    if any(d != 0 for d in x.degrees()):
        raise NotHomogeneousError("embed_degree0 requires gauge degree 0")
    n = x.n_gens
    m = x.max_right_length(0)
    dim = n ** m
    if dim > DIM_CAP:
        raise DimensionCapError(f"matrix dimension {dim} exceeds cap {DIM_CAP}")
    out = np.zeros((dim, dim), dtype=complex)
    if _real(x):
        out.real = _rounded(x, m)
    else:
        terms = x.terms.items()
        out.real = _rounded(AlgebraElement(n, {mono: c.re for mono, c in terms}), m)
        out.imag = _rounded(AlgebraElement(n, {mono: c.im for mono, c in terms}), m)
    return out


def _rounded(x: AlgebraElement, m: int) -> np.ndarray:
    """The kernel's level-m matrix of a real degree-0 element, each exact
    entry rounded once to a float, as complex(c) rounds each part of c."""
    mat = _degree0_matrix(x, m)
    return (mat.num.astype(object) / mat.den).astype(float)


def largest_eigenvalue(mat: np.ndarray) -> float:
    """Top eigenvalue of a Hermitian (here positive semidefinite) matrix,
    from the full spectrum."""
    if mat.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(mat)[-1])


def operator_norm(x: AlgebraElement) -> float:
    """||X|| for gauge-homogeneous X, via the positive matrix of X^* X."""
    degs = x.degrees()
    if len(degs) > 1:
        raise NotHomogeneousError("operator_norm requires a homogeneous element")
    if not degs:
        return 0.0
    gram = embed_degree0(x.adjoint() * x)
    return float(np.sqrt(max(largest_eigenvalue(gram), 0.0)))


def norm_bounds(x: AlgebraElement) -> Tuple[float, float]:
    """(lower, upper) bounds for a possibly mixed element: max and sum of
    the homogeneous component norms."""
    norms = [operator_norm(c) for c in x.gauge_components().values()]
    if not norms:
        return (0.0, 0.0)
    return (max(norms), sum(norms))


@dataclass(frozen=True)
class HomogeneousDecomposition:
    """Psi_k(X) = sum_J T_J (x) s_J (degree > 0), T (x) 1 (degree 0), or
    the s_J^* form (degree < 0), with every part kept exactly."""

    n_gens: int
    k: int
    degree: int
    parts: Dict[Word, Dict[Tuple[Word, Word], GaussianRational]]

    @property
    def direction(self) -> str:
        if self.degree > 0:
            return "creation"
        if self.degree < 0:
            return "annihilation"
        return "scalar"

    def gram(self) -> AlgebraElement:
        """sum_J T_J^* T_J (degree >= 0) or sum_J T_J T_J^* (degree < 0),
        with T_J the degree-0 element sum (T_J)_{K,M} s_K s_M^*.  It equals
        X^* X, resp. X X^*, and every summand is positive, so the identity
        bounds each ||T_J|| by ||X||."""
        total = AlgebraElement.zero(self.n_gens)
        for coeffs in self.parts.values():
            t = AlgebraElement(self.n_gens, coeffs)
            total = total + (t.adjoint() * t if self.degree >= 0 else t * t.adjoint())
        return total

    def reconstruct_psi(self) -> OperatorMatrix:
        """Rebuild sum_J T_J (x) s_J as an OperatorMatrix for comparison
        against psi(X, k)."""
        n, k = self.n_gens, self.k
        basis = list(words(n, k))
        index = {w: i for i, w in enumerate(basis)}
        zero = AlgebraElement.zero(n)
        grid: List[List[AlgebraElement]] = [[zero] * len(basis) for _ in basis]
        for j_word, coeffs in self.parts.items():
            if self.degree > 0:
                tensor = AlgebraElement.isometry(n, j_word)
            elif self.degree < 0:
                tensor = AlgebraElement.isometry(n, j_word).adjoint()
            else:
                tensor = AlgebraElement.one(n)
            for (row, col), c in coeffs.items():
                i, j = index[row], index[col]
                grid[i][j] = grid[i][j] + tensor.scaled(c)
        return OperatorMatrix(n, k, tuple(tuple(r) for r in grid))


def homogeneous_parts(x: AlgebraElement, k: int) -> HomogeneousDecomposition:
    """The matrix coefficients T_J of Psi_k(X) = sum_J T_J (x) s_J for
    homogeneous X of degree d >= 0, read off X's terms: leveled to right
    length k, a term c s_A s_B^* has |A| = k + d and sits at
    (T_{A[k:]})_{A[:k], B} = c.  For d < 0 the parts are those of X^*,
    conjugate-transposed, as coefficients of s_J^*.  Requires the canonical
    right words of X (of X^* when d < 0) to have length <= k."""
    degs = x.degrees()
    if len(degs) > 1:
        raise NotHomogeneousError("decomposition requires a homogeneous element")
    d = next(iter(degs), 0)
    n = x.n_gens
    _require_within_cap(n, k)
    canon = (x if d >= 0 else x.adjoint()).canonical()
    longest = canon.max_right_length(abs(d))
    if longest > k:
        raise NotHomogeneousError(
            f"k={k} too small: the canonical form needs k >= {longest}")
    parts: Dict[Word, Dict[Tuple[Word, Word], GaussianRational]] = {}
    for (a, b), c in canon.level({abs(d): k}).terms.items():
        if d >= 0:
            parts.setdefault(a[k:], {})[(a[:k], b)] = c
        else:
            parts.setdefault(a[k:], {})[(b, a[:k])] = c.conjugate()
    return HomogeneousDecomposition(n, k, d, parts)
