"""Endomorphisms rho_u of O_N from polynomial unitaries.

Covers the canonical shift theta, permutative endomorphisms rho_sigma
built from permutations of length-k words, cocycles u_k, and the closed
bidegree formula rho_u(s_I s_J^*) = u_{|I|} s_I s_J^* u_{|J|}^*.  For a
permutative u_sigma that formula is pure word rewriting:
rho_sigma(s_I s_J^*) = sum over |V| = k-1 of s_{pi(IV)} s_{pi(JV)}^*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .algebra import (AlgebraElement, Monomial, Word, _held_theta, _wrap,
                      pack_word, unpack_word, words)
from .errors import AlphabetMismatchError, NotUnitaryError, ParseError
from .scalars import GaussianRational


def theta(a: AlgebraElement) -> AlgebraElement:
    """The canonical shift x -> sum_i s_i x s_i^*.  A kernel element with
    no terms maps to the matrix kron(I_N, M) one level up (see
    `algebra`); anything else by word rewriting:
    theta(s_I s_J^*) = sum_i s_{iI} s_{iJ}^*.  Distinct (i, I, J) give
    distinct monomials, so every coefficient carries over unchanged."""
    held = _held_theta(a)
    if held is not None:
        return held
    n = a.n_gens
    out: Dict[Monomial, GaussianRational] = {}
    for (left, right), coeff in a.terms.items():
        for i in range(1, n + 1):
            out[Monomial((i,) + left, (i,) + right)] = coeff
    return _wrap(n, out)


def theta_power(m: int, a: AlgebraElement) -> AlgebraElement:
    for _ in range(m):
        a = theta(a)
    return a


@dataclass(frozen=True)
class Permutation:
    """A permutation of the N^k words of length k, stored as the image
    tuple in lexicographic order of the domain."""

    k: int
    n_gens: int
    images: Tuple[Word, ...]

    def __post_init__(self):
        size = self.n_gens ** self.k
        if len(self.images) != size or len(set(self.images)) != size:
            raise ValueError("images must be a bijection on length-k words")
        for w in self.images:
            if len(w) != self.k or any(not 1 <= c <= self.n_gens for c in w):
                raise ValueError(f"bad image word {w}")

    @classmethod
    def identity(cls, k: int, n_gens: int) -> "Permutation":
        return cls(k, n_gens, tuple(words(n_gens, k)))

    @classmethod
    def from_one_line(cls, line: Iterable[int], k: int, n_gens: int) -> "Permutation":
        """Images of 1..N^k in order, as 1-based lexicographic indices."""
        size = n_gens ** k
        line = tuple(line)
        for i in line:
            if not 1 <= i <= size:
                raise ValueError(f"one-line entry {i} outside 1..{size}")
        imgs = tuple(unpack_word(i - 1, k, n_gens) for i in line)
        return cls(k, n_gens, imgs)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], k: int, n_gens: int) -> "Permutation":
        size = n_gens ** k
        line = list(range(1, size + 1))
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= size:
                    raise ValueError(f"cycle entry {a} outside 1..{size}")
                line[a - 1] = b
        return cls.from_one_line(line, k, n_gens)

    @classmethod
    def parse(cls, text: str, k: int = 2, n_gens: int = 2) -> "Permutation":
        """Cycle notation "(1 2)(3 4)" over 1..N^k, or the shorthands
        "id", "shift" (the cycle (2 3) for N=2, k=2) and "flip"
        ((1 3)(2 4))."""
        text = text.strip()
        if text == "id":
            return cls.identity(k, n_gens)
        if text == "shift":
            if (n_gens, k) != (2, 2):
                raise ParseError("'shift' shorthand requires N=2, k=2", 0)
            return cls.from_cycles([(2, 3)], k, n_gens)
        if text == "flip":
            if (n_gens, k) != (2, 2):
                raise ParseError("'flip' shorthand requires N=2, k=2", 0)
            return cls.from_cycles([(1, 3), (2, 4)], k, n_gens)
        if not text.startswith("("):
            raise ParseError(f"expected cycle notation or shorthand, got {text!r}", 0)
        cycles: List[List[int]] = []
        for m in re.finditer(r"\(([^()]*)\)|(\S)", text):
            if m.group(1) is None:
                raise ParseError(f"unexpected {m.group(2)!r} in permutation", m.start())
            body = m.group(1).strip()
            if re.fullmatch(r"\d+", body) and n_gens ** k <= 9:
                entries = [int(d) for d in body]
            else:
                entries = [int(t) for t in re.split(r"[,\s]+", body) if t]
            if entries:
                cycles.append(entries)
        return cls.from_cycles(cycles, k, n_gens)

    def __call__(self, word: Word) -> Word:
        return self.images[pack_word(word, self.n_gens)]

    def inverse(self) -> "Permutation":
        size = self.n_gens ** self.k
        inv: List[Word] = [()] * size
        for i, img in enumerate(self.images):
            inv[pack_word(img, self.n_gens)] = unpack_word(i, self.k, self.n_gens)
        return Permutation(self.k, self.n_gens, tuple(inv))

    def one_line(self) -> Tuple[int, ...]:
        return tuple(pack_word(w, self.n_gens) + 1 for w in self.images)

    def cycle_notation(self) -> str:
        """Canonical cycle string, fixed points omitted; "id" if trivial."""
        line = self.one_line()
        seen = set()
        parts = []
        for start in range(1, len(line) + 1):
            if start in seen or line[start - 1] == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            nxt = line[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = line[nxt - 1]
            parts.append("(" + " ".join(str(x) for x in cyc) + ")")
        return "".join(parts) if parts else "id"


def perm_unitary(sigma: Permutation) -> AlgebraElement:
    """u_sigma = sum over length-k words J of s_{sigma(J)} s_J^*."""
    terms = {Monomial(sigma(j), j): 1 for j in words(sigma.n_gens, sigma.k)}
    return AlgebraElement(sigma.n_gens, terms)


class EndomorphismSpec:
    """A unitary u in P(O_N) together with its rank k; drives rho_u."""

    __slots__ = ("u", "n_gens", "rank", "origin", "perm", "_cocycles")

    def __init__(self, u: AlgebraElement, rank: Optional[int] = None,
                 origin: str = "unitary", perm: Optional[Permutation] = None,
                 check: bool = True):
        one = AlgebraElement.one(u.n_gens)
        if check and not (u * u.adjoint() == one and u.adjoint() * u == one):
            raise NotUnitaryError("defining element is not unitary")
        self.u = u
        self.n_gens = u.n_gens
        self.origin = origin
        self.perm = perm
        self.rank = self._infer_rank() if rank is None else rank
        self._cocycles: Dict[int, AlgebraElement] = {0: one, 1: u}

    def _infer_rank(self) -> int:
        if all(d == 0 for d in self.u.degrees()):
            k = 1
            while not self.u.in_F(k, k):
                k += 1
            return max(k, 1)
        return max(max(len(m.left), len(m.right)) for m in self.u.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n_gens: int = 2) -> "EndomorphismSpec":
        return cls(AlgebraElement.one(n_gens), rank=1, origin="identity", check=False)

    @classmethod
    def from_permutation(cls, sigma: Permutation) -> "EndomorphismSpec":
        return cls(perm_unitary(sigma), rank=sigma.k, origin="permutation",
                   perm=sigma, check=False)

    @classmethod
    def canonical_shift(cls, n_gens: int = 2) -> "EndomorphismSpec":
        """rho_u = theta via u = sum_{i,j} s_i s_j s_i^* s_j^*."""
        terms = {Monomial((i, j), (i, j)[::-1]): 1
                 for i in range(1, n_gens + 1) for j in range(1, n_gens + 1)}
        return cls(AlgebraElement(n_gens, terms), rank=2, origin="shift", check=False)

    @classmethod
    def from_label(cls, label: str, k: int = 2, n_gens: int = 2) -> "EndomorphismSpec":
        return cls.from_permutation(Permutation.parse(label, k, n_gens))

    def label(self) -> str:
        if self.perm is not None:
            return self.perm.cycle_notation()
        return self.origin

    # -- cocycles and application ------------------------------------------

    def cocycle(self, k: int) -> AlgebraElement:
        """u_k = u theta(u) ... theta^{k-1}(u); cached."""
        if k < 0:
            raise ValueError("cocycle index must be nonnegative")
        top = max(self._cocycles)
        while top < k:
            top += 1
            self._cocycles[top] = self._cocycles[top - 1] * theta_power(top - 1, self.u)
        return self._cocycles[k]

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        """rho_u(a): by word rewriting when u is permutative, otherwise by
        linear extension of u_{|I|} s_I s_J^* u_{|J|}^*."""
        if a.n_gens != self.n_gens:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {self.n_gens} vs {a.n_gens}")
        if self.perm is not None:
            return self._apply_words(a)
        groups: Dict[Tuple[int, int], Dict[Monomial, GaussianRational]] = {}
        for mono, coeff in a.terms.items():
            groups.setdefault((len(mono.left), len(mono.right)), {})[mono] = coeff
        out = AlgebraElement.zero(self.n_gens)
        for (k, l), terms in groups.items():
            piece = AlgebraElement(self.n_gens, terms)
            out = out + self.cocycle(k) * piece * self.cocycle(l).adjoint()
        return out

    def _apply_words(self, a: AlgebraElement) -> AlgebraElement:
        """rho_sigma(s_I s_J^*) = sum over |V| = k-1 of s_{pi(IV)} s_{pi(JV)}^*,
        where u_m sends s_W to s_{pi(W)} for |W| = m+k-1.  Distinct (I, J, V)
        give distinct output monomials (pi is a bijection on each length),
        so every coefficient carries over unchanged."""
        tails = list(words(self.n_gens, self.perm.k - 1))
        out: Dict[Monomial, GaussianRational] = {}
        for (left, right), coeff in a.terms.items():
            if not left and not right:
                out[Monomial((), ())] = coeff  # u_0 = 1, so rho(1) = 1
                continue
            for v in tails:
                out[Monomial(self._rewrite(left + v), self._rewrite(right + v))] = coeff
        return _wrap(self.n_gens, out)

    def _rewrite(self, word: Word) -> Word:
        """pi(W) for |W| = m+k-1: sigma applied to the k-letter window at
        positions m-1, m-2, ..., 0, right to left, as in
        u_m = u theta(u) ... theta^{m-1}(u)."""
        sigma = self.perm
        k, n, images = sigma.k, sigma.n_gens, sigma.images
        out = list(word)
        for pos in range(len(out) - k, -1, -1):
            out[pos:pos + k] = images[pack_word(out[pos:pos + k], n)]
        return tuple(out)

    def apply_power(self, m: int, a: AlgebraElement) -> AlgebraElement:
        for _ in range(m):
            a = self.apply(a)
        return a

    # -- checks ------------------------------------------------------------

    def is_gauge_invariant(self) -> bool:
        return all(d == 0 for d in self.u.degrees())

    def verify(self) -> Dict[str, bool]:
        """Re-derive the Cuntz relations for the generator images."""
        n = self.n_gens
        one = AlgebraElement.one(n)
        imgs = [self.apply(AlgebraElement.generator(n, i)) for i in range(1, n + 1)]
        report: Dict[str, bool] = {}
        for i in range(n):
            for j in range(n):
                expected = one if i == j else AlgebraElement.zero(n)
                report[f"adj(rho(s{i+1}))*rho(s{j+1})"] = (
                    imgs[i].adjoint() * imgs[j] == expected
                )
        total = AlgebraElement.zero(n)
        for img in imgs:
            total = total + img * img.adjoint()
        report["sum rho(s_i) rho(s_i)* = 1"] = total == one
        report["unitary"] = (self.u * self.u.adjoint() == one
                             and self.u.adjoint() * self.u == one)
        return report

    def range_containment(self, p: int, l: int, m: int) -> bool:
        """rho^j(A_{p,l}) inside F_{p+j(k-1), l+j(k-1)} for every j = 1..m,
        checked on the full monomial basis."""
        grow = self.rank - 1
        for left in words(self.n_gens, p):
            for right in words(self.n_gens, l):
                img = AlgebraElement.monomial(self.n_gens, left, right)
                for j in range(1, m + 1):
                    img = self.apply(img)
                    if not img.in_F(p + j * grow, l + j * grow):
                        return False
        return True
