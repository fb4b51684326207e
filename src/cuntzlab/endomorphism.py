"""Endomorphisms rho_u of O_N from polynomial unitaries.

Covers the canonical shift theta, permutative endomorphisms rho_sigma
built from permutations of length-k words, cocycles u_k, and the closed
bidegree formula rho_u(s_I s_J^*) = u_{|I|} s_I s_J^* u_{|J|}^*.  For a
permutative u_sigma that formula is pure word rewriting:
rho_sigma(s_I s_J^*) = sum over |V| = k-1 of s_{pi(IV)} s_{pi(JV)}^*.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .algebra import (AlgebraElement, Monomial, Word, _held_theta, _wrap,
                      pack_word, unpack_word, words)
from .errors import (DEFAULT_BUDGET, AlphabetMismatchError, BudgetExceededError,
                     NotUnitaryError, ParseError)
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
    """theta^m(a); theta has no inverse on O_N, so m must be nonnegative."""
    if m < 0:
        raise ValueError("theta power must be nonnegative")
    for _ in range(m):
        a = theta(a)
    return a


def _capped_power(n_gens: int, k: int, cap: int) -> int:
    """n_gens^k when that is at most `cap`, and otherwise some power of
    n_gens above it.  For n_gens >= 2 an exponent past cap's bit length is
    over cap, so the exponent is capped there and a huge power is never
    formed."""
    return n_gens ** min(k, cap.bit_length() + 1)


def permutation_size(k: int, n_gens: int, budget: int = DEFAULT_BUDGET) -> int:
    """N^k, the number of words a permutation of rank k lists; raises
    BudgetExceededError, without forming N^k, when that is over `budget`."""
    size = _capped_power(n_gens, k, budget)
    if size > budget:
        raise BudgetExceededError(
            f"a permutation of rank {k} needs {n_gens}^{k} words, "
            f"budget {budget}")
    return size


class _PermutationFields(NamedTuple):
    k: int
    n_gens: int
    codes: Tuple[int, ...]


class Permutation(_PermutationFields):
    """A permutation sigma of the N^k words of length k, held as its
    one-line codes: codes[c] is the lexicographic index of sigma(w) for
    the word w of index c, both 0-based as in `pack_word`."""

    __slots__ = ()

    def __new__(cls, k: int, n_gens: int, codes: Iterable[int]):
        if n_gens < 2:
            raise ValueError("alphabet size must be at least 2")
        codes = tuple(codes)
        # the count first, so a short list is refused before any range of
        # N^k words is made
        size = len(codes)
        if (_capped_power(n_gens, k, size) != size
                or sorted(codes) != list(range(size))):
            raise ValueError("images must be a bijection on length-k words")
        return super().__new__(cls, k, n_gens, codes)

    @classmethod
    def identity(cls, k: int, n_gens: int,
                 budget: int = DEFAULT_BUDGET) -> "Permutation":
        return cls(k, n_gens, range(permutation_size(k, n_gens, budget)))

    @classmethod
    def from_one_line(cls, line: Iterable[int], k: int, n_gens: int) -> "Permutation":
        """Images of 1..N^k in order, as 1-based lexicographic indices."""
        size, codes = n_gens ** k, [i - 1 for i in line]
        for c in codes:
            if not 0 <= c < size:
                raise ValueError(f"one-line entry {c + 1} outside 1..{size}")
        return cls(k, n_gens, codes)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], k: int, n_gens: int,
                    budget: int = DEFAULT_BUDGET) -> "Permutation":
        """The product of disjoint cycles over 1..N^k; an entry that
        appears twice, in one cycle or in two, is refused rather than read
        as a composition.  N^k past `budget` raises BudgetExceededError
        before any code is listed."""
        size = permutation_size(k, n_gens, budget)
        codes = list(range(size))
        seen = set()
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= size:
                    raise ValueError(f"cycle entry {a} outside 1..{size}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} appears twice; "
                                     "cycles must be disjoint")
                seen.add(a)
                codes[a - 1] = b - 1
        return cls(k, n_gens, codes)

    @classmethod
    def parse(cls, text: str, k: int = 2, n_gens: int = 2,
              budget: int = DEFAULT_BUDGET) -> "Permutation":
        """Cycle notation "(1 2)(3 4)" over 1..N^k, or the shorthands
        "id", "shift" (the cycle (2 3) for N=2, k=2) and "flip"
        ((1 3)(2 4)).  N^k past `budget` raises BudgetExceededError."""
        text = text.strip()
        if text == "id":
            return cls.identity(k, n_gens, budget)
        shorthands = {"shift": [(2, 3)], "flip": [(1, 3), (2, 4)]}
        if text in shorthands:
            if (n_gens, k) != (2, 2):
                raise ParseError(f"{text!r} shorthand requires N=2, k=2", 0)
            return cls.from_cycles(shorthands[text], k, n_gens, budget)
        if not text.startswith("("):
            raise ParseError(f"expected cycle notation or shorthand, got {text!r}", 0)
        cycles: List[List[int]] = []
        one_digit = _capped_power(n_gens, k, 9) <= 9  # "(12)" reads as (1 2)
        for m in re.finditer(r"\(([^()]*)\)|(\S)", text):
            if m.group(1) is None:
                raise ParseError(f"unexpected {m.group(2)!r} in permutation", m.start())
            body = m.group(1).strip()
            if one_digit and re.fullmatch(r"\d+", body):
                entries = [int(d) for d in body]
            else:
                entries = [int(t) for t in re.split(r"[,\s]+", body) if t]
            if entries:
                cycles.append(entries)
        return cls.from_cycles(cycles, k, n_gens, budget)

    def __call__(self, word: Word) -> Word:
        if len(word) != self.k or any(not 1 <= c <= self.n_gens for c in word):
            raise ValueError(f"no word of length {self.k} over 1..{self.n_gens}: {word}")
        return unpack_word(self.codes[pack_word(word, self.n_gens)], self.k, self.n_gens)

    def inverse(self) -> "Permutation":
        inverse = [0] * len(self.codes)
        for c, image in enumerate(self.codes):
            inverse[image] = c
        return Permutation(self.k, self.n_gens, inverse)

    def affine_form(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """(A, b) with sigma(x) = A x + b over F_2, a code read as the
        vector of its k bits and A as its columns A e_i = codes[2^i] XOR b;
        None when sigma is not affine or N != 2.  Every code is checked
        against the one with its lowest set bit e cleared:
        sigma(x) = sigma(x - e) + A e."""
        if self.n_gens != 2:
            return None
        codes = self.codes
        b = codes[0]
        for x in range(3, len(codes)):
            low = x & -x
            if codes[x] != codes[x ^ low] ^ codes[low] ^ b:
                return None
        return tuple(codes[1 << i] ^ b for i in range(self.k)), b

    def one_line(self) -> Tuple[int, ...]:
        return tuple(c + 1 for c in self.codes)

    def cycle_notation(self) -> str:
        """Canonical cycle string, fixed points omitted; "id" if trivial."""
        codes, seen, parts = self.codes, set(), []
        for start, nxt in enumerate(codes):
            if start in seen or nxt == start:
                continue
            cyc = [start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = codes[nxt]
            parts.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
        return "".join(parts) or "id"


def perm_unitary(sigma: Permutation) -> AlgebraElement:
    """u_sigma = sum over length-k words J of s_{sigma(J)} s_J^*, wrapped
    as it is: `Permutation` has checked the alphabet and the bijection,
    and the terms share one coefficient 1."""
    one, ws = GaussianRational(1), list(words(sigma.n_gens, sigma.k))
    return _wrap(sigma.n_gens, {Monomial(ws[c], j): one for c, j in zip(sigma.codes, ws)})


def _mealy_automaton(sigma: Permutation) -> tuple:
    """pi's forward record: sigma as a Mealy automaton on S = N^(k-1)
    states s, the words heads[s] of length k-1 (start maps them back), as
    (k-1, S, start, nexts, letters, heads).  For the word w = a s of code
    (a-1) S + s, pi on letter a in state s moves to nexts[w] = c // N and
    emits letters[w] = c % N + 1, where c = codes[w] (int lists: a tuple
    per entry costs the garbage collector at high rank)."""
    n, codes = sigma.n_gens, sigma.codes
    heads = list(words(n, sigma.k - 1))
    return (sigma.k - 1, len(heads), {h: s for s, h in enumerate(heads)},
            [c // n for c in codes], [c % n + 1 for c in codes], heads)


class EndomorphismSpec:
    """A unitary u in P(O_N) together with its rank k; drives rho_u.  A
    spec built from u holds u.canonical(), so a u written with words longer
    than its rank still gives words the dynamics can level to that rank.  A
    permutative spec holds sigma's codes and builds u_sigma on first read."""

    __slots__ = ("n_gens", "rank", "origin", "perm", "_automaton", "_images",
                 "_steps", "_label", "_cocycles")

    def __init__(self, u: Optional[AlgebraElement], rank: Optional[int] = None,
                 origin: str = "unitary", perm: Optional[Permutation] = None,
                 check: bool = True):
        self.n_gens = perm.n_gens if u is None else u.n_gens
        self.origin, self.perm = origin, perm
        self._automaton = self._images = self._steps = self._label = None
        self._cocycles: Dict[int, AlgebraElement] = {}  # u_k, from u_0 = 1 and u_1 = u
        if u is not None:
            one = AlgebraElement.one(u.n_gens)
            if check and not (u * u.adjoint() == one and u.adjoint() * u == one):
                raise NotUnitaryError("defining element is not unitary")
            self._cocycles = {0: one, 1: u.canonical()}
        self.rank = self._infer_rank() if rank is None else rank

    @property
    def u(self) -> AlgebraElement:
        """The defining unitary; a permutative spec builds u_sigma here once."""
        if not self._cocycles:
            self._cocycles = {0: AlgebraElement.one(self.n_gens), 1: perm_unitary(self.perm)}
        return self._cocycles[1]

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
        return cls(None, rank=sigma.k, origin="permutation", perm=sigma)

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
        if self._label is None:
            self._label = self.origin if self.perm is None else self.perm.cycle_notation()
        return self._label

    # -- cocycles and application ------------------------------------------

    def cocycle(self, k: int) -> AlgebraElement:
        """u_k = u theta(u) ... theta^{k-1}(u); cached."""
        if k < 0:
            raise ValueError("cocycle index must be nonnegative")
        u, top = self.u, max(self._cocycles)
        while top < k:
            top += 1
            self._cocycles[top] = self._cocycles[top - 1] * theta_power(top - 1, u)
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

    def automaton(self) -> tuple:
        """pi's forward record, built by the first `apply`; one per spec."""
        if self._automaton is None:
            self._automaton = _mealy_automaton(self.perm)
        return self._automaton

    def steps(self) -> tuple:
        """sigma^{-1}'s step table (first, rest), first[h], rest[h] = divmod(v,
        N^(k-1)) for v = sigma^{-1}(h); built by the first `CantorDynamics`."""
        if self._steps is None:
            codes, size = self.perm.codes, self.n_gens ** (self.perm.k - 1)
            self._steps = first, rest = [0] * len(codes), [0] * len(codes)
            for v, h in enumerate(codes):  # v = sigma^{-1}(h)
                first[h], rest[h] = v // size, v % size
        return self._steps

    def _apply_words(self, a: AlgebraElement) -> AlgebraElement:
        """rho_sigma(s_I s_J^*) = sum over |V| = k-1 of s_{pi(IV)} s_{pi(JV)}^*,
        where u_m sends s_W to s_{pi(W)} (`_rewrite`) for |W| = m+k-1.  Distinct
        (I, J, V) give distinct output monomials (pi is a bijection on each
        length), so every coefficient carries over unchanged.  The images
        (pi(WV) for V in heads) of each word W are rewritten once per spec and
        kept in `_images`, which holds the distinct words this spec has
        rewritten and nothing else."""
        tails = self.automaton()[5]  # heads: words(N, k-1)
        images = self._images
        if images is None:
            images = self._images = {}
        out: Dict[Monomial, GaussianRational] = {}
        for (left, right), coeff in a._terms.items():
            if not left and not right:
                out[Monomial((), ())] = coeff  # u_0 = 1, so rho(1) = 1
                continue
            lefts = images.get(left)
            if lefts is None:
                lefts = images[left] = tuple(self._rewrite(left + v) for v in tails)
            rights = images.get(right)
            if rights is None:
                rights = images[right] = tuple(self._rewrite(right + v) for v in tails)
            for l, r in zip(lefts, rights):
                out[Monomial(l, r)] = coeff
        return _wrap(self.n_gens, out)

    def _rewrite(self, word: Word) -> Word:
        """pi(W) for |W| = m+k-1: sigma applied to the k-letter window at
        positions m-1, m-2, ..., 0, right to left, as in
        u_m = u theta(u) ... theta^{m-1}(u): the automaton, started in the
        state of W's last k-1 letters, reads the others right to left."""
        k1, size, start, nexts, letters, heads = self._automaton or self.automaton()
        m = len(word) - k1
        state = start[word[m:]]
        out = []
        for a in reversed(word[:m]):
            out.append(letters[w := (a - 1) * size + state])
            state = nexts[w]
        out.reverse()
        return heads[state] + tuple(out)

    def apply_power(self, m: int, a: AlgebraElement) -> AlgebraElement:
        """rho^m(a); rho has no inverse on O_N, so m must be nonnegative."""
        if m < 0:
            raise ValueError("endomorphism power must be nonnegative")
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
        report: Dict[str, bool] = {
            f"adj(rho(s{i+1}))*rho(s{j+1})": imgs[i].adjoint() * imgs[j]
            == (one if i == j else AlgebraElement.zero(n))
            for i in range(n) for j in range(n)}
        total = sum((img * img.adjoint() for img in imgs), AlgebraElement.zero(n))
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
