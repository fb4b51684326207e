"""Exact arithmetic and canonical forms for the polynomial part of O_N.

Elements are finite linear combinations of monomials s_I s_J^* over the
alphabet {1..N}, with Gaussian-rational coefficients.  Multiplication uses
the isometry relations (s_i^* s_j = delta_ij); equality is decided by
inserting the range-projection identity sum_i s_i s_i^* = 1 until both
sides live at a common bidegree per gauge degree, then comparing
coefficient dictionaries.  All values are immutable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Tuple

from .errors import AlphabetMismatchError, LevelError
from .scalars import GaussianRational

Word = Tuple[int, ...]


def words(n_gens: int, length: int) -> Iterator[Word]:
    """All words of the given length over {1..n_gens}, lexicographic."""
    return itertools.product(range(1, n_gens + 1), repeat=length)


def pack_word(word: Word, n_gens: int) -> int:
    """Base-N code of a word, first letter most significant, digits 0-based;
    the position of the word in `words(n_gens, len(word))`."""
    code = 0
    for letter in word:
        code = code * n_gens + (letter - 1)
    return code


def unpack_word(code: int, length: int, n_gens: int) -> Word:
    letters = []
    for _ in range(length):
        letters.append(code % n_gens + 1)
        code //= n_gens
    return tuple(reversed(letters))


class Monomial(NamedTuple):
    """s_I s_J^* with I = left, J = right."""

    left: Word
    right: Word

    @property
    def degree(self) -> int:
        return len(self.left) - len(self.right)


def term_sort_key(m: Monomial):
    # deterministic iteration: gauge degree, |J|, lex J, lex I
    return (m.degree, len(m.right), m.right, m.left)


def _check_word(word: Word, n_gens: int) -> Word:
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n_gens:
            raise ValueError(f"letter {letter} outside alphabet 1..{n_gens}")
    return word


class AlgebraElement:
    """Finite linear combination of monomials s_I s_J^* (no zero terms stored)."""

    __slots__ = ("n_gens", "_terms")

    def __init__(self, n_gens: int, terms: Mapping[Monomial, object] | None = None):
        if n_gens < 2:
            raise ValueError("alphabet size must be at least 2")
        self.n_gens = n_gens
        clean: Dict[Monomial, GaussianRational] = {}
        for mono, coeff in (terms or {}).items():
            c = GaussianRational.of(coeff)
            if not c:
                continue
            mono = Monomial(_check_word(mono[0], n_gens), _check_word(mono[1], n_gens))
            clean[mono] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_gens: int) -> "AlgebraElement":
        return cls(n_gens, {})

    @classmethod
    def one(cls, n_gens: int) -> "AlgebraElement":
        return cls(n_gens, {Monomial((), ()): 1})

    @classmethod
    def generator(cls, n_gens: int, i: int) -> "AlgebraElement":
        """s_i."""
        return cls(n_gens, {Monomial((i,), ()): 1})

    @classmethod
    def isometry(cls, n_gens: int, word: Iterable[int]) -> "AlgebraElement":
        """s_I for a word I."""
        return cls(n_gens, {Monomial(tuple(word), ()): 1})

    @classmethod
    def monomial(cls, n_gens: int, left: Iterable[int], right: Iterable[int], coeff=1) -> "AlgebraElement":
        return cls(n_gens, {Monomial(tuple(left), tuple(right)): coeff})

    @classmethod
    def diagonal(cls, n_gens: int, word: Iterable[int]) -> "AlgebraElement":
        """The cylinder projection s_I s_I^*."""
        w = tuple(word)
        return cls(n_gens, {Monomial(w, w): 1})

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, GaussianRational]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def degrees(self):
        return {m.degree for m in self._terms}

    def _require_same_alphabet(self, other: "AlgebraElement") -> None:
        if self.n_gens != other.n_gens:
            raise AlphabetMismatchError(
                f"alphabet sizes differ: {self.n_gens} vs {other.n_gens}"
            )

    # -- linear operations -------------------------------------------------

    def __add__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = AlgebraElement.one(self.n_gens).scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_alphabet(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if s:
                out[mono] = s
            elif acc is not None:
                del out[mono]
        return AlgebraElement(self.n_gens, out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.n_gens, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        return self + (-other if isinstance(other, AlgebraElement)
                       else -GaussianRational.of(other))

    def __rsub__(self, other) -> "AlgebraElement":
        return (-self) + other

    def scaled(self, coeff) -> "AlgebraElement":
        c = GaussianRational.of(coeff)
        if not c:
            return AlgebraElement.zero(self.n_gens)
        return AlgebraElement(self.n_gens, {m: v * c for m, v in self._terms.items()})

    # -- multiplication ----------------------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return mul(self, other)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scaled(other)
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(
            self.n_gens,
            {Monomial(m.right, m.left): c.conjugate() for m, c in self._terms.items()},
        )

    # -- leveling and equality ---------------------------------------------

    def max_right_length(self, degree: int) -> int:
        return max((len(m.right) for m in self._terms if m.degree == degree), default=0)

    def level(self, targets: Mapping[int, int]) -> "AlgebraElement":
        """Insert sum_i s_i s_i^* = 1 on the right until every term of gauge
        degree d has right-length targets[d].  Degrees absent from targets
        are left untouched."""
        out: Dict[Monomial, GaussianRational] = {}
        for mono, c in self._terms.items():
            d = mono.degree
            if d in targets:
                t = targets[d]
                gap = t - len(mono.right)
                if gap < 0:
                    raise LevelError(
                        f"target right-length {t} below current {len(mono.right)} in degree {d}"
                    )
                for w in words(self.n_gens, gap):
                    key = Monomial(mono.left + w, mono.right + w)
                    acc = out.get(key)
                    s = c if acc is None else acc + c
                    if s:
                        out[key] = s
                    elif acc is not None:
                        del out[key]
            else:
                acc = out.get(mono)
                s = c if acc is None else acc + c
                if s:
                    out[mono] = s
                elif acc is not None:
                    del out[mono]
        return AlgebraElement(self.n_gens, out)

    def _common_targets(self, other: "AlgebraElement") -> Dict[int, int]:
        targets: Dict[int, int] = {}
        for elem in (self, other):
            for m in elem._terms:
                d = m.degree
                targets[d] = max(targets.get(d, 0), len(m.right))
        return targets

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = AlgebraElement.one(self.n_gens).scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_alphabet(other)
        targets = self._common_targets(other)
        return self.level(targets)._terms == other.level(targets)._terms

    __hash__ = None  # semantic equality is not hash-compatible

    # -- canonical display form --------------------------------------------

    def canonical(self) -> "AlgebraElement":
        """Level per gauge degree, then greedily contract sibling groups
        sum_i c s_{Ii} s_{Ji}^* back to c s_I s_J^*.  Idempotent and
        equality-preserving; used for display and membership tests."""
        targets = {d: self.max_right_length(d) for d in self.degrees()}
        cur = dict(self.level(targets)._terms)
        n = self.n_gens
        changed = True
        while changed:
            changed = False
            groups: Dict[Tuple[Word, Word], Dict[int, GaussianRational]] = {}
            for m, c in cur.items():
                if m.left and m.right and m.left[-1] == m.right[-1]:
                    groups.setdefault((m.left[:-1], m.right[:-1]), {})[m.left[-1]] = c
            order = sorted(
                groups.items(),
                key=lambda kv: (len(kv[0][0]) - len(kv[0][1]), kv[0][1], kv[0][0]),
            )
            for (left, right), sibs in order:
                if len(sibs) != n:
                    continue
                coeffs = list(sibs.values())
                if any(c != coeffs[0] for c in coeffs[1:]):
                    continue
                # re-check membership: an earlier contraction may have consumed terms
                keys = [Monomial(left + (i,), right + (i,)) for i in range(1, n + 1)]
                if not all(cur.get(k) == coeffs[0] for k in keys):
                    continue
                for k in keys:
                    del cur[k]
                merged = Monomial(left, right)
                acc = cur.get(merged)
                s = coeffs[0] if acc is None else acc + coeffs[0]
                if s:
                    cur[merged] = s
                elif acc is not None:
                    del cur[merged]
                changed = True
        return AlgebraElement(self.n_gens, cur)

    # -- gauge structure ---------------------------------------------------

    def gauge_components(self) -> Dict[int, "AlgebraElement"]:
        """Split by gauge degree d = |I| - |J|.  Component 0 is the
        conditional expectation onto the gauge-invariant subalgebra."""
        parts: Dict[int, Dict[Monomial, GaussianRational]] = {}
        for m, c in self._terms.items():
            parts.setdefault(m.degree, {})[m] = c
        return {d: AlgebraElement(self.n_gens, t) for d, t in sorted(parts.items())}

    def expectation(self) -> "AlgebraElement":
        """Degree-0 component (kills all unbalanced monomials)."""
        return AlgebraElement(
            self.n_gens, {m: c for m, c in self._terms.items() if m.degree == 0}
        )

    def trace_state(self) -> GaussianRational:
        """The canonical trace state applied after the expectation:
        sum over diagonal terms of c_(I,I) * N^{-|I|}."""
        total = GaussianRational()
        for m, c in self._terms.items():
            if m.left == m.right:
                total = total + c * Fraction(1, self.n_gens ** len(m.left))
        return total

    # -- membership tests --------------------------------------------------

    def in_A(self, p: int, l: int) -> bool:
        """Single monomial with |I| = p, |J| = l."""
        if len(self._terms) != 1:
            return False
        (m,) = self._terms
        return len(m.left) == p and len(m.right) == l

    def in_F(self, p: int, l: int) -> bool:
        """Whether the element lies in the span of monomials with |I| = p,
        |J| = l (decided exactly via leveling and reconstruction)."""
        if self.is_zero():
            return True
        d = p - l
        if any(m.degree != d for m in self._terms):
            return False
        big = max(l, self.max_right_length(d))
        lev = self.level({d: big})
        pad = (1,) * (big - l)
        cand: Dict[Monomial, GaussianRational] = {}
        for m, c in lev._terms.items():
            if m.right[l:] == pad and m.left[p:] == pad:
                cand[Monomial(m.left[:p], m.right[:l])] = c
        return AlgebraElement(self.n_gens, cand) == self

    def is_diagonal_01(self) -> bool:
        """All terms are s_w s_w^* with coefficient exactly 1."""
        one = GaussianRational.of(1)
        return all(m.left == m.right and c == one for m, c in self._terms.items())

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        from .parsing import MAX_TEXT_GENS, format_element

        # past the text grammar's alphabet, show the raw terms instead
        if self.n_gens > MAX_TEXT_GENS:
            return str(self.sorted_terms())
        return format_element(self)

    def __repr__(self) -> str:
        return f"AlgebraElement(N={self.n_gens}, {self})"


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product via the monomial rule
    (s_I s_J^*)(s_K s_L^*) = s_{IK'} s_L^*  if K = J K',
                           = s_I s_{LJ'}^*  if J = K J',
                           = 0 otherwise."""
    a._require_same_alphabet(b)
    out: Dict[Monomial, GaussianRational] = {}

    by_left: Dict[Word, list] = {}
    for m, c in b._terms.items():
        by_left.setdefault(m.left, []).append((m, c))
    # lazy index of b-terms by truncated left word, per truncation length
    trunc_cache: Dict[int, Dict[Word, list]] = {}

    def _accumulate(mono: Monomial, c: GaussianRational) -> None:
        acc = out.get(mono)
        s = c if acc is None else acc + c
        if s:
            out[mono] = s
        elif acc is not None:
            del out[mono]

    for ma, ca in a._terms.items():
        j = ma.right
        # case |K| <= |J|: K is a prefix of J, result s_I s_{L J'}^*
        for t in range(len(j) + 1):
            for mb, cb in by_left.get(j[:t], ()):
                _accumulate(Monomial(ma.left, mb.right + j[t:]), ca * cb)
        # case |K| > |J|: K = J K', result s_{I K'} s_L^*
        idx = trunc_cache.get(len(j))
        if idx is None:
            idx = {}
            for mb, cb in b._terms.items():
                if len(mb.left) > len(j):
                    idx.setdefault(mb.left[: len(j)], []).append((mb, cb))
            trunc_cache[len(j)] = idx
        for mb, cb in idx.get(j, ()):
            _accumulate(Monomial(ma.left + mb.left[len(j):], mb.right), ca * cb)
    return AlgebraElement(a.n_gens, out)
