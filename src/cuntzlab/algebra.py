"""Exact arithmetic and canonical forms for the polynomial part of O_N.

Elements are finite linear combinations of monomials s_I s_J^* over the
alphabet {1..N}, with Gaussian-rational coefficients.  Multiplication uses
the isometry relations (s_i^* s_j = delta_ij); equality is decided by
inserting the range-projection identity sum_i s_i s_i^* = 1 until both
sides live at a common bidegree per gauge degree, then comparing
coefficient dictionaries.  All values are immutable.

Degree-0 elements at level m are N^m x N^m matrices (F_N^m = M_{N^m}).
Products and equality of pure degree-0 elements go to an exact dense
kernel when its work, priced at a fixed number of multiply-adds per
sparse term pair, is no larger than the sparse work it replaces;
everything else takes the sparse monomial path.  An element keeps the
exact matrix the kernel made of it, and a lower-level matrix serves a
higher level by a Kronecker product with the identity.  Elements the
kernel made (products, sums, adjoints) build their terms, at the level
they were made at, only when they are read; until then the sum of two
of them, and the adjoint and the trace state of one, are read off the
matrices.  The kernel functions import numpy when routing first reaches
them, so the sparse path runs without it.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple

from .errors import AlphabetMismatchError, LevelError
from .scalars import GaussianRational, _reduce

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

    # _matrix: memo (m, real, imaginary, denominator) of the kernel's exact
    # matrix at level m; _shape_set: memo of _shapes.  Constructors leave
    # both unset (read them with getattr(..., None)), so building an
    # element costs no more for them.
    __slots__ = ("n_gens", "_terms", "_matrix", "_shape_set")

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
        if _unbuilt(self) and _unbuilt(other):
            return _dense_add(self, other)
        if _built_terms(other) == {}:
            return self
        if _built_terms(self) == {}:
            return other
        out = dict(self._terms)
        for mono, c in other._terms.items():
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if s:
                out[mono] = s
            elif acc is not None:
                del out[mono]
        return _wrap(self.n_gens, out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return _wrap(self.n_gens, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        return self + (-other if isinstance(other, AlgebraElement)
                       else -GaussianRational.of(other))

    def __rsub__(self, other) -> "AlgebraElement":
        return (-self) + other

    def scaled(self, coeff) -> "AlgebraElement":
        c = GaussianRational.of(coeff)
        if not c:
            return AlgebraElement.zero(self.n_gens)
        return _wrap(self.n_gens, {m: v * c for m, v in self._terms.items()})

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
        if _unbuilt(self):
            return _dense_adjoint(self)
        return _wrap(
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
            t = targets.get(mono.degree, len(mono.right))
            gap = t - len(mono.right)
            if gap < 0:
                raise LevelError(
                    f"target right-length {t} below current {len(mono.right)} "
                    f"in degree {mono.degree}"
                )
            for w in words(self.n_gens, gap):
                key = Monomial(mono.left + w, mono.right + w)
                acc = out.get(key)
                s = c if acc is None else acc + c
                if s:
                    out[key] = s
                elif acc is not None:
                    del out[key]
        return _wrap(self.n_gens, out)

    def _common_targets(self, other: "AlgebraElement") -> Dict[int, int]:
        targets: Dict[int, int] = {}
        for p, l in _shapes(self) | _shapes(other):
            if targets.get(p - l, -1) < l:
                targets[p - l] = l
        return targets

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = AlgebraElement.one(self.n_gens).scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_alphabet(other)
        terms = _built_terms(self)
        if terms is not None and terms == _built_terms(other):
            return True
        targets = self._common_targets(other)
        m = targets.get(0, 0)
        if len(targets) == 1 and m and _dense_fits(
                self.n_gens ** m, _size(self), _size(other), product=False):
            return _dense_eq(self, other, m)
        return self.level(targets)._terms == other.level(targets)._terms

    __hash__ = None  # semantic equality is not hash-compatible

    # -- canonical display form --------------------------------------------

    def canonical(self) -> "AlgebraElement":
        """Level per gauge degree, then contract each complete sibling group
        sum_i c s_{Ii} s_{Ji}^* with equal coefficients back to c s_I s_J^*.
        Leveled, the terms of one degree share one right length, so a term
        lies in at most one group and a contracted term never meets a term
        already there; each round rescans only the terms it merged.
        Idempotent and equality-preserving; used for display."""
        targets = {d: self.max_right_length(d) for d in self.degrees()}
        cur = dict(self.level(targets)._terms)
        n = self.n_gens
        merged = cur
        while merged:
            groups: Dict[Tuple[Word, Word], list] = {}
            for m, c in merged.items():
                if m.left and m.right and m.left[-1] == m.right[-1]:
                    groups.setdefault((m.left[:-1], m.right[:-1]), []).append(c)
            merged = {}
            for (left, right), sibs in groups.items():
                if len(sibs) == n and all(c == sibs[0] for c in sibs[1:]):
                    for i in range(1, n + 1):
                        del cur[Monomial(left + (i,), right + (i,))]
                    merged[Monomial(left, right)] = sibs[0]
            cur.update(merged)
        return _wrap(self.n_gens, cur)

    # -- gauge structure ---------------------------------------------------

    def gauge_components(self) -> Dict[int, "AlgebraElement"]:
        """Split by gauge degree d = |I| - |J|.  Component 0 is the
        conditional expectation onto the gauge-invariant subalgebra."""
        parts: Dict[int, Dict[Monomial, GaussianRational]] = {}
        for m, c in self._terms.items():
            parts.setdefault(m.degree, {})[m] = c
        return {d: _wrap(self.n_gens, t) for d, t in sorted(parts.items())}

    def expectation(self) -> "AlgebraElement":
        """Degree-0 component (kills all unbalanced monomials)."""
        return _wrap(
            self.n_gens, {m: c for m, c in self._terms.items() if m.degree == 0}
        )

    def trace_state(self) -> GaussianRational:
        """The canonical trace state applied after the expectation:
        sum over diagonal terms of c_(I,I) * N^{-|I|}."""
        if _unbuilt(self):
            return _dense_trace(self)
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
        """Whether the element lies in F_{p,l}, the span of monomials with
        |I| = p, |J| = l.  Leveled to one right length big >= l, an element
        of degree p - l has a unique term dict (the core is M_{N^infinity}).
        It lies in F_{p,l} iff every term is s_{IW} s_{JW}^* with |I| = p,
        |J| = l, the coefficient depends only on (I, J), and every (I, J)
        comes with all N^(big-l) tails W."""
        if self.is_zero():
            return True
        d = p - l
        if any(m.degree != d for m in self._terms):
            return False
        big = max(l, self.max_right_length(d))
        lev = self.level({d: big})._terms
        coeffs: Dict[Tuple[Word, Word], GaussianRational] = {}
        for m, c in lev.items():
            if m.left[p:] != m.right[l:]:
                return False
            if coeffs.setdefault((m.left[:p], m.right[:l]), c) != c:
                return False
        return len(lev) == len(coeffs) * self.n_gens ** (big - l)

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
    m = _dense_mul_level(a, b)
    if m is not None:
        return _dense_mul(a, b, m)
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
    return _wrap(a.n_gens, out)


def _wrap(n_gens: int, terms: Dict[Monomial, GaussianRational]) -> AlgebraElement:
    """An element over `terms` built from validated operands: Monomial keys
    with letters in 1..n_gens and nonzero GaussianRational values, taken
    as they are.  Outside input goes through `AlgebraElement(...)`."""
    elem = object.__new__(AlgebraElement)
    elem.n_gens = n_gens
    elem._terms = terms
    return elem


class _KernelElement(AlgebraElement):
    """An element made by the dense kernel (a product, sum or adjoint): it
    holds its exact matrix and builds its terms the first time they are
    read.  (A hook for a missing attribute on AlgebraElement itself would
    slow every attribute read.)"""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only while the _terms slot is unassigned
        if name != "_terms":
            raise AttributeError(f"'AlgebraElement' object has no attribute {name!r}")
        self._terms = _matrix_terms(self.n_gens, *_held(self))
        return self._terms


_TERMS_SLOT = AlgebraElement._terms  # reads the slot without building terms


def _built_terms(elem: AlgebraElement) -> Optional[Dict[Monomial, GaussianRational]]:
    """The term dict, or None for a kernel element that has not built it."""
    try:
        return _TERMS_SLOT.__get__(elem)
    except AttributeError:
        return None


def _size(elem: AlgebraElement) -> int:
    """The number of terms, which for a kernel element is the number of
    nonzero entries of its matrix; read without building terms."""
    terms = _built_terms(elem)
    if terms is not None:
        return len(terms)
    import numpy as np

    _, re, im, _ = _held(elem)
    return int(np.count_nonzero((re != 0) | (im != 0)))


def _shapes(elem: AlgebraElement) -> set:
    """The distinct (|I|, |J|) over the terms; memoized."""
    shapes = getattr(elem, "_shape_set", None)
    if shapes is None:
        shapes = elem._shape_set = {(len(left), len(right)) for left, right in elem._terms}
    return shapes


# -- exact dense kernel for degree-0 elements -------------------------------
#
# At level m, s_I s_J^* with |I| = |J| = r <= m is the block E_(I,J) (x) 1 of
# the N^m x N^m matrix: its coefficient sits on the diagonal of the
# N^(m-r)-square block at rows pack(I) N^(m-r) + t, columns
# pack(J) N^(m-r) + t.  A matrix is a pair of integer numerator matrices
# (real, imaginary) over one common denominator, int64 when a bound on its
# entries fits and Python ints otherwise.  Each element keeps the matrix
# at the highest level asked of it, read-only, so an operand used twice is
# densified once: a matrix at level m0 gives the one at m > m0 as
# kron(M, I_(N^(m-m0))), since one leveling step is x -> x (x) I_N, and the
# one at m < m0 as its entries at the rows and columns N^(m0-m) divides.
# A product, a sum of two kernel elements and the adjoint of a kernel
# element are kernel elements: each keeps the matrix it computed, in
# lowest terms, and builds its terms from it only when they are read, at
# the level it was made at; the trace state of one with no terms is its
# normalized matrix trace.
#
# Routing compares work, so it needs no tuning.  With both operands pure
# degree 0 at level m, a product goes dense when its N^(3m) multiply-adds
# (MACs) are at most _DENSE_MACS_PER_PAIR per term pair |a| |b| the sparse
# rule may visit, and a comparison when the N^(2m) entries are at most
# _DENSE_ENTRIES_PER_TERM per operand term, which also bounds what any
# dense call allocates.  Both also need enough sparse work to pay for a
# kernel call, whose numpy overhead costs about as much as
# _DENSE_CALL_COST sparse term operations.
#
# _DENSE_MACS_PER_PAIR = 4 is the smallest round ratio that puts the
# level-3 product of the E/F chain P_q = q_1 theta(q_2)... on the kernel
# (2^9 MACs against 12 x 12 pairs needs 3.6).  Measured on 2 cores with
# Python 3.11 and numpy 2.4: an int64 MAC costs 1.0-4.8 ns (64 x 64 down
# to 8 x 8 matmuls), an object-dtype MAC 35-45 ns and 115-132 ns for
# 2^70-sized numerators, a sparse term pair 0.1-1.2 us.  At the bound
# (levels 3-5, N = 2), a complex int64 kernel product from held matrices
# took 0.2-0.9 times the time of the sparse product it replaces, but with
# 2^70-sized numerators the object-dtype one took 1.6-3.8 times; no
# benchmark workload forms object-dtype products in that window.

_INT64_MAX = 2 ** 63 - 1
_DENSE_ENTRIES_PER_TERM = 4
_DENSE_CALL_COST = 128
_DENSE_MACS_PER_PAIR = 4


def _dense_fits(dim: int, size_a: int, size_b: int, product: bool) -> bool:
    if dim * dim > _DENSE_ENTRIES_PER_TERM * (size_a + size_b):
        return False
    if product:
        pairs = size_a * size_b
        return dim ** 3 <= _DENSE_MACS_PER_PAIR * pairs and _DENSE_CALL_COST <= pairs
    return _DENSE_CALL_COST <= size_a + size_b


def _dense_mul_level(a: AlgebraElement, b: AlgebraElement) -> Optional[int]:
    """The level at which the kernel multiplies a and b, or None for the
    sparse rule."""
    n, size_a, size_b = a.n_gens, _size(a), _size(b)
    if not _dense_fits(n, size_a, size_b, product=True):
        return None  # not even at level 1
    shapes = _shapes(a) | _shapes(b)
    if any(p != l for p, l in shapes):
        return None
    m = max(l for _, l in shapes)
    return m if m and _dense_fits(n ** m, size_a, size_b, product=True) else None


# the (a + b i)/d triple of a GaussianRational
_get_a, _get_b, _get_d = (operator.attrgetter(f"_{x}") for x in "abd")


def _dense(elem: AlgebraElement, m: int, den: int):
    """(real, imaginary) numerator matrices of a pure degree-0 element
    leveled to m, over `den`, a multiple of every coefficient's
    denominator."""
    import numpy as np

    n, dim, size = elem.n_gens, elem.n_gens ** m, len(elem._terms)
    if not size:
        return np.zeros((dim, dim), np.int64), np.zeros((dim, dim), np.int64)
    lefts, rights = zip(*elem._terms)
    coeffs = elem._terms.values()
    res, ims = list(map(_get_a, coeffs)), list(map(_get_b, coeffs))
    dens = list(map(_get_d, coeffs))
    if dens.count(den) != size:
        scale = list(map(operator.floordiv, itertools.repeat(den, size), dens))
        res = list(map(operator.mul, res, scale))
        ims = list(map(operator.mul, ims, scale))
    # an entry sums the numerators of distinct terms
    bound = sum(map(abs, res)) + sum(map(abs, ims))
    dtype = np.int64 if bound <= _INT64_MAX else object
    codes: Dict[Word, int] = {}  # pack_word of every word up to length m
    for r in range(m + 1):
        codes.update(zip(words(n, r), range(n ** r)))
    block = n ** (m - np.fromiter(map(len, lefts), np.int64, size))
    rows = np.fromiter(map(codes.__getitem__, lefts), np.int64, size) * block
    cols = np.fromiter(map(codes.__getitem__, rights), np.int64, size) * block
    # the diagonal of each term's block: (rows + t, cols + t), t < block
    t = np.arange(block.sum()) - np.repeat(np.cumsum(block) - block, block)
    flat = np.repeat(rows * dim + cols, block) + t * (dim + 1)
    out = []
    for nums in (res, ims):
        mat = np.zeros(dim * dim, dtype=dtype)
        # blocks of terms of different lengths may overlap
        np.add.at(mat, flat, np.repeat(np.array(nums, dtype=dtype), block))
        out.append(mat.reshape(dim, dim))
    return out[0], out[1]


def _degree0_matrix(elem: AlgebraElement, m: int):
    """(real, imaginary, denominator) of a pure degree-0 element at level m
    >= its longest word, exact; the denominator is a multiple of the
    coefficients' denominators (their lcm when made from the terms).  The
    element keeps the matrix at the highest level asked of it, and reads a
    lower level off it as a strided view."""
    memo = getattr(elem, "_matrix", None)
    if memo is not None and memo[0] >= m:
        m0, re, im, den = memo
        if m0 == m:
            return re, im, den
        # kron(M, I_k) has M's entries at the rows and columns that k divides
        k = elem.n_gens ** (m0 - m)
        return re[::k, ::k], im[::k, ::k], den
    if memo is not None:
        m0, re, im, den = memo
        k = elem.n_gens ** (m - m0)
        re, im = _kron_identity(re, k), _kron_identity(im, k)
    else:
        den = lcm(*{c._d for c in elem._terms.values()})
        re, im = _dense(elem, m, den)
    re.flags.writeable = im.flags.writeable = False
    elem._matrix = (m, re, im, den)
    return re, im, den


def _kron_identity(mat, k: int):
    """kron(mat, I_k), in mat's dtype; as np.kron, without its overhead."""
    import numpy as np

    d = len(mat)
    out = np.zeros((d, k, d, k), mat.dtype)
    t = np.arange(k)
    out[:, t, :, t] = mat  # entry (i k + t, j k + t) is mat[i, j]
    return out.reshape(d * k, d * k)


def _scaled(re, im, factor: int):
    """Both numerator matrices times `factor`, exact."""
    if factor == 1:
        return re, im
    if max(_max_abs(re, im), 1) * factor > _INT64_MAX:
        re, im = re.astype(object), im.astype(object)
    return re * factor, im * factor


def _dense_eq(a: AlgebraElement, b: AlgebraElement, m: int) -> bool:
    import numpy as np

    a_re, a_im, den_a = _degree0_matrix(a, m)
    b_re, b_im, den_b = _degree0_matrix(b, m)
    # x / den_a = y / den_b  iff  x (den_b / g) = y (den_a / g)
    g = gcd(den_a, den_b)
    a_re, a_im = _scaled(a_re, a_im, den_b // g)
    b_re, b_im = _scaled(b_re, b_im, den_a // g)
    return bool(np.array_equal(a_re, b_re) and np.array_equal(a_im, b_im))


def _max_abs(*mats) -> int:
    return max(int(abs(x).max()) for x in mats)


def _dense_mul(a: AlgebraElement, b: AlgebraElement, m: int) -> AlgebraElement:
    import numpy as np

    n = a.n_gens
    a_re, a_im, den_a = _degree0_matrix(a, m)
    b_re, b_im, den_b = _degree0_matrix(b, m)
    # each entry of the product is a sum of 2 N^m products of entries
    if _max_abs(a_re, a_im) * _max_abs(b_re, b_im) * 2 * n ** m > _INT64_MAX:
        a_re, a_im, b_re, b_im = (x.astype(object) for x in (a_re, a_im, b_re, b_im))
    # an imaginary part that is zero drops the matmuls it takes part in
    a_cx, b_cx = a_im.any(), b_im.any()
    re = a_re @ b_re
    im = np.zeros_like(re)  # in the dtype of the products
    if a_cx and b_cx:
        re -= a_im @ b_im
    if b_cx:
        im += a_re @ b_im
    if a_cx:
        im += a_im @ b_re
    return _lowest_terms(n, m, re, im, den_a * den_b)


def _dense_add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """a + b for two kernel elements without terms, at the higher of their
    levels."""
    m = max(l for _, l in _shapes(a) | _shapes(b))
    a_re, a_im, den_a = _degree0_matrix(a, m)
    b_re, b_im, den_b = _degree0_matrix(b, m)
    # x / den_a + y / den_b = (x (den_b / g) + y (den_a / g)) / lcm
    g = gcd(den_a, den_b)
    a_re, a_im = _scaled(a_re, a_im, den_b // g)
    b_re, b_im = _scaled(b_re, b_im, den_a // g)
    if _max_abs(a_re, a_im) + _max_abs(b_re, b_im) > _INT64_MAX:
        a_re, a_im, b_re, b_im = (x.astype(object) for x in (a_re, a_im, b_re, b_im))
    return _lowest_terms(a.n_gens, m, a_re + b_re, a_im + b_im, den_a // g * den_b)


def _dense_adjoint(elem: AlgebraElement) -> AlgebraElement:
    """The adjoint of an element with no terms: the conjugate transpose."""
    m, re, im, den = _held(elem)
    im = -im.T
    im.flags.writeable = False
    return _held_element(elem.n_gens, m, re.T, im, den)


def _dense_trace(elem: AlgebraElement) -> GaussianRational:
    """The trace state of an element with no terms: tr / (den N^m)."""
    m, re, im, den = _held(elem)
    return _reduce(sum(re.diagonal().tolist()), sum(im.diagonal().tolist()),
                   den * elem.n_gens ** m)


def _lowest_terms(n: int, m: int, re, im, den: int) -> AlgebraElement:
    """The element of the level-m matrix (re + i im) / den, with the
    denominator reduced to the lcm of the entries' reduced denominators."""
    import numpy as np

    if not (re.any() or im.any()):
        return _wrap(n, {})
    g = gcd(den, int(np.gcd.reduce(re.ravel())), int(np.gcd.reduce(im.ravel())))
    if g != 1:
        re, im = re // g, im // g
    re.flags.writeable = im.flags.writeable = False
    return _held_element(n, m, re, im, den // g)


def _held_element(n: int, m: int, re, im, den: int) -> AlgebraElement:
    """An element that holds the read-only level-m matrix (re + i im) / den,
    in lowest terms, and builds its terms when they are read."""
    out = object.__new__(_KernelElement)
    out.n_gens = n
    out._matrix = (m, re, im, den)
    out._shape_set = {(m, m)}
    return out


def _unbuilt(elem: AlgebraElement) -> bool:
    """Whether elem is a kernel element that has not built its terms; its
    sums with another such element, its adjoint and its trace state read
    its matrix in place of terms."""
    return _built_terms(elem) is None


def _held(elem: AlgebraElement):
    """(m, real, imaginary, denominator) of a kernel element at the level m
    of the terms it builds, which the level of its memo may exceed."""
    (m, _), = elem._shape_set
    return (m, *_degree0_matrix(elem, m))


def _matrix_terms(n: int, m: int, re, im, den: int) -> Dict[Monomial, GaussianRational]:
    """The term dict of a level-m matrix: s_I s_J^* with |I| = |J| = m for
    each nonzero entry.  Equal entries share one scalar."""
    import numpy as np

    flat = np.flatnonzero((re != 0) | (im != 0))
    ws = list(words(n, m))
    dim = len(ws)
    shared: Dict[Tuple[int, int], GaussianRational] = {}
    out: Dict[Monomial, GaussianRational] = {}
    for idx, x, y in zip(flat.tolist(), re.ravel()[flat].tolist(),
                         im.ravel()[flat].tolist()):
        c = shared.get((x, y))
        if c is None:
            c = shared[x, y] = _reduce(x, y, den)
        row, col = divmod(idx, dim)
        out[Monomial(ws[row], ws[col])] = c
    return out
