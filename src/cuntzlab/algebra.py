"""Exact arithmetic and canonical forms for the polynomial part of O_N.

Elements are finite linear combinations of monomials s_I s_J^* over the
alphabet {1..N}, with Gaussian-rational coefficients.  Multiplication uses
the isometry relations (s_i^* s_j = delta_ij); equality is decided by
inserting the range-projection identity sum_i s_i s_i^* = 1 until both
sides live at a common bidegree per gauge degree, then comparing
coefficient dictionaries.  All values are immutable.

Degree-0 elements at level m are N^m x N^m matrices (F_N^m = M_{N^m}).
An exact dense kernel handles the real ones through held matrices: `_hold`
hands a real pure degree-0 element to it, and the kernel's own results
(products, sums, adjoints, theta images) hold their matrices too.  A
product or comparison with an operand that holds a matrix and no terms
goes to the kernel within a storage bound when both operands are real;
every other pair, and so every complex operand, takes the sparse monomial
path, as does a product or sum whose exact result would leave the
kernel's one form.  That form is an int64 numerator matrix over a
denominator in lowest terms, so equal values have equal matrices, and
products multiply in float64 while that is exact.  An element keeps the
first matrix the kernel makes of it and never replaces it: a higher level
is a Kronecker product of that matrix with the identity, made for the call
that asks for it.  Kernel elements build their terms, at the level they
were made at, only when they are read; until then the sum of two of
them, and the adjoint, the trace state and the theta image
(`endomorphism.theta`) of one, are read off the matrices.  The kernel
functions import numpy when a held matrix first reaches them, so the
sparse path runs without it.
"""

from __future__ import annotations

import itertools
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


def _term_order(item):
    # deterministic iteration: gauge degree, |J|, lex J, lex I
    (left, right), _ = item
    return (len(left) - len(right), len(right), right, left)


def _check_word(word: Word, n_gens: int) -> Word:
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n_gens:
            raise ValueError(f"letter {letter} outside alphabet 1..{n_gens}")
    return word


class AlgebraElement:
    """Finite linear combination of monomials s_I s_J^* (no zero terms stored)."""

    # _matrix: memo (a _Matrix) of the kernel's exact matrix at the first
    # level asked of it, written once; _shape_set: memo of _shapes.
    # Constructors leave both unset (read them with getattr(..., None)), so
    # building an element costs no more for them.
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
        return sorted(self._terms.items(), key=_term_order)

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
            out = _dense_add(self, other)
            if out is not None:
                return out
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
        are left untouched.  One scan of the keys finds whether any term is
        off its target; when none is, the element is returned as it is
        (elements are immutable, so sharing the term dict is safe).  A
        target below a term's right length raises LevelError."""
        terms = self._terms
        for left, right in terms:
            r = len(right)
            if targets.get(len(left) - r, r) != r:
                break
        else:
            return self
        out: Dict[Monomial, GaussianRational] = {}
        for mono, c in terms.items():
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
        m = _dense_mul_level(self, other)
        if m is not None:
            return _dense_eq(self, other, m)
        targets = self._common_targets(other)
        return self.level(targets)._terms == other.level(targets)._terms

    __hash__ = None  # semantic equality is not hash-compatible

    # -- canonical display form --------------------------------------------

    def canonical(self) -> "AlgebraElement":
        """Level per gauge degree, then contract each complete sibling group
        sum_i c s_{Ii} s_{Ji}^* with equal coefficients back to c s_I s_J^*.
        Leveled, the terms of one degree share one right length, so a term
        lies in at most one group and a contracted term never meets a term
        already there; each round rescans only the terms it merged.
        One scan of the keys finds each degree's longest right word; the
        contraction works on a copy only when `level` hands back the
        element's own terms.  Idempotent and equality-preserving; used for
        display."""
        terms = self._terms
        targets: Dict[int, int] = {}
        for left, right in terms:
            r = len(right)
            d = len(left) - r
            if targets.get(d, -1) < r:
                targets[d] = r
        cur = self.level(targets)._terms
        if cur is terms:
            cur = dict(terms)
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
        d = p - l
        # one scan of the keys checks the degree and finds the target
        big = l
        for left, right in self._terms:
            r = len(right)
            if len(left) - r != d:
                return False
            if r > big:
                big = r
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
        out = _dense_mul(a, b, m)
        if out is not None:
            return out
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
    """An element made by the dense kernel (a product, sum, adjoint or
    theta image): it holds its exact matrix and builds its terms the first
    time they are read.  (A hook for a missing attribute on AlgebraElement
    itself would slow every attribute read.)"""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only while the _terms slot is unassigned
        if name != "_terms":
            raise AttributeError(f"'AlgebraElement' object has no attribute {name!r}")
        self._terms = _matrix_terms(self.n_gens, self._matrix)
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
    return len(terms) if terms is not None else elem._matrix.nnz


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
# pack(J) N^(m-r) + t.  The kernel is real, and every matrix has one form,
# made by _matrix: int64 numerators over a denominator, the two divided by
# their gcd, so equal values have equal (den, num).  It is kept as a
# _Matrix with the facts routing and the kernel read, its nonzero count and
# its largest |numerator|, each taken once when the matrix is made.  (Only
# _dense stores Python ints, when an exact entry passes int64: norm's
# embedding of an element with huge coefficients asks for such a matrix,
# and no kernel product or sum takes it as an operand.)  Each element keeps
# the first matrix made of it, read-only and never replaced, so an operand
# used twice is densified once: a matrix at level m0 gives the one at
# m > m0 as kron(M, I_(N^(m-m0))), since one leveling step is
# x -> x (x) I_N, made for that call.  A kernel call asks at the highest
# level among its operands, so only an element with terms is asked below
# its memo, and it is densified again from them.  A product, a sum of two
# kernel elements, the adjoint of a kernel element and theta of one are
# kernel elements, as is an element _hold hands to the kernel: each keeps
# its matrix at the level of its terms, and builds those terms from it
# only when they are read; the trace state of one with no terms is its
# normalized matrix trace.
# theta(s_I s_J^*) = sum_i s_{iI} s_{iJ}^* puts M on each diagonal block
# one level up, so theta of a level-m kernel element is kron(I_N, M) at
# level m + 1.
#
# Holding a matrix is the only way into the kernel.  A product or a
# comparison with an operand that holds a matrix and no terms, and theta of
# such an element, stay on the kernel, where the sparse path would first
# build the operand's terms: building those of a held E/F projection word
# took 8, 46 and 730 us at levels 1, 3 and 5, against 13-24 us for a
# kernel product at those levels.  They stay there while no kernel matrix
# has more than _DENSE_ENTRIES_PER_TERM entries per term of the operands it
# is made from, which bounds what any dense call allocates.  Two operands
# with terms take the sparse rule, whatever their sizes, and so does an
# operand with a complex coefficient: the E/F projections the kernel is
# for are real.  A product multiplies in float64 through BLAS, exact while
# every partial sum stays below 2^53 (a 32 x 32 matmul took 3.5-9.5 us
# there against 35-43 us in int64), and a sum adds the numerators over the
# lcm of the denominators while they stay within int64.  A product or sum
# past its bound takes the sparse rule too.

_INT64_MAX = 2 ** 63 - 1
_FLOAT_EXACT = 2 ** 53  # float64 holds every integer below it
_DENSE_ENTRIES_PER_TERM = 4


def _dense_fits(dim: int, size_a: int, size_b: int) -> bool:
    """Whether a dim x dim kernel matrix keeps the storage bound for
    operands of size_a and size_b terms."""
    return dim * dim <= _DENSE_ENTRIES_PER_TERM * (size_a + size_b)


def _dense_mul_level(a: AlgebraElement, b: AlgebraElement) -> Optional[int]:
    """The level at which the kernel multiplies or compares a and b, or
    None for the sparse rule."""
    if not (_unbuilt(a) or _unbuilt(b)) or not (_real(a) and _real(b)):
        return None
    shapes = _shapes(a) | _shapes(b)
    if any(p != l for p, l in shapes):
        return None
    m = max(l for _, l in shapes)
    return m if _dense_fits(a.n_gens ** m, _size(a), _size(b)) else None


class _Matrix(NamedTuple):
    """The exact level-m matrix num / den, read-only, in lowest terms, with
    nnz its number of nonzero entries and top the largest |numerator|."""

    m: int
    num: object
    den: int
    nnz: int
    top: int


def _matrix(m: int, num, den: int, nnz: Optional[int] = None) -> _Matrix:
    """The _Matrix of num / den at level m in the kernel's one form: num
    and den divided by their gcd, num in int64 unless an entry passes it,
    its facts read once (nnz given when the caller has counted it)."""
    import numpy as np

    if nnz is None:
        nnz = int(np.count_nonzero(num))
    g = gcd(den, int(np.gcd.reduce(num.ravel())))
    if g != 1:
        num, den = num // g, den // g
    top = int(abs(num).max())
    if top <= _INT64_MAX:
        num = num.astype(np.int64, copy=False)
    num.flags.writeable = False
    return _Matrix(m, num, den, nnz, top)


def _dense(elem: AlgebraElement, m: int) -> _Matrix:
    """The _Matrix of a real pure degree-0 element leveled to m, made from
    its terms over the lcm of the coefficients' denominators."""
    import numpy as np

    n, dim = elem.n_gens, elem.n_gens ** m
    den = lcm(*{c._d for c in elem._terms.values()})
    codes: Dict[Word, int] = {}  # pack_word of every word up to length m
    for r in range(m + 1):
        codes.update(zip(words(n, r), range(n ** r)))
    nums: Dict[int, int] = {}  # flat index -> numerator
    for (left, right), c in elem._terms.items():
        a = c._a * (den // c._d)
        # the diagonal of the term's block; blocks of terms of different
        # lengths may overlap
        block = n ** (m - len(left))
        start = (codes[left] * dim + codes[right]) * block
        for idx in range(start, start + block * (dim + 1), dim + 1):
            nums[idx] = nums.get(idx, 0) + a
    # the exact entries choose the dtype: object only when one passes int64
    top = max(map(abs, nums.values()), default=0)
    num = np.zeros(dim * dim, np.int64 if top <= _INT64_MAX else object)
    num[list(nums)] = list(nums.values())
    return _matrix(m, num.reshape(dim, dim), den)


def _degree0_matrix(elem: AlgebraElement, m: int, keep: bool = True) -> _Matrix:
    """The _Matrix of a real pure degree-0 element at level m >= its
    longest word, exact and in lowest terms.  The first matrix made of an
    element is its memo, stored here unless `keep` is false; a higher
    level is read off the memo, a lower one off the terms."""
    memo = getattr(elem, "_matrix", None)
    if memo is None:
        memo = _dense(elem, m)
        if keep:
            elem._matrix = memo
    if memo.m == m:
        return memo
    if memo.m < m:
        return _kron_identity(memo, m, elem.n_gens ** (m - memo.m), inner=True)
    return _dense(elem, m)


def _kron_identity(mat: _Matrix, m: int, k: int, inner: bool) -> _Matrix:
    """mat at level m, k-fold bigger: kron(M, I_k) when `inner`, as
    leveling makes it, else kron(I_k, M), as theta makes it; in M's dtype,
    as np.kron without its overhead.  Lowest terms carry over."""
    import numpy as np

    d, t = len(mat.num), np.arange(k)
    big = np.zeros((d, k, d, k) if inner else (k, d, k, d), mat.num.dtype)
    if inner:
        big[:, t, :, t] = mat.num  # entry (i k + t, j k + t) is M[i, j]
    else:
        big[t, :, t, :] = mat.num  # entry (t d + i, t d + j) is M[i, j]
    num = big.reshape(d * k, d * k)
    num.flags.writeable = False
    return _Matrix(m, num, mat.den, mat.nnz * k, mat.top)


def _dense_eq(a: AlgebraElement, b: AlgebraElement, m: int) -> bool:
    import numpy as np

    x, y = _degree0_matrix(a, m), _degree0_matrix(b, m)
    return x.den == y.den and bool(np.array_equal(x.num, y.num))


def _dense_mul(a: AlgebraElement, b: AlgebraElement, m: int) -> Optional[AlgebraElement]:
    """a b at level m in float64, or None when an entry's partial sums
    could reach 2^53 and mul takes the sparse rule."""
    import numpy as np

    n = a.n_gens
    x, y = _degree0_matrix(a, m, keep=False), _degree0_matrix(b, m, keep=False)
    # each entry of the product is a sum of N^m products of entries; a
    # refused product leaves its operands without a memo
    if x.top * y.top * n ** m >= _FLOAT_EXACT:
        return None
    for elem, mat in ((a, x), (b, y)):
        if getattr(elem, "_matrix", None) is None:
            elem._matrix = mat
    num = (x.num.astype(float) @ y.num.astype(float)).astype(np.int64)
    return _lowest_terms(n, m, num, x.den * y.den)


def _dense_add(a: AlgebraElement, b: AlgebraElement) -> Optional[AlgebraElement]:
    """a + b for two kernel elements without terms, at the higher of their
    levels, or None when the numerators could pass int64 and the sum
    takes the term path."""
    m = max(l for _, l in _shapes(a) | _shapes(b))
    x, y = _degree0_matrix(a, m), _degree0_matrix(b, m)
    # x / den_a + y / den_b = (x (den_b / g) + y (den_a / g)) / lcm
    g = gcd(x.den, y.den)
    fx, fy = y.den // g, x.den // g
    # max(top, 1): a zero matrix's factor must fit in int64 too
    if max(x.top, 1) * fx + max(y.top, 1) * fy > _INT64_MAX:
        return None
    p = x.num if fx == 1 else x.num * fx
    q = y.num if fy == 1 else y.num * fy
    return _lowest_terms(a.n_gens, m, p + q, x.den * fx)


def _dense_adjoint(elem: AlgebraElement) -> AlgebraElement:
    """The adjoint of an element with no terms: the transpose."""
    mat = elem._matrix
    return _held_element(elem.n_gens, mat._replace(num=mat.num.T))


def _dense_trace(elem: AlgebraElement) -> GaussianRational:
    """The trace state of an element with no terms: tr / (den N^m)."""
    mat = elem._matrix
    return _reduce(sum(mat.num.diagonal().tolist()), 0, mat.den * elem.n_gens ** mat.m)


def _held_theta(elem: AlgebraElement) -> Optional[AlgebraElement]:
    """theta(elem) as the kernel element kron(I_N, M) at level m + 1, for
    a level-m kernel element with no terms whose image fits the storage
    bound (theta has N terms per term of elem); None otherwise, and theta
    rewrites the words."""
    if not _unbuilt(elem):
        return None
    n, mat = elem.n_gens, elem._matrix
    if not _dense_fits(n ** (mat.m + 1), n * mat.nnz, 0):
        return None
    return _held_element(n, _kron_identity(mat, mat.m + 1, n, inner=False))


def _hold(elem: AlgebraElement) -> AlgebraElement:
    """elem as a kernel element that holds its matrix at the level of its
    longest words and builds its terms only when read, when it is real and
    pure degree 0 and that matrix fits the storage bound; otherwise elem."""
    shapes = _shapes(elem)
    if (_unbuilt(elem) or not shapes or any(p != l for p, l in shapes)
            or not _real(elem)):
        return elem
    m = max(l for _, l in shapes)
    if not m or not _dense_fits(elem.n_gens ** m, _size(elem), 0):
        return elem
    return _held_element(elem.n_gens, _degree0_matrix(elem, m))


def _lowest_terms(n: int, m: int, num, den: int) -> AlgebraElement:
    """The element of the level-m matrix num / den: the empty element when
    num is zero, else a kernel element of its _matrix."""
    import numpy as np

    nnz = int(np.count_nonzero(num))
    if not nnz:
        return _wrap(n, {})
    return _held_element(n, _matrix(m, num, den, nnz))


def _held_element(n: int, mat: _Matrix) -> AlgebraElement:
    """An element that holds the matrix `mat` and builds its terms when
    they are read."""
    out = object.__new__(_KernelElement)
    out.n_gens = n
    out._matrix = mat
    out._shape_set = {(mat.m, mat.m)}
    return out


def _unbuilt(elem: AlgebraElement) -> bool:
    """Whether elem is a kernel element that has not built its terms: the
    only way into the kernel.  Its products and comparisons go dense within
    the storage bound, and its sums with another such element, its
    adjoint, its trace state and its theta image read its matrix in place
    of terms."""
    return _built_terms(elem) is None


def _real(elem: AlgebraElement) -> bool:
    """Whether every coefficient of elem is real: an element that holds a
    matrix is real by construction, as only real elements are densified."""
    return (getattr(elem, "_matrix", None) is not None
            or not any(c._b for c in elem._terms.values()))


def _matrix_terms(n: int, mat: _Matrix) -> Dict[Monomial, GaussianRational]:
    """The term dict of a level-m matrix: s_I s_J^* with |I| = |J| = m for
    each nonzero entry.  Equal entries share one scalar."""
    import numpy as np

    flat = np.flatnonzero(mat.num)
    ws = list(words(n, mat.m))
    dim = len(ws)
    shared: Dict[int, GaussianRational] = {}
    out: Dict[Monomial, GaussianRational] = {}
    for idx, x in zip(flat.tolist(), mat.num.ravel()[flat].tolist()):
        c = shared.get(x)
        if c is None:
            c = shared[x] = _reduce(x, 0, mat.den)
        row, col = divmod(idx, dim)
        out[Monomial(ws[row], ws[col])] = c
    return out
