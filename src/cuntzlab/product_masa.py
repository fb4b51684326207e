"""Dynamics on the product masa C_{E,F}.

With X = s_1 s_2^* + s_2 s_1^*, the projections E = (1+X)/2 and
F = (1-X)/2 generate, together with their shifts theta^n(E), theta^n(F),
a masa of O_2 isomorphic to C(Cantor): the depth-m projections
P_q = q_1 theta(q_2) ... theta^{m-1}(q_m), q in {E,F}^m, are the cylinder
projections (E is identified with the letter 1, F with 2).

C_{E,F} is the standard masa C_2 moved by a Bogolubov automorphism.  For
the unitary V = ((1+i)/2) [[1, 1], [1, -1]], lambda_V(s_i) = sum_a V_ai s_a
is rho_w with w = sum_{a,b} V_ab s_a s_b^*; it commutes with theta (V is
unitary) and sends s_1 s_1^* to E and s_2 s_2^* to F, hence s_q s_q^* to
P_q for every word q.  So rho leaves C_{E,F} invariant exactly when its
conjugate rho' = lambda_V^{-1} rho lambda_V leaves C_2 invariant, and the
two induced Cantor maps are the same map."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .algebra import AlgebraElement, Monomial, _hold, pack_word
from .dynamics import DEFAULT_BUDGET, CantorDynamics
from .endomorphism import EndomorphismSpec, Permutation, theta
from .errors import CylinderError, MasaNotInvariantError, NotUnitaryError
from .scalars import GaussianRational

EFWord = Tuple[int, ...]  # letters 1 (=E) and 2 (=F)

_C = GaussianRational(Fraction(1, 2), Fraction(1, 2))  # (1+i)/2
V = ((_C, _C), (_C, -_C))  # lambda_V(C_2) = C_{E,F}, E as letter 1


def swap_unitary(n_gens: int = 2) -> AlgebraElement:
    """X = s_1 s_2^* + s_2 s_1^*."""
    return AlgebraElement(n_gens, {Monomial((1,), (2,)): 1,
                                   Monomial((2,), (1,)): 1})


def ef_generators(n_gens: int = 2) -> Tuple[AlgebraElement, AlgebraElement]:
    """E = (1 + X)/2 and F = (1 - X)/2."""
    x, one = swap_unitary(n_gens), AlgebraElement.one(n_gens)
    return (one + x).scaled(Fraction(1, 2)), (one - x).scaled(Fraction(1, 2))


@lru_cache(maxsize=None)
def _ef_memo(n_gens: int) -> Tuple[AlgebraElement, AlgebraElement]:
    """E and F of one alphabet, built once and never handed out: `_hold`
    fills their level-1 matrix memo, read-only, and reuses it for every
    projection word, whose fresh kernel elements wrap it."""
    return ef_generators(n_gens)


def _ef_pair(n_gens: int) -> Tuple[AlgebraElement, AlgebraElement]:
    """Fresh E and F for one projection word: kernel elements over the
    memoized level-1 matrices where the kernel takes them, else newly
    built sparse elements."""
    memo = _ef_memo(n_gens)
    pair = tuple(_hold(q) for q in memo)
    if any(held is q for held, q in zip(pair, memo)):
        return ef_generators(n_gens)
    return pair


def ef_projection(word: EFWord, n_gens: int = 2) -> AlgebraElement:
    """P_q = q_1 theta(q_2) ... theta^{m-1}(q_m) for q over {1=E, 2=F},
    folded from the right as P_q = q_1 theta(P_{q_2 ... q_m}), theta being
    a homomorphism: m - 1 theta calls and m - 1 products.  E and F enter
    as kernel elements that hold their level-1 matrices where those fit
    the kernel's storage bound, so for N = 2 the whole chain stays on the
    kernel; those matrices are made once per alphabet."""
    for letter in word:
        if letter not in (1, 2):
            raise ValueError(f"E/F letter {letter!r} is not 1 (E) or 2 (F)")
    if not word:
        return AlgebraElement.one(n_gens)
    e, f = _ef_pair(n_gens)
    out = e if word[-1] == 1 else f
    for letter in reversed(word[:-1]):
        out = (e if letter == 1 else f) * theta(out)
    return out


def _is_walsh() -> bool:
    """Whether V, read at call time, is c [[1, 1], [1, -1]] with
    2 |c|^2 = 1, which makes V unitary."""
    (a, b), (c, d) = V
    return a == b == c and d == -a and 2 * a.abs2() == 1


def _dual_permutation(linear: Tuple[int, ...], k: int) -> Permutation:
    """sigma'(x) = A^{-T} x over F_2, A given by its columns as in
    `Permutation.affine_form`: the inverse of the table of A^T, which is
    built on all 2^k codes, each from the one with its lowest set bit
    cleared.  Row j of A (bit j of every column) is A^T e_j."""
    rows = [sum((col >> j & 1) << i for i, col in enumerate(linear))
            for j in range(k)]
    size = 1 << k
    transpose, codes = [0] * size, [0] * size
    for z in range(1, size):
        low = z & -z
        transpose[z] = transpose[z ^ low] ^ rows[low.bit_length() - 1]
    for z, x in enumerate(transpose):
        codes[x] = z  # A^T z = x, so sigma'(x) = z
    return Permutation(k, 2, codes)


def _conjugate_unitary(endo: EndomorphismSpec) -> AlgebraElement:
    """u' with rho_{u'} = lambda_V^{-1} rho lambda_V.  By Cuntz's rule
    rho_a rho_b = rho_{rho_a(b) a}, rho lambda_V = rho_{rho(w) u} with
    w = sum_{a,b} V_ab s_a s_b^*, and u' = lambda_{V^*}(rho(w) u) w^*.  As
    rho(w) u = u w and lambda_{V^*}(w) = w^* w w = w, that is
    u' = lambda_{V^*}(u), and lambda_{V^*} is rho_{w^*}.  w w^* is
    sum_{a,c} (V V^*)_{ac} s_a s_c^*, so w is unitary exactly when the
    scalar matrix V, read at call time, is."""
    n = len(V)
    w = AlgebraElement(n, {Monomial((a + 1,), (b + 1,)): V[a][b]
                           for a in range(n) for b in range(n)})
    if w * w.adjoint() != AlgebraElement.one(n):
        raise NotUnitaryError("the Bogolubov matrix V is not unitary")
    return EndomorphismSpec(w.adjoint(), rank=1, check=False).apply(endo.u)


def _phased_permutation(u: AlgebraElement, k: int) -> Optional[Permutation]:
    """sigma' when u, leveled to rank k, is sum_J c_J s_{sigma'(J)} s_J^*
    with every |c_J| = 1; None for any other u."""
    terms = u.level({0: k}).terms
    if len(terms) != 2 ** k or any(c.abs2() != 1 for c in terms.values()):
        return None
    codes = {pack_word(right, 2): pack_word(left, 2) for left, right in terms
             if len(left) == len(right) == k}
    try:
        return Permutation(k, 2, [codes.get(j, -1) for j in range(2 ** k)])
    except ValueError:
        return None


class ProductMasaDynamics(CantorDynamics):
    """The dynamics induced on C_{E,F} by rho: the standard-masa dynamics
    of the conjugate rho' = rho_{u'}, under rho's label.

    For N = 2, u' is a phased permutation exactly when sigma is affine,
    sigma(x) = A x + b over F_2, and then sigma' = A^{-T} (Dehaene and
    De Moor, Phys. Rev. A 2003).  So when V, read at call time, is a unit
    multiple of the Walsh matrix [[1, 1], [1, -1]] and sigma is affine,
    sigma' is read off sigma's codes and u' is never built.  Any other V,
    sigma or u computes u' = lambda_{V^*}(u) (`_conjugate_unitary`).

    When u' is a phased permutation sum_J c_J s_{sigma'(J)} s_J^*, so is
    every cocycle u'_m = u' theta(u') ... theta^{m-1}(u'), with the
    permutation of sigma'.  Conjugating a cylinder projection by a phased
    permutation gives the same projection as conjugating it by the bare
    permutation, so rho' and rho_{sigma'} induce the same map, C_{E,F} is
    invariant and the tables are those of sigma' on the word path.  Any
    other u' takes the generic path: depths 1..k are built here, and a
    cylinder whose image is not a 0/1 sum is reported as an E/F word."""

    def __init__(self, endo: EndomorphismSpec, budget: int = DEFAULT_BUDGET):
        if endo.n_gens != 2:
            raise MasaNotInvariantError("the E/F masa is defined for N = 2")
        # a non-unitary V raises before sigma is read
        form = (endo.perm.affine_form()
                if _is_walsh() and endo.perm is not None
                and endo.rank == endo.perm.k else None)
        if form is None:
            u = _conjugate_unitary(endo)
            sigma = _phased_permutation(u, endo.rank)
        else:
            sigma = _dual_permutation(form[0], endo.rank)
        super().__init__(
            EndomorphismSpec(u, rank=endo.rank, check=False) if sigma is None
            else EndomorphismSpec.from_permutation(sigma), budget)
        self.rho = endo
        if sigma is None:
            for p in range(1, endo.rank + 1):
                try:
                    self.block_map(p)
                except CylinderError as exc:
                    cylinder = "".join("EF"[c - 1] for c in exc.word)
                    raise MasaNotInvariantError(
                        f"{endo.label()} does not leave C_{{E,F}} invariant: "
                        f"witness E/F cylinder {cylinder} ({exc})") from exc

    def label(self) -> str:
        return self.rho.label()

    def masa_name(self) -> str:
        return "EF"
