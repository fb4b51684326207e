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
from typing import Optional, Tuple

from .algebra import AlgebraElement, Monomial, _hold, words
from .dynamics import DEFAULT_BUDGET, CantorDynamics
from .endomorphism import EndomorphismSpec, Permutation, theta
from .errors import CylinderError, MasaNotInvariantError
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


def ef_projection(word: EFWord, n_gens: int = 2) -> AlgebraElement:
    """P_q = q_1 theta(q_2) ... theta^{m-1}(q_m) for q over {1=E, 2=F},
    folded from the right as P_q = q_1 theta(P_{q_2 ... q_m}), theta being
    a homomorphism: m - 1 theta calls and m - 1 products.  E and F enter
    as kernel elements that hold their level-1 matrices where those fit
    the kernel's storage bound, so for N = 2 the whole chain stays on the
    kernel."""
    for letter in word:
        if letter not in (1, 2):
            raise ValueError(f"E/F letter {letter!r} is not 1 (E) or 2 (F)")
    if not word:
        return AlgebraElement.one(n_gens)
    e, f = (_hold(q) for q in ef_generators(n_gens))
    out = e if word[-1] == 1 else f
    for letter in reversed(word[:-1]):
        out = (e if letter == 1 else f) * theta(out)
    return out


def _conjugate_unitary(endo: EndomorphismSpec) -> AlgebraElement:
    """u' with rho_{u'} = lambda_V^{-1} rho lambda_V.  By Cuntz's rule
    rho_a rho_b = rho_{rho_a(b) a}, rho lambda_V = rho_{rho(w) u} and
    u' = lambda_{V^*}(rho(w) u) w^*; for u in F_{k,k} so is u'."""
    w = AlgebraElement(2, {Monomial((a + 1,), (b + 1,)): V[a][b]
                           for a in range(2) for b in range(2)})
    inverse = EndomorphismSpec(w.adjoint(), rank=1)  # lambda_{V^*}
    return inverse.apply(endo.apply(w) * endo.u) * w.adjoint()


def _phased_permutation(u: AlgebraElement, k: int) -> Optional[Permutation]:
    """sigma' when u, leveled to rank k, is sum_J c_J s_{sigma'(J)} s_J^*
    with every |c_J| = 1; None for any other u."""
    terms = u.level({0: k}).terms
    if len(terms) != 2 ** k or any(c.abs2() != 1 for c in terms.values()):
        return None
    images = {m.right: m.left for m in terms}
    try:
        return Permutation(k, 2, tuple(images.get(j, ()) for j in words(2, k)))
    except ValueError:
        return None


class ProductMasaDynamics(CantorDynamics):
    """The dynamics induced on C_{E,F} by rho: the standard-masa dynamics
    of the conjugate rho' = rho_{u'}, under rho's label.

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
        u = _conjugate_unitary(endo)
        sigma = _phased_permutation(u, endo.rank)
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
