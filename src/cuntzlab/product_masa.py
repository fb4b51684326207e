"""Dynamics on the product masa C_{E,F}.

With X = s_1 s_2^* + s_2 s_1^*, the projections E = (1+X)/2 and
F = (1-X)/2 generate, together with their shifts theta^n(E), theta^n(F),
a masa of O_2 isomorphic to C(Cantor): the depth-m projections
P_q = q_1 theta(q_2) ... theta^{m-1}(q_m), q in {E,F}^m, are the cylinder
projections (E is identified with the letter 1, F with 2).

An endomorphism leaves C_{E,F} invariant when the images of E and F are
exact 0/1 sums of depth-k projection words and the shift-commutation
identity psi(theta^n(E)) = theta^n(psi(E)) holds for every n (checked for
n < k, which implies the rest); the induced map is then the sliding block
code whose local rule reads off which depth-k words appear in psi(E)."""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

import numpy as np

from .algebra import AlgebraElement, Monomial
from .endomorphism import EndomorphismSpec, theta, theta_power
from .errors import MasaNotInvariantError
from .dynamics import JoinDynamics, BlockMapTable, DEFAULT_BUDGET, pack_word
from .scalars import GaussianRational

EFWord = Tuple[int, ...]  # letters 1 (=E) and 2 (=F)


def swap_unitary(n_gens: int = 2) -> AlgebraElement:
    """X = s_1 s_2^* + s_2 s_1^*."""
    return AlgebraElement(n_gens, {Monomial((1,), (2,)): 1,
                                   Monomial((2,), (1,)): 1})


def ef_generators(n_gens: int = 2) -> Tuple[AlgebraElement, AlgebraElement]:
    """E = (1 + X)/2 and F = (1 - X)/2."""
    from fractions import Fraction

    x = swap_unitary(n_gens)
    half = Fraction(1, 2)
    one = AlgebraElement.one(n_gens)
    return (one + x).scaled(half), (one - x).scaled(half)


def ef_projection(word: EFWord, n_gens: int = 2) -> AlgebraElement:
    """P_q = q_1 theta(q_2) ... theta^{m-1}(q_m) for q over {1=E, 2=F}."""
    e, f = ef_generators(n_gens)
    out = AlgebraElement.one(n_gens)
    for pos, letter in enumerate(word):
        q = e if letter == 1 else f
        out = out * theta_power(pos, q)
    return out


class ProductMasaDynamics(JoinDynamics):
    """Sliding-block dynamics induced on C_{E,F} by an endomorphism.

    Construction verifies membership of psi(E), psi(F) in the depth-k
    projection-word span (exact coefficient extraction against the trace,
    then exact re-expression) and proves the shift-commutation identity
    from exact checks at n = 1..k-1; deeper tables extend the verified
    local rule structurally."""

    def __init__(self, endo: EndomorphismSpec, budget: int = DEFAULT_BUDGET):
        if endo.n_gens != 2:
            raise MasaNotInvariantError("the E/F masa is defined for N = 2")
        super().__init__(2, max(endo.rank - 1, 0), budget)
        self.endo = endo
        self.rule: Dict[EFWord, int] = {}
        self._extract_rule()
        self._verify_shift_commutation()

    def label(self) -> str:
        return self.endo.label()

    def masa_name(self) -> str:
        return "EF"

    # -- invariance and local rule -----------------------------------------

    def _expand(self, img: AlgebraElement, source: str) -> List[EFWord]:
        """Write `img` as an exact 0/1 combination of depth-k projection
        words; raise MasaNotInvariantError if impossible."""
        k = self.endo.rank
        support: List[EFWord] = []
        total = AlgebraElement.zero(2)
        for q in itertools.product((1, 2), repeat=k):
            p_q = ef_projection(q)
            weight = (img * p_q).trace_state()
            share = p_q.trace_state()
            coeff = weight / share
            if not coeff:
                continue
            if coeff != GaussianRational.of(1):
                raise MasaNotInvariantError(
                    f"psi({source}) has non-0/1 weight {coeff} on P_{q}")
            support.append(q)
            total = total + p_q
        if not total == img:
            raise MasaNotInvariantError(
                f"psi({source}) is not a sum of depth-{k} E/F projection words")
        return support

    def _extract_rule(self) -> None:
        e, f = ef_generators(2)
        support_e = self._expand(self.endo.apply(e), "E")
        support_f = self._expand(self.endo.apply(f), "F")
        if sorted(support_e + support_f) != sorted(
                itertools.product((1, 2), repeat=self.endo.rank)):
            raise MasaNotInvariantError(
                "images of E and F do not partition the depth-k cylinders")
        for q in support_e:
            self.rule[q] = 1
        for q in support_f:
            self.rule[q] = 2

    def _verify_shift_commutation(self) -> None:
        """Prove psi(theta^n(x)) = theta^n(psi(x)) for x = E, F and every
        n >= 1 by checking it exactly for n = 1..k-1.

        psi = rho_u sends s_i to u s_i, so psi(theta(y)) = u theta(psi(y)) u^*.
        If the identity holds at n - 1, then psi(theta^n(x)) =
        u theta^n(psi(x)) u^*.  The unitary u lies in span{s_I s_J^* :
        |I| = |J| = k}, the first k tensor factors of the core M_{N^infinity};
        psi(x) has degree 0, so theta^n(psi(x)) lies in the factors past n.
        For n >= k the two commute, so the identity at n - 1 gives it at n,
        and the checks at n < k cover every n.  The hypothesis on u is
        checked first: u.in_F(k, k), which also makes u degree 0."""
        k = self.endo.rank
        if not self.endo.u.in_F(k, k):
            raise MasaNotInvariantError(
                f"u is not in F_({k},{k}), so shift commutation is not "
                f"implied by the checks below depth {k}")
        for gen in ef_generators(2):
            shifted, img = gen, self.endo.apply(gen)
            for _ in range(k - 1):
                shifted, img = theta(shifted), theta(img)
                if not self.endo.apply(shifted) == img:
                    raise MasaNotInvariantError(
                        "shift-commutation identity fails on C_{E,F}")

    # -- tables -------------------------------------------------------------

    def _build_table(self, p: int) -> BlockMapTable:
        """Pure sliding code: output letter j is rule[w_j .. w_{j+k-1}], so
        a depth-p window emits rule(w_1 .. w_k) and continues on w_2 ...,
        the depth-(p-1) window."""
        k = self.endo.rank
        rule_arr = np.zeros(2 ** k, dtype=np.int64)
        for q, letter in self.rule.items():
            rule_arr[pack_word(q, 2)] = letter - 1
        return self._prepend_letter(p, rule_arr,
                                    np.arange(2 ** k) % 2 ** self.step)
